"""Monotone chains of catalog forms and completeness experiments.

Five parametric chains ship with the package ("kato", "shifted",
"complement", "diag", "bounded").  Each declares a direction, a default
order, a closed-form term map and a parameter-limit form.  The lab
verifies monotonicity step by step, tabulates pointwise convergence at
the powers of two up to the run's ``n_max``, and decides meets/joins over a declared finite candidate set: a positive
verdict is a verified extremal bound, a negative one is an obstruction
pair of mutually incomparable maximal bounds.  Non-existence is never
claimed universally, only over the scanned candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import families, forms, hilbert
from .errors import (
    MonotonicityViolation,
    NoDeclaredLimit,
    NotClosedChain,
    NotDominated,
    NotInFamily,
    VerificationFailed,
)
from .families import preceq
from .forms import (
    FINITE_SUPPORT,
    FormSpec,
    describe,
    diag_form,
    endpoint_form,
    energy_form,
    energy_with_endpoints,
    form_scale,
    form_to_dict,
    zero_form,
)
from .hilbert import DEFAULT_LEVELS, GRID, SEQUENCE

# order id -> the family whose derived order it is; None is the pointwise order
ORDERS = {"oplus": "vf", "prec": None, "cf": "cf", "rf": "rf", "bar": "vf-bar"}

DEFAULT_N_MAX = 32
# the pointwise table builds dense matrices at every level it is given, and the
# diag chain eigensolves at the last: at most this many coordinates over all of
# them (the default grid levels have 263)
MAX_LEVEL_DIMS = 1024
_RANDOM_SAMPLES = 20


def order_predicate(order: str) -> Callable[[FormSpec, FormSpec], bool]:
    """Resolve an order id to its two-argument predicate."""
    if order not in ORDERS:
        raise ValueError(f"unknown order id {order!r}")
    family = ORDERS[order]
    return preceq if family is None else families.family_ops(family)[1]


# ------------------------------------------------------------------ chains


@dataclass(frozen=True)
class FormChain:
    """Parametric monotone chain with a declared limit and default order."""

    chain_id: str
    model: str
    direction: str  # "ascending" | "descending"
    order: str
    limit: FormSpec | None
    term_fn: Callable[[int], FormSpec] = field(compare=False)
    dominators: tuple[FormSpec, ...] = ()

    def term(self, n: int) -> FormSpec:
        if n < 1:
            raise ValueError("chain index starts at 1")
        return self.term_fn(n)

    def terms(self, n_max: int) -> list[FormSpec]:
        return [self.term(n) for n in range(1, n_max + 1)]


def vanishing_energy_chain() -> FormChain:
    """Grid energy with coefficient 1/n plus both endpoint terms; descends
    in the closed-family order to the pure endpoint form."""
    return FormChain(
        chain_id="kato",
        model=GRID,
        direction="descending",
        order="cf",
        limit=endpoint_form(1, 1),
        term_fn=lambda n: energy_with_endpoints(Fraction(1, n), 1, 1),
    )


def surplus_energy_chain() -> FormChain:
    """Grid energy with coefficient 1 + 1/n plus endpoint terms; descends
    to energy-with-endpoints at coefficient 1."""
    return FormChain(
        chain_id="shifted",
        model=GRID,
        direction="descending",
        order="oplus",
        limit=energy_with_endpoints(1, 1, 1),
        term_fn=lambda n: energy_with_endpoints(1 + Fraction(1, n), 1, 1),
    )


def filling_energy_chain() -> FormChain:
    """Grid energy with coefficient 1 - 1/n (zero form at n = 1); ascends
    to the unit energy form, dominated by it and by its endpoint extension."""
    return FormChain(
        chain_id="complement",
        model=GRID,
        direction="ascending",
        order="oplus",
        limit=energy_form(1),
        term_fn=lambda n: energy_form(1 - Fraction(1, n)),
        dominators=(energy_form(1), energy_with_endpoints(1, 1, 1)),
    )


def truncated_diag_chain() -> FormChain:
    """Bounded truncations of the unbounded diagonal (values j up to the
    cut, then zero) on the full space; ascends under the plain-sum order
    with two incomparable dominators."""
    return FormChain(
        chain_id="diag",
        model=SEQUENCE,
        direction="ascending",
        order="oplus",
        limit=diag_form("j"),
        term_fn=lambda n: diag_form("j", cut=n),
        dominators=(diag_form("j"), diag_form("j", domain=FINITE_SUPPORT)),
    )


def shrinking_bounded_chain() -> FormChain:
    """Bounded diagonal scaled by 1 + 1/n; descends inside the bounded
    family to the unscaled diagonal."""
    return FormChain(
        chain_id="bounded",
        model=SEQUENCE,
        direction="descending",
        order="oplus",
        limit=diag_form("1/j"),
        term_fn=lambda n: diag_form("1/j", coeff=1 + Fraction(1, n)),
    )


_CHAIN_BUILDERS = {
    "kato": vanishing_energy_chain,
    "shifted": surplus_energy_chain,
    "complement": filling_energy_chain,
    "diag": truncated_diag_chain,
    "bounded": shrinking_bounded_chain,
}
CHAIN_IDS = tuple(_CHAIN_BUILDERS)


def chain_by_name(name: str) -> FormChain:
    try:
        return _CHAIN_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown chain {name!r}") from None


# ------------------------------------------------------------ monotonicity


def _check_steps(terms: list[FormSpec], below) -> None:
    """The one step check: each term lies ``below`` its predecessor.

    Raises MonotonicityViolation with the 1-based index of the first
    failing step.
    """
    for n in range(1, len(terms)):
        if not below(terms[n], terms[n - 1]):
            raise MonotonicityViolation(n)


def check_monotone(chain: FormChain, n_max: int = DEFAULT_N_MAX, order: str | None = None) -> dict:
    """Verify the chain's direction in ``order`` between all consecutive terms.

    Raises MonotonicityViolation with the failing index; on success
    returns ``monotone_report``.  A chain run with a bound search does
    not call it: the search's own step check is the same one.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2 to compare consecutive terms")
    if chain.direction not in ("ascending", "descending"):
        raise ValueError(f"unknown direction {chain.direction!r}")
    order = order or chain.order
    pred = order_predicate(order)
    below = pred if chain.direction == "descending" else lambda x, y: pred(y, x)
    _check_steps(chain.terms(n_max), below)
    return monotone_report(chain, order, n_max)


def monotone_report(chain: FormChain, order: str, n_max: int) -> dict:
    """What a passed step check of the first ``n_max`` terms in ``order`` verified."""
    return {
        "chain": chain.chain_id,
        "order": order,
        "direction": chain.direction,
        "steps_checked": n_max - 1,
        "ok": True,
    }


# --------------------------------------------------------- pointwise limits


def _limit_samples(model: str, level: int, seed: int) -> list[tuple[str, np.ndarray]]:
    if model == GRID:
        named = list(hilbert.smooth_grid_samples(level))
    else:
        dim = hilbert.dim_of(model, level)
        geo = (0.5 ** np.arange(dim)).astype(complex)
        e1 = np.zeros(dim, dtype=complex)
        e1[0] = 1.0
        e2 = np.zeros(dim, dtype=complex)
        e2[min(1, dim - 1)] = 1.0
        named = [("e1", e1), ("e2", e2), ("geometric", geo)]
    sampler = hilbert.VectorSampler(model, level, seed)
    named.extend((f"random{k}", sampler.draw()) for k in range(_RANDOM_SAMPLES))
    return named


def pointwise_limit(chain: FormChain, levels=None, seed: int = 0, n_max: int = DEFAULT_N_MAX) -> dict:
    """Declared-limit convergence table over sampled vectors.

    For every level the table records the largest |t_n(u,u) - t(u,u)|
    over the samples at the powers of two n = 1, 2, 4, ... up to
    ``n_max``.  The table does not depend on monotonicity and checks
    none: the chain run's search or ``check_monotone`` does.  The "kato" chain additionally gets an
    exact-identity check: the gap at u equals (1/n) times the
    first-difference energy of u, to 1e-9 relative.  The "diag" chain
    gets the operator gap |T_n x - T x| on the geometric vector, which
    must decrease to 0 across the reported n.
    """
    if chain.limit is None:
        raise NoDeclaredLimit(f"chain {chain.chain_id!r} declares no limit form")
    levels = tuple(levels) if levels is not None else DEFAULT_LEVELS[chain.model]
    lim = chain.limit
    steps = [2**k for k in range(n_max.bit_length())]
    rows = []
    identity_max = 0.0
    drawn = 0
    for level in levels:
        samples = _limit_samples(chain.model, level, seed)
        drawn = len(samples)
        lim_vals = {name: forms.quadratic(lim, u) for name, u in samples}
        for n in steps:
            t_n = chain.term(n)
            gap = 0.0
            for name, u in samples:
                val = forms.quadratic(t_n, u)
                gap = max(gap, abs(val - lim_vals[name]))
                if chain.chain_id == "kato":
                    energy = hilbert.dirichlet_energy(u)
                    dev = abs((val - lim_vals[name]) - energy / n)
                    rel = dev / max(1.0, abs(val), energy)
                    identity_max = max(identity_max, rel)
                    if rel > 1e-9:
                        raise VerificationFailed(
                            f"energy-gap identity off by {rel} at level {level}, n={n}"
                        )
            rows.append({"level": level, "n": n, "max_gap": gap})
    report = {
        "chain": chain.chain_id,
        "limit": form_to_dict(lim),
        "levels": list(levels),
        "n_values": steps,
        "table": rows,
        "samples_per_level": drawn,
        "seed": seed,
    }
    if chain.chain_id == "kato":
        report["identity_max_rel_dev"] = identity_max
        report["identity_ok"] = True
    if chain.chain_id == "diag":
        report["operator_gaps"] = _diag_operator_gaps(chain, levels[-1], steps)
    return report


def _diag_operator_gaps(chain: FormChain, level: int, steps: list[int]) -> list[dict]:
    dim = hilbert.dim_of(chain.model, level)
    x = (0.5 ** np.arange(dim)).astype(complex)
    # only the operators' images of x are kept: at a large level each operator is a large dense matrix
    lim_x = forms.associated_operator(chain.limit, level) @ x
    gaps = []
    for n in steps:
        gap = np.linalg.norm(forms.riesz_operator_of_bounded(chain.term(n), level) @ x - lim_x)
        gaps.append({"n": n, "gap": float(gap)})
    for prev, cur in zip(gaps, gaps[1:]):
        if cur["gap"] > prev["gap"] + 1e-12:
            raise VerificationFailed("operator gaps failed to decrease")
    return gaps


# ------------------------------------------------------- meets and joins


@dataclass(frozen=True)
class ChainReport:
    """Outcome of a meet/join experiment on one chain in one family order."""

    chain_id: str
    family: str
    direction: str
    n_max: int
    found: FormSpec | None
    witnesses: tuple[FormSpec, ...] = ()
    evidence: dict = field(default_factory=dict)
    candidates: tuple[str, ...] = ()
    bounds: tuple[FormSpec, ...] = ()  # candidate bounds of every term, declared limit first

    @property
    def ok(self) -> bool:
        return self.found is not None

    def to_dict(self) -> dict:
        out = {
            "chain": self.chain_id,
            "family": self.family,
            "direction": self.direction,
            "n_max": self.n_max,
            "verdict": "found" if self.ok else "obstruction",
            "candidates": list(self.candidates),
            "evidence": self.evidence,
        }
        if self.ok:
            out["element"] = form_to_dict(self.found)
        else:
            out["witnesses"] = [form_to_dict(w) for w in self.witnesses]
        return out


def _candidate_palette(chain: FormChain, extra=()) -> list[FormSpec]:
    """Deterministic candidate set: zero, the declared limit, dominators,
    the named energy/endpoint trio on the grid, and half/double variants."""
    base: list[FormSpec] = [zero_form(chain.model)]
    if chain.limit is not None:
        base.append(chain.limit)
    base.extend(chain.dominators)
    if chain.model == GRID:
        base.extend([energy_form(1), endpoint_form(1, 1), energy_with_endpoints(1, 1, 1)])
    else:
        base.extend([diag_form("1/j"), diag_form("j")])
    base.extend(extra)
    scaled = []
    for c in base:
        if not c.is_zero:
            scaled.extend([form_scale(c, Fraction(1, 2)), form_scale(c, 2)])
    return list(dict.fromkeys(base + scaled))


# evidence keys per direction: the search name, then the keys of a found
# bound, then those of an obstruction
_BOUND_KEYS = {
    "down": (
        "meet",
        "lower_bound",
        "dominates_candidate_lower_bounds",
        "both_lower_bounds",
        "candidates_dominating_both",
    ),
    "up": (
        "join",
        "upper_bound",
        "below_candidate_upper_bounds",
        "both_upper_bounds",
        "candidates_bounded_by_both",
    ),
}


def _bound_in_family(
    chain, family, direction, candidates, n_max, order=None, dominator=None
) -> ChainReport:
    """Meet ("down") or join ("up") of a monotone chain over candidates.

    ``below`` is the family order for a meet and the reversed one for a
    join; ``order`` replaces the family order (``cf_prec_sup`` runs the
    join in cf under the pointwise order), and a ``dominator`` must then
    lie beyond every term.  Positive verdict: the declared limit (else a
    candidate) is a member, a bound of every term, and on the far side of
    every candidate bound.  Negative verdict: an obstruction pair of
    extremal bounds, incomparable both ways, with no candidate bound
    beyond both.
    """
    name, bound_key, count_key, both_key, blocked_key = _BOUND_KEYS[direction]
    pred = order or families.family_ops(family)[1]
    below = pred if direction == "down" else lambda x, y: pred(y, x)
    terms = chain.terms(n_max)
    for t in terms:
        if not families.in_family(t, family):
            raise NotInFamily(f"chain term {describe(t)} is outside {family}")
    _check_steps(terms, below)
    if dominator is not None:
        for t in terms:
            if not below(dominator, t):
                raise NotDominated(f"{describe(t)} is not below {describe(dominator)}")
    cands = _candidate_palette(chain) if candidates is None else list(candidates)
    names = tuple(describe(c) for c in cands)
    lim = chain.limit
    # the one pass over the candidates, declared limit first: the extremum,
    # when it exists among candidates, is a bound beyond every other one
    bounds = [c for c in cands if all(below(c, t) for t in terms)]
    bounds.sort(key=lambda c: c != lim)
    report = ChainReport(
        chain.chain_id, family, direction, n_max, None, candidates=names, bounds=tuple(bounds)
    )
    for g in bounds:
        if all(below(b, g) for b in bounds):
            evidence = {bound_key: True, "is_declared_limit": g == lim, count_key: len(bounds)}
            return replace(report, found=g, evidence=evidence)
    # extremal bounds: no other candidate bound lies beyond them
    extremal = [b for b in bounds if not any(o != b and below(b, o) for o in bounds)]
    pair = _obstruction_pair(extremal, pred)
    if pair is None:
        raise VerificationFailed(
            f"no {name} and no obstruction pair for {chain.chain_id} in {family}"
        )
    a, b = pair
    blocked = [describe(c) for c in bounds if below(a, c) and below(b, c)]
    evidence = {both_key: True, "a_le_b": pred(a, b), "b_le_a": pred(b, a), blocked_key: blocked}
    return replace(report, witnesses=(a, b), evidence=evidence)


def meet_in_family(
    chain: FormChain, family: str, candidates=None, n_max: int = DEFAULT_N_MAX
) -> ChainReport:
    """Meet of a descending chain in a family order, over candidates."""
    return _bound_in_family(chain, family, "down", candidates, n_max)


def join_in_family(
    chain: FormChain, family: str, candidates=None, n_max: int = DEFAULT_N_MAX
) -> ChainReport:
    """Join of an ascending chain in a family order, over candidates."""
    return _bound_in_family(chain, family, "up", candidates, n_max)


def _obstruction_pair(extremal, pred):
    """First incomparable pair among extremal bounds, in their order (a
    declared limit among them comes first)."""
    for i, a in enumerate(extremal):
        for b in extremal[i + 1 :]:
            if not pred(a, b) and not pred(b, a):
                return a, b
    return None


def join_obstruction_vf(n_max: int = DEFAULT_N_MAX) -> ChainReport:
    """The ascending truncated-diagonal chain admits two upper bounds in
    the plain-sum order, the full-domain diagonal and its finite-support
    restriction, which are incomparable both ways; no candidate sits
    below both, so no least upper bound exists among candidates.  The
    pointwise order still relates the two dominators one way."""
    chain = truncated_diag_chain()
    report = join_in_family(chain, "vf", n_max=n_max)
    if report.found is not None:
        raise VerificationFailed("truncated-diagonal chain unexpectedly has a join")
    d_max, d_fin = chain.dominators
    evidence = dict(report.evidence)
    # the dominators are palette candidates, and the search kept every
    # candidate that bounds all terms
    evidence["each_dominator_bounds_chain"] = d_max in report.bounds and d_fin in report.bounds
    evidence["prec_between_dominators"] = preceq(d_max, d_fin)
    return replace(report, evidence=evidence)


def cf_prec_sup(
    chain: FormChain,
    dominator: FormSpec,
    n_max: int = DEFAULT_N_MAX,
    candidates=None,
) -> FormSpec:
    """Least upper bound under the pointwise order for an ascending chain
    of closed forms dominated by a closed form.

    Guards the join in cf under the pointwise order: the chain declares a
    limit, and the limit and the dominator are closed; the search checks
    that every term is in cf, that the steps ascend and that the dominator
    lies above every term.  Returns the declared limit when the search
    finds it; else names the first candidate upper bound not above it.
    """
    lim = chain.limit
    if lim is None:
        raise NoDeclaredLimit(f"chain {chain.chain_id!r} declares no limit form")
    if not forms.is_closed(lim):
        raise NotClosedChain(f"{describe(lim)} is not closed")
    if not forms.is_closed(dominator):
        raise NotClosedChain(f"dominator {describe(dominator)} is not closed")
    cands = _candidate_palette(chain, extra=[dominator]) if candidates is None else candidates
    # the symbolic singular form has no pointwise order
    cands = [lim] + [c for c in cands if c != lim and not c.has_kind("hamel")]
    report = _bound_in_family(chain, "cf", "up", cands, n_max, order=preceq, dominator=dominator)
    if report.found == lim:
        return lim
    if lim not in report.bounds:
        raise VerificationFailed("declared limit is not an upper bound")
    above = next(c for c in report.bounds if not preceq(lim, c))
    raise VerificationFailed(f"{describe(above)} is an upper bound not above the limit")


# ------------------------------------------------------------ sigma table


def sigma_report(n_max: int = DEFAULT_N_MAX, seed: int = 0) -> dict:
    """Completeness verdicts for monotone chains across all form families.

    Every negative verdict carries an obstruction pair; every positive one
    a verified meet/join.  The downward failures transfer to upward ones
    through the complement chain: the ascending differences of a
    descending chain would turn a join into a meet, and they meet the same
    incomparable pair.
    """
    vfd = "vfd:h1_grid"
    kato = vanishing_energy_chain()
    shifted = surplus_energy_chain()
    complement = filling_energy_chain()
    bounded = shrinking_bounded_chain()

    rows = []

    def add_row(family, direction, report: ChainReport, note=""):
        row = {
            "family": family,
            "direction": direction,
            "sigma_complete": report.ok,
            "report": report.to_dict(),
        }
        if note:
            row["note"] = note
        rows.append(row)

    add_row(vfd, "down", meet_in_family(kato, vfd, n_max=n_max))
    add_row(vfd, "up", join_in_family(complement, vfd, n_max=n_max))
    add_row("vf", "down", meet_in_family(shifted, "vf", n_max=n_max))
    add_row("vf", "up", join_obstruction_vf(n_max=n_max))
    add_row("bf", "down", meet_in_family(bounded, "bf", n_max=n_max))
    for family in ("rf", "cf", "vf-bar"):
        add_row(family, "down", meet_in_family(shifted, family, n_max=n_max))
        add_row(
            family,
            "up",
            join_in_family(complement, family, n_max=n_max),
            note="ascending differences of the descending chain; a join here "
            "would provide the missing meet",
        )

    sup = cf_prec_sup(complement, dominator=energy_with_endpoints(1, 1, 1), n_max=n_max)
    rows.append(
        {
            "family": "cf",
            "direction": "up",
            "order": "prec",
            "sigma_complete": True,
            "report": {
                "chain": complement.chain_id,
                "sup": form_to_dict(sup),
                "verdict": "found",
            },
        }
    )

    return {"n_max": n_max, "seed": seed, "rows": rows, "summary": _sigma_summary(rows)}


def _sigma_summary(rows: list[dict]) -> dict:
    """One phrase per family, read off its rows: the directions complete
    in the family order, then any that hold under the pointwise order."""
    complete: dict = {}
    pointwise: dict = {}
    for row in rows:
        target = pointwise if row.get("order") == "prec" else complete
        target.setdefault(row["family"], {})[row["direction"]] = row["sigma_complete"]
    summary = {}
    for family, verdicts in complete.items():
        holds = [d for d in ("up", "down") if verdicts.get(d)]
        if len(holds) == 2:
            phrase = "up and down"
        elif not holds:
            phrase = "neither"
        else:
            phrase = holds[0] if len(verdicts) == 1 else f"{holds[0]} only"
        for direction, ok in pointwise.get(family, {}).items():
            if ok:
                phrase += f" ({direction} holds under the pointwise order)"
        summary[family] = phrase
    return summary
