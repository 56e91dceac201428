"""Monotone chains of catalog forms and completeness experiments.

Five parametric chains ship with the package ("kato", "shifted",
"complement", "diag", "bounded").  Each declares a direction, a default
order, a closed-form term map, a parameter-limit form and its gap: the
signed atom coefficients of t_n - t.  The lab verifies monotonicity step
by step and tabulates pointwise convergence at the powers of two up to
the run's ``n_max``.  The table checks each declared gap against the
terms' atom-wise difference and evaluates it exactly, in integers, on
named rational vectors: no random vector and no matrix.  Meets and joins
are decided over a declared finite candidate set: a positive verdict is
a verified extremal bound, a negative one is an obstruction pair of
mutually incomparable maximal bounds.  Non-existence is never claimed
universally, only over the scanned candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple

from . import families, forms, hilbert
from .errors import (
    GealabError,
    MonotonicityViolation,
    NoDeclaredLimit,
    NotClosedChain,
    NotDominated,
    NotInFamily,
    SymbolicOnly,
    VerificationFailed,
)
from .families import preceq
from .forms import (
    DIRICHLET,
    FINITE_SUPPORT,
    FormSpec,
    describe,
    diag_atom,
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
# the most terms a run checks: `sigma` at this bound takes about 14 s on a
# shared 2-vCPU host, the slowest run it admits
MAX_N_MAX = 8192
# the pointwise table sums exactly over every coordinate of every level it is
# given, and the geometric vector's numerators have up to N bits at N
# coordinates, so a level costs about N^2 bit operations: at most this many
# coordinates over all of them (the default grid levels have 263)
MAX_LEVEL_DIMS = 1024


def order_predicate(order: str) -> Callable[[FormSpec, FormSpec], bool]:
    """Resolve an order id to its two-argument predicate."""
    if order not in ORDERS:
        raise ValueError(f"unknown order id {order!r}")
    family = ORDERS[order]
    return preceq if family is None else families.family_order(family)


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
    # n -> the signed coefficient of each atom of t_n - limit
    gap_fn: Callable[[int], dict] | None = field(default=None, compare=False)

    def term(self, n: int) -> FormSpec:
        if n < 1:
            raise ValueError("chain index starts at 1")
        return self.term_fn(n)

    def terms(self, n_max: int) -> list[FormSpec]:
        return [self.term(n) for n in range(1, n_max + 1)]

    def gap(self, n: int) -> dict:
        """The declared t_n - limit: atom -> signed coefficient."""
        if self.gap_fn is None:
            raise NoDeclaredLimit(f"chain {self.chain_id!r} declares no gap to its limit")
        return self.gap_fn(n)


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
        gap_fn=lambda n: {DIRICHLET: Fraction(1, n)},
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
        gap_fn=lambda n: {DIRICHLET: Fraction(1, n)},
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
        gap_fn=lambda n: {DIRICHLET: Fraction(-1, n)},
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
        gap_fn=lambda n: {diag_atom("j", cut=n): Fraction(1), diag_atom("j"): Fraction(-1)},
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
        gap_fn=lambda n: {diag_atom("1/j"): Fraction(1, n)},
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


def named_vectors(model: str, level: int) -> list[tuple[str, tuple[int, ...], int]]:
    """The pointwise table's test vectors at a level: each a name, integer
    numerators by coordinate and their common denominator.  On the grid
    (node k at x = k/m, m = level + 1): one, linear x, square x^2 and
    hat 1 - 2|x - 1/2|; on the sequence model: e1, e2 and geometric 2^-(j-1)."""
    dim = hilbert.dim_of(model, level)
    if model == GRID:
        m = level + 1
        return [
            ("one", (1,) * dim, 1),
            ("linear", tuple(range(dim)), m),
            ("square", tuple(k * k for k in range(dim)), m * m),
            ("hat", tuple(m - abs(2 * k - m) for k in range(dim)), m),
        ]
    e1, e2 = (tuple(int(k == i) for k in range(dim)) for i in (0, min(1, dim - 1)))
    geometric = tuple(2**k for k in reversed(range(dim)))
    return [("e1", e1, 1), ("e2", e2, 1), ("geometric", geometric, 2 ** (dim - 1))]


def atom_value(atom: forms.FormAtom, nums: tuple[int, ...], den: int) -> Fraction:
    """The atom's quadratic form at the vector ``nums / den``, exactly: one
    integer sum over the coordinates, then one ``Fraction``."""
    if atom.kind == "dirichlet":  # |u_{k+1} - u_k|^2 / h over the len - 1 intervals, h = 1/(len - 1)
        return Fraction((len(nums) - 1) * sum((b - a) ** 2 for a, b in zip(nums, nums[1:])), den * den)
    if atom.kind == "diag":  # j * lambda(j) = q * j^p, so lambda(j) = q * (j^p * scale / j) / scale
        p, q = forms.lam_poly(atom.lam)
        upto = len(nums) if atom.cut is None else min(atom.cut, len(nums))
        scale = 1 if p else math.lcm(*range(1, upto + 1))
        total = sum(a * a * (j**p * scale // j) for j, a in enumerate(nums[:upto], 1))
        return q * Fraction(total, scale * den * den)
    raise SymbolicOnly(f"the pointwise table has no exact value of {forms.atom_name(atom)}")


def gap_table(model: str, level: int, gaps: list[dict]) -> dict[str, list[Fraction]]:
    """Each named vector's value of each gap (atom -> signed coefficient),
    exactly; each atom is evaluated once per vector."""
    atoms = dict.fromkeys(atom for gap in gaps for atom in gap)
    table = {}
    for name, nums, den in named_vectors(model, level):
        values = {atom: atom_value(atom, nums, den) for atom in atoms}
        table[name] = [sum(c * values[atom] for atom, c in gap.items()) for gap in gaps]
    return table


def pointwise_limit(chain: FormChain, levels=None, n_max: int = DEFAULT_N_MAX) -> dict:
    """Declared-limit convergence table over named rational vectors.

    At the powers of two n = 1, 2, 4, ... up to ``n_max`` the chain's
    declared gap must equal ``forms.atom_difference(t_n, t)``; a mismatch
    raises VerificationFailed.  For every level the table records the
    largest |t_n(u,u) - t(u,u)| over the named vectors, evaluated exactly
    from the gap and rounded once to a float, and ``gap`` gives the
    coefficients at each n.  So the "kato" chain's energy-gap identity
    (the gap is (1/n) times the first-difference energy) holds exactly.
    The "diag" chain gets the operator gap |T_n x - T x| on the geometric
    vector at the last level.  The table does not depend on monotonicity
    and checks none: the chain run's search or ``check_monotone`` does.
    """
    if chain.limit is None:
        raise NoDeclaredLimit(f"chain {chain.chain_id!r} declares no limit form")
    levels = tuple(levels) if levels is not None else DEFAULT_LEVELS[chain.model]
    lim = chain.limit
    steps = [2**k for k in range(n_max.bit_length())]
    gaps = [chain.gap(n) for n in steps]
    for n, gap in zip(steps, gaps):
        if forms.atom_difference(chain.term(n), lim) != gap:
            raise VerificationFailed(f"the declared gap of {chain.chain_id!r} is not t_n - t at n={n}")
    rows = []
    table: dict = {}
    for level in levels:
        table = gap_table(chain.model, level, gaps)
        for i, n in enumerate(steps):
            rows.append({"level": level, "n": n, "max_gap": float(max(abs(values[i]) for values in table.values()))})
    report = {
        "chain": chain.chain_id,
        "limit": form_to_dict(lim),
        "levels": list(levels),
        "n_values": steps,
        "gap": [{"n": n, "coeffs": {forms.atom_name(a): str(c) for a, c in gap.items()}} for n, gap in zip(steps, gaps)],
        "table": rows,
        "samples_per_level": len(table),
    }
    if chain.chain_id == "kato":
        report["identity_max_rel_dev"] = 0.0
        report["identity_ok"] = True
    if chain.chain_id == "diag":
        report["operator_gaps"] = _diag_operator_gaps(levels[-1], steps)
    return report


def _diag_operator_gaps(level: int, steps: list[int]) -> list[dict]:
    """|T_n x - T x| for the geometric x_j = 2^-(j-1) at the level: (T_n - T)x
    is -j x_j for n < j <= level, so its square is the tail sum of
    j^2 4^-(j-1), one integer over 4^(level-1); then one square root."""
    gaps = []
    for n in steps:
        tail = sum(j * j * 4 ** (level - j) for j in range(n + 1, level + 1))
        gaps.append({"n": n, "gap": math.sqrt(Fraction(tail, 4 ** (level - 1)))})
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
    pred = order or families.family_order(family)
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


def _prec_sup_report(n_max: int) -> dict:
    """The pointwise supremum of the filling chain under its endpoint extension."""
    chain = filling_energy_chain()
    sup = cf_prec_sup(chain, dominator=energy_with_endpoints(1, 1, 1), n_max=n_max)
    return {"chain": chain.chain_id, "sup": form_to_dict(sup), "verdict": "found"}


class SigmaRow(NamedTuple):
    """One row of the sigma table."""

    family: str
    direction: str
    order: str | None  # None: the family's own order
    search: str | Callable[[int], dict]  # a chain searched in the family order, or a search of n_max
    expected: bool  # the verdict the row must reach
    note: str = ""


_UP_NOTE = "ascending differences of the descending chain; a join here would provide the missing meet"

SIGMA_ROWS = (
    SigmaRow("vfd:h1_grid", "down", None, "kato", True),
    SigmaRow("vfd:h1_grid", "up", None, "complement", True),
    SigmaRow("vf", "down", None, "shifted", True),
    SigmaRow("vf", "up", None, lambda n_max: join_obstruction_vf(n_max).to_dict(), False),
    SigmaRow("bf", "down", None, "bounded", True),
    SigmaRow("rf", "down", None, "shifted", False),
    SigmaRow("rf", "up", None, "complement", False, _UP_NOTE),
    SigmaRow("cf", "down", None, "shifted", False),
    SigmaRow("cf", "up", None, "complement", False, _UP_NOTE),
    SigmaRow("vf-bar", "down", None, "shifted", False),
    SigmaRow("vf-bar", "up", None, "complement", False, _UP_NOTE),
    SigmaRow("cf", "up", "prec", _prec_sup_report, True),
)


def sigma_report(n_max: int = DEFAULT_N_MAX, seed: int = 0) -> dict:
    """Completeness verdicts for monotone chains across all form families.

    Every negative verdict carries an obstruction pair; every positive one
    a verified meet/join.  The downward failures transfer to upward ones
    through the complement chain: the ascending differences of a
    descending chain would turn a join into a meet, and they meet the same
    incomparable pair.  A row whose search raises has its error in place of a verdict.
    """
    rows = []
    for spec in SIGMA_ROWS:
        row = {"family": spec.family, "direction": spec.direction}
        if spec.order is not None:
            row["order"] = spec.order
        try:
            if isinstance(spec.search, str):
                search = meet_in_family if spec.direction == "down" else join_in_family
                report = search(chain_by_name(spec.search), spec.family, n_max=n_max).to_dict()
            else:
                report = spec.search(n_max)
        except GealabError as exc:
            row.update(sigma_complete=None, error=str(exc))
        else:
            row.update(sigma_complete=report["verdict"] == "found", report=report)
        if spec.note:
            row["note"] = spec.note
        rows.append(row)
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
