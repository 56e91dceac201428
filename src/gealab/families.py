"""Partial-sum algebras of positive forms and of the operators generating them.

The base algebra carries every catalog form whose declared data is
admissible (a bounded form must live on the full space); its partial sum
is defined when an operand is bounded or the domain tags coincide, and
the sum is a catalog form (the symbolic singular atom takes no unbounded
numeric atom beside it).  The bar variant additionally requires the
regular parts to add.  Subfamilies
(bounded, regular, singular, operator-generated, closed, fixed-domain)
restrict the sum to members.  A catalog operator is the form it
generates, so ``in_family(t, "gf")`` is the operator guard, and the
operator algebras vh and sa are gf and cf on the sequence model with the
operator samplers.  Every order reads one ``forms.atom_difference``; the
pointwise order decides a diagonal one exactly by
``forms.diagonal_order_witness`` and applies ``forms.psd_range`` to the rest.

Every family id (also the CLI string) is a key of ``FAMILIES``, which
holds each family's default model, membership rule and sampler.  Every
coefficient is positive, so a rule reads a form's ``forms.Support``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import forms
from .errors import (
    ModelMismatch,
    NegativeCoefficient,
    NotInFamily,
    SymbolicOnly,
    VerificationFailed,
)
from .forms import (
    FINITE_SUPPORT,
    FULL_SPACE,
    H1_GRID,
    BOUNDARY0,
    BOUNDARY1,
    DIRICHLET,
    DomainTag,
    FormSpec,
    add_coeff,
    bounded_mat_atom,
    diag_atom,
    endpoint_form,
    energy_form,
    form_add,
    make_form,
    matrix_at,
    reg_sing_split,
    tag_from_str,
    tag_includes,
    tag_to_str,
    zero_form,
)
from .hilbert import DEFAULT_LEVELS, GRID, MODELS, SEQUENCE
from .kernel import PartialAlgebra

_GF_KINDS = {"diag", "bounded_mat"}


@functools.lru_cache(maxsize=None)
def _lookup(family: str) -> tuple[Family, DomainTag | None]:
    """Registry entry and domain tag of a family id such as "cf" or "vfd:h1_grid"."""
    base, colon, text = family.partition(":")
    if base not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    entry = FAMILIES[base]
    if entry.model is not None:
        if colon:
            raise ValueError(f"family {base!r} takes no tag, got {family!r}")
        return entry, None
    if not text:
        raise ValueError(f"fixed-domain family needs a tag, got {family!r}")
    return entry, tag_from_str(text)


def _tag_model(tag: DomainTag) -> str:
    return GRID if tag == H1_GRID else SEQUENCE


def _member(sup: forms.Support, family: str) -> bool:
    """Membership of a support: the carrier rule, then the family's rule."""
    member = sup.members.get(family)
    if member is None:
        entry, tag = _lookup(family)  # an unknown id raises and is not kept
        carrier = not sup.bounded or sup.domain == FULL_SPACE
        member = sup.members[family] = carrier and (entry.rule is None or entry.rule(sup, tag))
    return member


def in_family(t: FormSpec, family: str) -> bool:
    """Membership, decided once per family id and support."""
    return _member(t.support, family)


# ------------------------------------------------------------ partial sums
#
# Whether a sum is defined, and how it is built, depends on the operands'
# supports alone.  The left operand's support keeps a plan per sum and
# right operand's support: None for undefined, else the
# ``forms.sum_shape`` of the pair.  A pair is planned only once its
# operands pass the sum's checks, and a support names its model, so a
# planned pair needs no check and an unplanned one is checked on every call.

_UNPLANNED = object()
_PLAIN, _BAR = object(), object()  # the unrestricted sums' keys, which no family id equals


def _plan(op, T: forms.Support, S: forms.Support) -> tuple | None:
    """The plan of the sum ``op`` for the supports ``T`` and ``S``, made once."""
    plans = T.plans
    shape = plans.get((op, S), _UNPLANNED)
    if shape is not _UNPLANNED:
        return shape
    if op is _PLAIN:
        defined = T.bounded or S.bounded or T.domain == S.domain
        shape = forms.sum_shape(T, S) if defined else None  # None when the sum leaves the catalog
    elif op is _BAR:
        # coefficients are positive: the regular parts add iff no atom changes status in U
        shape = _plan(_PLAIN, T, S)
        if shape is not None:
            U = shape[0]
            if any((a in U.singular) != (a in X.singular) for X in (T, S) for a in X.atoms):
                shape = None
    else:
        shape = _plan(_BAR if _lookup(op)[0].bar else _PLAIN, T, S)
        if shape is not None and not _member(shape[0], op):
            shape = None
    plans[(op, S)] = shape
    return shape


def _sum(op, t: FormSpec, s: FormSpec) -> FormSpec | None:
    """``t`` plus ``s`` by the sum ``op``, ``_PLAIN``, ``_BAR`` or a family
    id: one lookup for a planned pair, the sum's checks for an unplanned one."""
    shape = t.support.plans.get((op, s.support), _UNPLANNED)
    if shape is _UNPLANNED:
        if op is not _PLAIN and op is not _BAR:
            for operand in (t, s):
                if not in_family(operand, op):
                    raise NotInFamily(f"{forms.describe(operand)} is not in {op}")
        if t.model != s.model:
            raise ModelMismatch("operands live on different models")
        shape = _plan(op, t.support, s.support)
    return None if shape is None else forms.add_shaped(t, s, shape)


def oplus(t: FormSpec, s: FormSpec) -> FormSpec | None:
    """Partial sum: defined iff an operand is bounded or the tags agree,
    and the sum is a catalog form."""
    return _sum(_PLAIN, t, s)


def oplus_bar(t: FormSpec, s: FormSpec) -> FormSpec | None:
    """Restriction of the sum to pairs whose regular parts add.

    That is, every atom is singular in the sum iff it is in the operands
    that have it.  Domains of the regular parts need no separate check
    because a regular part inherits its form's domain.
    """
    return _sum(_BAR, t, s)


def oplus_family(family: str, t: FormSpec, s: FormSpec) -> FormSpec | None:
    """Family-restricted sum: base sum defined and the result a member."""
    return _sum(family, t, s)


def ominus_forms(s: FormSpec, t: FormSpec, strict: bool = False) -> FormSpec | None:
    """Atom-wise exact difference r with oplus(t, r) = s, else None.

    ``strict=True`` raises NegativeCoefficient instead of returning None
    when some coefficient of t exceeds its counterpart in s.
    """
    if t.model != s.model:
        raise ModelMismatch("operands live on different models")
    diff = forms.atom_difference(s, t)
    negative = next((atom for atom, c in diff.items() if c < 0), None)
    if negative is not None:
        if strict:
            raise NegativeCoefficient(f"{negative} exceeds its coefficient in the minuend")
        return None
    unbounded = any(not a.bounded for a in diff)
    out = make_form(t.model, diff, s.domain if unbounded else None)  # the zero form when diff is empty
    # t + out has the atoms and coefficients of s, so it is s iff it lands on s's support
    shape = _plan(_PLAIN, t.support, out.support)
    if shape is None or shape[0] is not s.support:
        if strict:
            raise VerificationFailed("difference does not add back to the minuend")
        return None
    return out


# ------------------------------------------------------------------ orders


def _preceq_numeric(t: FormSpec, s: FormSpec) -> bool:
    """t <= s by ``forms.psd_range`` on M_s - M_t at every default level."""
    return all(forms.psd_range(matrix_at(s, L) - matrix_at(t, L))[2] for L in DEFAULT_LEVELS[t.model])


def preceq(t: FormSpec, s: FormSpec) -> bool:
    """Pointwise order: D(t) contains D(s) and t <= s on it.

    After the domain check, the first of three routes that applies to
    ``forms.atom_difference(s, t)`` decides:
    - atom-wise: no coefficient is negative.  Every catalog atom is PSD,
      so the order holds on the whole space.
    - diagonal: the pair is on the sequence model and every atom is
      ``diag`` or ``mat(id)``, the identity there (an atom shared with one
      coefficient cancels); ``forms.diagonal_order_witness`` decides
      s - t >= 0 exactly, on all of l^2, with no tolerance.
    - numeric: every other pair gets a PSD eigensolve at each of the
      model's default levels, at tolerance ``forms.PSD_TOL``; the verdict
      holds at those levels.
    """
    if t.model != s.model:
        raise ModelMismatch("operands live on different models")
    if t.has_kind("hamel") or s.has_kind("hamel"):
        raise SymbolicOnly("the symbolic singular form has no numerical order")
    if not tag_includes(s.domain, t.domain):
        return False
    diff = forms.atom_difference(s, t)
    if not any(c < 0 for c in diff.values()):
        return True
    if t.model == SEQUENCE and all(a.kind == "diag" or a.gen == "id" for a in diff):
        return forms.diagonal_order_witness(diff) is None
    return _preceq_numeric(t, s)


def le_oplus(t: FormSpec, s: FormSpec) -> bool:
    """Derived order of the plain sum, decided by its characterization:
    t <= s iff t precedes s pointwise and D(t) is full or equals D(s)."""
    if not (t.domain == FULL_SPACE or t.domain == s.domain):
        return False
    return preceq(t, s)


def le_family(family: str, t: FormSpec, s: FormSpec) -> bool:
    """Derived order inside a family: the unique difference witness must
    exist, belong to the family, and have a family sum with t (then s).
    Reads support plans alone and builds no sum."""
    if not (in_family(t, family) and in_family(s, family)):
        return False
    r = ominus_forms(s, t)
    return r is not None and in_family(r, family) and _plan(family, t.support, r.support) is not None


def family_order(family: str) -> Callable[[FormSpec, FormSpec], bool]:
    """The derived order of a family: the characterization ``le_oplus`` for
    vf, and ``le_family`` of the family's own sum for every other family."""
    _lookup(family)  # an unknown id raises here, not at the first query
    return le_oplus if family == "vf" else functools.partial(le_family, family)


# ------------------------------------------------------------- the algebras


class FormsGEA(PartialAlgebra):
    """A family of forms as a partial algebra with its derived-order oracle."""

    def __init__(self, model: str, family: str = "vf"):
        entry, _ = _lookup(family)
        self._ruled, self._bar = entry.rule is not None, entry.bar
        self.le_oracle = family_order(family)
        self.model = model
        self.family = family
        self.zero = zero_form(model)
        self.enumerable = False

    def add(self, a, b):  # the family's sum, by kind, called by its public name
        if self._ruled:
            return oplus_family(self.family, a, b)
        return oplus_bar(a, b) if self._bar else oplus(a, b)

    def sample(self, rng: random.Random):
        return sample_form(self.model, self.family, rng)

    def __repr__(self):
        return f"FormsGEA({self.family!r}, model={self.model!r})"


def gea_by_name(family: str, model: str | None = None) -> PartialAlgebra:
    entry, tag = _lookup(family)
    if model is not None and model not in MODELS:
        raise ModelMismatch(f"unknown model {model!r}")
    return FormsGEA(model or entry.model or _tag_model(tag), family)


# --------------------------------------------------------------- samplers

# dyadic coefficients keep merged matrices float-exact
_COEFFS = tuple(
    Fraction(p, q) for p, q in ((1, 4), (1, 2), (3, 4), (1, 1), (3, 2), (2, 1), (3, 1), (4, 1))
)
_GENS = ("id", "seeded:1", "seeded:2", "seeded:3", "seeded:4", "seeded:5", "seeded:6")
_BOUNDED_LAMS = ("1/j", "const:1/2", "const:2")
_UNBOUNDED_LAMS = ("j", "j^2")
_ZERO_RATE = 0.08
# the drawn atoms, built once and shared, drawn with the rng calls that drew their names
_GEN_ATOMS = tuple(bounded_mat_atom(gen) for gen in _GENS)
_BOUNDED_DIAGS = tuple(diag_atom(lam) for lam in _BOUNDED_LAMS)
_UNBOUNDED_DIAGS = tuple(diag_atom(lam) for lam in _UNBOUNDED_LAMS)
_CUT_DIAGS = tuple(tuple(diag_atom(lam, cut) for cut in (2, 3, 4, 8)) for lam in _UNBOUNDED_LAMS)


def _coeff(rng):
    return rng.choice(_COEFFS)


def _bounded_atom(model: str, rng):
    if model == SEQUENCE:
        r = rng.random()
        if r < 0.45:
            return rng.choice(_BOUNDED_DIAGS)
        if r < 0.65:
            return rng.choice(rng.choice(_CUT_DIAGS))
    return rng.choice(_GEN_ATOMS)


def _bounded_form(model: str, rng) -> FormSpec:
    atoms: dict = {}
    for _ in range(rng.choice((1, 1, 2))):
        add_coeff(atoms, _bounded_atom(model, rng), _coeff(rng))
    return make_form(model, atoms)


def _seq_unbounded_atoms(rng, diag) -> dict:
    atoms = {diag: _coeff(rng)}
    if rng.random() < 0.4:
        add_coeff(atoms, _bounded_atom(SEQUENCE, rng), _coeff(rng))
    return atoms


def _seq_unbounded(rng, allow_restriction: bool = True) -> FormSpec:
    atoms = _seq_unbounded_atoms(rng, rng.choice(_UNBOUNDED_DIAGS))
    dom = FINITE_SUPPORT if allow_restriction and rng.random() < 0.25 else None
    return make_form(SEQUENCE, atoms, dom)


def _seq_regular(rng, allow_restriction: bool = True) -> FormSpec:
    if rng.random() < 0.4:
        return _bounded_form(SEQUENCE, rng)
    return _seq_unbounded(rng, allow_restriction)


def _grid_boundary_atoms(rng) -> dict:
    which = rng.choice(((BOUNDARY0,), (BOUNDARY1,), (BOUNDARY0, BOUNDARY1)))
    return {a: _coeff(rng) for a in which}


def _grid_energy(rng) -> FormSpec:
    atoms: dict = {DIRICHLET: _coeff(rng)}
    if rng.random() < 0.5:
        atoms.update(_grid_boundary_atoms(rng))
    if rng.random() < 0.3:
        add_coeff(atoms, _bounded_atom(GRID, rng), _coeff(rng))
    return make_form(GRID, atoms)


def _grid_regular(rng) -> FormSpec:
    return _bounded_form(GRID, rng) if rng.random() < 0.35 else _grid_energy(rng)


def _grid_singularish(rng) -> FormSpec:
    atoms = _grid_boundary_atoms(rng)
    if rng.random() < 0.35:
        add_coeff(atoms, _bounded_atom(GRID, rng), _coeff(rng))
    return make_form(GRID, atoms)


def _draw_any(model: str, tag, rng) -> FormSpec:
    if model == GRID:
        r = rng.random()
        if r < 0.3:
            return _bounded_form(GRID, rng)
        if r < 0.7:
            return _grid_energy(rng)
        return _grid_singularish(rng)
    return _bounded_form(SEQUENCE, rng) if rng.random() < 0.45 else _seq_unbounded(rng)


def _draw_singular(model: str, tag, rng) -> FormSpec:
    if model == GRID:
        return make_form(GRID, _grid_boundary_atoms(rng))
    return forms.hamel_form(_coeff(rng))


def _draw_fixed_domain(model: str, tag: DomainTag, rng) -> FormSpec:
    """A bounded form, or an unbounded one on the tag: grid energy and
    boundary forms for h1_grid, else an unbounded diagonal restricted to
    the tag (the diagonal lam itself for diag_max:lam).  No unbounded catalog
    form lives on full or a bounded lam's diag_max: there it draws bounded
    forms, and full, where bounded forms of either model live, takes either model."""
    home = _tag_model(tag)
    if model != home and tag != FULL_SPACE:
        raise ValueError(f"the {tag_to_str(tag)} tag lives on the {home} model")
    bounded_only = tag == FULL_SPACE or (tag.kind == "diag_max" and forms.lam_sup(tag.param) is not None)
    if bounded_only or rng.random() < 0.3:
        return _bounded_form(model, rng)
    if model == GRID:
        return _grid_energy(rng) if rng.random() < 0.6 else _grid_singularish(rng)
    diag = diag_atom(tag.param) if tag.kind == "diag_max" else rng.choice(_UNBOUNDED_DIAGS)
    return make_form(SEQUENCE, _seq_unbounded_atoms(rng, diag), tag)


def _draw_operator(model: str, rng, closed_only: bool) -> FormSpec:
    if model == GRID or rng.random() < 0.35:
        return _bounded_form(model, rng)
    return _seq_unbounded(rng, allow_restriction=not closed_only)


def sample_form(model: str, family: str, rng: random.Random) -> FormSpec:
    """Seeded family-appropriate form generator for axiom suites."""
    entry, tag = _lookup(family)
    if rng.random() < _ZERO_RATE:
        return zero_form(model)
    return entry.draw(model, tag, rng)


# ---------------------------------------------------------------- registry


def _generated(sup: forms.Support, tag) -> bool:
    return all(a.kind in _GF_KINDS for a in sup.atoms)


@dataclass(frozen=True)
class Family:
    """One family: its default model, its membership rule and its sampler.

    ``model`` is None for a family fixed by a domain tag ("vfd:<tag>"),
    whose default model is the tag's.  ``rule(sup, tag)`` decides membership
    of a ``forms.Support`` beyond the carrier rule; None admits the whole
    carrier and keeps the unrestricted sum, the bar sum when ``bar`` is set.
    ``draw(model, tag, rng)`` draws a sample after ``sample_form`` has drawn against the zero.
    """

    model: str | None
    rule: Callable[[forms.Support, DomainTag | None], bool] | None
    draw: Callable[[str, DomainTag | None, random.Random], FormSpec]
    bar: bool = False


FAMILIES = {
    "vf": Family(GRID, None, _draw_any),
    "vf-bar": Family(GRID, None, _draw_any, bar=True),
    "bf": Family(
        SEQUENCE,
        lambda sup, tag: sup.bounded,
        lambda m, tag, rng: _bounded_form(m, rng),
    ),
    "rf": Family(
        GRID,
        lambda sup, tag: not sup.singular,
        lambda m, tag, rng: _grid_regular(rng) if m == GRID else _seq_regular(rng),
    ),
    "sf": Family(GRID, lambda sup, tag: len(sup.singular) == len(sup.atoms), _draw_singular),
    "gf": Family(
        SEQUENCE,
        _generated,
        lambda m, tag, rng: _bounded_form(GRID, rng) if m == GRID else _seq_regular(rng),
    ),
    "cf": Family(
        GRID,
        lambda sup, tag: sup.closed,
        lambda m, tag, rng: _grid_regular(rng) if m == GRID else _seq_regular(rng, False),
    ),
    "vfd": Family(None, lambda sup, tag: sup.bounded or sup.domain == tag, _draw_fixed_domain),
    # the operator algebras: gf and cf on the sequence model, drawn as operators
    "vh": Family(SEQUENCE, _generated, lambda m, tag, rng: _draw_operator(m, rng, False)),
    "sa": Family(SEQUENCE, lambda sup, tag: sup.closed, lambda m, tag, rng: _draw_operator(m, rng, True)),
}


# ------------------------------------------------------------ closure suites


def closure_violations(
    model: str,
    family: str,
    samples: int = 1000,
    seed: int = 0,
    use_bar: bool = False,
) -> dict:
    """Sampled two-out-of-three closure battery for a family.

    Pairs (x, y) are drawn with x in the family and y from the whole
    carrier; every defined ambient sum x + y is counted and a violation is
    recorded whenever exactly two of (x, y, x+y) are members.
    """
    rng = random.Random(seed)
    op = oplus_bar if use_bar else oplus
    checked = 0
    violations: list = []
    while checked < samples:
        x = sample_form(model, family, rng)
        y = sample_form(model, "vf", rng)
        u = op(x, y)
        if u is None:
            continue
        checked += 1
        flags = tuple(in_family(f, family) for f in (x, y, u))
        if sum(flags) == 2:
            violations.append((x, y, u))
    return {
        "model": model,
        "family": family,
        "op": "bar" if use_bar else "plain",
        "checked": checked,
        "violations": violations,
        "ok": not violations,
    }


def regular_sum_demo() -> dict:
    """The pinned triple showing the regular family is not closed under
    two-out-of-three for the plain sum: a regular form plus a singular
    boundary form can be regular again.

    Also carries the exact split identities and the strictness of the
    pointwise inequality between the regular summand and the sum.
    """
    t_prime = energy_form(1)
    t_0 = endpoint_form(1, 1)
    t_1 = oplus(t_prime, t_0)
    split_sum = reg_sing_split(t_1)
    split_regular_sum = form_add(reg_sing_split(t_prime)[0], reg_sing_split(t_0)[0])
    members = {
        "t_prime": in_family(t_prime, "rf"),
        "t_0": in_family(t_0, "rf"),
        "t_1": in_family(t_1, "rf"),
    }
    return {
        "triple": (t_prime, t_0, t_1),
        "memberships": members,
        "two_of_three_violated": members["t_prime"] and members["t_1"] and not members["t_0"],
        "sum_regular_part": split_sum[0],
        "sum_singular_part": split_sum[1],
        "split_of_sum_is_whole": split_sum == (t_1, zero_form(GRID)),
        "regular_parts_sum": split_regular_sum,
        "regular_parts_sum_is_t_prime": split_regular_sum == t_prime,
        "bar_sum_undefined": oplus_bar(t_prime, t_0) is None,
        "strict_increase": preceq(t_prime, t_1) and not preceq(t_1, t_prime),
    }
