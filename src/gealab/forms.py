"""Positive sesquilinear forms as exact formal sums of catalog atoms.

A form is a multiset of atoms with positive rational coefficients, a model
(sequence or grid) and a symbolic dense-domain tag.  Algebra on forms
(sums, differences, regular/singular splits) is exact on the rational
coefficients so that cancellation holds on the nose.  Range and
positivity questions are answered numerically from the per-level matrices,
by the one positivity rule of ``psd_range``.  The pointwise order
(``families.preceq``) holds outright when no coefficient of the
subtrahend exceeds the minuend's, which it decides by comparisons alone;
otherwise it reads one ``atom_difference``, decided exactly on all of l^2
by ``diagonal_order_witness`` when every atom of the difference is
diagonal (``diag``, or ``mat(id)`` on the sequence model), and by that
rule otherwise.

Atom catalog
    diag         sequence model, lambda_j from the registry ``lam_poly``,
                 optional truncation cut (lambda_j = 0 for j > cut)
    bounded_mat  Hermitian PSD generator with unit spectral norm relative
                 to the model inner product ("id" or "seeded:<k>")
    dirichlet    grid model, first-difference derivative energy
    boundary0/1  grid model, squared modulus of the endpoint node values
    hamel        symbolic everywhere-defined singular form; classified but
                 never evaluated numerically

Domain tags (a kind and, for diag_max, its coefficient id) and their
declared inclusion order
    finite_support < diag_max(lambda) < full,   h1_grid < full
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hilbert
from .errors import (
    ClassificationMismatch,
    DimensionMismatch,
    EigenFailure,
    ModelMismatch,
    NotClosed,
    OutsideCatalog,
    SymbolicOnly,
    UnboundedForm,
    VerificationFailed,
)
from .hilbert import DEFAULT_LEVELS, GRID, SEQUENCE

PSD_TOL = 1e-9
GROWTH_FACTOR = 1.5
ZERO = Fraction(0)  # the coefficient of an absent atom, shared rather than rebuilt


# ------------------------------------------------------------ domain tags


@dataclass(frozen=True)
class DomainTag:
    """Symbolic dense domain: a kind and, for ``diag_max``, its coefficient id."""

    kind: str
    param: str = ""


FULL_SPACE = DomainTag("full")
H1_GRID = DomainTag("h1_grid")
FINITE_SUPPORT = DomainTag("finite_support")

_TAG_KINDS = ("full", "diag_max", "finite_support", "h1_grid")


def diag_domain(lam: str) -> DomainTag:
    return DomainTag("diag_max", lam)


def tag_includes(a: DomainTag, b: DomainTag) -> bool:
    """True when the domain tagged ``a`` is contained in the one tagged ``b``."""
    if a is b or b is FULL_SPACE:
        return True
    return a == b or b == FULL_SPACE or (a.kind == "finite_support" and b.kind == "diag_max")


def tag_meet(a: DomainTag, b: DomainTag) -> DomainTag | None:
    if tag_includes(a, b):
        return a
    if tag_includes(b, a):
        return b
    return None


def tag_to_str(tag: DomainTag) -> str:
    return f"{tag.kind}:{tag.param}" if tag.param else tag.kind


def tag_from_str(text: str) -> DomainTag:
    kind, _, param = text.partition(":")
    if kind not in _TAG_KINDS:
        raise OutsideCatalog(f"unknown domain tag {text!r}")
    if kind == "diag_max":
        if not param:
            raise OutsideCatalog("diag_max tag needs its coefficient id")
        return diag_domain(param)
    if param:
        raise OutsideCatalog(f"tag {kind!r} takes no parameter")
    return DomainTag(kind)


# ------------------------------------------------- diagonal coefficients


@functools.lru_cache(maxsize=256)
def lam_poly(lam: str) -> tuple[int, Fraction]:
    """The registry of diagonal coefficient maps: ``(p, q)`` with
    ``j * lambda(j) == q * j**p`` for every j >= 1."""
    if lam == "j":
        return 2, Fraction(1)
    if lam == "j^2":
        return 3, Fraction(1)
    if lam == "1/j":
        return 0, Fraction(1)
    if lam.startswith("const:"):
        try:
            c = Fraction(lam[6:])
        except (ValueError, ZeroDivisionError):  # "const:x", "const:1/0"
            raise OutsideCatalog(f"diagonal constant {lam!r} is not a rational number") from None
        if c < 0:
            raise OutsideCatalog("diagonal constants must be non-negative")
        return 1, c
    raise OutsideCatalog(f"unknown diagonal coefficient map {lam!r}")


def lam_value(lam: str, j: int) -> Fraction:
    """Value of a registered diagonal coefficient map at index j >= 1."""
    p, q = lam_poly(lam)
    return Fraction(q.numerator * j**p, q.denominator * j)


def lam_sup(lam: str) -> Fraction | None:
    """Supremum of the coefficient map; ``None`` means unbounded."""
    p, q = lam_poly(lam)
    return None if p > 1 else q  # q / j and the constant q are largest at j = 1


def _cubic(g: list, j: int) -> int:
    return ((g[3] * j + g[2]) * j + g[1]) * j + g[0]


def _cubic_negative_at(g: list, lo: int, hi: int | None) -> int | None:
    """An integer j in ``[lo, hi]`` (``hi=None``: no upper end) with
    ``g(j) < 0`` for the integer cubic ``g = g[0] + g[1] j + g[2] j^2 + g[3] j^3``,
    or None when g is non-negative on all of them.

    Between its real critical points ``g`` is strictly monotone, so its
    least value over these integers is at an end or at a floor or ceiling
    of a critical point; ``isqrt`` finds each such point to within one.
    """
    d3, d2, d1 = 3 * g[3], 2 * g[2], g[1]  # g'(x) = d3 x^2 + d2 x + d1
    nears = []
    if d3:
        disc = d2 * d2 - 4 * d3 * d1
        if disc >= 0:
            root = math.isqrt(disc)
            nears = [(-d2 + root) // (2 * d3), (-d2 - root) // (2 * d3)]
    elif d2:
        nears = [-d1 // d2]
    candidates = {lo} if hi is None else {lo, hi}
    for m in nears:
        candidates.update(range(m - 1, m + 3))
    if hi is None:
        lead = next((c for c in reversed(g) if c), 0)
        if lead < 0:  # past the Cauchy bound of its roots g has the sign of its leading coefficient
            candidates.add(2 + max(abs(c) for c in g) // -lead)
    return next((j for j in sorted(candidates) if lo <= j and (hi is None or j <= hi) and _cubic(g, j) < 0), None)


def diagonal_order_witness(diff: dict) -> tuple[int, Fraction] | None:
    """For an ``atom_difference`` ``s - t`` of sequence forms whose atoms
    are all ``diag`` or ``mat(id)`` (the identity, read as diag(const:1)):
    ``None`` when it is positive semidefinite on all of l^2, else a
    witness ``(j, f(j))``: an index j >= 1 with ``f(j) < 0``, where
    ``f(j) = sum_a c_a lam_a(j) [j <= cut_a]`` over its signed coefficients.

    ``j * f(j)`` is one cubic on each interval between consecutive cuts,
    made integer by one common denominator and decided exactly by
    ``_cubic_negative_at``: no float and no tolerance.
    """
    terms = []  # (cut, power, signed weight as numerator and denominator) of each atom not identically 0
    for atom, c in diff.items():
        if atom.cut != 0:
            power, q = lam_poly(atom.lam if atom.kind == "diag" else "const:1")
            terms.append((atom.cut, power, c.numerator * q.numerator, c.denominator * q.denominator))
    scale = math.lcm(*[den for *_, den in terms])
    terms = [(cut, power, num * (scale // den)) for cut, power, num, den in terms]
    ends = sorted({cut for cut, _, _ in terms if cut is not None})
    for lo, hi in zip([1] + [cut + 1 for cut in ends], ends + [None]):
        g = [0, 0, 0, 0]
        for cut, power, w in terms:
            if cut is None or (hi is not None and hi <= cut):  # the atom is live on all of [lo, hi]
                g[power] += w
        j = _cubic_negative_at(g, lo, hi)
        if j is not None:
            return j, Fraction(_cubic(g, j), scale * j)
    return None


# ----------------------------------------------------------------- atoms


@dataclass(frozen=True)
class FormAtom:
    """One catalog atom, checked when built.  Beside the fields it stores,
    outside ``repr`` and ``==``: its hash, its ``sort_key`` (its place in a
    form's atom tuple), whether it is ``bounded`` and its ``natural_domain``."""

    kind: str
    lam: str = ""
    cut: int | None = None
    gen: str = ""

    def __post_init__(self):
        kind, lam, cut = self.kind, self.lam, self.cut
        bounded = kind == "bounded_mat"
        natural = H1_GRID if kind in ("dirichlet", "boundary0", "boundary1") else FULL_SPACE
        if kind == "diag":
            sup = lam_sup(lam)  # validates lam against the registry
            if cut is not None and type(cut) is not int:  # a JSON 4.0 or true is no cut
                raise OutsideCatalog(f"truncation cut must be an integer, not {cut!r}")
            if cut is not None and cut < 0:
                raise OutsideCatalog("truncation cut must be non-negative")
            bounded = cut is not None or sup is not None
            if not bounded:
                natural = diag_domain(lam)
        elif bounded and self.gen != "id" and not self.gen.startswith("seeded:"):
            raise OutsideCatalog(f"unknown bounded generator {self.gen!r}")
        memo = self.__dict__
        memo["_hash"] = hash((kind, lam, cut, self.gen))  # the dataclass hash
        memo["sort_key"] = (kind, lam, -1 if cut is None else cut, self.gen)
        memo["bounded"], memo["natural_domain"] = bounded, natural

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt, not copied: a str hash differs between processes
        return FormAtom, (self.kind, self.lam, self.cut, self.gen)


DIRICHLET = FormAtom("dirichlet")
BOUNDARY0 = FormAtom("boundary0")
BOUNDARY1 = FormAtom("boundary1")
HAMEL = FormAtom("hamel")

_SEQ_KINDS = ("diag", "bounded_mat", "hamel")
_GRID_KINDS = ("dirichlet", "boundary0", "boundary1", "bounded_mat")


def diag_atom(lam: str, cut: int | None = None) -> FormAtom:
    return FormAtom("diag", lam=lam, cut=cut)


def bounded_mat_atom(gen: str = "id") -> FormAtom:
    return FormAtom("bounded_mat", gen=gen)


# ------------------------------------------------------------- form spec


@dataclass(frozen=True)
class FormSpec:
    """Immutable positive form: model + domain tag + atom multiset.

    Every form is checked and classified when built: ``FormSpec(model,
    domain, atoms)``, and with it pickling, copying and
    ``dataclasses.replace``, builds what ``make_form(model, dict(atoms),
    domain)`` builds.  ``support``, the interned ``Support``, sits in the
    ``__dict__`` beside the fields, outside ``repr``, the hash and the JSON.
    """

    model: str
    domain: DomainTag
    atoms: tuple[tuple[FormAtom, Fraction], ...]

    def __init__(self, model: str, domain: DomainTag, atoms):
        given = dict(atoms)
        if len(given) != len(atoms):
            raise ValueError("a form names each atom once")
        self.__dict__.update(vars(make_form(model, given, domain)))

    def coeff(self, atom: FormAtom) -> Fraction:
        return self.atoms_dict().get(atom, ZERO)

    def atoms_dict(self) -> dict[FormAtom, Fraction]:
        return dict(self.atoms)

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def has_kind(self, kind: str) -> bool:
        return any(a.kind == kind for a, _ in self.atoms)

    def __eq__(self, other):  # the dataclass equality: equal fields are one support and equal atoms
        if self is other:
            return True
        if other.__class__ is not FormSpec:
            return NotImplemented
        return self.support is other.support and self.atoms == other.atoms

    def __repr__(self):  # keep reprs short in reports and counterexamples
        return f"FormSpec({describe(self)})"

    def __hash__(self) -> int:  # the dataclass hash, computed once per form
        memo = self.__dict__
        if "_hash" not in memo:
            memo["_hash"] = hash((self.model, self.domain, self.atoms))
        return memo["_hash"]

    def __reduce__(self):  # rebuilt, not copied: no hash of another process
        return FormSpec, (self.model, self.domain, self.atoms)


def natural_domain(atoms) -> DomainTag:
    """Meet of the atoms' natural domains under the declared inclusions."""
    dom = FULL_SPACE
    for atom in atoms:
        met = tag_meet(dom, atom.natural_domain)
        if met is None:
            raise OutsideCatalog(
                "atoms with incomparable natural domains; pass an explicit domain tag"
            )
        dom = met
    return dom


# ---------------------------------------------------------------- supports
#
# A form's coefficients are positive rationals, so no rule of the catalog
# reads their size: admissibility, boundedness, singular atoms, closedness,
# family membership and whether a sum is defined are facts of the support.
# Each support is one interned object that holds those facts, decided once.


class Support:
    """A form's model, domain tag and atoms without coefficients, made once
    by ``_support``.  ``keys`` (the atoms' sort keys), ``hamel`` (it holds
    the symbolic singular atom), ``unbounded`` (it holds an unbounded
    numeric atom), ``bounded``, ``singular`` and ``closed`` are decided
    here; ``families`` fills ``members`` (family id -> membership),
    ``plans`` ((sum, the other operand's support) -> plan) and, for a
    minuend, ``differences`` ((sum, subtrahend's support, kept positions)
    -> the difference's support or None)."""

    __slots__ = (
        "model", "domain", "atoms", "keys", "hamel", "unbounded", "bounded", "singular", "closed",
        "members", "plans", "differences",
    )

    def __init__(self, model: str, domain: DomainTag, atoms: tuple):
        self.model, self.domain, self.atoms = model, domain, atoms
        self.keys = tuple([a.sort_key for a in atoms])
        self.hamel = any(a.kind == "hamel" for a in atoms)
        self.unbounded = any(not a.bounded and a.kind != "hamel" for a in atoms)
        self.bounded = all(a.bounded for a in atoms)
        # every coefficient is positive, so "the energy coefficient is > 0"
        # is "the energy atom is present"
        energy = model == GRID and DIRICHLET in atoms
        if model == GRID:
            kinds = () if energy else ("boundary0", "boundary1")
        else:
            kinds = ("hamel",)
        self.singular = frozenset([a for a in atoms if a.kind in kinds])
        if self.bounded:
            self.closed = domain == FULL_SPACE
        elif model == SEQUENCE:  # a sequence form's singular atoms are its hamel atoms
            self.closed = domain.kind == "diag_max" and not self.singular
        else:  # an energy atom admits the h1_grid domain alone
            self.closed = energy
        self.members: dict[str, bool] = {}
        self.plans: dict[tuple, tuple | None] = {}
        self.differences: dict[tuple, Support | None] = {}


# every support ever made, so a support is a sound key for the life of the process
_SUPPORTS: dict[tuple, Support] = {}  # (model, domain, atoms) -> its Support
# make_form: (model, domain argument, nonzero atoms in call order) -> _shape
_SHAPES: dict[tuple, tuple] = {}


def _support(model: str, domain: DomainTag, atoms: tuple) -> Support:
    key = (model, domain, atoms)
    sup = _SUPPORTS.get(key)
    if sup is None:
        sup = _SUPPORTS[key] = Support(model, domain, atoms)
    return sup


def _built(sup: Support, atoms: tuple) -> FormSpec:
    """The form of a support and checked atoms: the fields go straight
    into ``__dict__``, past the checks of ``FormSpec.__init__``."""
    t = object.__new__(FormSpec)
    memo = t.__dict__
    memo["model"], memo["domain"], memo["atoms"], memo["support"] = sup.model, sup.domain, atoms, sup
    return t


def _hamel_clash(atoms) -> bool:
    """Whether the symbolic singular atom sits beside an unbounded numeric
    one, which no catalog form holds."""
    return any(a.kind == "hamel" for a in atoms) and not all(a.bounded or a.kind == "hamel" for a in atoms)


def _shape(model: str, domain: DomainTag | None, atoms: list) -> tuple:
    """Support and atom positions in sorted order (None when they are in
    order) of an admissible form with these nonzero atoms; raises for an
    inadmissible one."""
    if not atoms:
        return _support(model, FULL_SPACE, ()), None
    if _hamel_clash(atoms):
        raise OutsideCatalog("the symbolic singular atom only combines with bounded atoms")

    if domain is None:
        dom = natural_domain(atoms)
    else:
        # an explicit domain only needs to sit inside every atom's own
        # natural domain; the atoms' meet may not exist (two different
        # unbounded diagonals restricted to finite support)
        dom = domain
        for atom in atoms:
            if not tag_includes(dom, atom.natural_domain):
                raise OutsideCatalog(
                    f"domain {tag_to_str(dom)} is not contained in the natural "
                    f"domain {tag_to_str(atom.natural_domain)} of {atom}"
                )
    order = sorted(range(len(atoms)), key=lambda i: atoms[i].sort_key)
    sup = _support(model, dom, tuple([atoms[i] for i in order]))
    return sup, None if order == list(range(len(atoms))) else tuple(order)


def make_form(model: str, atoms: dict, domain: DomainTag | None = None) -> FormSpec:
    """Validated constructor.

    Coefficients are normalised to positive rationals; the domain defaults
    to the meet of the atoms' natural domains and may only be restricted
    further.  An unbounded form never lives on the full space unless it is
    the symbolic everywhere-defined singular one.  Every coefficient is
    checked on every call; the rest is checked once per support.
    """
    if model not in hilbert.MODELS:
        raise ModelMismatch(f"unknown model {model!r}")
    allowed = _SEQ_KINDS if model == SEQUENCE else _GRID_KINDS
    kept: list[FormAtom] = []
    coeffs: list[Fraction] = []
    for atom, c in atoms.items():
        if type(c) is not Fraction:
            c = Fraction(c)
        if c.numerator <= 0:  # the sign of a Fraction is its numerator's
            if c.numerator:
                raise ValueError(f"coefficient of {atom} is negative")
            continue
        if atom.kind not in allowed:  # here, not in _shape, so errors keep their order
            raise ModelMismatch(f"atom kind {atom.kind!r} not available on the {model} model")
        kept.append(atom)
        coeffs.append(c)
    key = (model, domain, tuple(kept))
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = _shape(model, domain, kept)
    sup, order = shape
    pairs = tuple(zip(kept, coeffs)) if order is None else tuple([(kept[i], coeffs[i]) for i in order])
    return _built(sup, pairs)


def zero_form(model: str) -> FormSpec:
    return _built(_support(model, FULL_SPACE, ()), ())


def add_coeff(atoms: dict, atom: FormAtom, c: Fraction) -> None:
    """Add ``c`` to the coefficient of ``atom`` in ``atoms``, building no zero."""
    have = atoms.get(atom)
    atoms[atom] = c if have is None else have + c


def sum_shape(t: Support, s: Support) -> tuple | None:
    """How a form on ``t`` plus one on ``s`` is built, from the supports
    alone: the sum's support, the positions in ``t.atoms + s.atoms`` of its
    atoms in order, and (position, i, j) for each atom whose coefficients
    at i and j add; ``None`` when the sum leaves the catalog: the domains
    have no meet, or the symbolic singular atom of one operand meets an
    unbounded numeric atom of the other."""
    dom = tag_meet(t.domain, s.domain)
    # each operand is admissible on a domain that contains the meet, so the
    # hamel rule is the only one the sum can break
    if dom is None or ((t.hamel or s.hamel) and (t.unbounded or s.unbounded)):
        return None
    # one merge of the two sorted key tuples; a sort key names its atom, so
    # an atom of both operands has one key in each, and t's object is kept
    tk, sk = t.keys, s.keys
    n, m = len(tk), len(sk)
    picks: list[int] = []
    shared = []
    i = j = 0
    while i < n and j < m:
        if tk[i] <= sk[j]:
            if tk[i] == sk[j]:
                shared.append((len(picks), i, n + j))
                j += 1
            picks.append(i)
            i += 1
        else:
            picks.append(n + j)
            j += 1
    picks += range(i, n)
    picks += range(n + j, n + m)
    both = t.atoms + s.atoms
    return _support(t.model, dom, tuple([both[k] for k in picks])), tuple(picks), tuple(shared)


def add_shaped(t: FormSpec, s: FormSpec, shape: tuple) -> FormSpec:
    """``t + s`` built by its ``sum_shape``; a zero operand gives the other."""
    if not t.atoms:
        return s
    if not s.atoms:
        return t
    sup, picks, shared = shape
    both = t.atoms + s.atoms
    atoms = [both[k] for k in picks]
    for p, i, j in shared:
        atoms[p] = (both[i][0], both[i][1] + both[j][1])
    return _built(sup, tuple(atoms))


def atom_difference(s: FormSpec, t: FormSpec) -> dict[FormAtom, Fraction]:
    """The signed coefficient of each atom of ``s - t``, s's atoms first;
    an atom whose coefficients cancel is left out."""
    diff = dict(s.atoms)
    for atom, c in t.atoms:
        r = diff.get(atom, ZERO) - c
        if r:
            diff[atom] = r
        else:
            del diff[atom]
    return diff


def form_add(t: FormSpec, s: FormSpec) -> FormSpec:
    """Plain sum on the intersection of the domains (no definedness rule)."""
    if t.model != s.model:
        raise ModelMismatch("cannot add forms on different models")
    shape = sum_shape(t.support, s.support)  # a zero operand is on the full space, which meets every domain
    if shape is None:
        if tag_meet(t.domain, s.domain) is None:
            raise OutsideCatalog("sum of forms on incomparable domains")
        raise OutsideCatalog("the symbolic singular atom only combines with bounded atoms")
    return add_shaped(t, s, shape)


def form_scale(t: FormSpec, q) -> FormSpec:
    q = Fraction(q)
    if q < 0:
        raise ValueError("forms are positive; scale must be non-negative")
    if q == 0 or t.is_zero:
        return zero_form(t.model)
    return make_form(t.model, {a: c * q for a, c in t.atoms}, t.domain)


# ------------------------------------------------------ named catalog forms


def diag_form(lam: str = "j", coeff=1, cut: int | None = None, domain: DomainTag | None = None) -> FormSpec:
    return make_form(SEQUENCE, {diag_atom(lam, cut): Fraction(coeff)}, domain)


def bounded_matrix_form(gen: str = "id", coeff=1, model: str = SEQUENCE) -> FormSpec:
    return make_form(model, {bounded_mat_atom(gen): Fraction(coeff)})


def energy_form(c) -> FormSpec:
    """c times the derivative energy on the grid; c = 0 gives the zero form."""
    return make_form(GRID, {DIRICHLET: Fraction(c)})


def endpoint_form(alpha=1, beta=1) -> FormSpec:
    """alpha |u(0)|^2 + beta |u(1)|^2; singular whenever it is nonzero."""
    return make_form(GRID, {BOUNDARY0: Fraction(alpha), BOUNDARY1: Fraction(beta)})


def energy_with_endpoints(c=1, alpha=1, beta=1) -> FormSpec:
    return make_form(GRID, {DIRICHLET: Fraction(c), BOUNDARY0: Fraction(alpha), BOUNDARY1: Fraction(beta)})


def hamel_form(coeff=1) -> FormSpec:
    """Symbolic everywhere-defined singular form (never evaluated)."""
    return make_form(SEQUENCE, {HAMEL: Fraction(coeff)})


def catalog_forms(model: str | None = None, include_symbolic: bool = False) -> list[tuple[str, FormSpec]]:
    """Named sweep of shipped forms, used by the invariant tests."""
    seq: list[tuple[str, FormSpec]] = [
        ("zero[seq]", zero_form(SEQUENCE)),
        ("diag(j)", diag_form("j")),
        ("diag(j)|finite_support", diag_form("j", domain=FINITE_SUPPORT)),
        ("diag(j^2)", diag_form("j^2")),
        ("diag(1/j)", diag_form("1/j")),
        ("diag(const:1/2)", diag_form("const:1/2")),
        ("diag(j,cut=4)", diag_form("j", cut=4)),
        ("bounded(id)", bounded_matrix_form("id")),
        ("bounded(seeded:3)", bounded_matrix_form("seeded:3")),
        ("diag(j)+bounded", form_add(diag_form("j"), bounded_matrix_form("seeded:5"))),
    ]
    grid: list[tuple[str, FormSpec]] = [
        ("zero[grid]", zero_form(GRID)),
        ("energy(1)", energy_form(1)),
        ("endpoints(1,1)", endpoint_form(1, 1)),
        ("endpoints(0,2)", endpoint_form(0, 2)),
        ("energy+endpoints", energy_with_endpoints(1, 1, 1)),
        ("energy(1/2)+endpoints", energy_with_endpoints(Fraction(1, 2), 1, 1)),
        ("bounded(id)[grid]", bounded_matrix_form("id", model=GRID)),
        ("bounded(seeded:3)[grid]", bounded_matrix_form("seeded:3", model=GRID)),
        ("bounded+endpoints", form_add(bounded_matrix_form("id", model=GRID), endpoint_form(1, 1))),
    ]
    out: list[tuple[str, FormSpec]] = []
    if model in (None, SEQUENCE):
        out += seq
        if include_symbolic:
            out.append(("hamel", hamel_form()))
    if model in (None, GRID):
        out += grid
    return out


def atom_name(atom: FormAtom) -> str:
    """The atom as ``describe`` writes it: ``diag(j,cut=4)``, ``mat(id)``, ``energy``, ``|u(0)|^2``."""
    if atom.kind == "diag":
        cut = f",cut={atom.cut}" if atom.cut is not None else ""
        return f"diag({atom.lam}{cut})"
    if atom.kind == "bounded_mat":
        return f"mat({atom.gen})"
    return {"dirichlet": "energy", "boundary0": "|u(0)|^2", "boundary1": "|u(1)|^2"}.get(atom.kind, atom.kind)


def describe(t: FormSpec) -> str:
    if t.is_zero:
        return f"0 [{t.model}]"
    parts = [f"{c}*{atom_name(atom)}" for atom, c in t.atoms]
    return " + ".join(parts) + f" on {tag_to_str(t.domain)} [{t.model}]"


# -------------------------------------------------------------- matrices


def _seeded_unit_psd(dim: int, seed: int) -> np.ndarray:
    # Hermitian PSD with spectral norm exactly 1, reproducible per (seed, dim)
    rng = np.random.default_rng((seed, dim))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    w = rng.uniform(0.2, 1.0, dim)
    w /= w.max()
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2.0


def _kept_at_default_levels(fn):
    """``fn(..., level)`` in a bounded ``lru_cache`` (its ``cache_info`` and ``cache_clear``)
    at a default level; past them only the last result, dropped before the next is built."""
    cached = functools.lru_cache(maxsize=512)(fn)
    defaults = {level for levels in DEFAULT_LEVELS.values() for level in levels}
    last: dict = {}

    def call(*args):
        if args[-1] in defaults:
            return cached(*args)
        if args not in last:
            last.clear()
            last[args] = fn(*args)
        return last[args]

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return functools.update_wrapper(call, fn)


# sigma meets 10 distinct forms and 3 atoms at the default levels, a pointwise table none: 512 keeps every hit
@_kept_at_default_levels
def _atom_matrix(model: str, atom: FormAtom, level: int) -> np.ndarray:
    dim = hilbert.dim_of(model, level)
    if atom.kind == "diag":
        upto = dim if atom.cut is None else min(atom.cut, dim)
        vals = [float(lam_value(atom.lam, j)) for j in range(1, upto + 1)]
        vals += [0.0] * (dim - upto)
        m = np.diag(np.asarray(vals, dtype=complex))
    elif atom.kind == "bounded_mat":
        if atom.gen == "id":
            g = np.eye(dim, dtype=complex)
        else:
            g = _seeded_unit_psd(dim, int(atom.gen.split(":", 1)[1]))
        # conjugate by the Gram square root so the numerical range of the
        # atom relative to the model inner product is exactly [min, 1]
        root = np.sqrt(hilbert.gram_weights(model, level))
        m = (root[:, None] * g) * root[None, :]
    elif atom.kind == "dirichlet":
        m = hilbert.energy_stiffness(level).astype(complex)
    elif atom.kind == "boundary0":
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
    elif atom.kind == "boundary1":
        m = np.zeros((dim, dim), dtype=complex)
        m[-1, -1] = 1.0
    else:
        raise SymbolicOnly("the symbolic singular form has no matrices")
    m.setflags(write=False)
    return m


@_kept_at_default_levels
def matrix_at(t: FormSpec, level: int) -> np.ndarray:
    """Coefficient matrix of the form at a level, t(x, y) = y* M x; read-only."""
    dim = hilbert.dim_of(t.model, level)
    m = np.zeros((dim, dim), dtype=complex)
    for atom, c in t.atoms:
        m += float(c) * _atom_matrix(t.model, atom, level)
    m.setflags(write=False)
    return m


def evaluate(t: FormSpec, x, y) -> complex:
    """t(x, y) at the level inferred from the vector length."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatch("operand vectors have different shapes")
    level = hilbert.level_of(t.model, x.shape[0])
    m = matrix_at(t, level)
    return complex(np.vdot(y, m @ x))


def quadratic(t: FormSpec, x) -> float:
    """t(x, x); must be real and non-negative up to roundoff."""
    value = evaluate(t, x, x)
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise VerificationFailed(f"quadratic value is not real: {value}")
    return value.real


# ----------------------------------------------------- range and classes


def psd_range(m: np.ndarray) -> tuple[float, float, bool]:
    """Least and largest eigenvalue of the Hermitian ``m``, and the one
    positivity rule: the least is at least ``-PSD_TOL * max(1, largest)``."""
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    lo, hi = float(vals[0]), float(vals[-1])
    return lo, hi, lo >= -PSD_TOL * max(1.0, hi)


def numerical_range_bounds(t: FormSpec, level: int) -> tuple[float, float]:
    """Extremes (m, n) of t(x, x) over unit vectors of the model.

    Solved as a Hermitian eigenproblem relative to the model Gram matrix;
    a form that fails ``psd_range``'s positivity rule raises.
    """
    # the pencil (M, W) with diagonal W > 0 has the spectrum of W^-1/2 M W^-1/2
    r = 1.0 / np.sqrt(hilbert.gram_weights(t.model, level))
    lo, hi, positive = psd_range((r[:, None] * matrix_at(t, level)) * r[None, :])
    if not positive:
        raise VerificationFailed(f"form is not positive: min range {lo}")
    return lo, hi


def is_bounded(t: FormSpec) -> bool:
    """Catalog boundedness: every atom is bounded."""
    return t.support.bounded


def classify_boundedness(t: FormSpec) -> bool:
    """Declared boundedness cross-checked by a growth probe.

    Returns True for bounded.  The probe flags a form as unbounded when
    its numerical-range supremum grows by more than ``GROWTH_FACTOR``
    across the model's default levels; disagreement with the declared
    verdict raises :class:`ClassificationMismatch`.  The symbolic singular
    form is classified by declaration alone.
    """
    declared = is_bounded(t)
    if t.has_kind("hamel"):
        return False
    sup = [numerical_range_bounds(t, level)[1] for level in DEFAULT_LEVELS[t.model]]
    grows = sup[-1] > GROWTH_FACTOR * max(sup[0], 1e-12) and sup[-1] > 1e-9
    if declared and grows:
        raise ClassificationMismatch(f"{describe(t)} declared bounded but n_t grows: {sup}")
    if not declared and not grows and not t.is_zero:
        raise ClassificationMismatch(f"{describe(t)} declared unbounded but n_t is flat: {sup}")
    return declared


def singular_atoms(t: FormSpec) -> frozenset:
    """The atoms of t's singular part, by the whole-form catalog rule.

    Grid forms with a positive derivative-energy coefficient are entirely
    regular; with zero energy the boundary atoms are singular.  On the
    sequence model only the symbolic singular atom is.
    """
    return t.support.singular


def reg_sing_split(t: FormSpec) -> tuple[FormSpec, FormSpec]:
    """Split into regular + singular parts along ``singular_atoms``.

    The parts partition the atom multiset, so their matrices reassemble
    the original exactly at every level.
    """
    sing_atoms = singular_atoms(t)
    sing = {a: c for a, c in t.atoms if a in sing_atoms}
    reg = {a: c for a, c in t.atoms if a not in sing_atoms}
    reg_dom = None if not reg else (t.domain if any(not a.bounded for a in reg) else None)
    t_r = make_form(t.model, reg, reg_dom) if reg else zero_form(t.model)
    t_s = make_form(t.model, sing) if sing else zero_form(t.model)
    return t_r, t_s


def is_regular(t: FormSpec) -> bool:
    return not singular_atoms(t)


def is_singular(t: FormSpec) -> bool:
    return len(singular_atoms(t)) == len(t.atoms)


def is_closed(t: FormSpec) -> bool:
    """Closedness by the catalog rule.

    Bounded forms are closed exactly on the full space.  Unbounded
    sequence forms are closed on their maximal diagonal domain but not on
    the finite-support restriction.  Unbounded grid forms are closed when
    the derivative-energy coefficient is positive; boundary-only forms are
    not closable at all.
    """
    return t.support.closed


# ----------------------------------------------------- singularity probe


def singularity_witness(t: FormSpec, x):
    """Search for y with t(y, y) < |(x, y)|^2 at the level of ``x``.

    A singular form admits such a witness for every nonzero x.  The
    minimum of t(y, y) / |(x, y)|^2 is computed from the
    eigendecomposition of the form matrix; ``None`` is returned when that
    minimum is >= 1, i.e. no witness exists.
    """
    x = np.asarray(x, dtype=complex)
    if not np.any(x):
        raise ValueError("witness search needs a nonzero reference vector")
    level = hilbert.level_of(t.model, x.shape[0])
    weights = hilbert.gram_weights(t.model, level)
    g = weights * x  # inner(x, y) == vdot(y, g)

    def accept(y):
        y = np.asarray(y, dtype=complex)
        if not np.any(y):
            return None
        y = y / np.linalg.norm(y)
        if quadratic(t, y) < abs(hilbert.inner(t.model, x, y)) ** 2:
            return y
        return None

    m = matrix_at(t, level)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    coords = vecs.conj().T @ g
    null = vals <= PSD_TOL * max(1.0, float(vals[-1]))
    null_overlap = coords.copy()
    null_overlap[~null] = 0.0
    if np.linalg.norm(null_overlap) > 1e-12 * np.linalg.norm(g):
        got = accept(vecs @ null_overlap)
        if got is not None:
            return got
    pos = ~null
    if np.any(pos):
        got = accept(vecs[:, pos] @ (coords[pos] / vals[pos]))
        if got is not None:
            return got
    return None


# ---------------------------------------------- operators of bounded/closed


def riesz_operator_of_bounded(t: FormSpec, level: int) -> np.ndarray:
    """Matrix A with t(x, y) = (A x, y) in the model inner product,
    verified on four seeded vector pairs."""
    if not is_bounded(t):
        raise UnboundedForm(f"{describe(t)} is not bounded")
    a = _gram_solve(t, level)
    sampler = hilbert.VectorSampler(t.model, level, seed=13)
    # diag A = diag W^-1/2 M W^-1/2: the scale never exceeds the top of the numerical range
    scale = max(1.0, float(a.diagonal().real.max()))
    for _ in range(4):
        x, y = sampler.draw(), sampler.draw()
        resid = abs(evaluate(t, x, y) - hilbert.inner(t.model, a @ x, y))
        if resid > 1e-10 * scale * max(1.0, float(np.linalg.norm(x) * np.linalg.norm(y))):
            raise VerificationFailed(f"representation residual {resid} too large")
    return a


def _gram_solve(t: FormSpec, level: int) -> np.ndarray:
    return matrix_at(t, level) / hilbert.gram_weights(t.model, level)[:, None]


def extend_bounded(t: FormSpec) -> FormSpec:
    """Extend a bounded form from a dense domain to the full space."""
    if not is_bounded(t):
        raise UnboundedForm(f"{describe(t)} has no bounded extension")
    if t.domain == FULL_SPACE:
        return t
    return make_form(t.model, t.atoms_dict(), FULL_SPACE)


def associated_operator(t: FormSpec, level: int) -> np.ndarray:
    """Matrix of the positive operator generating a closed form at a level."""
    if not is_closed(t):
        raise NotClosed(f"{describe(t)} is not closed")
    return _gram_solve(t, level)


# ------------------------------------------------------------------ JSON


def form_to_dict(t: FormSpec) -> dict:
    atoms = []
    boundary = {}
    for atom, c in t.atoms:
        if atom.kind == "diag":
            sup = "inf"
            if atom.bounded:  # lam is largest at j = 1 when p <= 1, and at the cut otherwise
                p, q = lam_poly(atom.lam)
                sup = str(ZERO if atom.cut == 0 else q if p <= 1 else lam_value(atom.lam, atom.cut))
            atoms.append({"kind": "diag", "lambda": atom.lam, "sup": sup, "coeff": str(c)})
            if atom.cut is not None:
                atoms[-1]["cut"] = atom.cut
        elif atom.kind == "bounded_mat":
            atoms.append({"kind": "bounded_mat", "gen": atom.gen, "coeff": str(c)})
        elif atom.kind == "dirichlet":
            atoms.append({"kind": "dirichlet", "c": str(c)})
        elif atom.kind in ("boundary0", "boundary1"):
            boundary[atom.kind] = c
        else:
            atoms.append({"kind": "hamel", "coeff": str(c)})
    if boundary:
        alpha, beta = (str(boundary.get(kind, ZERO)) for kind in ("boundary0", "boundary1"))
        atoms.append({"kind": "boundary", "alpha": alpha, "beta": beta})
    atoms.sort(key=lambda e: json.dumps(e, sort_keys=True))
    return {"model": t.model, "domain": tag_to_str(t.domain), "atoms": atoms}


def form_from_dict(data: dict) -> FormSpec:
    """The form ``form_to_dict`` describes; any description that is not one
    (a missing key, a value of the wrong type) raises ``OutsideCatalog``."""
    atoms: dict[FormAtom, Fraction] = {}

    def bump(atom, c):
        add_coeff(atoms, atom, Fraction(c))

    try:
        model = data["model"]
        domain = tag_from_str(data["domain"])
        for entry in data["atoms"]:
            kind = entry.get("kind")
            if kind == "diag":
                bump(diag_atom(entry["lambda"], entry.get("cut")), entry.get("coeff", "1"))
            elif kind == "bounded_mat":
                bump(bounded_mat_atom(entry["gen"]), entry.get("coeff", "1"))
            elif kind == "dirichlet":
                bump(DIRICHLET, entry["c"])
            elif kind == "boundary":
                bump(BOUNDARY0, entry.get("alpha", "0"))
                bump(BOUNDARY1, entry.get("beta", "0"))
            elif kind == "hamel":
                bump(HAMEL, entry.get("coeff", "1"))
            else:
                raise OutsideCatalog(f"unknown atom kind {kind!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # say, "lambda": 5 or "coeff": "abc"
        raise OutsideCatalog(f"malformed form description: {exc}") from exc
    return make_form(model, atoms, domain)


def form_to_json(t: FormSpec) -> str:
    """Canonical JSON encoding; loading it back is bit-exact."""
    return json.dumps(form_to_dict(t), sort_keys=True, separators=(",", ":"))


def form_from_json(text: str) -> FormSpec:
    return form_from_dict(json.loads(text))
