"""Kernel for generalized effect algebras presented as partial algebras.

A generalized effect algebra is a set with a distinguished zero and a
partial commutative sum that is associative (including definedness in both
directions), cancellative, has zero as a unit, and in which a sum can only
vanish when both summands vanish.  Everything here is formulated against
the :class:`PartialAlgebra` protocol so the same checkers run on exact
integer instances and on the form algebras built elsewhere in the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    JoinUnavailable,
    MeetUnavailable,
    NonUniqueWitness,
    NoOrderOracle,
    NotEnumerable,
    NotSumClosed,
    VerificationFailed,
)

AXIOMS = ("GEi", "GEii", "GEiii", "GEiv", "GEv")
# n + n^2 + n^3 tuples above this are refused: about 10^3 elements, tens of seconds
MAX_EXHAUSTIVE_TUPLES = 10**9


class PartialAlgebra:
    """Carrier with a partial commutative sum and a zero element.

    Subclasses provide ``add`` (returning ``None`` for undefined sums) and
    either enumeration (``enumerable = True`` plus ``elements``) or a
    sampling method together with an order oracle for the derived order.
    Elements must support ``==`` and hashing.
    """

    zero = None
    enumerable = False
    le_oracle = None  # callable (a, b) -> bool, used when not enumerable

    def add(self, a, b):
        raise NotImplementedError

    def elements(self):
        raise NotEnumerable(f"{type(self).__name__} has no enumeration")

    def sample(self, rng: random.Random):
        if self.enumerable:
            elems = _sum_table(self).elems  # enumerated once, cached on the instance
            return elems[rng.randrange(len(elems))]
        raise NotEnumerable(f"{type(self).__name__} has no sampler")


class _SumTable:
    """The partial sum of an enumerable carrier as integer arrays.

    Built once per algebra (see :func:`_sum_table`).  Every value is
    interned to an integer id in first-seen order: the enumerated window
    first, then the sums that leave it; ``-1`` marks an undefined sum.
    Enumerating is cheap and happens here; each array, and each row of
    ``first``, is built on first use, so a caller can refuse an oversized
    carrier before paying for it.
    """

    def __init__(self, alg: PartialAlgebra):
        self.alg = alg
        self.elems = list(alg.elements())
        self.ids: dict = {}
        self.vals: list = []
        self.win = np.array([self.intern(e) for e in self.elems], dtype=np.int32)
        self.n_window = len(self.vals)
        # first position of each window id
        self.at = np.unique(self.win, return_index=True)[1]
        self._rows: dict[int, np.ndarray] = {}

    def intern(self, value) -> int:
        if value is None:
            return -1
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self.vals)
            self.vals.append(value)
        return i

    def position(self, value):
        """Index of ``value`` in the window, or ``None`` outside it."""
        i = self.ids.get(value)
        return None if i is None or i >= self.n_window else int(self.at[i])

    def row(self, i: int) -> np.ndarray:
        """``first[i]``, built on its own on first use, so that one order
        query on a large carrier pays n sums rather than n^2."""
        if "first" in self.__dict__:
            return self.first[i]
        r = self._rows.get(i)
        if r is None:
            add, intern, x = self.alg.add, self.intern, self.elems[i]
            r = self._rows[i] = np.array([intern(add(x, y)) for y in self.elems], dtype=np.int32)
        return r

    @cached_property
    def first(self) -> np.ndarray:
        """``first[i, j]``: id of ``elems[i] + elems[j]``, or -1."""
        n = len(self.elems)
        first = np.array([self.row(i) for i in range(n)], dtype=np.int32).reshape(n, n)
        self._rows.clear()
        return first

    @cached_property
    def n_first(self) -> int:
        """Ids below this are met in the window or in ``first``."""
        return max(self.n_window, int(self.first.max(initial=-1)) + 1)

    @cached_property
    def left(self) -> np.ndarray:
        """``left[v, j]``: id of ``vals[v] + elems[j]`` for each id ``v`` met
        in ``first``; the extra last row is -1, so ``left[-1]`` reads an
        undefined first sum as undefined."""
        add, intern = self.alg.add, self.intern
        rows = [[intern(add(self.vals[v], y)) for y in self.elems] for v in range(self.n_first)]
        rows.append([-1] * len(self.elems))
        return np.array(rows, dtype=np.int32).reshape(len(rows), len(self.elems))

    @cached_property
    def right(self) -> np.ndarray:
        """``right[i, v]``: id of ``elems[i] + vals[v]``, with a last column of -1."""
        add, intern = self.alg.add, self.intern
        cols = [[intern(add(x, self.vals[v])) for v in range(self.n_first)] + [-1] for x in self.elems]
        return np.array(cols, dtype=np.int32).reshape(len(self.elems), self.n_first + 1)

    @cached_property
    def reach(self) -> np.ndarray:
        """``reach[i, v]``: some window ``z`` has ``elems[i] + z`` of id ``v``."""
        n = len(self.elems)
        reach = np.zeros((n, self.n_first + 1), dtype=bool)
        # undefined sums (-1) land in the spare last column, which is dropped
        reach[np.arange(n)[:, None], self.first] = True
        reach.flags.writeable = False  # below() and above() hand out views
        return reach[:, :-1]

    @cached_property
    def le(self) -> np.ndarray:
        """The derived order on the window: ``le[i, k]`` is ``elems[i] <= elems[k]``."""
        le = self.reach[:, self.win]
        le.flags.writeable = False
        return le

    def below(self, b) -> np.ndarray:
        """``c <= b`` for every window element ``c``."""
        reach = self.reach  # builds ``first``, which interns the sums
        v = self.ids.get(b)
        return np.zeros(len(self.elems), dtype=bool) if v is None or v >= self.n_first else reach[:, v]

    def above(self, a) -> np.ndarray:
        """``a <= c`` for every window element ``c``; all false for an ``a``
        outside the window, whose sums the table does not hold."""
        p = self.position(a)
        return np.zeros(len(self.elems), dtype=bool) if p is None else self.le[p]


def _sum_table(alg: PartialAlgebra) -> _SumTable:
    """The sum table of an enumerable algebra, cached on the instance under
    its ``repr``: an instance's repr names every field (the integer
    instances are dataclasses), so changing one (say ``cap``) after a query
    builds a fresh table."""
    key = repr(alg)
    cached = alg.__dict__.get("_sum_table")
    if cached is None or cached[0] != key:
        cached = alg._sum_table = (key, _SumTable(alg))
    return cached[1]


def _witnesses(alg: PartialAlgebra, a, b) -> list:
    """Every window element z with a + z = b, in window order."""
    table = _sum_table(alg)
    p = table.position(a)
    if p is None:  # a lies outside the window: scan its sums
        return [z for z in table.elems if alg.add(a, z) == b]
    row = table.row(p)  # interns the sums before b is looked up
    v = table.ids.get(b)
    return [] if v is None else [table.elems[j] for j in np.flatnonzero(row == v)]


def derived_le(alg: PartialAlgebra, a, b) -> bool:
    """Decide a <= b in the order derived from the partial sum.

    a <= b holds exactly when some z with a + z = b exists.  Enumerable
    carriers read it off their sum table; other algebras must have
    registered a decision oracle.
    """
    if alg.enumerable:
        return bool(_witnesses(alg, a, b))
    if alg.le_oracle is not None:
        return bool(alg.le_oracle(a, b))
    raise NoOrderOracle(f"{type(alg).__name__} is not enumerable and has no order oracle")


def ominus(alg: PartialAlgebra, b, a):
    """The unique z with a + z = b, or ``None`` when a <= b fails.

    Cancellation makes the witness unique; finding two distinct witnesses
    raises :class:`NonUniqueWitness` because the instance then violates
    the cancellation axiom.
    """
    if not alg.enumerable:
        raise NoOrderOracle("subtraction by search needs an enumerable carrier")
    found = None
    for z in _witnesses(alg, a, b):
        if found is not None and z != found:
            raise NonUniqueWitness(f"{a} + {found} = {a} + {z} = {b} with {found} != {z}")
        found = z
    return found


# --------------------------------------------------------------- axioms


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool
    counterexample: tuple | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom run: per-axiom verdicts with counterexamples."""

    mode: str
    samples_tested: int
    seed: int | None
    verdicts: tuple[AxiomVerdict, ...]

    def verdict(self, axiom: str) -> AxiomVerdict:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v
        raise KeyError(axiom)

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failures(self) -> list[AxiomVerdict]:
        return [v for v in self.verdicts if not v.passed]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "samples_tested": self.samples_tested,
            "seed": self.seed,
            "all_pass": self.all_pass,
            "verdicts": [
                {
                    "axiom": v.axiom,
                    "passed": v.passed,
                    "counterexample": None
                    if v.counterexample is None
                    else [repr(e) for e in v.counterexample],
                }
                for v in self.verdicts
            ],
        }


def _violates_gei(alg, x, y) -> bool:
    return alg.add(x, y) != alg.add(y, x)


def _violates_geii(alg, x, y, z) -> bool:
    # if either association is defined, both must be and they must agree
    xy = alg.add(x, y)
    lhs = None if xy is None else alg.add(xy, z)
    yz = alg.add(y, z)
    rhs = None if yz is None else alg.add(x, yz)
    if lhs is None and rhs is None:
        return False
    return lhs != rhs


def _violates_geiii(alg, x) -> bool:
    return alg.add(x, alg.zero) != x


def _violates_geiv(alg, x, y, z) -> bool:
    s1 = alg.add(x, y)
    if s1 is None:
        return False
    return s1 == alg.add(x, z) and y != z


def _violates_gev(alg, x, y) -> bool:
    return alg.add(x, y) == alg.zero and not (x == alg.zero and y == alg.zero)


# in the order a sampled draw runs them
_CHECKS = {
    "GEiii": (1, _violates_geiii),
    "GEi": (2, _violates_gei),
    "GEv": (2, _violates_gev),
    "GEii": (3, _violates_geii),
    "GEiv": (3, _violates_geiv),
}


class _DrawSums:
    """One draw's view of an algebra: its ``zero``, and an ``add`` that computes each
    distinct sum once, keyed on operand identity (the draw and the sums stay referenced)."""

    def __init__(self, alg: PartialAlgebra):
        self.zero, self._add, self._sums = alg.zero, alg.add, {}

    def add(self, a, b):
        key = (id(a), id(b))
        if key not in self._sums:
            self._sums[key] = self._add(a, b)
        return self._sums[key]


def replay(alg: PartialAlgebra, verdict: AxiomVerdict) -> bool:
    """Re-run a failed verdict's counterexample; True when it still fails."""
    if verdict.counterexample is None:
        return False
    arity, check = _CHECKS[verdict.axiom]
    return check(alg, *verdict.counterexample[:arity])


def _first_true(mask: np.ndarray):
    """Index tuple of the first true entry in C order, or ``None``."""
    return np.unravel_index(np.argmax(mask), mask.shape) if mask.any() else None


def _exhaustive_violations(alg: PartialAlgebra, table: _SumTable) -> dict[str, tuple]:
    """First counterexample of each axiom over all window tuples.

    "First" is the order of nested loops over the window (C order of the
    arrays), so every counterexample names the same tuple as a plain loop.
    GEii and GEiv run one x at a time over n x n arrays.
    """
    elems, first, win = table.elems, table.first, table.win
    n = len(elems)
    zero = table.ids.get(alg.zero, -2)  # -2 matches no id: then no sum is zero
    found = {
        "GEiii": _first_true(
            np.array([table.intern(alg.add(x, alg.zero)) for x in elems], dtype=np.int32) != win
        ),
        "GEi": _first_true(first != first.T),
        "GEv": _first_true((first == zero) & ~((win == zero)[:, None] & (win == zero)[None, :])),
    }
    bad = {axiom: tuple(elems[i] for i in at) for axiom, at in found.items() if at is not None}
    left, right = table.left, table.right
    distinct = win[:, None] != win[None, :]
    for i in range(n):
        row = first[i]
        if "GEii" not in bad:
            # (x + y) + z against x + (y + z), undefined as -1 on both sides
            at = _first_true(left[row] != right[i][first])
            if at is not None:
                bad["GEii"] = (elems[i], elems[at[0]], elems[at[1]])
        if "GEiv" not in bad:
            at = _first_true((row[:, None] == row[None, :]) & (row >= 0)[:, None] & distinct)
            if at is not None:
                bad["GEiv"] = (elems[i], elems[at[0]], elems[at[1]])
        if "GEii" in bad and "GEiv" in bad:
            break
    return bad


def check_axioms(
    alg: PartialAlgebra,
    mode: str = "exhaustive",
    samples: int = 2000,
    seed: int = 0,
) -> AxiomReport:
    """Test the five defining axioms.

    ``mode="exhaustive"`` tests all tuples of an enumerable carrier from
    its sum table and raises ``ValueError`` for more than
    ``MAX_EXHAUSTIVE_TUPLES`` of them; ``mode="sampled"`` draws the
    requested number of seeded triples from the instance sampler, each
    distinct sum of a triple once.  A failed verdict always carries a
    concrete counterexample that :func:`replay` reproduces.
    """
    bad: dict[str, tuple] = {}

    if mode == "exhaustive":
        if not alg.enumerable:
            raise NotEnumerable("exhaustive axiom checks need an enumerable carrier")
        table = _sum_table(alg)
        n = len(table.elems)
        tested = n + n * n + n * n * n
        if tested > MAX_EXHAUSTIVE_TUPLES:
            raise ValueError(
                f"an exhaustive check of {n} elements tests {tested} tuples, more than "
                f"{MAX_EXHAUSTIVE_TUPLES}; use a smaller --cap or --mode sampled"
            )
        bad = _exhaustive_violations(alg, table)
        used_seed = None
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"sampled mode needs samples >= 1, got {samples}")
        rng = random.Random(seed)
        for _ in range(samples):
            draw = (alg.sample(rng), alg.sample(rng), alg.sample(rng))
            sums = _DrawSums(alg)
            for axiom, (arity, violates) in _CHECKS.items():
                if axiom not in bad and violates(sums, *draw[:arity]):
                    bad[axiom] = draw[:arity]
        tested = samples
        used_seed = seed
    else:
        raise ValueError(f"unknown mode {mode!r}")

    verdicts = tuple(
        AxiomVerdict(axiom=a, passed=a not in bad, counterexample=bad.get(a)) for a in AXIOMS
    )
    return AxiomReport(mode=mode, samples_tested=tested, seed=used_seed, verdicts=verdicts)


# --------------------------------------------------------------- subsets


@dataclass(frozen=True)
class SubsetCheck:
    ok: bool
    certificate: tuple | None = None
    reason: str = ""


def is_sub_gea(ambient: PartialAlgebra, subset) -> SubsetCheck:
    """Two-out-of-three closure test for a sub-algebra candidate.

    ``subset`` must contain the zero, and whenever x + y = z holds in the
    ambient algebra with two of x, y, z in the subset, the third must lie
    in it too.  On failure the certificate is the violating triple
    (x, y, z), normalised so that when an operand and the sum are the two
    members, the member operand is listed first.
    """
    if ambient.zero not in subset:
        return SubsetCheck(False, None, "zero missing from subset")
    table = _sum_table(ambient)
    first = table.first
    # membership of each window id; the spare last entry is read for -1
    member = np.zeros(table.n_window + 1, dtype=bool)
    member[:-1] = [v in subset for v in table.vals[: table.n_window]]
    x_in = member[table.win]
    # sums that escape the enumerated slice are undecidable here
    decidable = (first >= 0) & (first < table.n_window)
    z_in = member[np.where(decidable, first, -1)]
    members = x_in[:, None].astype(int) + x_in[None, :] + z_in
    at = _first_true(decidable & (members == 2))
    if at is None:
        return SubsetCheck(True, None, "")
    x, y = (table.elems[i] for i in at)
    z = table.vals[first[at]]
    cert = (y, x, z) if (x_in[at[1]] and not x_in[at[0]]) else (x, y, z)
    return SubsetCheck(False, cert, "closure violated")


class RestrictedAlgebra(PartialAlgebra):
    """Ambient algebra cut down to a subset: a sum is defined exactly when
    it is defined in the ambient algebra and lands in the subset."""

    def __init__(self, base: PartialAlgebra, subset):
        self.base = base
        self._set = frozenset(subset)
        self._elems = sorted(self._set)
        self.zero = base.zero
        self.enumerable = True

    def add(self, a, b):
        z = self.base.add(a, b)
        return z if z in self._set else None

    def elements(self):
        return list(self._elems)

    def __repr__(self):
        return f"RestrictedAlgebra({self.base!r}, {self._elems!r})"


def restrict(ambient: PartialAlgebra, subset) -> RestrictedAlgebra:
    """Restrict the ambient sum to a subset containing zero and closed
    under the ambient sums of its members; a violating pair raises
    :class:`NotSumClosed`.  A restriction to a subset that is not closed
    is a :class:`RestrictedAlgebra` built directly.
    """
    members = list(subset)
    if ambient.zero not in members:
        raise ValueError("subset must contain the zero element")
    for x in members:
        for y in members:
            z = ambient.add(x, y)
            if z is not None and z not in subset:
                raise NotSumClosed((x, y))
    return RestrictedAlgebra(ambient, members)


# ------------------------------------------------------- meets and joins


def _extremum(alg: PartialAlgebra, items, lower: bool):
    """Greatest lower (``lower``) or least upper bound of ``items`` by
    exhaustive scan of the window, or ``None``."""
    table = _sum_table(alg)
    # le[c, m]: m dominates c, that is c <= m for a meet and m <= c for a join
    le = table.le if lower else table.le.T
    bounds = np.ones(len(table.elems), dtype=bool)
    for e in items:
        bounds &= table.below(e) if lower else table.above(e)
    cand = np.flatnonzero(bounds)
    for m in cand:
        if le[cand, m].all():
            return table.elems[m]
    return None


def brute_meet(alg: PartialAlgebra, items):
    """Greatest lower bound of ``items`` by exhaustive scan, or ``None``."""
    return _extremum(alg, items, lower=True)


def brute_join(alg: PartialAlgebra, items):
    """Least upper bound of ``items`` by exhaustive scan, or ``None``."""
    return _extremum(alg, items, lower=False)


def meet_via_complement_join(alg: PartialAlgebra, chain, join_oracle=None):
    """Meet of a descending chain computed through complements.

    For a_1 >= a_2 >= ... the differences a_1 - a_n form an ascending
    chain below a_1; if their join a' exists, then a_1 - a' is the meet of
    the original chain.  On enumerable carriers the result is verified to
    be a lower bound that dominates every enumerated lower bound.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    if join_oracle is None:
        join_oracle = lambda seq: brute_join(alg, seq)  # noqa: E731
    head = chain[0]
    diffs = []
    for a in chain:
        d = ominus(alg, head, a)
        if d is None:
            raise ValueError("chain is not descending from its first element")
        diffs.append(d)
    sup = join_oracle(diffs)
    if sup is None:
        raise JoinUnavailable("complement chain has no join")
    meet = ominus(alg, head, sup)
    if meet is None:
        raise VerificationFailed("join of complements is not below the chain head")
    if alg.enumerable:
        if not all(derived_le(alg, meet, a) for a in chain):
            raise VerificationFailed("computed meet is not a lower bound")
        table = _sum_table(alg)
        lower = np.logical_and.reduce([table.below(a) for a in chain])
        stray = np.flatnonzero(lower & ~table.below(meet))
        if len(stray):
            c = table.elems[stray[0]]
            raise VerificationFailed(f"lower bound {c} not dominated by computed meet {meet}")
    return meet


def join_via_complement_meet(alg: PartialAlgebra, chain, bound, meet_oracle=None):
    """Join of an ascending chain dominated by ``bound``, via complements.

    For a_1 <= a_2 <= ... <= b the differences b - a_n descend; if their
    meet b' exists, then b - b' is the join of the chain, and it does not
    depend on which dominating b was used.  On enumerable carriers the
    result is verified to be the least upper bound below ``bound``.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    if meet_oracle is None:
        meet_oracle = lambda seq: brute_meet(alg, seq)  # noqa: E731
    diffs = []
    for a in chain:
        d = ominus(alg, bound, a)
        if d is None:
            raise ValueError(f"chain element {a} is not below the bound {bound}")
        diffs.append(d)
    inf = meet_oracle(diffs)
    if inf is None:
        raise MeetUnavailable("complement chain has no meet")
    join = ominus(alg, bound, inf)
    if join is None:
        raise VerificationFailed("meet of complements is not below the bound")
    if alg.enumerable:
        if not all(derived_le(alg, a, join) for a in chain):
            raise VerificationFailed("computed join is not an upper bound")
        table = _sum_table(alg)
        upper = table.below(bound)
        for a in chain:
            if table.position(a) is None:  # a lies outside the window: scan its sums
                upper = upper & [derived_le(alg, a, c) for c in table.elems]
            else:
                upper = upper & table.above(a)
        stray = np.flatnonzero(upper & ~table.above(join))
        if len(stray):
            c = table.elems[stray[0]]
            raise VerificationFailed(f"upper bound {c} below the bound beats computed join")
    return join
