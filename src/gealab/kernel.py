"""Kernel for generalized effect algebras presented as partial algebras.

A generalized effect algebra is a set with a distinguished zero and a
partial commutative sum that is associative (including definedness in both
directions), cancellative, has zero as a unit, and in which a sum can only
vanish when both summands vanish.  Everything here is formulated against
the :class:`PartialAlgebra` protocol so the same checkers run on exact
integer instances and on the form algebras built elsewhere in the package.
"""

from __future__ import annotations

import itertools
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
    TooManyElements,
    VerificationFailed,
)

AXIOMS = ("GEi", "GEii", "GEiii", "GEiv", "GEv")
# n + n^2 + n^3 tuples above this are refused: about 10^3 elements, tens of seconds
MAX_EXHAUSTIVE_TUPLES = 10**9
# the most elements an exhaustive check reads
_EXHAUSTIVE_ELEMENTS = max(
    n for n in range(round(MAX_EXHAUSTIVE_TUPLES ** (1 / 3)) + 1) if n + n * n + n**3 <= MAX_EXHAUSTIVE_TUPLES
)
# sampling and order queries enumerate at most this many elements
MAX_ENUMERATED = 10**6
# pairs per array sum, so that peak memory does not grow with the carrier
_BLOCK = 1 << 16


class PartialAlgebra:
    """Carrier with a partial commutative sum and a zero element.

    Subclasses provide ``add`` (returning ``None`` for undefined sums) and
    either enumeration (``enumerable = True`` plus ``elements``) or a
    sampling method together with an order oracle for the derived order.
    Elements must support ``==`` and hashing.  A carrier of ints or int
    tuples may also provide ``add_arrays(a, b) -> (sums, defined)``, the
    same sum over int64 arrays with one point per row, which the sum table
    uses in place of ``add`` on non-negative coordinates (see ``_ArraySums``).
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
    Every sum goes through :meth:`sums`.  Each array, and each row of
    ``first``, is built on first use.

    The derived order is held as Python-int bitsets over window positions
    (bit ``i`` stands for ``elems[i]``): ``down[v]`` is the set of window
    elements below the value of id ``v``, ``up[i]`` the set above
    ``elems[i]``.  Meets, joins and the complement routes intersect them
    with ``&``, and the lowest set bit is the first window element.
    """

    def __init__(self, alg: PartialAlgebra, elems: list):
        self.alg = alg
        self.elems = elems
        self.ids: dict = {}
        self.vals: list = []
        self.win = np.array([self.intern(e) for e in self.elems], dtype=np.int32)
        self.n_window = len(self.vals)
        # first position of each window id
        self.at = np.unique(self.win, return_index=True)[1].tolist()
        self._rows: dict[int, list] = {}
        self._arrays = _array_sums(alg, elems)

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
        return None if i is None or i >= self.n_window else self.at[i]

    def sums(self, xs, ys) -> np.ndarray:
        """``out[k, l]``: id of ``vals[xs[k]] + vals[ys[l]]``, or -1.

        New values are interned in C order, as nested loops over ``xs`` and
        ``ys`` would meet them.  The pairs go in blocks of at most
        ``_BLOCK``, through ``add_arrays`` where the algebra has one that
        stands for its ``add`` (see :func:`_array_sums`), else one ``add``
        call per pair.
        """
        xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
        m = len(ys)
        out = np.empty(len(xs) * m, dtype=np.int32)
        for start in range(0, len(out), _BLOCK):
            p = np.arange(start, min(start + _BLOCK, len(out)))
            x, y = xs[p // m], ys[p % m]
            got = None if self._arrays is None else self._arrays.ids(self, x, y)
            if got is None:  # the scalar definition, for this block and every later one
                self._arrays = None
                add, intern, vals = self.alg.add, self.intern, self.vals
                got = [intern(add(vals[i], vals[j])) for i, j in zip(x.tolist(), y.tolist())]
            out[start : start + len(p)] = got
        return out.reshape(len(xs), m)

    def row(self, i: int) -> list:
        """``first[i]`` as a list, built on its own on first use, so that one
        order query on a large carrier pays n sums rather than n^2."""
        r = self._rows.get(i)
        if r is None:
            r = self.first[i] if "first" in self.__dict__ else self.sums(self.win[i : i + 1], self.win)[0]
            r = self._rows[i] = r.tolist()
        return r

    @cached_property
    def first(self) -> np.ndarray:
        """``first[i, j]``: id of ``elems[i] + elems[j]``, or -1."""
        n = len(self.elems)
        first = np.empty((n, n), dtype=np.int32)
        rest = np.ones(n, dtype=bool)
        for i, r in self._rows.items():
            first[i], rest[i] = r, False
        first[rest] = self.sums(self.win[rest], self.win)
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
        left = np.full((self.n_first + 1, len(self.elems)), -1, dtype=np.int32)
        left[:-1] = self.sums(np.arange(self.n_first), self.win)
        return left

    @cached_property
    def right(self) -> np.ndarray:
        """``right[i, v]``: id of ``elems[i] + vals[v]``, with a last column of -1."""
        right = np.full((len(self.elems), self.n_first + 1), -1, dtype=np.int32)
        right[:, :-1] = self.sums(self.win, np.arange(self.n_first))
        return right

    @cached_property
    def down(self) -> list[int]:
        """``down[v]``, for each id ``v`` below ``n_first``: the bitset of the
        window positions ``i`` such that some window ``z`` has ``elems[i] + z``
        of id ``v``, that is the window elements below ``vals[v]``."""
        return _bitsets(self._reach.T)

    @cached_property
    def up(self) -> list[int]:
        """``up[i]``: the bitset of the window positions ``k`` with
        ``elems[i] <= elems[k]``."""
        return _bitsets(self._reach[:, self.win])

    @cached_property
    def _reach(self) -> np.ndarray:
        """``_reach[i, v]``: some window ``z`` has ``elems[i] + z`` of id ``v``;
        the matrix ``down`` and ``up`` are packed from."""
        n = len(self.elems)
        reach = np.zeros((n, self.n_first + 1), dtype=bool)
        # undefined sums (-1) land in the spare last column, which is dropped
        reach[np.arange(n)[:, None], self.first] = True
        return reach[:, :-1]

    def below(self, b) -> int:
        """The bitset of the window elements ``c`` with ``c <= b``."""
        down = self.down  # builds ``first``, which interns the sums
        v = self.ids.get(b)
        return 0 if v is None or v >= len(down) else down[v]

    def above(self, a) -> int:
        """The bitset of the window elements ``c`` with ``a <= c``; empty for
        an ``a`` outside the window, whose sums the table does not hold."""
        p = self.position(a)
        return 0 if p is None else self.up[p]


def _bitsets(rows: np.ndarray) -> list[int]:
    """Each row of a bool matrix as a Python int whose bit ``j`` is ``row[j]``."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r, "little") for r in packed]


def _lowest(bits: int) -> int:
    """Index of the lowest set bit of a nonzero bitset."""
    return (bits & -bits).bit_length() - 1


class _ArraySums:
    """The sums of a table's values through ``add_arrays``, over int64
    coordinate arrays.

    A value is an int or a tuple of ``dim`` ints; ``coords`` holds its
    coordinates, one row per id interned so far.  A key packs a row into bit
    fields, the first coordinate highest, so that window order is key order
    and lookups stay local.  The fields are sized once, from the first
    values synced (the window, and the zero if it came first): coordinate
    ``d`` gets ``(3 * max_d).bit_length()`` bits, room for a sum of three
    window values, the most a table holds; at most 62 bits in all keep a key
    and a sum of two coordinates in int64.  A value or sum outside its field
    sends the table to ``add``.  One ``searchsorted`` over the sorted keys
    finds a block's ids, so ``intern`` runs once per new value.
    """

    def __init__(self, add_arrays, scalar: bool, dim: int):
        self.add_arrays, self.scalar = add_arrays, scalar
        self.coords = np.empty((0, dim), dtype=np.int64)
        self.width = self.scale = None  # each field's bits and unit, from the first sync
        self.sorted = np.empty(0, dtype=np.int64)  # the keys of coords, ascending
        self.order = np.empty(0, dtype=np.int32)  # the id of each sorted key

    def ids(self, table: _SumTable, x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
        """Ids of ``vals[x[k]] + vals[y[k]]`` (-1 where undefined), new values
        interned in order; ``None`` when a value or sum has no place in the fields."""
        if not self._sync(table.vals):
            return None
        s, defined = self.add_arrays(self.coords[x], self.coords[y])
        s = s[defined]
        if (s >> self.width).any():  # negative, or too wide for its field
            return None
        keys = s @ self.scale
        pos = np.minimum(np.searchsorted(self.sorted, keys), len(self.sorted) - 1)
        known = self.sorted[pos] == keys
        got = self.order[pos]
        if not known.all():
            new, first_at, inverse = np.unique(keys[~known], return_index=True, return_inverse=True)
            fresh = s[~known][first_at].tolist()
            new_ids = np.empty(len(new), dtype=np.int32)
            for k in np.argsort(first_at):  # in order of first appearance
                new_ids[k] = table.intern(fresh[k][0] if self.scalar else tuple(fresh[k]))
            got[~known] = new_ids[inverse]
        out = np.full(len(x), -1, dtype=np.int32)
        out[defined] = got
        return out

    def _sync(self, vals: list) -> bool:
        """Key the values interned since the last call, sizing the fields on
        the first; False when one is no int (tuple of ``dim`` ints) in them."""
        new = vals[len(self.coords) :]
        if not new:
            return True
        rows = [(v,) for v in new] if self.scalar else new
        dim = self.coords.shape[1]
        if not all(type(r) is tuple and len(r) == dim and all(type(c) is int for c in r) for r in rows):
            return False
        try:
            c = np.array(rows, dtype=np.int64)
        except OverflowError:
            return False
        if self.width is None:
            self.width = np.array([(3 * m).bit_length() for m in c.max(axis=0).tolist()], dtype=np.int64)
            self.scale = 1 << (np.cumsum(self.width[::-1])[::-1] - self.width)
        if self.width.sum() > 62 or (c >> self.width).any():
            return False
        keys = c @ self.scale
        at = np.argsort(keys)
        pos = np.searchsorted(self.sorted, keys[at])
        self.sorted = np.insert(self.sorted, pos, keys[at])
        self.order = np.insert(self.order, pos, len(self.coords) + at)  # the new ids, in key order
        self.coords = np.concatenate([self.coords, c])
        return True


def _array_sums(alg: PartialAlgebra, elems: list) -> _ArraySums | None:
    """An :class:`_ArraySums` for ``alg.add_arrays`` where it stands for
    ``alg.add``, else ``None``: the class that defines ``add`` must define
    ``add_arrays`` too or lie above the one that does, so a subclass that
    overrides ``add`` alone is summed through its own ``add``.  The values
    are ints or tuples, as the first window element is."""
    if "add" in alg.__dict__ or not elems:
        return None
    for cls in type(alg).__mro__:
        if "add_arrays" in vars(cls):
            break
        if "add" in vars(cls):
            return None
    else:
        return None
    scalar = not isinstance(elems[0], tuple)
    dim = 1 if scalar else len(elems[0])
    return _ArraySums(alg.add_arrays, scalar, dim) if dim else None


def _sum_table(alg: PartialAlgebra, limit: int = MAX_ENUMERATED) -> _SumTable:
    """The sum table of an enumerable algebra, cached on the instance under
    its ``repr``: an instance's repr names every field (the integer
    instances are dataclasses), so changing one (say ``cap``) after a query
    builds a fresh table.  A carrier of more than ``limit`` elements raises
    :class:`TooManyElements`, having read at most ``limit + 1`` of them."""
    key = repr(alg)
    cached = alg.__dict__.get("_sum_table")
    if cached is None or cached[0] != key:
        elems = alg.elements()
        try:
            n = len(elems)
        except OverflowError:  # a length past sys.maxsize
            n = None
        except TypeError:  # no length: read one element past the limit
            elems = list(itertools.islice(elems, limit + 1))
            n = len(elems) if len(elems) <= limit else None
        if n is None or n > limit:
            raise TooManyElements(alg, n, limit)
        cached = alg._sum_table = (key, _SumTable(alg, list(elems)))
    if len(cached[1].elems) > limit:
        raise TooManyElements(alg, len(cached[1].elems), limit)
    return cached[1]


def _witnesses(table: _SumTable, a, b) -> list:
    """Every window element z with a + z = b, in window order."""
    p = table.position(a)
    if p is None:  # a lies outside the window: scan its sums
        add = table.alg.add
        return [z for z in table.elems if add(a, z) == b]
    row = table.row(p)  # interns the sums before b is looked up
    v = table.ids.get(b)
    found, j = [], -1
    for _ in range(row.count(v)):
        j = row.index(v, j + 1)
        found.append(table.elems[j])
    return found


def _ominus(table: _SumTable, b, a):
    """The :func:`ominus` of a table's algebra."""
    found = None
    for z in _witnesses(table, a, b):
        if found is not None and z != found:
            raise NonUniqueWitness(f"{a} + {found} = {a} + {z} = {b} with {found} != {z}")
        found = z
    return found


def _search_table(alg: PartialAlgebra) -> _SumTable:
    """The sum table that subtraction by search reads."""
    if not alg.enumerable:
        raise NoOrderOracle("subtraction by search needs an enumerable carrier")
    return _sum_table(alg)


def derived_le(alg: PartialAlgebra, a, b) -> bool:
    """Decide a <= b in the order derived from the partial sum.

    a <= b holds exactly when some z with a + z = b exists.  Enumerable
    carriers read it off their sum table; other algebras must have
    registered a decision oracle.
    """
    if alg.enumerable:
        return bool(_witnesses(_sum_table(alg), a, b))
    if alg.le_oracle is not None:
        return bool(alg.le_oracle(a, b))
    raise NoOrderOracle(f"{type(alg).__name__} is not enumerable and has no order oracle")


def ominus(alg: PartialAlgebra, b, a):
    """The unique z with a + z = b, or ``None`` when a <= b fails.

    Cancellation makes the witness unique; finding two distinct witnesses
    raises :class:`NonUniqueWitness` because the instance then violates
    the cancellation axiom.
    """
    return _ominus(_search_table(alg), b, a)


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
        "GEiii": _first_true(table.sums(win, [table.intern(alg.zero)])[:, 0] != win),
        "GEi": _first_true(first != first.T),
        "GEv": _first_true((first == zero) & ~((win == zero)[:, None] & (win == zero)[None, :])),
    }
    bad = {axiom: tuple(elems[i] for i in at) for axiom, at in found.items() if at is not None}
    left, right = table.left, table.right
    distinct = win[:, None] != win[None, :]
    # one buffer each for every x, so that no n x n temporary is mapped and faulted in per pass
    lhs, rhs = np.empty((n, n), dtype=np.int32), np.empty((n, n), dtype=np.int32)
    for i in range(n):
        row = first[i]
        if "GEii" not in bad:
            # (x + y) + z against x + (y + z), undefined as -1 on both sides
            at = _first_true(np.take(left, row, axis=0, out=lhs) != np.take(right[i], first, out=rhs))
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
        try:
            table = _sum_table(alg, _EXHAUSTIVE_ELEMENTS)
        except TooManyElements as exc:
            n = exc.n
            if n is None:
                size = f"more than {exc.limit} elements tests more than {MAX_EXHAUSTIVE_TUPLES} tuples"
            else:
                size = f"{n} elements tests {n + n * n + n**3} tuples, more than {MAX_EXHAUSTIVE_TUPLES}"
            raise ValueError(
                f"an exhaustive check of {size}; use a smaller --cap or --mode sampled"
            ) from None
        n = len(table.elems)
        tested = n + n * n + n * n * n
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


def _extremum(table: _SumTable, items, lower: bool):
    """Greatest lower (``lower``) or least upper bound of ``items`` by
    exhaustive scan of the window, or ``None``."""
    bounds = (1 << len(table.elems)) - 1
    for e in items:
        bounds &= table.below(e) if lower else table.above(e)
    cand = bounds
    while cand:
        m = _lowest(cand)
        # the bound m dominates every bound: each lies below m for a meet, above it for a join
        dominated = table.down[table.win[m]] if lower else table.up[m]
        if not bounds & ~dominated:
            return table.elems[m]
        cand &= cand - 1
    return None


def brute_meet(alg: PartialAlgebra, items):
    """Greatest lower bound of ``items`` by exhaustive scan, or ``None``."""
    return _extremum(_sum_table(alg), items, lower=True)


def brute_join(alg: PartialAlgebra, items):
    """Least upper bound of ``items`` by exhaustive scan, or ``None``."""
    return _extremum(_sum_table(alg), items, lower=False)


def meet_via_complement_join(alg: PartialAlgebra, chain, join_oracle=None):
    """Meet of a descending chain computed through complements.

    For a_1 >= a_2 >= ... the differences a_1 - a_n form an ascending
    chain below a_1; if their join a' exists, then a_1 - a' is the meet of
    the original chain.  The result is verified to be a lower bound that
    dominates every enumerated lower bound.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    table = _search_table(alg)
    if join_oracle is None:
        join_oracle = lambda seq: _extremum(table, seq, lower=False)  # noqa: E731
    head = chain[0]
    diffs = []
    for a in chain:
        d = _ominus(table, head, a)
        if d is None:
            raise ValueError("chain is not descending from its first element")
        diffs.append(d)
    sup = join_oracle(diffs)
    if sup is None:
        raise JoinUnavailable("complement chain has no join")
    meet = _ominus(table, head, sup)
    if meet is None:
        raise VerificationFailed("join of complements is not below the chain head")
    lower = (1 << len(table.elems)) - 1
    for a in chain:
        lower &= table.below(a)
    # meet is a witness, so it lies in the window
    if not lower >> table.position(meet) & 1:
        raise VerificationFailed("computed meet is not a lower bound")
    stray = lower & ~table.below(meet)
    if stray:
        c = table.elems[_lowest(stray)]
        raise VerificationFailed(f"lower bound {c} not dominated by computed meet {meet}")
    return meet


def join_via_complement_meet(alg: PartialAlgebra, chain, bound, meet_oracle=None):
    """Join of an ascending chain dominated by ``bound``, via complements.

    For a_1 <= a_2 <= ... <= b the differences b - a_n descend; if their
    meet b' exists, then b - b' is the join of the chain, and it does not
    depend on which dominating b was used.  The result is verified to be
    the least upper bound below ``bound``.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    table = _search_table(alg)
    if meet_oracle is None:
        meet_oracle = lambda seq: _extremum(table, seq, lower=True)  # noqa: E731
    diffs = []
    for a in chain:
        d = _ominus(table, bound, a)
        if d is None:
            raise ValueError(f"chain element {a} is not below the bound {bound}")
        diffs.append(d)
    inf = meet_oracle(diffs)
    if inf is None:
        raise MeetUnavailable("complement chain has no meet")
    join = _ominus(table, bound, inf)
    if join is None:
        raise VerificationFailed("meet of complements is not below the bound")
    above = []
    for a in chain:
        if table.position(a) is None:  # a lies outside the window: scan its sums
            above.append(sum(1 << k for k, c in enumerate(table.elems) if _witnesses(table, a, c)))
        else:
            above.append(table.above(a))
    # join is a witness, so it lies in the window
    p = table.position(join)
    if not all(m >> p & 1 for m in above):
        raise VerificationFailed("computed join is not an upper bound")
    upper = table.below(bound)
    for m in above:
        upper &= m
    stray = upper & ~table.above(join)
    if stray:
        c = table.elems[_lowest(stray)]
        raise VerificationFailed(f"upper bound {c} below the bound beats computed join")
    return join
