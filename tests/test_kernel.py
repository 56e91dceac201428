"""Axiom checker, derived order, sub-algebra test and meet/join oracles."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gealab import families, forms, hilbert, instances, kernel
from gealab.errors import (
    GealabError,
    JoinUnavailable,
    MeetUnavailable,
    NonUniqueWitness,
    NoOrderOracle,
    NotEnumerable,
    NotInFamily,
    NotSumClosed,
    TooManyElements,
    VerificationFailed,
)

# ------------------------------------------------------------ reference oracles
#
# Plain loops over the enumeration, calling ``add`` for every tuple.  The
# kernel answers the same questions from its sum table; these loops define
# what the answers must be, counterexamples and witnesses included.


def violates(alg, axiom, *elements):
    """The kernel's one definition of ``axiom``, on these elements alone."""
    return bool(kernel._failures(alg, (axiom,), *elements))


def ref_check_axioms(alg):
    elems = list(alg.elements())
    n = len(elems)
    bad = {}
    for x in elems:
        if "GEiii" not in bad and violates(alg, "GEiii", x):
            bad["GEiii"] = (x,)
    for x in elems:
        for y in elems:
            if "GEi" not in bad and violates(alg, "GEi", x, y):
                bad["GEi"] = (x, y)
            if "GEv" not in bad and violates(alg, "GEv", x, y):
                bad["GEv"] = (x, y)
    for x in elems:
        for y in elems:
            for z in elems:
                if "GEii" not in bad and violates(alg, "GEii", x, y, z):
                    bad["GEii"] = (x, y, z)
                if "GEiv" not in bad and violates(alg, "GEiv", x, y, z):
                    bad["GEiv"] = (x, y, z)
    verdicts = tuple(
        kernel.AxiomVerdict(axiom=a, passed=a not in bad, counterexample=bad.get(a))
        for a in kernel.AXIOMS
    )
    return kernel.AxiomReport("exhaustive", n + n * n + n * n * n, None, verdicts)


def ref_check_axioms_sampled(alg, samples, seed):
    """The sampled loop with every helper calling ``alg.add`` itself."""
    rng = random.Random(seed)
    bad = {}
    for _ in range(samples):
        x = alg.sample(rng)
        y = alg.sample(rng)
        z = alg.sample(rng)
        if "GEiii" not in bad and violates(alg, "GEiii", x):
            bad["GEiii"] = (x,)
        if "GEi" not in bad and violates(alg, "GEi", x, y):
            bad["GEi"] = (x, y)
        if "GEv" not in bad and violates(alg, "GEv", x, y):
            bad["GEv"] = (x, y)
        if "GEii" not in bad and violates(alg, "GEii", x, y, z):
            bad["GEii"] = (x, y, z)
        if "GEiv" not in bad and violates(alg, "GEiv", x, y, z):
            bad["GEiv"] = (x, y, z)
    verdicts = tuple(
        kernel.AxiomVerdict(axiom=a, passed=a not in bad, counterexample=bad.get(a))
        for a in kernel.AXIOMS
    )
    return kernel.AxiomReport("sampled", samples, seed, verdicts)


def ref_derived_le(alg, a, b):
    return any(alg.add(a, z) == b for z in alg.elements())


def ref_ominus(alg, b, a):
    found = None
    for z in alg.elements():
        if alg.add(a, z) == b:
            if found is not None and z != found:
                raise NonUniqueWitness(f"{a} + {found} = {a} + {z} = {b} with {found} != {z}")
            found = z
    return found


def _ref_le_pairs(alg):
    elems = list(alg.elements())
    pairs = set()
    for a in elems:
        for z in elems:
            s = alg.add(a, z)
            if s is not None:
                pairs.add((a, s))
    return elems, pairs


def ref_brute_meet(alg, items):
    elems, le = _ref_le_pairs(alg)
    lower = [c for c in elems if all((c, e) in le for e in items)]
    for m in lower:
        if all((c, m) in le for c in lower):
            return m
    return None


def ref_brute_join(alg, items):
    # an item outside the window has no pairs in le: read it by its definition
    elems, le = _ref_le_pairs(alg)
    upper = [c for c in elems if all(ref_derived_le(alg, e, c) for e in items)]
    for m in upper:
        if all((m, c) in le for c in upper):
            return m
    return None


def ref_is_sub_gea(ambient, subset):
    if ambient.zero not in subset:
        return kernel.SubsetCheck(False, None, "zero missing from subset")
    elems = list(ambient.elements())
    window = set(elems)
    for x in elems:
        x_in = x in subset
        for y in elems:
            z = ambient.add(x, y)
            if z is None or z not in window:
                continue
            y_in = y in subset
            if x_in + y_in + (z in subset) == 2:
                cert = (y, x, z) if (y_in and not x_in) else (x, y, z)
                return kernel.SubsetCheck(False, cert, "closure violated")
    return kernel.SubsetCheck(True, None, "")


def ref_unclosed_pair(ambient, members):
    for x in members:
        for y in members:
            z = ambient.add(x, y)
            if z is not None and z not in members:
                return (x, y)
    return None


def ref_via_complements(alg, chain, bound, oracle, lower):
    """Both complement routes as one loop over the enumeration, with the
    kernel's message templates: a meet below its head, a join below ``bound``."""
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    if lower:
        bound = chain[0]
    if oracle is None:
        oracle = lambda seq: (ref_brute_join if lower else ref_brute_meet)(alg, seq)  # noqa: E731
    name, dual, side = ("meet", "join", "below") if lower else ("join", "meet", "above")

    def beyond(x, y):  # x lies on the side of y that bounds it
        return ref_derived_le(alg, x, y) if lower else ref_derived_le(alg, y, x)

    diffs = []
    for a in chain:
        d = ref_ominus(alg, bound, a)
        if d is None:
            raise ValueError(f"chain element {a} is not below the bound {bound}")
        diffs.append(d)
    other = oracle(diffs)
    if other is None:
        raise (JoinUnavailable if lower else MeetUnavailable)(f"complement chain has no {dual}")
    found = ref_ominus(alg, bound, other)
    if found is None:
        raise VerificationFailed(f"{dual} of complements is not below the bound")
    if not all(beyond(found, a) for a in chain):
        raise VerificationFailed(f"computed {name} is not {side} every chain element")
    for c in alg.elements():
        if all(beyond(c, a) for a in chain) and ref_derived_le(alg, c, bound) and not beyond(c, found):
            raise VerificationFailed(f"{c} lies {side} the chain but not {side} the computed {name} {found}")
    return found


def ref_meet_via_complement_join(alg, chain, join_oracle=None):
    return ref_via_complements(alg, chain, None, join_oracle, lower=True)


def ref_join_via_complement_meet(alg, chain, bound, meet_oracle=None):
    return ref_via_complements(alg, chain, bound, meet_oracle, lower=False)


class TableAlgebra(kernel.PartialAlgebra):
    """A partial algebra given by a finite table; missing entries are undefined."""

    enumerable = True

    def __init__(self, window, table, zero):
        self.window = window
        self.table = table
        self.zero = zero

    def __repr__(self):
        return f"TableAlgebra({self.window!r})"

    def add(self, a, b):
        return self.table.get((a, b))

    def elements(self):
        return list(self.window)


def random_table_algebra(seed, sizes=(1, 7)):
    """Truncated integer addition on 0..k-1 (k drawn from ``sizes``, both
    ends included) whose sums may leave the window into a few outside
    values, with some entries overwritten at random: undefined, a window
    value or an outside one."""
    rng = random.Random(seed)
    k = rng.randint(*sizes)
    top = k + rng.randint(0, 3)  # values k..top-1 lie outside the window
    universe = list(range(top))
    noise = rng.choice((0.0, 0.0, 0.03, 0.1, 0.3))
    table = {}
    for a in universe:
        for b in universe:
            s = a + b if a + b < top else None
            if rng.random() < noise:
                s = rng.choice([None, *universe])
            if s is not None:
                table[a, b] = s
    window = list(range(k))
    if rng.random() < 0.1:
        window.append(rng.randrange(k))  # an enumeration that repeats an element
    zero = 0 if rng.random() < 0.9 else rng.choice((top - 1, 99))
    return TableAlgebra(window, table, zero), universe + [99]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (GealabError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


SMALL_INSTANCES = [
    instances.NatGEA(6),
    instances.EvenGapGEA(14),
    instances.ConeGEA(2, 3),
    instances.ConeGEA(3, 2),
    instances.make_interval_ea(5),
    instances.make_interval_ea((2, 3)),
    instances.make_half_open(4),
    instances.make_half_open((2, 2)),
    instances.BrokenMaxGEA(6),
    kernel.RestrictedAlgebra(instances.NatGEA(12), [0, 3, 5, 6, 9]),
]


@pytest.mark.parametrize("alg", SMALL_INSTANCES, ids=repr)
def test_check_axioms_matches_reference_on_instances(alg):
    assert kernel.check_axioms(alg).to_dict() == ref_check_axioms(alg).to_dict()


def test_check_axioms_matches_reference_on_random_tables():
    failing = {a: 0 for a in kernel.AXIOMS}
    for seed in range(300):
        alg, _ = random_table_algebra(seed)
        got = kernel.check_axioms(alg).to_dict()
        assert got == ref_check_axioms(alg).to_dict(), seed
        for v in got["verdicts"]:
            failing[v["axiom"]] += not v["passed"]
    # the sample breaks every axiom somewhere, and leaves some algebras whole
    assert all(failing.values()), failing


# every integer instance whose table sums through ``add_arrays``: the small
# instances and those of the exact-kernel benchmark workload
ARRAY_INSTANCES = [alg for alg in SMALL_INSTANCES if not isinstance(alg, kernel.RestrictedAlgebra)] + [
    instances.instance_by_name(name, cap)
    for name, cap in (
        ("cone:2", 8),
        ("cone:3", 3),
        ("zplus", 50),
        ("even-gap", 50),
        ("interval:3,2", 8),
        ("half-open:3,3", 8),
        ("broken-max", 8),
    )
]


def _coordinates(values):
    return np.array([v if isinstance(v, tuple) else (v,) for v in values], dtype=np.int64)


def assert_array_sums_match_scalar_sums(alg):
    """The table built through ``add_arrays`` is the one built through ``add``."""
    fast, slow = (kernel._SumTable(alg, list(alg.elements())) for _ in range(2))
    slow._arrays = None
    # in the order an exhaustive check builds them; the second is the GEiii column
    built = [
        [t.first, t.sums(t.win, [t.intern(alg.zero)]), t.left, t.right] for t in (fast, slow)
    ]
    assert fast._arrays is not None
    for name, got, want in zip(("first", "GEiii", "left", "right"), *built):
        assert np.array_equal(got, want), name
    assert fast.vals == slow.vals
    return fast


@pytest.mark.parametrize("alg", ARRAY_INSTANCES, ids=repr)
def test_add_arrays_matches_add(alg):
    table = assert_array_sums_match_scalar_sums(alg)
    window, met = table.elems, table.vals[: table.n_first]
    pairs = [(x, y) for x in window for y in window]
    pairs += [(x, v) for x in window for v in met] + [(v, x) for x in window for v in met]
    a, b = zip(*pairs)
    s, defined = alg.add_arrays(_coordinates(a), _coordinates(b))
    as_value = tuple if isinstance(window[0], tuple) else (lambda row: row[0])
    got = [as_value(row) if ok else None for row, ok in zip(s.tolist(), defined.tolist())]
    assert got == [alg.add(x, y) for x, y in pairs]


def test_an_add_set_on_the_instance_is_the_sum_the_table_takes():
    # the class's add_arrays stands for the class's add, not for one set on the instance
    alg = instances.NatGEA(6)
    alg.add = lambda a, b: a + b + ((a, b) == (1, 2))
    report = kernel.check_axioms(alg)
    assert kernel._sum_table(alg)._arrays is None
    gei = report.verdict("GEi")
    assert not gei.passed and gei.counterexample == (1, 2)


@dataclasses.dataclass(eq=False)
class ShiftedSum(kernel.PartialAlgebra):
    """A test table on {0, 1, 2, top}: the sum a + b + shift, and a zero that
    may lie anywhere, so that values and sums can leave the key fields."""

    top: int = 5
    shift: int = 0
    zero: int = 0
    enumerable = True

    def add(self, a, b):
        return a + b + self.shift

    def add_arrays(self, a, b):
        return a + b + self.shift, np.ones(len(a), dtype=bool)

    def elements(self):
        return [0, 1, 2, self.top]


@dataclasses.dataclass(eq=False)
class FarZeroSquare(kernel.PartialAlgebra):
    """A test table on {(0, 0), (1, 0), (0, 1)} under componentwise sums, with
    a zero (4, 0) whose sums are undefined: past its 2-bit field, it would
    take the key of (0, 1)."""

    zero = (4, 0)
    enumerable = True

    def add(self, a, b):
        return None if self.zero in (a, b) else (a[0] + b[0], a[1] + b[1])

    def add_arrays(self, a, b):
        return a + b, ~((a == self.zero).all(axis=1) | (b == self.zero).all(axis=1))

    def elements(self):
        return [(0, 0), (1, 0), (0, 1)]


def _stages(table, zero):
    """A table's arrays, in the order an exhaustive check builds them."""
    yield "first", table.first
    yield "GEiii", table.sums(table.win, [table.intern(zero)])
    yield "left", table.left
    yield "right", table.right


# the window {0, 1, 2, 5} gets a field of 4 bits, 0 to 15
@pytest.mark.parametrize(
    "alg, stage",
    [
        (ShiftedSum(5, 1), "left"),  # a sum of three window values reaches 17
        (ShiftedSum(5, -3), "first"),  # a negative sum
        (ShiftedSum(5, 0, 99), "GEiii"),  # a zero past its field, interned after the window
        (ShiftedSum(5, 0, -1), "GEiii"),  # a negative zero
        (FarZeroSquare(), "GEiii"),  # a zero past its field, with no sum to check
        (ShiftedSum(2**61), "first"),  # a field of 63 bits
        (ShiftedSum(2**70), "first"),  # a value past int64
        (ShiftedSum((2**62 - 1) // 3), None),  # a field of 62 bits holds every sum
    ],
    ids=repr,
)
def test_array_sums_fall_back_to_add_outside_the_fields(alg, stage):
    fast, slow = (kernel._SumTable(alg, list(alg.elements())) for _ in range(2))
    slow._arrays = None
    off = []  # the arrays built once the array path was given up
    for (name, got), (_, want) in zip(_stages(fast, alg.zero), _stages(slow, alg.zero)):
        assert np.array_equal(got, want), name
        if fast._arrays is None:
            off.append(name)
    assert fast.vals == slow.vals
    assert off[:1] == ([] if stage is None else [stage])


def test_first_true_is_the_first_in_c_order():
    mask = np.zeros((3, 4), dtype=bool)
    assert kernel._first_true(mask) is None
    assert kernel._first_true(np.zeros((0, 0), dtype=bool)) is None
    mask[2, 0] = mask[1, 3] = True
    assert kernel._first_true(mask) == (1, 3)
    mask[0, 0] = True  # the entry argmax falls back to when none is true
    assert kernel._first_true(mask) == (0, 0)


@dataclasses.dataclass(eq=False)
class ListedWindow(kernel.PartialAlgebra):
    """Componentwise sums on a listed window whose values may hold a
    coordinate that is no int64: a float, a bool or a wider int."""

    window: tuple = (0, 1)
    enumerable = True

    @property
    def zero(self):
        return self.window[0]

    def add(self, a, b):
        return a + b if not isinstance(a, tuple) else tuple(x + y for x, y in zip(a, b))

    def add_arrays(self, a, b):
        return a + b, np.ones(len(a), dtype=bool)

    def elements(self):
        return list(self.window)


@pytest.mark.parametrize(
    "alg",
    [
        ListedWindow((0, 1, 2.5)),  # a float
        ListedWindow((0, True, 2)),  # a bool
        ListedWindow((0, 1, 2**63)),  # past int64
        ListedWindow(((0, 0), (1, 0.5))),  # a float coordinate
        ListedWindow(((0, 0), (False, 1))),  # a bool coordinate
        ListedWindow(((0, 0), (1, 2**64))),  # a coordinate past int64
        ListedWindow(((0, 0), (1, 2, 3))),  # a value of another length
    ],
    ids=repr,
)
def test_array_sums_fall_back_to_add_on_coordinates_no_field_holds(alg):
    fast, slow = (kernel._SumTable(alg, list(alg.elements())) for _ in range(2))
    slow._arrays = None
    assert fast._arrays is not None
    for (name, got), (_, want) in zip(_stages(fast, alg.zero), _stages(slow, alg.zero)):
        assert np.array_equal(got, want), name
        assert fast._arrays is None, name  # sent to add by the first sync
    assert fast.vals == slow.vals


@dataclasses.dataclass(eq=False)
class OneBrokenSumCone(instances.ConeGEA):
    """A cone whose sum (1, 0) + (0, 1) is (1, 2), so commutativity fails."""

    def add(self, a, b):
        return (1, 2) if (a, b) == ((1, 0), (0, 1)) else super().add(a, b)


def test_subclass_overriding_add_is_summed_through_its_own_add():
    alg = OneBrokenSumCone(2, 3)
    rep = kernel.check_axioms(alg)
    assert kernel._sum_table(alg)._arrays is None
    gei = rep.verdict("GEi")
    assert not gei.passed and gei.counterexample == ((0, 1), (1, 0))
    assert kernel.replay(alg, gei)
    assert rep.to_dict() == ref_check_axioms(alg).to_dict()


@dataclasses.dataclass(eq=False)
class ShiftedAdd(kernel.PartialAlgebra):
    """{0..cap} where ``a + b`` shifts ``b`` right by one bit once ``a``
    reaches ``start``: GEi, GEii and GEiv fail, none of them at x = 0."""

    cap: int = 9
    start: int = 5
    zero = 0
    enumerable = True

    def add(self, a, b):
        return a + (b >> (a >= self.start))

    def add_arrays(self, a, b):
        return a + (b >> (a >= self.start)), np.ones(len(a), dtype=bool)

    def elements(self):
        return range(self.cap + 1)


@pytest.mark.parametrize("block", [1, 5, 16])
@pytest.mark.parametrize("alg", ARRAY_INSTANCES[:9] + [ShiftedAdd()], ids=repr)
def test_array_sums_match_scalar_sums_in_small_blocks(alg, block, monkeypatch):
    # windows of 4 to 27 elements: a row longer than a block is split, and a
    # block of 16 holds several rows of a window of at most 8
    monkeypatch.setattr(kernel, "_BLOCK", block)
    assert_array_sums_match_scalar_sums(alg)


@pytest.mark.parametrize("narrow, dtype", [(kernel._NARROW_IDS, np.int16), (0, np.int32)])
@pytest.mark.parametrize("alg", [instances.ConeGEA(2, 3), instances.BrokenMaxGEA(6), ShiftedAdd()], ids=repr)
def test_geii_arrays_hold_int16_ids_while_every_id_fits(alg, narrow, dtype, monkeypatch):
    monkeypatch.setattr(kernel, "_NARROW_IDS", narrow)
    alg = dataclasses.replace(alg)  # with no table cached by another case
    table = kernel._sum_table(alg)
    assert table.left.dtype == table.right.dtype == dtype
    assert kernel.check_axioms(alg).to_dict() == ref_check_axioms(alg).to_dict()


def test_a_distinct_window_is_interned_by_position():
    table = kernel._SumTable(instances.NatGEA(4), list(range(5)))
    assert table.vals == [0, 1, 2, 3, 4] and table.ids == {v: v for v in range(5)}
    assert table.win.tolist() == [0, 1, 2, 3, 4] and list(table.at) == [0, 1, 2, 3, 4]


def test_a_repeated_window_value_keeps_its_first_seen_id():
    # True equals 1, so it repeats 1 too
    window = [2, 0, 1, 2, True, 0, 3]
    table = kernel._SumTable(instances.NatGEA(4), window)
    assert table.vals == [2, 0, 1, 3] and table.n_window == 4
    assert table.win.tolist() == [0, 1, 2, 0, 2, 1, 3]
    assert list(table.at) == [0, 1, 2, 6]
    assert [table.position(v) for v in (2, 0, 1, 3, 4)] == [0, 1, 2, 6, None]


def test_geiv_skips_repeated_window_values():
    # x + y = x + z at two positions of one value is no violation
    alg = TableAlgebra([0, 1, 1, 2, 0, 3], {(a, b): max(a, b) for a in range(4) for b in range(4)}, 0)
    rep = kernel.check_axioms(alg)
    assert [(v.axiom, v.counterexample) for v in rep.failures()] == [("GEiv", (1, 0, 1))]
    assert rep.to_dict() == ref_check_axioms(alg).to_dict()


@pytest.mark.parametrize(
    "alg, failures",
    [
        (instances.BrokenMaxGEA(8), [("GEiv", (1, 0, 1))]),
        (ShiftedAdd(9, 5), [("GEi", (1, 5)), ("GEii", (1, 4, 1)), ("GEiv", (5, 0, 1))]),
        (ShiftedAdd(12, 7), [("GEi", (1, 7)), ("GEii", (1, 6, 1)), ("GEiv", (7, 0, 1))]),
    ],
    ids=repr,
)
def test_first_counterexamples_on_the_array_path(alg, failures):
    rep = kernel.check_axioms(alg)
    assert kernel._sum_table(alg)._arrays is not None
    assert [(v.axiom, v.counterexample) for v in rep.failures()] == failures
    assert rep.to_dict() == ref_check_axioms(alg).to_dict()


@pytest.mark.parametrize("alg", SMALL_INSTANCES, ids=repr)
def test_order_helpers_match_reference_on_instances(alg):
    elems = list(alg.elements())
    extra = [alg.add(x, y) for x in elems[-2:] for y in elems[-2:]]  # sums past the window
    values = elems + [v for v in extra if v is not None]
    for a in values:
        for b in values:
            assert kernel.derived_le(alg, a, b) == ref_derived_le(alg, a, b), (a, b)
            assert _outcome(kernel.ominus, alg, b, a) == _outcome(ref_ominus, alg, b, a), (a, b)
    for items in [[], *([v] for v in values), *itertools.combinations(values, 2)]:
        assert kernel.brute_meet(alg, items) == ref_brute_meet(alg, items), items
        assert kernel.brute_join(alg, items) == ref_brute_join(alg, items), items


def test_order_helpers_match_reference_on_random_tables():
    for seed in range(300):
        alg, values = random_table_algebra(seed)
        rng = random.Random(seed)
        for a in values:
            for b in values:
                assert kernel.derived_le(alg, a, b) == ref_derived_le(alg, a, b), (seed, a, b)
                got = _outcome(kernel.ominus, alg, b, a)
                assert got == _outcome(ref_ominus, alg, b, a), (seed, a, b)
        for items in [[], *itertools.combinations(values, 1), *itertools.combinations(values, 2)]:
            assert kernel.brute_meet(alg, items) == ref_brute_meet(alg, items), (seed, items)
            assert kernel.brute_join(alg, items) == ref_brute_join(alg, items), (seed, items)
        for _ in range(4):
            subset = {alg.zero} | {v for v in values if rng.random() < 0.5}
            assert kernel.is_sub_gea(alg, subset) == ref_is_sub_gea(alg, subset), (seed, subset)
            members = sorted(subset)
            expected = ref_unclosed_pair(alg, members)
            if expected is None:
                assert kernel.restrict(alg, members).elements() == members
            else:
                with pytest.raises(NotSumClosed) as err:
                    kernel.restrict(alg, members)
                assert err.value.witness == expected, (seed, members)


def test_complement_routes_match_reference_on_random_tables():
    outcomes = set()
    for seed in range(300):
        alg, values = random_table_algebra(seed)
        rng = random.Random(seed)

        def oracle(seq):
            # a fixed, often wrong extremum, so the verification steps run
            return values[(sum(seq) * 7 + seed) % len(values)]

        for _ in range(6):
            chain = rng.sample(values, rng.randint(1, min(3, len(values))))
            bound = rng.choice(values)
            for fn, ref, args in (
                (kernel.meet_via_complement_join, ref_meet_via_complement_join, (chain,)),
                (kernel.join_via_complement_meet, ref_join_via_complement_meet, (chain, bound)),
            ):
                for extra in ((), (oracle,)):
                    got = _outcome(fn, alg, *args, *extra)
                    assert got == _outcome(ref, alg, *args, *extra), (seed, fn.__name__, args, extra)
                    outcomes.add((fn.__name__, got[0], got[1].split(" ")[0] if got[0] != "value" else ""))
    # both routes end in a value and in a failed verification somewhere
    for name in ("meet_via_complement_join", "join_via_complement_meet"):
        assert (name, "value", "") in outcomes
        assert any(o[0] == name and o[1] == "VerificationFailed" for o in outcomes)


def test_order_helpers_outside_the_window():
    alg = instances.NatGEA(10)
    assert kernel.derived_le(alg, 12, 15)
    assert not kernel.derived_le(alg, 15, 12)
    assert kernel.derived_le(alg, 5, 12)  # 5 + 7, a sum past the cap
    assert kernel.ominus(alg, 15, 12) == 3
    assert kernel.ominus(alg, 12, 5) == 7
    assert kernel.brute_meet(alg, [12]) == 10


def test_brute_join_reads_an_item_outside_the_window():
    # 1 lies outside the window, yet 1 + 5 = 6 inside it: derived_le says
    # 1 <= 6, so 6 is an upper bound of [1], and the least one
    alg = kernel.RestrictedAlgebra(instances.NatGEA(12), [0, 3, 5, 6, 9])
    assert kernel.derived_le(alg, 1, 6)
    assert kernel.brute_join(alg, [1]) == 6
    assert kernel.brute_join(alg, [1, 3]) == 6
    assert kernel.brute_join(alg, [1, 9]) is None


def assert_order_matches_reference(alg, values, rng):
    """``derived_le``, ``ominus``, ``brute_meet``/``brute_join`` and both
    complement routes against the reference loops, on seeded arguments that
    take in the first and last window positions and values past the window."""
    elems = list(alg.elements())
    past = [v for v in values if v not in elems]
    ends = elems[:2] + elems[-3:] + past[:3]
    pairs = [*itertools.product(ends, ends), *((rng.choice(values), rng.choice(values)) for _ in range(100))]
    for a, b in pairs:
        assert kernel.derived_le(alg, a, b) == ref_derived_le(alg, a, b), (a, b)
        assert _outcome(kernel.ominus, alg, b, a) == _outcome(ref_ominus, alg, b, a), (a, b)
    picks = ends + rng.sample(values, min(3, len(values)))
    for items in [[], *([v] for v in ends), *(rng.sample(picks, 2) for _ in range(3))]:
        assert kernel.brute_meet(alg, items) == ref_brute_meet(alg, items), items
        assert kernel.brute_join(alg, items) == ref_brute_join(alg, items), items

    def oracle(seq):
        # a fixed, often wrong extremum, so the verification steps run
        return values[hash(tuple(seq)) % len(values)]

    for k in range(4):
        if k % 2:  # any three values, most of them no chain
            chain = rng.sample(values, 3)
        else:  # a descending chain from the upper half of the window
            chain = [rng.choice(elems[len(elems) // 2 :])]
            for _ in range(2):
                chain.append(rng.choice([c for c in elems if ref_derived_le(alg, c, chain[-1])] or chain))
        bound = rng.choice([chain[0], elems[-1], rng.choice(values)])
        for fn, ref, args in (
            (kernel.meet_via_complement_join, ref_meet_via_complement_join, (chain,)),
            (kernel.join_via_complement_meet, ref_join_via_complement_meet, (chain[::-1], bound)),
        ):
            for extra in ((), (oracle,)):
                got = _outcome(fn, alg, *args, *extra)
                assert got == _outcome(ref, alg, *args, *extra), (fn.__name__, args, extra)


# windows whose order bitsets fill one byte (8 elements) or just pass it (9),
# end just inside, at or just past one 64-bit word (63, 64, 65), or go past it
WIDE_INSTANCES = [
    instances.NatGEA(7),  # 8 elements
    instances.make_interval_ea(8),  # 9
    instances.make_half_open((7, 7)),  # 63
    instances.make_interval_ea((7, 7)),  # 64
    instances.make_half_open((5, 10)),  # 65
    instances.BrokenMaxGEA(69),  # 70, with non-unique witnesses
    kernel.RestrictedAlgebra(instances.NatGEA(99), [0, *range(31, 100)]),  # 70
    instances.make_interval_ea((8, 8)),  # 81
    instances.ConeGEA(2, 11),  # 144, past two words
]


@pytest.mark.parametrize("alg", WIDE_INSTANCES, ids=lambda alg: f"{type(alg).__name__}-{len(alg.elements())}")
def test_order_helpers_match_reference_on_wide_windows(alg):
    elems = list(alg.elements())
    extra = [alg.add(x, y) for x in elems[-2:] for y in elems[-2:]]  # sums past the window
    values = elems + [v for v in extra if v is not None and v not in elems]
    assert_order_matches_reference(alg, values, random.Random(len(elems)))


def test_order_helpers_match_reference_on_wide_random_tables():
    for k in (8, 9, 63, 64, 65, 70):
        for seed in range(3):
            alg, values = random_table_algebra(100 * k + seed, sizes=(k, k))
            assert_order_matches_reference(alg, values, random.Random(seed))


def test_each_public_order_call_looks_up_the_sum_table_once(monkeypatch):
    calls = 0
    lookup = kernel._sum_table

    def counting(alg, *args):
        nonlocal calls
        calls += 1
        return lookup(alg, *args)

    monkeypatch.setattr(kernel, "_sum_table", counting)
    alg = instances.make_interval_ea((4, 4))
    chain = [(4, 3), (2, 2), (1, 0)]
    for fn, args, want in (
        (kernel.meet_via_complement_join, (chain,), (1, 0)),
        (kernel.join_via_complement_meet, (chain[::-1], (4, 4)), (4, 3)),
        (kernel.brute_meet, (chain,), (1, 0)),
        (kernel.brute_join, (chain,), (4, 3)),
        (kernel.derived_le, ((1, 0), (4, 3)), True),
        (kernel.ominus, ((4, 3), (1, 0)), (3, 3)),
    ):
        calls = 0
        assert fn(alg, *args) == want, fn.__name__
        assert calls == 1, fn.__name__


def test_exhaustive_check_builds_the_sum_table_once(monkeypatch):
    pairs = 0
    add, add_arrays = instances.ConeGEA.add, instances.ConeGEA.add_arrays

    def counting(self, a, b):
        nonlocal pairs
        pairs += 1
        return add(self, a, b)

    def counting_arrays(self, a, b):
        nonlocal pairs
        pairs += len(a)
        return add_arrays(self, a, b)

    monkeypatch.setattr(instances.ConeGEA, "add", counting)
    monkeypatch.setattr(instances.ConeGEA, "add_arrays", counting_arrays)
    alg = instances.ConeGEA(2, 8)
    assert kernel.check_axioms(alg).all_pass
    # one sum per tuple would be 81 + 81^2 + 2 * 81^3, about 1.07 million
    assert 0 < pairs <= 100_000


def _enumerate_per_draw(alg, rng):
    """The sampler as it was: re-enumerate the carrier on every draw."""
    elems = list(alg.elements())
    return elems[rng.randrange(len(elems))]


def test_sampled_check_enumerates_the_carrier_once(monkeypatch):
    calls = 0
    elements = instances.ConeGEA.elements

    def counting(self):
        nonlocal calls
        calls += 1
        return elements(self)

    monkeypatch.setattr(instances.ConeGEA, "elements", counting)
    got = kernel.check_axioms(instances.ConeGEA(2, 50), mode="sampled", samples=200, seed=3)
    assert calls <= 1  # three draws per sample would enumerate 600 times
    monkeypatch.setattr(instances.ConeGEA, "sample", _enumerate_per_draw)
    want = kernel.check_axioms(instances.ConeGEA(2, 50), mode="sampled", samples=200, seed=3)
    assert got.to_dict() == want.to_dict() and got.all_pass


def test_sampled_check_keeps_its_draws(monkeypatch):
    alg = instances.instance_by_name("broken-max")
    got = kernel.check_axioms(alg, mode="sampled", samples=300, seed=5)
    monkeypatch.setattr(instances.BrokenMaxGEA, "sample", _enumerate_per_draw)
    want = kernel.check_axioms(alg, mode="sampled", samples=300, seed=5)
    assert not got.all_pass and got.to_dict() == want.to_dict()


# every registry family, the fixed-domain one on a grid and a sequence tag
FAMILY_IDS = [*(f for f in families.FAMILIES if f != "vfd"), "vfd:h1_grid", "vfd:finite_support"]


@pytest.mark.parametrize("seed", [7, 101])
@pytest.mark.parametrize("family", FAMILY_IDS)
def test_sampled_check_matches_reference_on_families(family, seed):
    alg = families.gea_by_name(family)
    got = kernel.check_axioms(alg, mode="sampled", samples=300, seed=seed)
    assert got.to_dict() == ref_check_axioms_sampled(alg, 300, seed).to_dict()


@pytest.mark.parametrize("seed", [7, 101])
@pytest.mark.parametrize("name", ["broken-max", "cone:2", "interval:3,3,4"])
def test_sampled_check_matches_reference_on_instances(name, seed):
    alg = instances.instance_by_name(name, cap=8)
    got = kernel.check_axioms(alg, mode="sampled", samples=2000, seed=seed)
    assert got.to_dict() == ref_check_axioms_sampled(alg, 2000, seed).to_dict()
    assert got.all_pass == (name != "broken-max")


def test_sampled_check_matches_reference_on_random_tables():
    # random tables, whose failures cover every axiom, then algebras built
    # to break an axiom, each of which fails one; every failure replays
    def failed(alg, samples, seed):
        got = kernel.check_axioms(alg, mode="sampled", samples=samples, seed=seed)
        assert got.to_dict() == ref_check_axioms_sampled(alg, samples, seed).to_dict(), (alg, seed)
        assert all(kernel.replay(alg, v) for v in got.failures())
        return {v.axiom for v in got.failures()}

    tables = (random_table_algebra(seed)[0] for seed in range(300))
    assert set().union(*(failed(alg, 40, seed) for seed, alg in enumerate(tables))) == set(kernel.AXIOMS)
    broken = [
        instances.BrokenMaxGEA(8),
        ShiftedAdd(9, 5),
        ShiftedAdd(12, 7),
        OneBrokenSumCone(2, 3),
        ShiftedSum(5, 1),
        FarZeroSquare(),
        TableAlgebra([0, 1, 2], {(a, b): max(a, b) for a in range(3) for b in range(3)}, 0),
    ]
    for alg in broken:
        assert set().union(*(failed(alg, 300, seed) for seed in (0, 7, 101))), alg


def test_sampled_check_adds_each_distinct_sum_once(monkeypatch):
    # a draw (x, y, z) needs 7 distinct sums: x+0, x+y, y+x, (x+y)+z, y+z, x+(y+z), x+z
    calls = 0
    add = families.FormsGEA.add

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return add(self, a, b)

    monkeypatch.setattr(families.FormsGEA, "add", counting)
    rep = kernel.check_axioms(families.gea_by_name("vf-bar"), mode="sampled", samples=2000)
    assert rep.all_pass and 0 < calls <= 7 * 2000


class _Box:
    """An int in a fresh object, so that operand identity names the sum asked for."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, _Box) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"_Box({self.v})"


class CountingSums(kernel.PartialAlgebra):
    """Truncated addition on {0..cap} in fresh boxes.  Every ``add`` is logged
    under the draw it belongs to (each third ``sample`` opens one), and the
    log keeps its operands alive, so no id is reused."""

    def __init__(self, cap=6):
        self.cap, self.zero, self.drawn, self.draws = cap, _Box(0), 0, [[]]

    def sample(self, rng):
        self.drawn += 1
        if self.drawn % 3 == 1:
            self.draws.append([])
        return _Box(rng.randint(0, self.cap))

    def add(self, a, b):
        self.draws[-1].append((a, b))
        s = a.v + b.v
        return _Box(s) if s <= self.cap else None


def test_each_draw_asks_for_each_distinct_sum_at_most_once():
    alg = CountingSums()
    rep = kernel.check_axioms(alg, mode="sampled", samples=500, seed=3)
    assert rep.all_pass and len(alg.draws) == 501
    sizes = set()
    for asked in alg.draws:
        pairs = [(id(a), id(b)) for a, b in asked]
        assert len(set(pairs)) == len(pairs) <= 7, asked
        sizes.add(len(pairs))
    assert 7 in sizes and 5 in sizes  # x+z is asked only where x+y is defined
    assert rep.to_dict() == ref_check_axioms_sampled(CountingSums(), 500, 3).to_dict()


# the sums (by value) each axiom reads of a draw: all defined, and x+y undefined at cap 6
READS = {
    (1, 2, 3): {
        "GEiii": [(1, 0)],
        "GEi": [(1, 2), (2, 1)],
        "GEv": [(1, 2)],
        "GEii": [(1, 2), (3, 3), (2, 3), (1, 5)],
        "GEiv": [(1, 2), (1, 3)],
    },
    (4, 5, 1): {
        "GEiii": [(4, 0)],
        "GEi": [(4, 5), (5, 4)],
        "GEv": [(4, 5)],
        "GEii": [(4, 5), (5, 1), (4, 6)],
        "GEiv": [(4, 5)],
    },
}


@pytest.mark.parametrize("draw", READS, ids=str)
def test_a_draw_asks_only_for_the_sums_its_open_axioms_read(draw):
    alg = CountingSums()
    for todo in [(), *((axiom,) for axiom in kernel.AXIOMS), kernel.AXIOMS]:
        alg.draws = [[]]
        assert kernel._failures(alg, todo, *map(_Box, draw)) == []
        reads = READS[draw]
        asked = list(dict.fromkeys(pair for axiom in kernel._ARITY if axiom in todo for pair in reads[axiom]))
        assert [(a.v, b.v) for a, b in alg.draws[-1]] == asked, todo


class StrayDraw(families.FormsGEA):
    """The ``bf`` algebra whose ``at``-th sample is diag(j), an unbounded form."""

    def __init__(self, at):
        super().__init__(hilbert.SEQUENCE, "bf")
        self.at, self.drawn = at, 0

    def sample(self, rng):
        self.drawn += 1
        t = super().sample(rng)
        return forms.diag_form("j") if self.drawn == self.at else t


@pytest.mark.parametrize("at", [31, 32, 33], ids=["x", "y", "z"])
def test_a_drawn_non_member_raises_as_in_the_reference_on_the_same_draw(at):
    outcomes = []
    for check in (
        lambda alg: kernel.check_axioms(alg, mode="sampled", samples=50, seed=3),
        lambda alg: ref_check_axioms_sampled(alg, 50, 3),
    ):
        alg = StrayDraw(at)
        with pytest.raises(NotInFamily) as info:
            check(alg)
        outcomes.append((str(info.value), alg.drawn))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("1*diag(j) on diag_max:j [sequence] is not in bf", 33)  # the 11th draw


def test_restricted_algebra_repr_names_ambient_and_members():
    alg = kernel.RestrictedAlgebra(instances.NatGEA(12), [9, 0, 3, 6])
    assert repr(alg) == "RestrictedAlgebra(NatGEA(cap=12), [0, 3, 6, 9])"
    assert repr(alg) == repr(kernel.RestrictedAlgebra(instances.NatGEA(12), [0, 3, 6, 9]))
    assert "object at" not in repr(alg)


def test_sum_table_follows_a_changed_instance():
    alg = instances.NatGEA(5)
    assert kernel.check_axioms(alg).samples_tested == 6 + 6**2 + 6**3
    assert not kernel.derived_le(alg, 3, 9)  # 9 lies past cap 5
    alg.cap = 10
    assert kernel.derived_le(alg, 3, 9)
    assert kernel.ominus(alg, 9, 3) == 6
    assert kernel.check_axioms(alg).samples_tested == 11 + 11**2 + 11**3


def test_sum_table_follows_a_changed_base_of_a_restriction():
    members = [0, 3, 6, 9, 12]
    base = instances.make_interval_ea(12)
    alg = kernel.RestrictedAlgebra(base, members)
    table = kernel._sum_table(alg)
    assert kernel.derived_le(alg, 6, 12) and kernel.brute_join(alg, [3, 6]) == 6
    base.u = 10  # 6 + 6 no longer lies in the base
    fresh = kernel.RestrictedAlgebra(instances.make_interval_ea(10), members)
    assert kernel._sum_table(alg) is not table
    assert not kernel.derived_le(alg, 6, 12)
    for a in members:
        for b in members:
            assert kernel.derived_le(alg, a, b) == kernel.derived_le(fresh, a, b), (a, b)
            assert kernel.ominus(alg, b, a) == kernel.ominus(fresh, b, a), (a, b)
            assert kernel.brute_meet(alg, [a, b]) == kernel.brute_meet(fresh, [a, b]), (a, b)
            assert kernel.brute_join(alg, [a, b]) == kernel.brute_join(fresh, [a, b]), (a, b)


# every field of every integer instance class: (class, fields at the query, field, new value)
FIELD_CHANGES = [
    (instances.NatGEA, {"cap": 5}, "cap", 9),
    (instances.EvenGapGEA, {"cap": 8}, "cap", 14),
    (instances.ConeGEA, {"dim": 2, "cap": 2}, "dim", 3),
    (instances.ConeGEA, {"dim": 2, "cap": 2}, "cap", 3),
    (instances.IntervalEA, {"u": 3}, "u", (2, 2)),
    (instances.HalfOpenIntervalGEA, {"u": (2, 2)}, "u", 4),
    (instances.BrokenMaxGEA, {"cap": 4}, "cap", 6),
]


@pytest.mark.parametrize(
    "cls, fields, name, value", FIELD_CHANGES, ids=[f"{c.__name__}.{n}" for c, _, n, _ in FIELD_CHANGES]
)
def test_sum_table_follows_every_changed_field(cls, fields, name, value):
    assert {f.name for f in dataclasses.fields(cls)} == {n for c, _, n, _ in FIELD_CHANGES if c is cls}
    alg = cls(**fields)
    for field in dataclasses.fields(alg):
        assert f"{field.name}={getattr(alg, field.name)!r}" in repr(alg)
    kernel.check_axioms(alg)
    setattr(alg, name, value)
    fresh = cls(**{**fields, name: value})
    assert repr(alg) == repr(fresh) and f"{name}={value!r}" in repr(alg)
    assert alg.zero == fresh.zero
    assert kernel._sum_table(alg).elems == list(fresh.elements())
    assert kernel.check_axioms(alg) == kernel.check_axioms(fresh)


def test_exhaustive_check_refuses_oversized_carrier(monkeypatch):
    def no_add(self, a, b):
        raise AssertionError("the sum table was built")

    monkeypatch.setattr(instances.ConeGEA, "add", no_add)
    monkeypatch.setattr(instances.ConeGEA, "add_arrays", no_add)
    n = 51 * 51
    with pytest.raises(ValueError) as err:
        kernel.check_axioms(instances.ConeGEA(2, 50))
    assert str(n + n * n + n**3) in str(err.value)
    assert "--mode sampled" in str(err.value)


class Endless(kernel.PartialAlgebra):
    """The naturals, enumerated by a generator that counts what it hands
    out and stops a reader that goes past the enumeration bound."""

    zero = 0
    enumerable = True

    def __init__(self):
        self.read = 0

    def __repr__(self):
        return "Endless()"

    def add(self, a, b):
        return a + b

    def elements(self):
        for x in itertools.count():
            self.read += 1
            if self.read > kernel.MAX_ENUMERATED + 1:
                raise AssertionError(f"read {self.read} elements")
            yield x


def test_enumeration_is_bounded_before_it_runs():
    alg = Endless()
    with pytest.raises(ValueError, match="more than 999 elements"):
        kernel.check_axioms(alg)
    assert alg.read == 1000  # n + n^2 + n^3 <= 10^9 holds up to n = 999
    for query in (
        lambda: kernel.check_axioms(alg, mode="sampled", samples=3),
        lambda: kernel.derived_le(alg, 1, 2),
        lambda: kernel.brute_meet(alg, [1]),
    ):
        alg.read = 0
        with pytest.raises(TooManyElements, match=f"more than {kernel.MAX_ENUMERATED} elements"):
            query()
        assert alg.read == kernel.MAX_ENUMERATED + 1


def test_oversized_integer_carriers_are_refused_unread(monkeypatch):
    def no_iter(self):
        raise AssertionError("the carrier was enumerated")

    monkeypatch.setattr(instances._Lazy, "__iter__", no_iter)
    big = [
        instances.ConeGEA(40, 1),
        instances.EvenGapGEA(10**30),
        instances.NatGEA(10**30),  # a range past sys.maxsize has no len
        instances.make_half_open((10**4,) * 3),
        instances.make_interval_ea(10**7),
    ]
    for alg in big:
        with pytest.raises(ValueError, match="--mode sampled"):
            kernel.check_axioms(alg)
        with pytest.raises(TooManyElements):
            kernel.check_axioms(alg, mode="sampled", samples=3)
        with pytest.raises(TooManyElements):
            kernel.derived_le(alg, alg.zero, alg.zero)
    assert len(instances.ConeGEA(40, 1).elements()) == 2**40
    assert len(instances.make_half_open((10**4,) * 3).elements()) == (10**4 + 1) ** 3 - 1


def test_axioms_pass_on_interval():
    rep = kernel.check_axioms(instances.make_interval_ea(4))
    assert rep.all_pass
    assert rep.mode == "exhaustive"
    assert not rep.failures()


def test_axiom_report_verdict_lookup():
    rep = kernel.check_axioms(instances.NatGEA(10))
    assert rep.verdict("GEii").passed
    with pytest.raises(KeyError):
        rep.verdict("GEvi")


def test_broken_fixture_fails_cancellation_with_replayable_counterexample():
    alg = instances.BrokenMaxGEA(6)
    rep = kernel.check_axioms(alg)
    geiv = rep.verdict("GEiv")
    assert not geiv.passed
    assert geiv.counterexample is not None
    assert kernel.replay(alg, geiv)
    # the passing verdicts replay as non-failures
    assert not kernel.replay(alg, rep.verdict("GEiii"))


def test_sampled_mode_needs_sampler_or_elements():
    class Bare(kernel.PartialAlgebra):
        zero = 0

        def add(self, a, b):
            return a + b

    with pytest.raises(NotEnumerable):
        kernel.check_axioms(Bare(), mode="exhaustive")
    with pytest.raises(NotEnumerable):
        kernel.check_axioms(Bare(), mode="sampled", samples=3)
    with pytest.raises(ValueError):
        kernel.check_axioms(instances.NatGEA(3), mode="fuzzy")


def test_derived_le_and_ominus():
    alg = instances.make_interval_ea(5)
    assert kernel.derived_le(alg, 2, 5)
    assert not kernel.derived_le(alg, 5, 2)
    assert kernel.ominus(alg, 5, 2) == 3
    assert kernel.ominus(alg, 2, 5) is None


def test_derived_le_without_oracle_raises():
    class Opaque(kernel.PartialAlgebra):
        zero = 0
        enumerable = False

        def add(self, a, b):
            return a + b

    with pytest.raises(NoOrderOracle):
        kernel.derived_le(Opaque(), 1, 2)
    with pytest.raises(NoOrderOracle):
        kernel.ominus(Opaque(), 2, 1)


def test_even_gap_subset_is_not_sub_gea():
    ambient = instances.NatGEA(50)
    subset = instances.EvenGapGEA(50).elements()
    check = kernel.is_sub_gea(ambient, set(subset))
    assert not check.ok
    assert check.certificate == (4, 2, 6)


def test_is_sub_gea_accepts_closed_subset():
    ambient = instances.NatGEA(20)
    evens = {x for x in ambient.elements() if x % 2 == 0}
    assert kernel.is_sub_gea(ambient, evens).ok
    missing_zero = kernel.is_sub_gea(ambient, {2, 4})
    assert not missing_zero.ok and "zero" in missing_zero.reason


def test_restrict_checks_closure():
    ambient = instances.NatGEA(10)
    with pytest.raises(ValueError):
        kernel.restrict(ambient, [1, 2])
    with pytest.raises(NotSumClosed) as err:
        kernel.restrict(ambient, [0, 1])  # 1 + 1 = 2 escapes
    assert err.value.witness == (1, 1)
    sub = kernel.RestrictedAlgebra(ambient, [0, 1])
    assert sub.add(1, 1) is None
    assert sub.add(0, 1) == 1


def test_brute_meet_join_on_interval():
    alg = instances.make_interval_ea(6)
    assert kernel.brute_meet(alg, [4, 2]) == 2
    assert kernel.brute_join(alg, [4, 2]) == 4
    assert kernel.brute_join(alg, [5, 3]) == 5


def test_brute_join_missing_in_half_open_plane():
    # the only common upper bound of the maximal corners would be (2,2),
    # which is exactly the point [0, (2,2)) removes
    alg = instances.make_half_open((2, 2))
    assert kernel.brute_join(alg, [(2, 1), (1, 2)]) is None
    assert kernel.brute_join(alg, [(1, 0), (0, 1)]) == (1, 1)


def _all_descending_chains(alg, length):
    elems = list(alg.elements())
    le = {(a, b) for a in elems for b in elems if kernel.derived_le(alg, a, b)}
    for chain in itertools.product(elems, repeat=length):
        if all((chain[i + 1], chain[i]) in le for i in range(length - 1)):
            yield chain


def test_complement_route_meet_matches_brute_force():
    for u in (3, (2, 2)):
        alg = instances.make_interval_ea(u)
        for chain in _all_descending_chains(alg, 3):
            assert kernel.meet_via_complement_join(alg, chain) == kernel.brute_meet(alg, chain)


def test_complement_route_join_is_bound_independent():
    alg = instances.make_interval_ea(4)
    elems = list(alg.elements())
    chain = (1, 2, 3)
    bounds = [b for b in elems if all(kernel.derived_le(alg, c, b) for c in chain)]
    assert len(bounds) >= 2
    results = {kernel.join_via_complement_meet(alg, chain, b) for b in bounds}
    assert results == {3}


def test_complement_route_rejects_empty_chain():
    alg = instances.make_interval_ea(3)
    with pytest.raises(ValueError):
        kernel.meet_via_complement_join(alg, [])


def test_complement_join_route_rejects_empty_chain():
    alg = instances.make_interval_ea(3)
    with pytest.raises(ValueError, match="^empty chain$"):
        kernel.join_via_complement_meet(alg, [], 3)


def test_cached_table_is_refused_under_a_smaller_limit():
    alg = instances.NatGEA(1500)
    assert kernel.derived_le(alg, 3, 1500)  # caches a table of 1501 elements
    table = alg._sum_table[1]
    with pytest.raises(ValueError, match=f"^an exhaustive check of 1501 elements tests {1501 + 1501**2 + 1501**3} "):
        kernel.check_axioms(alg)
    assert alg._sum_table[1] is table


def test_derived_le_asks_a_form_family_its_order_oracle():
    alg = families.gea_by_name("vf")
    assert not alg.enumerable
    oracle, calls = alg.le_oracle, []
    alg.le_oracle = lambda a, b: calls.append((a, b)) or oracle(a, b)
    rng = random.Random(5)
    draws = [alg.sample(rng) for _ in range(5)]
    for a in draws:
        assert kernel.derived_le(alg, alg.zero, a)
        for b in draws:
            assert kernel.derived_le(alg, a, b) == oracle(a, b)
            s = alg.add(a, b)
            assert s is None or kernel.derived_le(alg, a, s)
    assert (alg.zero, draws[0]) == calls[0] and len(calls) >= 30


@settings(max_examples=40, deadline=None)
@given(u=st.integers(min_value=1, max_value=8))
def test_interval_axioms_property(u):
    for alg in (instances.make_interval_ea(u), instances.make_half_open(u)):
        assert kernel.check_axioms(alg).all_pass
        assert_array_sums_match_scalar_sums(alg)


@settings(max_examples=40, deadline=None)
@given(
    u=st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)).filter(
        lambda t: any(t)
    )
)
def test_plane_interval_axioms_property(u):
    for alg in (instances.make_interval_ea(u), instances.make_half_open(u)):
        assert kernel.check_axioms(alg).all_pass
        assert_array_sums_match_scalar_sums(alg)


@settings(max_examples=30, deadline=None)
@given(u=st.integers(min_value=2, max_value=10), data=st.data())
def test_ominus_is_partial_inverse(u, data):
    alg = instances.make_interval_ea(u)
    a = data.draw(st.integers(min_value=0, max_value=u))
    b = data.draw(st.integers(min_value=0, max_value=u))
    z = kernel.ominus(alg, b, a)
    if z is None:
        assert not kernel.derived_le(alg, a, b)
    else:
        assert alg.add(a, z) == b
