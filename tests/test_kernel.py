"""Axiom checker, derived order, sub-algebra test and meet/join oracles."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gealab import families, instances, kernel
from gealab.errors import (
    GealabError,
    JoinUnavailable,
    MeetUnavailable,
    NonUniqueWitness,
    NoOrderOracle,
    NotEnumerable,
    NotSumClosed,
    TooManyElements,
    VerificationFailed,
)

# ------------------------------------------------------------ reference oracles
#
# Plain loops over the enumeration, calling ``add`` for every tuple.  The
# kernel answers the same questions from its sum table; these loops define
# what the answers must be, counterexamples and witnesses included.


def ref_check_axioms(alg):
    elems = list(alg.elements())
    n = len(elems)
    bad = {}
    for x in elems:
        if "GEiii" not in bad and kernel._violates_geiii(alg, x):
            bad["GEiii"] = (x,)
    for x in elems:
        for y in elems:
            if "GEi" not in bad and kernel._violates_gei(alg, x, y):
                bad["GEi"] = (x, y)
            if "GEv" not in bad and kernel._violates_gev(alg, x, y):
                bad["GEv"] = (x, y)
    for x in elems:
        for y in elems:
            for z in elems:
                if "GEii" not in bad and kernel._violates_geii(alg, x, y, z):
                    bad["GEii"] = (x, y, z)
                if "GEiv" not in bad and kernel._violates_geiv(alg, x, y, z):
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
        if "GEiii" not in bad and kernel._violates_geiii(alg, x):
            bad["GEiii"] = (x,)
        if "GEi" not in bad and kernel._violates_gei(alg, x, y):
            bad["GEi"] = (x, y)
        if "GEv" not in bad and kernel._violates_gev(alg, x, y):
            bad["GEv"] = (x, y)
        if "GEii" not in bad and kernel._violates_geii(alg, x, y, z):
            bad["GEii"] = (x, y, z)
        if "GEiv" not in bad and kernel._violates_geiv(alg, x, y, z):
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
    elems, le = _ref_le_pairs(alg)
    upper = [c for c in elems if all((e, c) in le for e in items)]
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


def ref_meet_via_complement_join(alg, chain, join_oracle=None):
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    if join_oracle is None:
        join_oracle = lambda seq: ref_brute_join(alg, seq)  # noqa: E731
    head = chain[0]
    diffs = []
    for a in chain:
        d = ref_ominus(alg, head, a)
        if d is None:
            raise ValueError("chain is not descending from its first element")
        diffs.append(d)
    sup = join_oracle(diffs)
    if sup is None:
        raise JoinUnavailable("complement chain has no join")
    meet = ref_ominus(alg, head, sup)
    if meet is None:
        raise VerificationFailed("join of complements is not below the chain head")
    if not all(ref_derived_le(alg, meet, a) for a in chain):
        raise VerificationFailed("computed meet is not a lower bound")
    for c in alg.elements():
        if all(ref_derived_le(alg, c, a) for a in chain) and not ref_derived_le(alg, c, meet):
            raise VerificationFailed(f"lower bound {c} not dominated by computed meet {meet}")
    return meet


def ref_join_via_complement_meet(alg, chain, bound, meet_oracle=None):
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    if meet_oracle is None:
        meet_oracle = lambda seq: ref_brute_meet(alg, seq)  # noqa: E731
    diffs = []
    for a in chain:
        d = ref_ominus(alg, bound, a)
        if d is None:
            raise ValueError(f"chain element {a} is not below the bound {bound}")
        diffs.append(d)
    inf = meet_oracle(diffs)
    if inf is None:
        raise MeetUnavailable("complement chain has no meet")
    join = ref_ominus(alg, bound, inf)
    if join is None:
        raise VerificationFailed("meet of complements is not below the bound")
    if not all(ref_derived_le(alg, a, join) for a in chain):
        raise VerificationFailed("computed join is not an upper bound")
    for c in alg.elements():
        if (
            all(ref_derived_le(alg, a, c) for a in chain)
            and ref_derived_le(alg, c, bound)
            and not ref_derived_le(alg, join, c)
        ):
            raise VerificationFailed(f"upper bound {c} below the bound beats computed join")
    return join


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
    failing = {a: 0 for a in kernel.AXIOMS}
    for seed in range(300):
        alg, _ = random_table_algebra(seed)
        got = kernel.check_axioms(alg, mode="sampled", samples=40, seed=seed).to_dict()
        assert got == ref_check_axioms_sampled(alg, 40, seed).to_dict(), seed
        for v in got["verdicts"]:
            failing[v["axiom"]] += not v["passed"]
    assert all(failing.values()), failing


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
