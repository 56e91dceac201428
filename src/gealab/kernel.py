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
            elems = list(self.elements())
            return elems[rng.randrange(len(elems))]
        raise NotEnumerable(f"{type(self).__name__} has no sampler")


def derived_le(alg: PartialAlgebra, a, b) -> bool:
    """Decide a <= b in the order derived from the partial sum.

    a <= b holds exactly when some z with a + z = b exists.  Enumerable
    carriers are searched exhaustively; other algebras must have registered
    a decision oracle.
    """
    if alg.enumerable:
        return any(alg.add(a, z) == b for z in alg.elements())
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
    for z in alg.elements():
        if alg.add(a, z) == b:
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


_CHECKS = {
    "GEi": (2, _violates_gei),
    "GEii": (3, _violates_geii),
    "GEiii": (1, _violates_geiii),
    "GEiv": (3, _violates_geiv),
    "GEv": (2, _violates_gev),
}


def replay(alg: PartialAlgebra, verdict: AxiomVerdict) -> bool:
    """Re-run a failed verdict's counterexample; True when it still fails."""
    if verdict.counterexample is None:
        return False
    arity, check = _CHECKS[verdict.axiom]
    return check(alg, *verdict.counterexample[:arity])


def check_axioms(
    alg: PartialAlgebra,
    mode: str = "exhaustive",
    samples: int = 2000,
    seed: int = 0,
) -> AxiomReport:
    """Test the five defining axioms.

    ``mode="exhaustive"`` walks all tuples of an enumerable carrier;
    ``mode="sampled"`` draws the requested number of seeded triples from
    the instance sampler.  A failed verdict always carries a concrete
    counterexample that :func:`replay` reproduces.
    """
    bad: dict[str, tuple] = {}

    if mode == "exhaustive":
        if not alg.enumerable:
            raise NotEnumerable("exhaustive axiom checks need an enumerable carrier")
        elems = list(alg.elements())
        n = len(elems)
        for x in elems:
            if "GEiii" not in bad and _violates_geiii(alg, x):
                bad["GEiii"] = (x,)
        for x in elems:
            for y in elems:
                if "GEi" not in bad and _violates_gei(alg, x, y):
                    bad["GEi"] = (x, y)
                if "GEv" not in bad and _violates_gev(alg, x, y):
                    bad["GEv"] = (x, y)
        for x in elems:
            for y in elems:
                for z in elems:
                    if "GEii" not in bad and _violates_geii(alg, x, y, z):
                        bad["GEii"] = (x, y, z)
                    if "GEiv" not in bad and _violates_geiv(alg, x, y, z):
                        bad["GEiv"] = (x, y, z)
                if "GEii" in bad and "GEiv" in bad:
                    break
        tested = n + n * n + n * n * n
        used_seed = None
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"sampled mode needs samples >= 1, got {samples}")
        rng = random.Random(seed)
        for _ in range(samples):
            x = alg.sample(rng)
            y = alg.sample(rng)
            z = alg.sample(rng)
            if "GEiii" not in bad and _violates_geiii(alg, x):
                bad["GEiii"] = (x,)
            if "GEi" not in bad and _violates_gei(alg, x, y):
                bad["GEi"] = (x, y)
            if "GEv" not in bad and _violates_gev(alg, x, y):
                bad["GEv"] = (x, y)
            if "GEii" not in bad and _violates_geii(alg, x, y, z):
                bad["GEii"] = (x, y, z)
            if "GEiv" not in bad and _violates_geiv(alg, x, y, z):
                bad["GEiv"] = (x, y, z)
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
    elems = list(ambient.elements())
    window = set(elems)
    for x in elems:
        x_in = x in subset
        for y in elems:
            z = ambient.add(x, y)
            # sums that escape the enumerated slice are undecidable here
            if z is None or z not in window:
                continue
            y_in = y in subset
            members = x_in + y_in + (z in subset)
            if members == 2:
                cert = (y, x, z) if (y_in and not x_in) else (x, y, z)
                return SubsetCheck(False, cert, "closure violated")
    return SubsetCheck(True, None, "")


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


def restrict(ambient: PartialAlgebra, subset, check: bool = True) -> RestrictedAlgebra:
    """Restrict the ambient sum to a subset containing zero.

    With ``check=True`` (enumerable subsets only) the subset is verified to
    be closed under ambient sums of its members; a violating pair raises
    :class:`NotSumClosed`.  Callers restricting non-closed subsets on
    purpose can pass ``check=False``.
    """
    members = list(subset)
    if ambient.zero not in members:
        raise ValueError("subset must contain the zero element")
    if check:
        for x in members:
            for y in members:
                z = ambient.add(x, y)
                if z is not None and z not in subset:
                    raise NotSumClosed((x, y))
    return RestrictedAlgebra(ambient, members)


# ------------------------------------------------------- meets and joins


def _le_pairs(alg: PartialAlgebra):
    """All-pairs derived order on an enumerable carrier, as a set of pairs."""
    elems = list(alg.elements())
    table = set()
    for a in elems:
        for z in elems:
            s = alg.add(a, z)
            if s is not None:
                table.add((a, s))
    return elems, table


def brute_meet(alg: PartialAlgebra, items):
    """Greatest lower bound of ``items`` by exhaustive scan, or ``None``."""
    items = list(items)
    elems, le = _le_pairs(alg)
    lower = [c for c in elems if all((c, e) in le for e in items)]
    for m in lower:
        if all((c, m) in le for c in lower):
            return m
    return None


def brute_join(alg: PartialAlgebra, items):
    """Least upper bound of ``items`` by exhaustive scan, or ``None``."""
    items = list(items)
    elems, le = _le_pairs(alg)
    upper = [c for c in elems if all((e, c) in le for e in items)]
    for m in upper:
        if all((m, c) in le for c in upper):
            return m
    return None


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
        for c in alg.elements():
            if all(derived_le(alg, c, a) for a in chain) and not derived_le(alg, c, meet):
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
        for c in alg.elements():
            if (
                all(derived_le(alg, a, c) for a in chain)
                and derived_le(alg, c, bound)
                and not derived_le(alg, join, c)
            ):
                raise VerificationFailed(f"upper bound {c} below the bound beats computed join")
    return join
