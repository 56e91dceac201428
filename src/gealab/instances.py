"""Exact arithmetic instances: cones, intervals and two teaching fixtures.

All carriers are integers or integer tuples and every operation is exact,
so kernel verdicts on these instances are certificates, not approximations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveBound
from .kernel import PartialAlgebra, check_axioms, derived_le, is_sub_gea


def _as_tuple(u):
    return u if isinstance(u, tuple) else (u,)


def _scalar(u, value):
    # mirror tuple results back to plain ints for scalar bounds
    return value[0] if not isinstance(u, tuple) else value


def _check_non_negative(**fields):
    """Refuse a negative size field, naming it."""
    for name, value in fields.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def _validate_bound(u):
    ut = _as_tuple(u)
    if not all(isinstance(c, int) for c in ut):
        raise NonPositiveBound(f"bound must be integral, got {u!r}")
    if any(c < 0 for c in ut) or all(c == 0 for c in ut):
        raise NonPositiveBound(f"bound must be strictly positive in the cone order, got {u!r}")


class _Lazy:
    """An enumeration of known length whose elements are made as it is
    read, so that the kernel can refuse a carrier by its size before it
    builds it.  Each iteration starts afresh."""

    def __init__(self, n: int, make):
        self._n, self._make = n, make

    def __len__(self):
        return self._n

    def __iter__(self):
        return iter(self._make())


@dataclass(eq=False)
class NatGEA(PartialAlgebra):
    """Non-negative integers under total addition, enumerated up to a cap."""

    cap: int = 64
    zero = 0
    enumerable = True

    def __post_init__(self):
        _check_non_negative(cap=self.cap)

    def add(self, a, b):
        return a + b

    def add_arrays(self, a, b):
        return a + b, np.ones(len(a), dtype=bool)

    def elements(self):
        return range(self.cap + 1)


@dataclass(eq=False)
class EvenGapGEA(PartialAlgebra):
    """{0, 4, 6, 8, ...} with the sum it inherits from the integers.

    The set is closed under ambient sums, so it is a generalized effect
    algebra in its own right, yet its derived order differs from the
    ambient one: 4 <= 6 holds among the integers but not here, because the
    witness 2 is missing.
    """

    cap: int = 64
    zero = 0
    enumerable = True

    def __post_init__(self):
        _check_non_negative(cap=self.cap)

    @staticmethod
    def contains(x):
        """Membership of an int, or of each entry of an int array."""
        return (x == 0) | ((x >= 4) & (x % 2 == 0))

    def add(self, a, b):
        s = a + b
        return s if self.contains(s) else None

    def add_arrays(self, a, b):
        s = a + b
        return s, self.contains(s[:, 0])

    def elements(self):
        evens = range(4, self.cap + 1, 2)
        return _Lazy(1 + max(0, (self.cap - 2) // 2), lambda: itertools.chain([0], evens))


@dataclass(eq=False)
class ConeGEA(PartialAlgebra):
    """The positive cone of Z^d under total componentwise addition."""

    dim: int = 2
    cap: int = 8
    enumerable = True

    def __post_init__(self):
        _check_non_negative(dimension=self.dim, cap=self.cap)

    @property
    def zero(self):
        return (0,) * self.dim

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def add_arrays(self, a, b):
        return a + b, np.ones(len(a), dtype=bool)

    def elements(self):
        side, dim = range(self.cap + 1), self.dim
        return _Lazy((self.cap + 1) ** dim, lambda: itertools.product(side, repeat=dim))


@dataclass(eq=False)
class HalfOpenIntervalGEA(PartialAlgebra):
    """Half-open interval [0, u): elements g with 0 <= g <= u and g != u.

    The sum is defined when it stays strictly below u in the cone order.
    For a genuinely multi-dimensional u there is no top element.  ``u``
    may be a positive int or a componentwise non-negative, nonzero int
    tuple; the closed interval ``IntervalEA`` shares the sum and the
    enumeration and differs only in ``_inside``.
    """

    u: int | tuple[int, ...]
    enumerable = True

    def __post_init__(self):
        _validate_bound(self.u)

    @property
    def zero(self):
        return _scalar(self.u, (0,) * len(_as_tuple(self.u)))

    def _inside(self, s):
        """Whether points of the box [0, u] belong to the carrier: all but u.
        The points lie along the last axis of ``s``; a tuple is one point.
        No point but u may be left out."""
        return np.any(np.not_equal(s, _as_tuple(self.u)), axis=-1)

    def add(self, a, b):
        ut = _as_tuple(self.u)
        s = tuple(x + y for x, y in zip(_as_tuple(a), _as_tuple(b)))
        if all(c <= m for c, m in zip(s, ut)) and self._inside(s):
            return _scalar(self.u, s)
        return None

    def add_arrays(self, a, b):
        s = a + b
        return s, (s <= _as_tuple(self.u)).all(axis=1) & self._inside(s)

    def elements(self):
        u, ut = self.u, _as_tuple(self.u)
        # u is the last point of the box in C order
        n = math.prod(m + 1 for m in ut) - (not self._inside(ut))

        def points():
            box = itertools.product(*(range(m + 1) for m in ut))
            return (_scalar(u, e) for e in itertools.islice(box, n))

        return _Lazy(n, points)


@dataclass(eq=False)
class IntervalEA(HalfOpenIntervalGEA):
    """Closed interval [0, u]: the sum is defined when it stays below u.

    Has top element u, so it is in fact an effect algebra.
    """

    @property
    def top(self):
        return self.u

    def _inside(self, s):
        return np.ones(np.shape(s)[:-1], dtype=bool)


@dataclass(eq=False)
class BrokenMaxGEA(PartialAlgebra):
    """Deliberately broken fixture: join instead of addition on {0..cap}.

    Satisfies everything except cancellation, which fails as soon as
    max(x, y) = max(x, z) with y != z.
    """

    cap: int = 8
    zero = 0
    enumerable = True

    def __post_init__(self):
        _check_non_negative(cap=self.cap)

    def add(self, a, b):
        return max(a, b)

    def add_arrays(self, a, b):
        return np.maximum(a, b), np.ones(len(a), dtype=bool)

    def elements(self):
        return range(self.cap + 1)


# the interval factories: each class checks its bound when it is built
make_interval_ea, make_half_open = IntervalEA, HalfOpenIntervalGEA


def restricted_order_demo(cap: int = 50) -> dict:
    """Show that a sum-closed subset need not be a sub-algebra.

    The even-gap set passes all five axioms on its own, yet the two-out-
    of-three closure fails with certificate (4, 2, 6): both 4 and 6 lie in
    the subset while their difference 2 does not, so 4 <= 6 holds in the
    ambient integers but not in the subset order.
    """
    ambient = NatGEA(cap)
    subset = EvenGapGEA(cap)
    members = set(subset.elements())
    check = is_sub_gea(ambient, members)
    return {
        "cap": cap,
        "ambient_axioms_pass": check_axioms(ambient).all_pass,
        "subset_axioms_pass": check_axioms(subset).all_pass,
        "is_sub_gea": check.ok,
        "certificate": check.certificate,
        "le_in_ambient": derived_le(ambient, 4, 6),
        "le_in_subset": derived_le(subset, 4, 6),
    }


def instance_by_name(name: str, cap: int | None = None) -> PartialAlgebra:
    """CLI selector: zplus, even-gap, cone:<d>, interval:<u>, half-open:<u>,
    broken-max.  Tuple bounds are comma-separated, e.g. ``interval:3,2``."""

    def parse_int(text: str, part: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"instance {name!r}: {part} {text!r} is not an integer") from None

    def parse_bound(text: str):
        parts = [parse_int(p, "bound entry") for p in text.split(",")]
        return parts[0] if len(parts) == 1 else tuple(parts)

    if cap is not None and cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    base, _, arg = name.partition(":")
    capped = {"zplus": NatGEA, "even-gap": EvenGapGEA, "broken-max": BrokenMaxGEA}.get(base)
    if capped is not None:
        if arg:
            raise ValueError(f"instance {name!r}: {base} takes no argument, got {arg!r}")
        return capped() if cap is None else capped(cap)
    if base == "cone":
        return ConeGEA(parse_int(arg, "dimension") if arg else 2, 8 if cap is None else cap)
    if base == "interval":
        return IntervalEA(parse_bound(arg) if arg else 6)
    if base == "half-open":
        return HalfOpenIntervalGEA(parse_bound(arg) if arg else (2, 2))
    raise ValueError(f"unknown instance {name!r}")
