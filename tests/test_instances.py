"""Exact integer instances and the CLI selector."""

import re

import pytest

from gealab import instances, kernel
from gealab.errors import NonPositiveBound


def test_nat_gea_is_total():
    alg = instances.NatGEA(10)
    assert alg.add(3, 4) == 7
    assert alg.add(7, 7) == 14  # total sum; the cap only bounds elements()
    assert alg.zero == 0
    assert len(list(alg.elements())) == 11


def test_even_gap_carrier_and_sum():
    alg = instances.EvenGapGEA(12)
    elems = list(alg.elements())
    assert elems[:4] == [0, 4, 6, 8]
    assert 2 not in elems
    assert alg.add(4, 4) == 8
    assert alg.add(4, 6) == 10
    assert kernel.check_axioms(alg).all_pass


def test_even_gap_order_differs_from_ambient():
    ambient = instances.NatGEA(50)
    sub = instances.EvenGapGEA(50)
    assert kernel.derived_le(ambient, 4, 6)
    assert not kernel.derived_le(sub, 4, 6)  # witness 2 is missing
    assert kernel.derived_le(sub, 4, 8)


def test_cone_gea():
    alg = instances.ConeGEA(dim=2, cap=3)
    assert alg.zero == (0, 0)
    assert alg.add((1, 2), (2, 1)) == (3, 3)
    assert alg.add((3, 0), (1, 0)) == (4, 0)
    assert kernel.check_axioms(alg).all_pass


def test_cone_refuses_a_negative_dimension_or_cap():
    with pytest.raises(ValueError, match=r"^dimension must be non-negative, got -1$"):
        instances.ConeGEA(-1, 3)
    with pytest.raises(ValueError, match=r"^cap must be non-negative, got -1$"):
        instances.ConeGEA(2, -1)
    assert list(instances.ConeGEA(0, 0).elements()) == [()]


def test_even_gap_refuses_a_negative_cap():
    with pytest.raises(ValueError, match=r"^cap must be non-negative, got -3$"):
        instances.EvenGapGEA(-3)
    assert list(instances.EvenGapGEA(0).elements()) == [0]


def test_broken_max_refuses_a_negative_cap():
    with pytest.raises(ValueError, match=r"^cap must be non-negative, got -2$"):
        instances.BrokenMaxGEA(-2)
    assert list(instances.BrokenMaxGEA(0).elements()) == [0]


def test_interval_ea_has_top():
    alg = instances.make_interval_ea(4)
    assert alg.add(2, 2) == 4
    assert alg.add(3, 2) is None
    assert all(kernel.derived_le(alg, x, 4) for x in alg.elements())


def test_interval_plane():
    alg = instances.make_interval_ea((2, 1))
    assert (2, 1) in alg.elements()
    assert alg.add((1, 0), (1, 1)) == (2, 1)
    assert alg.add((2, 0), (1, 0)) is None


def test_half_open_interval():
    alg = instances.make_half_open(3)
    assert list(alg.elements()) == [0, 1, 2]
    assert alg.add(1, 1) == 2
    assert alg.add(2, 1) is None
    assert kernel.check_axioms(alg).all_pass


def test_bound_validation():
    with pytest.raises(NonPositiveBound):
        instances.make_interval_ea(0)
    with pytest.raises(NonPositiveBound):
        instances.make_interval_ea((0, 0))
    with pytest.raises(NonPositiveBound):
        instances.make_half_open(-2)


@pytest.mark.parametrize("cls", [instances.IntervalEA, instances.HalfOpenIntervalGEA], ids=lambda c: c.__name__)
@pytest.mark.parametrize("u", [0, (0, 0), (2, -1), -3, (1, 1.5)])
def test_interval_classes_check_their_bound_when_built(cls, u):
    with pytest.raises(NonPositiveBound, match=re.escape(f"got {u!r}") + "$"):
        cls(u)


def test_restricted_order_demo_pinned_facts():
    demo = instances.restricted_order_demo(cap=50)
    assert demo["ambient_axioms_pass"]
    assert demo["subset_axioms_pass"]
    assert demo["is_sub_gea"] is False
    assert demo["certificate"] == (4, 2, 6)
    assert demo["le_in_ambient"] is True
    assert demo["le_in_subset"] is False


def test_instance_by_name():
    assert isinstance(instances.instance_by_name("zplus", cap=5), instances.NatGEA)
    assert isinstance(instances.instance_by_name("even-gap", cap=20), instances.EvenGapGEA)
    assert instances.instance_by_name("cone:3").dim == 3
    assert instances.instance_by_name("interval:3,2").top == (3, 2)
    assert isinstance(instances.instance_by_name("half-open:4"), instances.HalfOpenIntervalGEA)
    assert isinstance(instances.instance_by_name("broken-max"), instances.BrokenMaxGEA)
    with pytest.raises(ValueError):
        instances.instance_by_name("octonions")


@pytest.mark.parametrize(
    "alg",
    [
        *(instances.EvenGapGEA(cap) for cap in range(8)),
        instances.ConeGEA(3, 2),
        instances.ConeGEA(1, 4),
        instances.make_interval_ea(3),
        instances.make_interval_ea((2, 0, 1)),
        instances.make_half_open(3),
        instances.make_half_open((1, 2)),
    ],
    ids=repr,
)
def test_enumeration_length_matches_its_elements(alg):
    elems = alg.elements()
    assert len(elems) == len(list(elems)) == len(set(elems))
    assert list(elems) == list(elems)  # each pass starts afresh
