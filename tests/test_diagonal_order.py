"""The exact order of diagonal sequence forms on all of l^2.

``forms.diagonal_order_witness`` decides ``s - t >= 0`` from one integer
cubic per interval between cuts.  The reference below is written apart
from it and from the registry ``forms.lam_poly``: ``f(j)`` as a
``Fraction`` from the table ``LAM`` at every index up to a bound past every
cut and past a Cauchy root bound of the tail, where ``f`` has the sign of
its leading term for good.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gealab import families, forms
from gealab.families import preceq
from gealab.forms import FINITE_SUPPORT, bounded_mat_atom, bounded_matrix_form, diag_atom, diag_form, form_add, make_form
from gealab.hilbert import SEQUENCE

# lambda(j) of each registered map the draws use, written out by hand
LAM = {
    "j": lambda j: Fraction(j),
    "j^2": lambda j: Fraction(j * j),
    "1/j": lambda j: Fraction(1, j),
    "const:1/2": lambda j: Fraction(1, 2),
    "const:2": lambda j: Fraction(2),
    "const:0": lambda j: Fraction(0),
    "const:1": lambda j: Fraction(1),
    "const:7/3": lambda j: Fraction(7, 3),
}
LAMS = tuple(LAM)
GENS = ("id", "seeded:1", "seeded:4")
CUTS = (None, *range(0, 41))
COEFFS = tuple(Fraction(p, q) for p, q in ((1, 4), (1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (3, 1)))


def ref_lam(atom) -> str | None:
    """The ``LAM`` key of a diagonal atom: mat(id) is the identity on the
    sequence model; a seeded matrix atom of the pair has one coefficient in
    both forms and cancels."""
    if atom.kind == "bounded_mat":
        return "const:1" if atom.gen == "id" else None
    return atom.lam


def ref_f(t, s, j: int) -> Fraction:
    """sum of c lam(j) [j <= cut] over s's diagonal atoms minus t's."""
    total = Fraction(0)
    for sign, form in ((1, s), (-1, t)):
        for atom, c in form.atoms:
            lam = ref_lam(atom)
            if lam is not None and (atom.cut is None or j <= atom.cut):
                total += sign * c * LAM[lam](j)
    return total


def ref_bound(t, s) -> int:
    """An index past every cut and past the Cauchy root bound of the tail's j * f(j)."""
    tail = [Fraction(0)] * 4  # coefficients of j^0 .. j^3 of j * f(j) past every cut
    for sign, form in ((1, s), (-1, t)):
        for atom, c in form.atoms:
            lam = ref_lam(atom)
            if lam is not None and atom.cut is None:
                power = {"j": 2, "j^2": 3, "1/j": 0}.get(lam, 1)
                tail[power] += sign * c * LAM[lam](1)
    cuts = [a.cut for form in (t, s) for a, _ in form.atoms if a.cut is not None]
    lead = next((c for c in reversed(tail) if c), None)
    cauchy = 0 if lead is None else 1 + math.ceil(max(abs(c / lead) for c in tail))
    return max(cuts, default=0) + cauchy + 2


def ref_order(t, s) -> bool:
    return all(ref_f(t, s, j) >= 0 for j in range(1, ref_bound(t, s) + 1))


def _draw_form(rng: random.Random, atoms: dict | None = None):
    atoms = dict(atoms or {})
    for _ in range(rng.randint(0, 3)):
        forms.add_coeff(atoms, diag_atom(rng.choice(LAMS), rng.choice(CUTS)), rng.choice(COEFFS))
    # finite support sits inside every diagonal atom's natural domain
    return make_form(SEQUENCE, atoms, FINITE_SUPPORT)


def _draw_pair(rng: random.Random):
    # on some draws both forms hold one matrix atom; a seeded one has one
    # coefficient, which cancels in s - t, and mat(id) on some draws has two
    common = {bounded_mat_atom(rng.choice(GENS)): rng.choice(COEFFS)} if rng.random() < 0.3 else {}
    s = _draw_form(rng, common)
    common = {a: rng.choice(COEFFS) if a.gen == "id" and rng.random() < 0.5 else c for a, c in common.items()}
    # t shares some of s's diagonal atoms with nearby coefficients, so some pairs sit close to the order's edge
    near = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    shared = {a: c * rng.choice(near) for a, c in s.atoms if a.kind == "diag" and rng.random() < 0.6}
    return _draw_form(rng, {**shared, **common}), s


def test_diagonal_order_matches_a_brute_force_reference():
    rng = random.Random(2604)
    verdicts = []
    for _ in range(1500):
        t, s = _draw_pair(rng)
        want = ref_order(t, s)
        got = forms.diagonal_order_witness(forms.atom_difference(s, t))
        assert (got is None) == want, (t, s, got)
        if got is not None:
            j, value = got
            assert j >= 1 and value < 0 and value == ref_f(t, s, j), (t, s, got)
        # a zero form is on the full space, which fails the domain check against finite support
        assert preceq(t, s) == (want and forms.tag_includes(s.domain, t.domain)), (t, s)
        verdicts.append(want)
    assert 300 < sum(verdicts) < 1200  # both verdicts are exercised


def test_a_negative_tail_past_every_critical_point_is_found():
    # 100 j - j^2 >= 0 up to j = 100; the witness lies past the Cauchy bound
    t, s = diag_form("j^2"), diag_form("j", coeff=100)
    j, value = forms.diagonal_order_witness(forms.atom_difference(s, t))
    assert j > 100 and value == ref_f(t, s, j) < 0
    # past a cut the cubic changes; on [1, 5] 100 j - j^2 is positive
    assert forms.diagonal_order_witness(forms.atom_difference(s, diag_form("j^2", cut=5))) is None


def test_a_critical_point_between_the_ends_is_found():
    # j f(j) = j^2 - 41 j + 100 on [1, 40]: positive at both ends, negative around its minimum at 20.5
    s = make_form(SEQUENCE, {diag_atom("j", 40): 1, diag_atom("1/j", 40): 100}, FINITE_SUPPORT)
    t = diag_form("const:1", coeff=41, cut=40)
    assert ref_f(t, s, 1) > 0 and ref_f(t, s, 40) > 0
    j, value = forms.diagonal_order_witness(forms.atom_difference(s, t))
    assert 1 < j < 40 and value == ref_f(t, s, j) < 0


@pytest.mark.parametrize("lam", LAMS)
def test_lam_poly_is_j_times_the_registered_lam(lam):
    power, q = forms.lam_poly(lam)
    for j in range(1, 65):
        assert q * j**power == j * LAM[lam](j)
        assert forms.lam_value(lam, j) == LAM[lam](j)
    # 1/j and a constant are largest at j = 1
    assert forms.lam_sup(lam) == (None if lam in ("j", "j^2") else LAM[lam](1))


def test_unknown_lam_has_no_polynomial():
    with pytest.raises(forms.OutsideCatalog):
        forms.lam_poly("j^3")


def test_cuts_past_the_largest_level_are_ordered():
    # the numeric route compares at 8/16/32 alone, where these two agree
    wide, narrow = diag_form("j", cut=40), diag_form("j", cut=33)
    assert not preceq(wide, narrow)
    assert preceq(narrow, wide)
    assert forms.diagonal_order_witness(forms.atom_difference(narrow, wide)) == (34, Fraction(-34))


def test_diagonal_pairs_read_no_float_tolerance_or_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the diagonal route left exact arithmetic")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(families, "_preceq_numeric", refuse)
    monkeypatch.setattr(forms, "PSD_TOL", None)  # any comparison with it raises
    rng = random.Random(5)
    for _ in range(200):
        t, s = _draw_pair(rng)
        got = forms.diagonal_order_witness(forms.atom_difference(s, t))
        assert preceq(t, s) == (got is None and forms.tag_includes(s.domain, t.domain))
        if got is not None:
            assert type(got[0]) is int and type(got[1]) is Fraction
    # a matrix atom both forms hold with one coefficient cancels, so the pair is diagonal
    m = bounded_matrix_form("id")
    wide, narrow = form_add(diag_form("j", cut=40), m), form_add(diag_form("j", cut=33), m)
    assert not preceq(wide, narrow)
    assert preceq(narrow, wide)
    # mat(id) is the identity, lam = 1: s - t = mat(id) - diag(j on 34..40) is -33 at e_34
    narrow = form_add(diag_form("j", cut=33), bounded_matrix_form("id", coeff=2))
    assert forms.diagonal_order_witness(forms.atom_difference(narrow, wide)) == (34, Fraction(-33))
    assert not preceq(wide, narrow)
    assert not preceq(narrow, wide)  # -1 at e_1
    assert preceq(m, diag_form("const:1")) and preceq(diag_form("const:1"), m)
