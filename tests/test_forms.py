"""Form catalog: construction, matrices, splits, probes, JSON."""

import copy
import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gealab import cli, families, forms, hilbert
from gealab.errors import (
    DimensionMismatch,
    GealabError,
    ModelMismatch,
    NotClosed,
    OutsideCatalog,
    SymbolicOnly,
    UnboundedForm,
)
from gealab.forms import (
    DIRICHLET,
    FINITE_SUPPORT,
    FULL_SPACE,
    H1_GRID,
    bounded_matrix_form,
    diag_atom,
    diag_domain,
    diag_form,
    endpoint_form,
    energy_form,
    energy_with_endpoints,
    form_add,
    form_from_json,
    form_scale,
    form_to_json,
    hamel_form,
    make_form,
    matrix_at,
    zero_form,
)
from gealab.hilbert import GRID, SEQUENCE


# ------------------------------------------------------------------- tags


def test_tag_inclusion_order():
    dj = diag_domain("j")
    assert forms.tag_includes(FINITE_SUPPORT, dj)
    assert forms.tag_includes(dj, FULL_SPACE)
    assert forms.tag_includes(FINITE_SUPPORT, FULL_SPACE)
    assert not forms.tag_includes(dj, FINITE_SUPPORT)
    assert not forms.tag_includes(dj, diag_domain("j^2"))
    assert not forms.tag_includes(H1_GRID, dj)
    assert forms.tag_meet(dj, FULL_SPACE) == dj
    assert forms.tag_meet(FULL_SPACE, dj) == dj
    assert forms.tag_meet(diag_domain("j"), diag_domain("j^2")) is None


def test_tag_str_round_trip():
    for tag in (FULL_SPACE, H1_GRID, FINITE_SUPPORT, diag_domain("1/j")):
        assert forms.tag_from_str(forms.tag_to_str(tag)) == tag
    with pytest.raises(OutsideCatalog):
        forms.tag_from_str("sobolev")
    with pytest.raises(OutsideCatalog):
        forms.tag_from_str("diag_max")  # missing coefficient id
    with pytest.raises(OutsideCatalog):
        forms.tag_from_str("full:extra")


def test_lam_registry():
    assert forms.lam_value("j", 5) == 5
    assert forms.lam_value("j^2", 3) == 9
    assert forms.lam_value("1/j", 4) == Fraction(1, 4)
    assert forms.lam_value("const:1/2", 99) == Fraction(1, 2)
    assert forms.lam_sup("1/j") == 1
    assert forms.lam_sup("j") is None
    with pytest.raises(OutsideCatalog):
        forms.lam_value("log j", 2)
    with pytest.raises(OutsideCatalog):
        forms.lam_sup("exp")


@pytest.mark.parametrize("lam", ["const:1/0", "const:x", "const:"])
def test_unparsable_constant_is_outside_the_catalog(lam):
    with pytest.raises(OutsideCatalog, match="not a rational number"):
        diag_atom(lam)
    with pytest.raises(OutsideCatalog, match="not a rational number"):
        forms.lam_value(lam, 1)


# ----------------------------------------------------------- construction


def test_make_form_validation():
    with pytest.raises(ValueError):
        make_form(SEQUENCE, {diag_atom("1/j"): -1})
    with pytest.raises(ModelMismatch):
        make_form(SEQUENCE, {DIRICHLET: 1})
    with pytest.raises(ModelMismatch):
        make_form("banach", {DIRICHLET: 1})
    # the symbolic singular atom never combines with a numeric unbounded one
    with pytest.raises(OutsideCatalog):
        make_form(SEQUENCE, {forms.HAMEL: 1, diag_atom("j"): 1})
    # an unbounded numeric form cannot be declared on the full space
    with pytest.raises(OutsideCatalog):
        make_form(SEQUENCE, {diag_atom("j"): 1}, FULL_SPACE)
    with pytest.raises(OutsideCatalog):
        make_form(GRID, {DIRICHLET: 1}, FULL_SPACE)
    # explicit domain must sit inside every atom's natural domain
    with pytest.raises(OutsideCatalog):
        make_form(SEQUENCE, {diag_atom("j"): 1}, diag_domain("j^2"))


# one atom of every kind, and of every diagonal kind of bound, on a model that has it
_ATOMS_OF_EVERY_KIND = [
    (GRID, DIRICHLET),
    (GRID, forms.BOUNDARY0),
    (GRID, forms.BOUNDARY1),
    (GRID, forms.bounded_mat_atom()),
    (SEQUENCE, forms.HAMEL),
    (SEQUENCE, diag_atom("j")),
    (SEQUENCE, diag_atom("j^2")),
    (SEQUENCE, diag_atom("1/j")),
    (SEQUENCE, diag_atom("const:2")),
    (SEQUENCE, diag_atom("j", 3)),
    (SEQUENCE, forms.bounded_mat_atom("seeded:1")),
]


@pytest.mark.parametrize("model, atom", _ATOMS_OF_EVERY_KIND, ids=repr)
def test_no_unbounded_numeric_form_lives_on_the_full_space(model, atom):
    # why make_form has no rule of its own against an unbounded numeric form
    # on the full space: such an atom's natural domain is smaller, and a
    # form's domain sits inside the natural domain of each of its atoms
    if atom.bounded or atom.kind == "hamel":
        assert atom.natural_domain == FULL_SPACE
        assert make_form(model, {atom: 1}, FULL_SPACE).domain == FULL_SPACE
        return
    assert atom.natural_domain != FULL_SPACE
    for atoms in ({atom: 1}, {atom: 1, forms.bounded_mat_atom(): 1}):
        with pytest.raises(OutsideCatalog, match="is not contained in the natural domain"):
            make_form(model, atoms, FULL_SPACE)


def test_atoms_of_every_kind_are_listed():
    kinds = {atom.kind for _, atom in _ATOMS_OF_EVERY_KIND}
    assert kinds == set(forms._SEQ_KINDS) | set(forms._GRID_KINDS)


def test_make_form_zero_coefficients_dropped():
    t = make_form(SEQUENCE, {diag_atom("1/j"): 0})
    assert t.is_zero and t == zero_form(SEQUENCE)


def test_make_form_domains():
    assert diag_form("j").domain == diag_domain("j")
    assert diag_form("j", domain=FINITE_SUPPORT).domain == FINITE_SUPPORT
    assert diag_form("1/j").domain == FULL_SPACE
    assert diag_form("j", cut=4).domain == FULL_SPACE  # truncation is bounded
    assert energy_form(1).domain == H1_GRID
    # two unbounded diagonals have incomparable natural domains
    with pytest.raises(OutsideCatalog):
        make_form(SEQUENCE, {diag_atom("j"): 1, diag_atom("j^2"): 1})
    both = make_form(SEQUENCE, {diag_atom("j"): 1, diag_atom("j^2"): 1}, FINITE_SUPPORT)
    assert both.domain == FINITE_SUPPORT


def test_form_add_and_scale():
    t = form_add(diag_form("1/j"), diag_form("1/j"))
    assert t.coeff(diag_atom("1/j")) == 2
    assert form_add(t, zero_form(SEQUENCE)) == t
    assert form_add(zero_form(SEQUENCE), t) == t
    with pytest.raises(ModelMismatch):
        form_add(diag_form("1/j"), energy_form(1))
    with pytest.raises(OutsideCatalog):
        form_add(diag_form("j"), diag_form("j^2"))
    assert form_scale(t, Fraction(1, 2)) == diag_form("1/j")
    assert form_scale(t, 0) == zero_form(SEQUENCE)
    with pytest.raises(ValueError):
        form_scale(t, -1)
    # sums restrict to the smaller domain
    s = form_add(diag_form("j"), diag_form("j", domain=FINITE_SUPPORT))
    assert s.domain == FINITE_SUPPORT


def test_named_catalog_constructors():
    t1 = energy_with_endpoints(1, 1, 1)
    assert t1 == form_add(energy_form(1), endpoint_form(1, 1))
    assert forms.describe(t1)
    assert hamel_form().has_kind("hamel")
    names = [name for name, _ in forms.catalog_forms()]
    assert "diag(j)" in names and len(names) == len(set(names))
    assert all(t.model == GRID for _, t in forms.catalog_forms(GRID))
    sym = [t for _, t in forms.catalog_forms(include_symbolic=True) if t.has_kind("hamel")]
    assert sym and not [t for _, t in forms.catalog_forms() if t.has_kind("hamel")]


# ------------------------------------------------------- matrices, values


def test_matrix_values_diag():
    t = diag_form("j")
    for k in range(1, 6):
        e = np.zeros(8)
        e[k - 1] = 1.0
        assert forms.quadratic(t, e) == pytest.approx(k)
    cut = diag_form("j", cut=3)
    e5 = np.zeros(8)
    e5[4] = 1.0
    assert forms.quadratic(cut, e5) == 0.0


def test_matrix_values_grid():
    xs = hilbert.grid_nodes(9)
    assert forms.quadratic(energy_form(1), xs) == pytest.approx(1.0)
    assert forms.quadratic(endpoint_form(2, 3), np.ones(11)) == pytest.approx(5.0)
    # endpoint atoms only see the boundary nodes
    interior = np.ones(11)
    interior[0] = interior[-1] = 0.0
    assert forms.quadratic(endpoint_form(1, 1), interior) == 0.0


def test_matrix_additivity_and_cache():
    t, s = energy_form(Fraction(1, 2)), endpoint_form(1, 2)
    lhs = matrix_at(form_add(t, s), 9)
    assert np.allclose(lhs, matrix_at(t, 9) + matrix_at(s, 9), atol=1e-14)
    assert not lhs.flags.writeable
    assert matrix_at(t, 9) is matrix_at(t, 9)  # cached
    with pytest.raises(SymbolicOnly):
        matrix_at(hamel_form(), 8)


def test_matrix_caches_are_bounded_and_keep_every_hit(capsys):
    for cache in (matrix_at, forms._atom_matrix):
        assert cache.cache_info().maxsize is not None
        cache.cache_clear()
    # sigma's diagonal order pairs build no matrix, its grid pairs do; the
    # chain's pointwise table is exact and builds none
    assert cli.main(["sigma", "--seed", "0", "--format", "json"]) == 0
    after_sigma = matrix_at.cache_info(), forms._atom_matrix.cache_info()
    assert cli.main(["chain", "--chain", "diag", "--seed", "0", "--format", "json"]) == 0
    capsys.readouterr()
    m, a = matrix_at.cache_info(), forms._atom_matrix.cache_info()
    assert (m, a) == after_sigma
    # nothing was evicted, so the hits are those of an unbounded cache
    assert m.currsize == m.misses and a.currsize == a.misses
    assert (m.hits, m.misses, a.hits, a.misses) == (6, 10, 18, 3)


def test_matrices_past_the_default_levels_are_not_kept():
    # a chain --levels run must not keep every large dense matrix it builds
    t, s = diag_form("j"), diag_form("j", cut=4)
    info = matrix_at.cache_info(), forms._atom_matrix.cache_info()
    m = matrix_at(t, 100)
    assert matrix_at(t, 100) is m and not m.flags.writeable  # the last one is kept
    kept = weakref.ref(m), weakref.ref(forms._atom_matrix(SEQUENCE, t.atoms[0][0], 100))
    del m
    assert np.array_equal(matrix_at(s, 100), np.diag([1, 2, 3, 4] + [0] * 96))
    assert all(ref() is None for ref in kept)
    assert (matrix_at.cache_info(), forms._atom_matrix.cache_info()) == info  # the default levels' caches


def test_cached_hash_is_the_dataclass_hash():
    rng = random.Random(3)
    sampled = [families.sample_form(GRID, "vf", rng) for _ in range(200)]
    sampled += [families.sample_form(SEQUENCE, "vf", rng) for _ in range(200)]
    for t in [f for _, f in forms.catalog_forms(include_symbolic=True)] + sampled:
        # the hash a plain frozen dataclass has, so no dict or set order moves
        assert hash(t) == hash((t.model, t.domain, t.atoms))
        for a, _ in t.atoms:
            assert hash(a) == hash((a.kind, a.lam, a.cut, a.gen))


def test_a_pickled_form_is_found_in_another_process():
    # a str hash differs between processes: a pickle carries no cached hash,
    # and the form it rebuilds takes this process's interned support
    t = form_add(diag_form("j"), bounded_matrix_form("seeded:2"))
    assert hash(t) and forms.is_bounded(t) is False
    back = pickle.loads(pickle.dumps(t))
    assert back == t and set(vars(back)) == {"model", "domain", "atoms", "support"}
    assert back.support is t.support
    code = (
        "import pickle, sys; from gealab import forms; t = pickle.loads(sys.stdin.buffer.read()); "
        "print(t in {forms.form_add(forms.diag_form('j'), forms.bounded_matrix_form('seeded:2'))})"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(t), capture_output=True, env=env)
        assert run.stdout.strip() == b"True", run.stderr


def _catalog_atoms() -> list:
    lams = ("j", "j^2", "1/j", "const:1/2", "const:2")
    atoms = [diag_atom(lam, cut) for lam in lams for cut in (None, 2, 3, 4, 8)]
    atoms += [forms.bounded_mat_atom(g) for g in ("id", *(f"seeded:{k}" for k in range(1, 7)))]
    return atoms + [DIRICHLET, forms.BOUNDARY0, forms.BOUNDARY1, forms.HAMEL]


def test_every_way_of_making_an_atom_gives_an_equal_atom():
    atom = diag_atom("j", cut=4)
    assert forms.FormAtom("diag", "j", 4) == forms.FormAtom("diag", lam="j", cut=4) == atom
    assert forms.FormAtom(kind="diag", lam="j", cut=4, gen="") == atom
    assert dataclasses.replace(diag_atom("j", cut=2), cut=4) == atom
    assert form_from_json(form_to_json(diag_form("j", cut=4))).atoms[0][0] == atom
    assert forms.FormAtom("dirichlet") == DIRICHLET and forms.FormAtom("hamel") == forms.HAMEL
    for a in _catalog_atoms():
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)), forms.FormAtom(a.kind, a.lam, a.cut, a.gen)):
            assert b == a and hash(b) == hash(a) and b.sort_key == a.sort_key
            assert b.bounded == a.bounded and b.natural_domain == a.natural_domain
            # rebuilt from the fields: the hash and the facts are this process's
            assert set(vars(b)) == {"kind", "lam", "cut", "gen", "_hash", "sort_key", "bounded", "natural_domain"}
    assert diag_atom("j") != atom and diag_atom("j").sort_key < atom.sort_key


def test_an_atom_built_from_its_fields_is_checked():
    for build in (
        lambda: forms.FormAtom("diag", lam="nope"),
        lambda: forms.FormAtom("diag", "j", 4.0),
        lambda: forms.FormAtom("bounded_mat", gen="x"),
        lambda: dataclasses.replace(diag_atom("j"), cut=-1),
    ):
        with pytest.raises(OutsideCatalog):
            build()
    assert diag_atom("j").natural_domain == diag_domain("j") and not diag_atom("j").bounded
    assert diag_atom("j", cut=3).bounded and diag_atom("j", cut=3).natural_domain == FULL_SPACE


def _outcome(build, *args):
    """What a build returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (GealabError, ValueError) as exc:
        return type(exc), str(exc)


def test_a_form_built_from_its_fields_is_what_make_form_builds():
    j, b0 = diag_atom("j"), forms.BOUNDARY0
    cases = [
        (GRID, H1_GRID, ((DIRICHLET, -1), (b0, 1))),  # a negative coefficient
        (SEQUENCE, FULL_SPACE, ((j, 1),)),  # an unbounded atom on the full space
        (SEQUENCE, FULL_SPACE, ((DIRICHLET, 1),)),  # an atom kind off its model
        ("line", FULL_SPACE, ()),  # an unknown model
        (GRID, H1_GRID, ((b0, 1), (DIRICHLET, 2))),  # atoms out of order
        (GRID, H1_GRID, ((DIRICHLET, 1), (b0, 0))),  # a zero coefficient
        (SEQUENCE, FINITE_SUPPORT, ((j, Fraction(1, 2)), (forms.bounded_mat_atom("seeded:1"), 3))),
    ]
    for model, domain, atoms in cases:
        made = _outcome(make_form, model, dict(atoms), domain)
        assert _outcome(forms.FormSpec, model, domain, atoms) == made
        if isinstance(made, forms.FormSpec):
            built = forms.FormSpec(model, domain, atoms)
            assert built.support is made.support and form_to_json(built) == form_to_json(made)
    assert forms.FormSpec(GRID, H1_GRID, ((DIRICHLET, 1), (b0, 0))) == energy_form(1)
    assert forms.FormSpec(GRID, H1_GRID, ((DIRICHLET, 0),)) == zero_form(GRID)
    with pytest.raises(ValueError, match="each atom once"):
        forms.FormSpec(GRID, H1_GRID, ((DIRICHLET, 1), (DIRICHLET, 2)))
    with pytest.raises(OutsideCatalog):
        dataclasses.replace(diag_form("j"), domain=FULL_SPACE)


def test_atoms_stay_immutable():
    atom = diag_atom("1/j")
    for name in ("lam", "_hash", "sort_key"):
        with pytest.raises(AttributeError):
            setattr(atom, name, "j")
    with pytest.raises(AttributeError):
        del atom.cut
    assert atom.lam == "1/j" and atom.cut is None and hash(atom) == hash(("diag", "1/j", None, ""))


def test_catalog_atom_reprs_are_the_dataclass_reprs():
    atoms = _catalog_atoms()
    assert repr(atoms[6]) == "FormAtom(kind='diag', lam='j^2', cut=2, gen='')"
    # sha256 of the plain dataclass reprs: the stored hash and sort key stay out of them
    text = "\n".join(map(repr, atoms))
    assert len(atoms) == 36
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "29bd479b00991d98995866a5c224246d36c4f194402af2d932cfbcb96bd4b012"
    )
    assert [f.name for f in dataclasses.fields(forms.FormAtom)] == ["kind", "lam", "cut", "gen"]


def test_cached_classification_stays_out_of_repr_eq_and_json():
    t, fresh = energy_with_endpoints(1, 1, 1), energy_with_endpoints(1, 1, 1)
    before = (repr(t), form_to_json(t), [repr(a) for a, _ in t.atoms])
    hash(t)
    forms.is_bounded(t), forms.singular_atoms(t), forms.is_closed(t)
    families.in_family(t, "rf")
    # the facts sit on the interned support, which the form keeps beside its hash
    assert set(vars(t)) == {"model", "domain", "atoms", "_hash", "support"}
    assert t.support is fresh.support
    assert t.support.members["rf"]
    assert {"bounded", "natural_domain"} <= set(vars(t.atoms[0][0]))
    after = (repr(t), form_to_json(t), [repr(a) for a, _ in t.atoms])
    assert before == after == (repr(fresh), form_to_json(fresh), [repr(a) for a, _ in fresh.atoms])
    assert t == fresh and fresh == t
    assert [f.name for f in dataclasses.fields(t)] == ["model", "domain", "atoms"]


def test_evaluate_checks():
    t = diag_form("1/j")
    with pytest.raises(DimensionMismatch):
        forms.evaluate(t, np.ones(4), np.ones(5))


def test_evaluate_sesquilinear():
    rng = np.random.default_rng(5)
    t = bounded_matrix_form("seeded:3")
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = forms.evaluate(t, x, y)
    assert forms.evaluate(t, 2j * x, y) == pytest.approx(2j * v)
    assert forms.evaluate(t, x, 2j * y) == pytest.approx(-2j * v)
    assert forms.evaluate(t, y, x) == pytest.approx(np.conj(v))


def test_numerical_range_bounds():
    lo, hi = forms.numerical_range_bounds(bounded_matrix_form("id"), 8)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    # unit-norm generators stay in [0, 1] relative to the grid inner product
    lo, hi = forms.numerical_range_bounds(bounded_matrix_form("id", model=GRID), 9)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    lo, hi = forms.numerical_range_bounds(diag_form("1/j"), 8)
    assert lo == pytest.approx(1 / 8) and hi == pytest.approx(1.0)


def test_classify_boundedness():
    assert forms.classify_boundedness(diag_form("1/j")) is True
    assert forms.classify_boundedness(diag_form("j", cut=4)) is True
    assert forms.classify_boundedness(diag_form("j")) is False
    assert forms.classify_boundedness(energy_form(1)) is False
    assert forms.classify_boundedness(endpoint_form(1, 1)) is False
    assert forms.classify_boundedness(hamel_form()) is False  # by declaration
    assert forms.classify_boundedness(zero_form(SEQUENCE)) is True


def test_catalog_classification_consistent():
    for _, t in forms.catalog_forms():
        forms.classify_boundedness(t)  # raises on any declared/probe mismatch


# --------------------------------------------------- regular/singular split


def test_reg_sing_split_grid():
    t_prime, t_0 = energy_form(1), endpoint_form(1, 1)
    t_1 = form_add(t_prime, t_0)
    # positive energy coefficient makes the whole form regular
    assert forms.reg_sing_split(t_1) == (t_1, zero_form(GRID))
    assert forms.reg_sing_split(t_0) == (zero_form(GRID), t_0)
    mixed = form_add(bounded_matrix_form("id", model=GRID), t_0)
    r, s = forms.reg_sing_split(mixed)
    assert r == bounded_matrix_form("id", model=GRID) and s == t_0
    lhs = matrix_at(mixed, 9)
    assert np.array_equal(lhs, matrix_at(r, 9) + matrix_at(s, 9))


def test_reg_sing_split_sequence():
    t = form_add(hamel_form(), diag_form("1/j"))
    r, s = forms.reg_sing_split(t)
    assert r == diag_form("1/j") and s == hamel_form()
    assert forms.is_regular(diag_form("j")) and not forms.is_singular(diag_form("j"))
    assert forms.is_singular(endpoint_form(1, 1))
    z = zero_form(SEQUENCE)
    assert forms.is_regular(z) and forms.is_singular(z)


def test_reg_sing_split_keeps_restricted_domain():
    t = diag_form("j", domain=FINITE_SUPPORT)
    r, s = forms.reg_sing_split(t)
    assert r.domain == FINITE_SUPPORT and s.is_zero


def test_singular_atoms_rule():
    t_0 = endpoint_form(1, 1)
    assert forms.singular_atoms(form_add(energy_form(1), t_0)) == frozenset()
    assert forms.singular_atoms(form_add(bounded_matrix_form("id", model=GRID), t_0)) == {
        a for a, _ in t_0.atoms
    }
    assert forms.singular_atoms(form_add(hamel_form(), diag_form("1/j"))) == {forms.HAMEL}
    assert forms.singular_atoms(diag_form("j")) == frozenset()


def test_singular_atoms_agree_with_the_split():
    # is_regular / is_singular / the bar sum's plan read the support's
    # singular atoms; they must say what the two-form split says
    import random

    rng = random.Random(31)
    pool = [t for model in hilbert.MODELS for _, t in forms.catalog_forms(model, include_symbolic=True)]
    for model in hilbert.MODELS:
        for family in ("vf", "sf"):
            pool += [families.sample_form(model, family, rng) for _ in range(150)]
    for t in pool:
        r, s = forms.reg_sing_split(t)
        assert forms.is_regular(t) == s.is_zero, t
        assert forms.is_singular(t) == r.is_zero, t
        assert {a for a, _ in r.atoms} == set(t.support.atoms) - t.support.singular, t
        assert {a for a, _ in s.atoms} == forms.singular_atoms(t), t


# ----------------------------------------------------------- closedness


def test_is_closed_rules():
    assert forms.is_closed(diag_form("1/j"))
    assert forms.is_closed(diag_form("j"))
    assert not forms.is_closed(diag_form("j", domain=FINITE_SUPPORT))
    assert not forms.is_closed(diag_form("1/j", domain=FINITE_SUPPORT))
    assert forms.is_closed(energy_form(1))
    assert forms.is_closed(energy_with_endpoints(1, 1, 1))
    assert not forms.is_closed(endpoint_form(1, 1))
    assert not forms.is_closed(hamel_form())
    assert forms.is_closed(zero_form(SEQUENCE))


def test_a_restricted_hamel_form_is_not_closed():
    # a diag_max domain does not make the symbolic singular form closed
    t = make_form(SEQUENCE, {forms.HAMEL: 1}, diag_domain("j"))
    assert not forms.is_closed(t)
    assert not families.in_family(t, "cf") and not families.in_family(t, "sa")


@pytest.mark.parametrize("domain", [FULL_SPACE, FINITE_SUPPORT, diag_domain("j")])
def test_an_energy_form_lives_on_h1_grid_alone(domain):
    # so a grid form with the energy atom is closed whatever its domain tag reads
    for atoms in ({DIRICHLET: 1}, {DIRICHLET: 1, forms.BOUNDARY0: 2}):
        with pytest.raises(OutsideCatalog):
            make_form(GRID, atoms, domain)


# ----------------------------------------------------- singularity probe


def test_singularity_witness_endpoint_form():
    t_0 = endpoint_form(1, 1)
    for _, x in hilbert.smooth_grid_samples(9):
        y = forms.singularity_witness(t_0, x)
        assert y is not None
        assert forms.quadratic(t_0, y) < abs(hilbert.inner(GRID, x, y)) ** 2


def test_singularity_witness_none_for_closed():
    # unit reference: a scaled-up x inflates |(x, y)|^2 and buys a spurious
    # witness even against a closed form
    xs = hilbert.grid_nodes(9) + 1.0
    x = xs / hilbert.norm(GRID, xs)
    assert forms.singularity_witness(energy_with_endpoints(1, 1, 1), x) is None
    e2 = np.zeros(8)
    e2[1] = 1.0
    assert forms.singularity_witness(diag_form("j"), e2) is None


@pytest.mark.parametrize("mesh", [9, 49, 199])
def test_singularity_witness_has_zero_energy_on_boundary_only_forms(mesh):
    for t in (endpoint_form(1, 1), endpoint_form(1, 0), endpoint_form(0, 2), zero_form(GRID)):
        for _, x in hilbert.smooth_grid_samples(mesh):
            y = forms.singularity_witness(t, x)
            assert y is not None
            assert forms.quadratic(t, y) == 0.0
            assert abs(hilbert.inner(GRID, x, y)) > 0.0
    # x supported only at the endpoints: a witness exists exactly when the form vanishes at one of them
    x = np.zeros(mesh + 2, dtype=complex)
    x[0] = x[-1] = 1.0
    assert forms.singularity_witness(endpoint_form(1, 1), x) is None
    for t in (endpoint_form(1, 0), endpoint_form(0, 2), zero_form(GRID)):
        y = forms.singularity_witness(t, x)
        assert y is not None and forms.quadratic(t, y) == 0.0


def test_singularity_witness_zero_reference():
    with pytest.raises(ValueError):
        forms.singularity_witness(endpoint_form(1, 1), np.zeros(11))


# ---------------------------------------------------- operators of forms


def test_riesz_operator_of_bounded():
    for t in (diag_form("1/j"), bounded_matrix_form("seeded:2"), bounded_matrix_form("id", model=GRID)):
        level = 8 if t.model == SEQUENCE else 9
        a = forms.riesz_operator_of_bounded(t, level)
        sampler = hilbert.VectorSampler(t.model, level, seed=99)
        for _ in range(3):
            x, y = sampler.draw(), sampler.draw()
            assert forms.evaluate(t, x, y) == pytest.approx(
                hilbert.inner(t.model, a @ x, y), rel=1e-10, abs=1e-10
            )
    with pytest.raises(UnboundedForm):
        forms.riesz_operator_of_bounded(diag_form("j"), 8)


def test_riesz_operator_of_bounded_runs_no_eigensolve(monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
    monkeypatch.setattr(np.linalg, "eigh", no_eig)
    # each call still verifies its four seeded pairs, and raises if one fails
    forms.riesz_operator_of_bounded(bounded_matrix_form("seeded:4"), 16)
    forms.riesz_operator_of_bounded(diag_form("1/j"), 16)
    forms.riesz_operator_of_bounded(bounded_matrix_form("seeded:3", model=GRID), 49)


def test_riesz_tolerance_scale_never_exceeds_the_numerical_range():
    # the scale is the largest diagonal entry of A = W^-1 M, a diagonal entry of W^-1/2 M W^-1/2
    for name, t in forms.catalog_forms():
        if not forms.is_bounded(t):
            continue
        for level in hilbert.DEFAULT_LEVELS[t.model]:
            a = forms.riesz_operator_of_bounded(t, level)
            scale = max(1.0, float(a.diagonal().real.max()))
            top = max(1.0, forms.numerical_range_bounds(t, level)[1])
            assert scale <= top * (1 + 1e-12), (name, level)
            m = matrix_at(t, level)
            if np.array_equal(m, np.diag(m.diagonal())):
                assert scale == pytest.approx(top, rel=1e-12), (name, level)


def test_unit_sequence_weights_change_no_float():
    # the Gram rule of the grid, applied with the sequence model's unit weights, is the identity
    for gen in ("id", "seeded:3"):
        for level in hilbert.DEFAULT_LEVELS[SEQUENCE]:
            g = np.eye(level, dtype=complex) if gen == "id" else forms._seeded_unit_psd(level, 3)
            assert np.array_equal(forms._atom_matrix(SEQUENCE, forms.bounded_mat_atom(gen), level), g)
    for name, t in forms.catalog_forms(SEQUENCE):
        for level in hilbert.DEFAULT_LEVELS[SEQUENCE]:
            m = matrix_at(t, level)
            assert forms.numerical_range_bounds(t, level) == forms.psd_range(m)[:2], name
            if forms.is_bounded(t):
                assert np.array_equal(forms.riesz_operator_of_bounded(t, level), m), name


def test_extend_bounded():
    t = diag_form("1/j", domain=FINITE_SUPPORT)
    ext = forms.extend_bounded(t)
    assert ext.domain == FULL_SPACE and ext.atoms == t.atoms
    assert forms.extend_bounded(ext) == ext
    with pytest.raises(UnboundedForm):
        forms.extend_bounded(energy_form(1))


def test_associated_operator():
    a = forms.associated_operator(diag_form("j"), 6)
    assert np.allclose(a, np.diag(np.arange(1.0, 7.0)))
    k = forms.associated_operator(energy_form(1), 9)
    xs = hilbert.grid_nodes(9)
    # generator identity: t(x, y) = (A x, y) in the model inner product
    assert forms.evaluate(energy_form(1), xs, xs) == pytest.approx(
        hilbert.inner(GRID, k @ xs, xs), rel=1e-12
    )
    with pytest.raises(NotClosed):
        forms.associated_operator(endpoint_form(1, 1), 9)
    with pytest.raises(NotClosed):
        forms.associated_operator(diag_form("j", domain=FINITE_SUPPORT), 6)


def test_operator_catalog():
    # a catalog operator is the gf form it generates
    t = diag_form("1/j")
    assert families.in_family(t, "gf")
    assert np.allclose(forms.associated_operator(t, 4), np.diag([1, 1 / 2, 1 / 3, 1 / 4]))
    assert not families.in_family(energy_form(1), "gf")


# ------------------------------------------------------------------ JSON


def test_json_round_trip_catalog():
    for model in (None, SEQUENCE, GRID):
        for _, t in forms.catalog_forms(model, include_symbolic=True):
            text = form_to_json(t)
            back = form_from_json(text)
            assert back == t
            assert form_to_json(back) == text  # canonical, so bit-exact


def test_json_fields():
    import json

    data = json.loads(form_to_json(diag_form("j", cut=4, coeff=Fraction(3, 2))))
    (entry,) = data["atoms"]
    assert entry["lambda"] == "j" and entry["cut"] == 4 and entry["coeff"] == "3/2"
    assert entry["sup"] == "4"  # largest value below the cut
    data = json.loads(form_to_json(diag_form("j")))
    assert data["atoms"][0]["sup"] == "inf"
    data = json.loads(form_to_json(endpoint_form(1, 2)))
    (entry,) = data["atoms"]
    assert entry == {"kind": "boundary", "alpha": "1", "beta": "2"}


def test_json_malformed():
    with pytest.raises(OutsideCatalog):
        forms.form_from_dict({"domain": "full", "atoms": []})
    with pytest.raises(OutsideCatalog):
        forms.form_from_dict({"model": SEQUENCE, "domain": "full", "atoms": [{"kind": "mystery"}]})
    with pytest.raises(OutsideCatalog):
        form_from_json('{"model": "sequence", "domain": "full", "atoms": [{"kind": "diag", "lambda": "log"}]}')


def test_json_zero_atom_kind_is_unknown():
    # form_to_dict writes the zero form as no entries, never as a "zero" one
    catalog = [t for _, t in forms.catalog_forms(include_symbolic=True)] + [zero_form(GRID)]
    assert all(e["kind"] != "zero" for t in catalog for e in forms.form_to_dict(t)["atoms"])
    assert forms.form_to_dict(zero_form(SEQUENCE))["atoms"] == []
    with pytest.raises(OutsideCatalog, match="unknown atom kind 'zero'"):
        forms.form_from_dict({"model": SEQUENCE, "domain": "full", "atoms": [{"kind": "zero"}]})


def test_json_cut_that_is_not_an_integer_is_refused():
    # a cut of 4.0 or true would make an atom whose matrices cannot be built
    for cut in ("4.0", "1.0", "true", '"4"'):
        text = '{"model": "sequence", "domain": "full", "atoms": [{"kind": "diag", "lambda": "j", "cut": %s}]}'
        with pytest.raises(OutsideCatalog, match="must be an integer"):
            form_from_json(text % cut)
    for cut in (4, 1):
        assert type(diag_atom("j", cut).cut) is int and type(diag_form("j", cut=cut).atoms[0][0].cut) is int
        assert repr(diag_atom("j", cut)) == f"FormAtom(kind='diag', lam='j', cut={cut}, gen='')"
        assert forms.matrix_at(diag_form("j", cut=cut), 8).trace() == sum(range(1, cut + 1))


def test_json_sup_of_a_cut_is_read_off_the_registry():
    for lam in ("j", "j^2", "1/j", "const:1/2", "const:0"):
        for cut in range(12):
            want = max((forms.lam_value(lam, j) for j in range(1, cut + 1)), default=0)
            assert forms.form_to_dict(diag_form(lam, cut=cut))["atoms"][0]["sup"] == str(want)
    # no pass over the indices below the cut
    start = time.perf_counter()
    text = form_to_json(diag_form("j^2", cut=10**12))
    assert time.perf_counter() - start < 0.01
    assert '"sup":"%d"' % 10**24 in text


def _malformed(atoms=(), domain="full"):
    return {"model": SEQUENCE, "domain": domain, "atoms": atoms}


@pytest.mark.parametrize(
    "data",
    [
        _malformed([{"kind": "diag", "lambda": 5}]),
        _malformed([{"kind": "diag", "lambda": [1]}]),
        _malformed([{"kind": "bounded_mat", "gen": 7}]),
        _malformed([{"kind": "bounded_mat"}]),
        _malformed([{"kind": "diag", "lambda": "j", "coeff": "abc"}]),
        _malformed([{"kind": "diag", "lambda": "j", "coeff": None}]),
        _malformed(["x"]),
        _malformed(5),
        _malformed(domain=5),
    ],
    ids=["lambda-int", "lambda-list", "gen-int", "gen-missing", "coeff-text", "coeff-null", "atom-str", "atoms-int", "domain-int"],
)
def test_json_reader_refuses_every_malformed_description(data):
    with pytest.raises(OutsideCatalog):
        forms.form_from_dict(data)


def test_json_reader_keeps_its_model_and_sign_errors():
    with pytest.raises(ModelMismatch):
        forms.form_from_dict({**_malformed(), "model": "torus"})
    with pytest.raises(ValueError, match="negative"):
        forms.form_from_dict(_malformed([{"kind": "diag", "lambda": "j", "coeff": "-1"}]))


# ------------------------------------------------------------- properties


@settings(max_examples=30, deadline=None)
@given(
    c1=st.fractions(min_value=0, max_value=4),
    c2=st.fractions(min_value=0, max_value=4),
)
def test_scale_distributes_over_add(c1, c2):
    t = diag_form("1/j", coeff=c1) if c1 else zero_form(SEQUENCE)
    s = bounded_matrix_form("id", coeff=c2) if c2 else zero_form(SEQUENCE)
    assert form_scale(form_add(t, s), 2) == form_add(form_scale(t, 2), form_scale(s, 2))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_quadratic_nonnegative(seed):
    sampler = hilbert.VectorSampler(SEQUENCE, 8, seed=seed)
    x = sampler.draw()
    for t in (diag_form("1/j"), bounded_matrix_form("seeded:4"), diag_form("j", cut=5)):
        assert forms.quadratic(t, x) >= -1e-12
