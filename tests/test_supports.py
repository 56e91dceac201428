"""Supports: every coefficient-free fact of a form is decided once per
support (model, domain, atoms without coefficients) or pair of supports,
and kept on the interned ``forms.Support``.

The reference oracles below are the per-form path the supports replace,
written apart from the code under test: classifiers and family rules
that read the coefficients, and the sums as a merge of atom dictionaries.  Every planned sum,
membership and classification must equal them, and no error is cached.
"""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from test_families import BENCH_FAMILIES, ref_atom_bounded, ref_atom_natural_domain

from gealab import forms, hilbert, kernel
from gealab.errors import GealabError, ModelMismatch, NotInFamily, OutsideCatalog
from gealab.families import gea_by_name, in_family, oplus, oplus_bar, oplus_family
from gealab.forms import (
    BOUNDARY0,
    DIRICHLET,
    FULL_SPACE,
    H1_GRID,
    diag_atom,
    diag_form,
    energy_form,
    make_form,
)
from gealab.hilbert import GRID, SEQUENCE

# the benchmark families and the two fixed-domain families it leaves out
ORACLE_FAMILIES = (*BENCH_FAMILIES, "vfd:finite_support", "vfd:diag_max:j")
CLASSIFIERS = (forms.is_bounded, forms.singular_atoms, forms.is_closed)

# ------------------------------------------------------------ reference oracles


def ref_is_bounded(t):
    """Catalog boundedness: every atom is bounded."""
    return all(ref_atom_bounded(a) for a, _ in t.atoms)


def ref_singular_atoms(t):
    """The singular atoms, read off the coefficients."""
    if t.model == GRID:
        if t.coeff(DIRICHLET) > 0:
            return frozenset()
        return frozenset(a for a, _ in t.atoms if a.kind in ("boundary0", "boundary1"))
    return frozenset(a for a, _ in t.atoms if a.kind == "hamel")


def ref_is_closed(t):
    """Closedness by the catalog rule, read off the coefficients."""
    if t.has_kind("hamel"):
        return False
    if ref_is_bounded(t):
        return t.domain == FULL_SPACE
    if t.model == SEQUENCE:
        return t.domain.kind == "diag_max"
    return t.coeff(DIRICHLET) > 0 and t.domain == H1_GRID


REF_CLASSIFIERS = (ref_is_bounded, ref_singular_atoms, ref_is_closed)

# the membership rule of each family id's base beyond the carrier, read off
# the form; vf and vf-bar admit the whole carrier
REF_RULES = {
    "bf": lambda t, tag: ref_is_bounded(t),
    "rf": lambda t, tag: not ref_singular_atoms(t),
    "sf": lambda t, tag: ref_singular_atoms(t) == {a for a, _ in t.atoms},
    "gf": lambda t, tag: all(a.kind in ("diag", "bounded_mat") for a, _ in t.atoms),
    "cf": lambda t, tag: ref_is_closed(t),
    "vfd": lambda t, tag: ref_is_bounded(t) or t.domain == tag,
}
REF_RULES["vh"], REF_RULES["sa"] = REF_RULES["gf"], REF_RULES["cf"]
BAR_FAMILIES = ("vf-bar",)


def ref_in_family(t, family):
    """The carrier rule (a bounded form lives on the full space), then the family's rule."""
    base, _, text = family.partition(":")
    tag = forms.tag_from_str(text) if text else None
    rule = REF_RULES.get(base)
    return (not ref_is_bounded(t) or t.domain == FULL_SPACE) and (rule is None or rule(t, tag))


def ref_form(model, domain, items):
    """The form of these fields and ``{atom: coefficient}`` items, set
    straight into a ``FormSpec`` past ``make_form``, so a false refusal
    there cannot reach the oracle's answer."""
    t = object.__new__(forms.FormSpec)
    atoms = tuple(sorted(items.items(), key=lambda item: item[0].sort_key))
    support = forms._support(model, domain, tuple(a for a, _ in atoms))
    t.__dict__.update(model=model, domain=domain, atoms=atoms, support=support)
    return t


def ref_hamel_clash(atoms):
    """The symbolic singular atom beside an unbounded numeric one."""
    return any(a.kind == "hamel" for a in atoms) and any(
        not ref_atom_bounded(a) and a.kind != "hamel" for a in atoms
    )


def ref_form_add(t, s):
    """The plain sum as a merge of atom dictionaries, sorted afterwards."""
    if t.model != s.model:
        raise ModelMismatch("cannot add forms on different models")
    if t.is_zero:
        return s
    if s.is_zero:
        return t
    dom = forms.tag_meet(t.domain, s.domain)
    if dom is None:
        raise OutsideCatalog("sum of forms on incomparable domains")
    merged = t.atoms_dict()
    for atom, c in s.atoms:
        forms.add_coeff(merged, atom, c)
    if ref_hamel_clash(merged):
        raise OutsideCatalog("the symbolic singular atom only combines with bounded atoms")
    return ref_form(t.model, dom, merged)


def ref_oplus(t, s):
    """Defined when an operand is bounded or the domains agree, and the sum is a catalog form."""
    if t.model != s.model:
        raise ModelMismatch("operands live on different models")
    if ref_is_bounded(t) or ref_is_bounded(s) or t.domain == s.domain:
        try:
            return ref_form_add(t, s)
        except OutsideCatalog:
            return None
    return None


def _ref_reg_atoms(t):
    sing = ref_singular_atoms(t)
    return {a: c for a, c in t.atoms if a not in sing}


def ref_oplus_bar(t, s):
    """Defined when the regular parts' coefficients add to the sum's regular part."""
    u = ref_oplus(t, s)
    if u is None:
        return None
    merged = _ref_reg_atoms(t)
    for atom, c in _ref_reg_atoms(s).items():
        forms.add_coeff(merged, atom, c)
    return u if merged == _ref_reg_atoms(u) else None


def ref_oplus_family(family, t, s):
    for operand in (t, s):
        if not ref_in_family(operand, family):
            raise NotInFamily(f"{forms.describe(operand)} is not in {family}")
    u = ref_oplus_bar(t, s) if family in BAR_FAMILIES else ref_oplus(t, s)
    if u is None or not ref_in_family(u, family):
        return None
    return u


def _outcome(fn, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except GealabError as exc:
        return type(exc), str(exc)


def _draws_and_pairs(family, seed):
    """500 seeded draws of a family and 2000 ordered pairs of them."""
    alg = gea_by_name(family)
    rng = random.Random(seed)
    draws = [alg.sample(rng) for _ in range(500)]
    pairs = [(draws[i], draws[rng.randrange(500)]) for i in range(500) for _ in range(4)]
    return alg, draws, pairs


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_support_tables_match_the_per_form_path(family):
    alg, draws, pairs = _draws_and_pairs(family, 31)
    family_sum = {"vf": "plain", "vf-bar": "bar"}.get(family, "family")
    want_sums = [(ref_oplus(t, s), ref_oplus_bar(t, s), _outcome(ref_oplus_family, family, t, s)) for t, s in pairs]
    # the planned sums, twice: the second pass reads the plans the first one made
    for _ in range(2):
        got_sums = [(oplus(t, s), oplus_bar(t, s), _outcome(oplus_family, family, t, s)) for t, s in pairs]
        assert got_sums == want_sums
        for (t, s), got in zip(pairs, got_sums):
            want = {"plain": got[0], "bar": got[1], "family": got[2]}[family_sum]
            assert alg.add(t, s) == want
    forms_seen = draws + [u for sums in want_sums for u in sums[:2] if u is not None]
    want_facts = [
        ([fn(t) for fn in REF_CLASSIFIERS], [ref_in_family(t, f) for f in ORACLE_FAMILIES]) for t in forms_seen
    ]
    got_facts = [([fn(t) for fn in CLASSIFIERS], [in_family(t, f) for f in ORACLE_FAMILIES]) for t in forms_seen]
    assert got_facts == want_facts
    # a support names exactly one (model, domain, atoms) key, and a key one support
    keys = {}
    for t in forms_seen:
        key = (t.model, t.domain, tuple(a for a, _ in t.atoms))
        assert (t.support.model, t.support.domain, t.support.atoms) == key
        assert keys.setdefault(key, t.support) is t.support is forms._SUPPORTS[key]


def ref_make_form(model, atoms, domain=None):
    """The validated constructor with every rule checked on every call."""
    if model not in hilbert.MODELS:
        raise ModelMismatch(f"unknown model {model!r}")
    allowed = forms._SEQ_KINDS if model == SEQUENCE else forms._GRID_KINDS
    items = {}
    for atom, c in atoms.items():
        c = Fraction(c)
        if c < 0:
            raise ValueError(f"coefficient of {atom} is negative")
        if not c:
            continue
        if atom.kind not in allowed:
            raise ModelMismatch(f"atom kind {atom.kind!r} not available on the {model} model")
        items[atom] = c
    if not items:
        return ref_form(model, FULL_SPACE, {})
    has_hamel = any(a.kind == "hamel" for a in items)
    if ref_hamel_clash(items):
        raise OutsideCatalog("the symbolic singular atom only combines with bounded atoms")
    if domain is None:
        dom = forms.natural_domain(items)
    else:
        dom = domain
        for atom in items:
            if not forms.tag_includes(dom, ref_atom_natural_domain(atom)):
                raise OutsideCatalog(
                    f"domain {forms.tag_to_str(dom)} is not contained in the natural "
                    f"domain {forms.tag_to_str(ref_atom_natural_domain(atom))} of {atom}"
                )
    if any(not ref_atom_bounded(a) for a in items) and dom == FULL_SPACE and not has_hamel:
        raise OutsideCatalog("an unbounded numeric form cannot be declared on the full space")
    return ref_form(model, dom, items)


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_make_form_matches_the_per_call_rules(family):
    _, draws, _ = _draws_and_pairs(family, 37)
    domains = (None, FULL_SPACE, H1_GRID, forms.FINITE_SUPPORT, forms.diag_domain("j"))
    for t in draws[:100]:
        for atoms in (dict(t.atoms), dict(reversed(t.atoms))):
            for dom in domains:
                for model in (SEQUENCE, GRID):
                    got = _outcome(make_form, model, atoms, dom)
                    assert got == _outcome(ref_make_form, model, atoms, dom), (model, atoms, dom)
                    if isinstance(got, forms.FormSpec):
                        assert forms.form_to_json(got) == forms.form_to_json(ref_make_form(model, atoms, dom))


# --------------------------------------------------------------- no cached error


def test_errors_are_raised_on_every_call():
    j, bounded = diag_form("j"), diag_form("1/j")
    assert oplus(j, bounded) is not None  # the pair's supports are planned
    for _ in range(2):
        with pytest.raises(NotInFamily):
            oplus_family("bf", j, bounded)
        with pytest.raises(NotInFamily):
            oplus_family("bf", bounded, j)
        assert oplus_family("bf", bounded, bounded) == diag_form("1/j", coeff=2)
        with pytest.raises(ModelMismatch):
            oplus(j, energy_form(1))
        with pytest.raises(ModelMismatch):
            oplus_bar(bounded, forms.bounded_matrix_form("id", model=GRID))
        with pytest.raises(ModelMismatch):
            oplus_family("vf", bounded, forms.bounded_matrix_form("id", model=GRID))


def test_make_form_errors_are_raised_on_every_call():
    j = diag_atom("j")
    shapes = len(forms._SHAPES)
    for _ in range(2):
        assert make_form(SEQUENCE, {j: 1}) == diag_form("j")
        with pytest.raises(ValueError, match="negative"):
            make_form(SEQUENCE, {j: -1})
        with pytest.raises(ValueError, match="negative"):
            make_form(SEQUENCE, {j: 2, diag_atom("1/j"): Fraction(-1, 3)})
        with pytest.raises(OutsideCatalog):
            make_form(SEQUENCE, {j: 1}, FULL_SPACE)
        with pytest.raises(OutsideCatalog):
            make_form(SEQUENCE, {j: 1, forms.HAMEL: 1})
        with pytest.raises(ModelMismatch):
            make_form(GRID, {j: 1})
        with pytest.raises(ModelMismatch):
            make_form(SEQUENCE, {DIRICHLET: 1, BOUNDARY0: 1})
        with pytest.raises(ModelMismatch):
            make_form("torus", {j: 1})
        assert make_form(GRID, {DIRICHLET: 1, BOUNDARY0: 1}) == forms.energy_with_endpoints(1, 1, 0)
    assert len(forms._SHAPES) <= shapes + 2  # only the admissible calls were kept


# ------------------------------------------------------- each order planned alone


@pytest.fixture
def fresh_plans():
    """Every support's plans emptied for the test and put back after it, so
    that no plan made under a patch outlives the test."""
    saved = {sup: dict(sup.plans) for sup in forms._SUPPORTS.values()}
    for sup in saved:
        sup.plans.clear()
    yield
    for sup in forms._SUPPORTS.values():
        sup.plans.clear()
        sup.plans.update(saved.get(sup, {}))


def test_sampled_checks_plan_each_order_of_a_pair(monkeypatch, fresh_plans):
    # sums undefined whenever the left support has more atoms: a plan of
    # (t, s) taken from the one of (s, t) would hide the broken commutativity
    shape = forms.sum_shape
    monkeypatch.setattr(forms, "sum_shape", lambda t, s: None if len(t.atoms) > len(s.atoms) else shape(t, s))
    t = make_form(SEQUENCE, {diag_atom("j"): 1, forms.bounded_mat_atom("id"): 2})
    s = diag_form("j", coeff=3)
    sums = (oplus, oplus_bar, lambda a, b: oplus_family("vf", a, b))
    assert [add(s, t) for add in sums] == [forms.form_add(s, t)] * 3
    assert s.support.plans and not t.support.plans  # planning (s, t) planned no (t, s)
    assert [add(t, s) for add in sums] == [None] * 3
    alg = gea_by_name("vf")
    gei = kernel.check_axioms(alg, mode="sampled").verdict("GEi")
    assert not gei.passed and kernel.replay(alg, gei)


# ------------------------------------------------ the invariant the tables rest on


@pytest.mark.parametrize("family", BENCH_FAMILIES)
def test_every_draw_and_sum_has_positive_fraction_coefficients(family):
    alg = gea_by_name(family)
    seen = []
    sample, add = alg.sample, alg.add

    def recording_sample(rng):
        seen.append(sample(rng))
        return seen[-1]

    def recording_add(a, b):
        seen.append(add(a, b))
        return seen[-1]

    alg.sample, alg.add = recording_sample, recording_add
    kernel.check_axioms(alg, mode="sampled", samples=300, seed=13)
    coeffs = [c for t in seen if t is not None for _, c in t.atoms]
    assert coeffs and all(type(c) is Fraction and c > 0 for c in coeffs)


# at most four times the counts of one 2000-sample check in a fresh process:
# 1524 supports and 4915 plans per sum at most, over the ten families
MAX_NEW_SUPPORTS = 4 * 1524
MAX_NEW_PLANS = 4 * 4915


def _table_sizes():
    sizes = {"supports": len(forms._SUPPORTS), "shapes": len(forms._SHAPES)}
    for sup in forms._SUPPORTS.values():
        for op, _ in sup.plans:
            sizes[f"plans {op}"] = sizes.get(f"plans {op}", 0) + 1
        for family in sup.members:
            sizes[f"members {family}"] = sizes.get(f"members {family}", 0) + 1
    return sizes


@pytest.mark.parametrize("family", BENCH_FAMILIES)
def test_support_tables_stay_small(family):
    before = _table_sizes()
    kernel.check_axioms(gea_by_name(family), mode="sampled", samples=2000, seed=4242)
    grown = {name: size - before.get(name, 0) for name, size in _table_sizes().items()}
    assert grown["supports"] <= MAX_NEW_SUPPORTS, grown
    assert all(n <= MAX_NEW_PLANS for name, n in grown.items() if name.startswith("plans")), grown
    assert all(n <= MAX_NEW_SUPPORTS for name, n in grown.items() if not name.startswith("plans")), grown


# ------------------------------------------------------------ one support per key


def test_rebuilt_and_unpickled_forms_share_the_support():
    made = [
        make_form(SEQUENCE, {diag_atom("j"): 2, forms.bounded_mat_atom("seeded:2"): Fraction(1, 3)}),
        make_form(SEQUENCE, {diag_atom("j^2"): 1}, forms.FINITE_SUPPORT),
        forms.energy_with_endpoints(1, 1, 0),
        forms.zero_form(GRID),
        forms.hamel_form(2),
    ]
    for t in made:
        rebuilt = forms.FormSpec(t.model, t.domain, t.atoms)
        unpickled = pickle.loads(pickle.dumps(t))
        for back in (rebuilt, unpickled, copy.copy(t), copy.deepcopy(t), dataclasses.replace(t)):
            # the support is set when the form is built, not looked up on first use
            assert back == t and vars(back)["support"] is t.support


def test_a_sum_never_leaves_the_catalog():
    # hamel restricted to diag_max:j is admissible, and so is diag(j) there;
    # their sum would hold the symbolic singular atom beside an unbounded one
    on_j = make_form(SEQUENCE, {forms.HAMEL: 1}, forms.diag_domain("j"))
    j, bounded = diag_form("j"), diag_form("1/j")
    with_bounded = oplus(on_j, bounded)
    assert with_bounded is not None and with_bounded.domain == on_j.domain
    three_j = make_form(SEQUENCE, {diag_atom("j"): 3}, on_j.domain)
    made = [on_j, j, bounded, with_bounded, forms.hamel_form(), three_j]
    for t in made:
        for s in made:
            plain = _outcome(forms.form_add, t, s)
            assert plain == _outcome(ref_form_add, t, s), (t, s)
            sums = (oplus(t, s), oplus_bar(t, s), _outcome(oplus_family, "vf", t, s))
            assert sums == (ref_oplus(t, s), ref_oplus_bar(t, s), _outcome(ref_oplus_family, "vf", t, s)), (t, s)
            for u in (plain, *sums):
                if isinstance(u, forms.FormSpec):
                    backs = (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u), dataclasses.replace(u))
                    for back in backs:
                        assert back == u and back.support is u.support
    assert oplus(on_j, j) is None and oplus(with_bounded, j) is None and oplus(j, with_bounded) is None
    with pytest.raises(OutsideCatalog, match="symbolic singular atom only combines with bounded atoms"):
        forms.form_add(on_j, j)
    with pytest.raises(OutsideCatalog, match="incomparable domains"):
        forms.form_add(j, diag_form("j^2"))
