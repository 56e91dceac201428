"""Form families: membership, the two partial sums, orders, closure suites."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gealab import chains, families, forms, kernel
from gealab.errors import (
    EigenFailure,
    ModelMismatch,
    NegativeCoefficient,
    NotInFamily,
    SymbolicOnly,
    VerificationFailed,
)
from gealab.families import (
    FAMILIES,
    FormsGEA,
    gea_by_name,
    in_family,
    le_family,
    le_oplus,
    ominus_forms,
    oplus,
    oplus_bar,
    oplus_family,
    preceq,
    sample_form,
)
from gealab.forms import (
    FINITE_SUPPORT,
    FULL_SPACE,
    PSD_TOL,
    bounded_mat_atom,
    bounded_matrix_form,
    diag_atom,
    diag_form,
    endpoint_form,
    energy_form,
    energy_with_endpoints,
    form_add,
    hamel_form,
    reg_sing_split,
    tag_includes,
    zero_form,
)
from gealab.hilbert import DEFAULT_LEVELS, GRID, SEQUENCE

T_PRIME = energy_form(1)
T_0 = endpoint_form(1, 1)
T_1 = energy_with_endpoints(1, 1, 1)


# -------------------------------------------------------------- membership


def test_carrier_rule():
    assert in_family(diag_form("1/j"), "vf")
    assert not in_family(diag_form("1/j", domain=FINITE_SUPPORT), "vf")  # bounded but restricted
    assert in_family(diag_form("j"), "vf")
    assert in_family(diag_form("j", domain=FINITE_SUPPORT), "vf")
    assert in_family(zero_form(SEQUENCE), "vf")


def test_family_membership():
    assert in_family(diag_form("1/j"), "bf")
    assert not in_family(diag_form("j"), "bf")
    assert in_family(T_PRIME, "rf") and in_family(T_1, "rf")
    assert not in_family(T_0, "rf")
    assert in_family(T_0, "sf") and not in_family(T_PRIME, "sf")
    assert in_family(hamel_form(), "sf")
    assert in_family(diag_form("j"), "gf")
    assert not in_family(T_PRIME, "gf")  # derivative energy is not a catalog operator
    assert in_family(T_1, "cf") and not in_family(T_0, "cf")
    assert not in_family(diag_form("j", domain=FINITE_SUPPORT), "cf")
    assert in_family(T_PRIME, "vfd:h1_grid")
    assert in_family(bounded_matrix_form("id", model=GRID), "vfd:h1_grid")
    assert not in_family(diag_form("j"), "vfd:finite_support")
    with pytest.raises(ValueError):
        in_family(T_0, "wf")
    with pytest.raises(ValueError):
        in_family(T_0, "vfd")  # fixed-domain family needs its tag


@pytest.mark.parametrize("op", ["oplus", "oplus_bar"])
def test_the_unrestricted_sums_are_not_family_ids(op):
    t, s = diag_form("j"), diag_form("1/j")
    assert oplus(t, s) is not None and oplus_bar(t, s) is not None  # the pair is planned
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown family"):
            oplus_family(op, t, s)


def test_zero_everywhere():
    for family in ("vf", "vf-bar", "bf", "rf", "sf", "gf", "cf", "vfd:h1_grid"):
        model = GRID if family.startswith("vfd") else SEQUENCE
        assert in_family(zero_form(model), family)


# ------------------------------------------------------------ partial sums


def test_oplus_definedness():
    # same unbounded domain: defined
    assert oplus(diag_form("j"), diag_form("j", coeff=2)) == diag_form("j", coeff=3)
    # one operand bounded: defined
    assert oplus(diag_form("j"), diag_form("1/j")) is not None
    # distinct unbounded domains: undefined
    assert oplus(diag_form("j"), diag_form("j^2")) is None
    assert oplus(diag_form("j"), diag_form("j", domain=FINITE_SUPPORT)) is None
    assert oplus(T_PRIME, T_0) == T_1
    with pytest.raises(ModelMismatch):
        oplus(diag_form("j"), T_PRIME)


def test_defined_sum_meets_the_domains_once(monkeypatch):
    # once per pair of supports: the first sum of a pair no other test adds
    t, s = diag_form("j^2"), diag_form("const:7/5")
    calls = []
    meet = forms.tag_meet

    def counting(a, b):
        calls.append((a, b))
        return meet(a, b)

    monkeypatch.setattr(forms, "tag_meet", counting)
    u = oplus(t, s)
    assert u is not None and u.domain == forms.diag_domain("j^2")
    assert len(calls) == 1
    # other coefficients on the same supports: the sum is built from its plan
    v = oplus(diag_form("j^2", coeff=3), diag_form("const:7/5", coeff=Fraction(1, 2)))
    assert len(calls) == 1
    assert v.domain == u.domain
    assert v.atoms == ((diag_atom("const:7/5"), Fraction(1, 2)), (diag_atom("j^2"), Fraction(3)))


def test_oplus_bar_regular_parts_must_add():
    assert oplus_bar(T_PRIME, T_0) is None  # sum absorbs the singular part
    assert oplus_bar(T_PRIME, T_PRIME) == energy_form(2)
    assert oplus_bar(T_0, T_0) == endpoint_form(2, 2)
    b = bounded_matrix_form("id", model=GRID)
    assert oplus_bar(T_0, b) == form_add(T_0, b)  # singular + regular, parts stay split


def _parts_add(x, y, u):
    rx, sx = reg_sing_split(x)
    ry, sy = reg_sing_split(y)
    ru, su = reg_sing_split(u)
    reg_ok = _merge(rx, ry) == ru.atoms_dict()
    sing_ok = _merge(sx, sy) == su.atoms_dict()
    return reg_ok, sing_ok


def _merge(a, b):
    out = a.atoms_dict()
    for atom, c in b.atoms:
        out[atom] = out.get(atom, Fraction(0)) + c
    return out


def test_bar_sum_split_equivalence():
    # on every defined plain sum: bar-defined == regular parts add == singular
    # parts add (the whole always adds, so the two part statements agree)
    rng = random.Random(12)
    seen_defined = seen_bar = 0
    for _ in range(400):
        x = sample_form(GRID, "vf", rng)
        y = sample_form(GRID, "vf", rng)
        u = oplus(x, y)
        if u is None:
            continue
        seen_defined += 1
        reg_ok, sing_ok = _parts_add(x, y, u)
        assert reg_ok == sing_ok
        assert (oplus_bar(x, y) is not None) == reg_ok
        seen_bar += reg_ok
    assert seen_defined > 100 and 0 < seen_bar < seen_defined


def test_split_determines_form():
    grid_forms = [t for _, t in forms.catalog_forms(GRID)]
    for t in grid_forms:
        for s in grid_forms:
            assert (t == s) == (reg_sing_split(t) == reg_sing_split(s))


def test_bar_coincides_on_regular_and_singular_families():
    rng = random.Random(3)
    for family in ("rf", "sf"):
        for _ in range(200):
            x = sample_form(GRID, family, rng)
            y = sample_form(GRID, family, rng)
            assert oplus_bar(x, y) == oplus(x, y)


def test_family_sum_guard_and_filter():
    with pytest.raises(NotInFamily):
        oplus_family("rf", T_0, T_PRIME)
    with pytest.raises(NotInFamily):
        oplus_family("sf", T_0, bounded_matrix_form("id", model=GRID))
    assert oplus_family("rf", T_PRIME, T_PRIME) == energy_form(2)
    assert oplus_family("vf-bar", T_PRIME, T_0) is None
    # members whose base sum is undefined
    assert oplus_family("cf", diag_form("j"), diag_form("j^2")) is None


def test_family_sum_that_leaves_the_family_is_undefined(monkeypatch):
    # no shipped family has a base sum that leaves it; forms of at most one atom do
    one_atom = families.Family(GRID, lambda sup, tag: len(sup.atoms) <= 1, families._draw_any)
    monkeypatch.setitem(FAMILIES, "one-atom", one_atom)
    families._lookup.cache_clear()
    try:
        t, s = T_PRIME, endpoint_form(1, 0)
        assert in_family(t, "one-atom") and in_family(s, "one-atom")
        assert oplus(t, s) is not None
        assert oplus_family("one-atom", t, s) is None
        assert not le_family("one-atom", t, oplus(t, s))
        assert le_family("one-atom", t, t)
    finally:
        families._lookup.cache_clear()


# ---------------------------------------------------------------- ominus


def test_ominus_forms_exact():
    assert ominus_forms(T_1, T_PRIME) == T_0
    assert ominus_forms(T_1, T_0) == T_PRIME
    assert ominus_forms(T_1, T_1) == zero_form(GRID)
    assert ominus_forms(T_PRIME, T_1) is None  # negative boundary coefficient
    with pytest.raises(NegativeCoefficient):
        ominus_forms(T_PRIME, T_1, strict=True)


def test_ominus_forms_domain_witness():
    s = form_add(diag_form("j"), diag_form("1/j"))
    r = ominus_forms(s, diag_form("1/j"))
    assert r == diag_form("j") and r.domain == forms.diag_domain("j")
    # difference of a restriction does not add back to the restricted form
    assert ominus_forms(diag_form("j", domain=FINITE_SUPPORT), diag_form("j")) is None
    with pytest.raises(VerificationFailed):
        ominus_forms(diag_form("j", domain=FINITE_SUPPORT), diag_form("j"), strict=True)


# ---------------------------------------------------------------- orders


def test_preceq_basics():
    assert preceq(T_PRIME, T_1) and not preceq(T_1, T_PRIME)
    assert preceq(T_0, T_1)
    assert preceq(zero_form(GRID), T_0)
    # the smaller form must be defined wherever the bigger one is
    assert preceq(diag_form("1/j"), diag_form("j"))
    assert not preceq(diag_form("j"), diag_form("j^2"))  # incomparable domains
    assert preceq(diag_form("j"), diag_form("j", coeff=2, domain=FINITE_SUPPORT))
    assert not preceq(diag_form("j", domain=FINITE_SUPPORT), diag_form("j"))
    with pytest.raises(SymbolicOnly):
        preceq(hamel_form(), hamel_form())


def _chain_pools():
    """Terms and candidate palettes of the five pinned chains, one pool each."""
    for chain_id in chains.CHAIN_IDS:
        chain = chains.chain_by_name(chain_id)
        yield chain.terms(8) + chains._candidate_palette(chain)


def _catalog_atoms(model):
    """Every atom of the sampler tables, the catalog forms and the chain pools."""
    atoms = {bounded_mat_atom(g) for g in families._GENS}
    if model == SEQUENCE:
        for lam in families._BOUNDED_LAMS + families._UNBOUNDED_LAMS:
            atoms.update(diag_atom(lam, cut) for cut in (None, 2, 3, 4, 8))
    pools = [[t for _, t in forms.catalog_forms(model)]]
    pools += [pool for pool in _chain_pools() if pool[0].model == model]
    atoms.update(a for pool in pools for t in pool for a, _ in t.atoms)
    return atoms


@pytest.mark.parametrize("model", [SEQUENCE, GRID])
def test_catalog_atoms_are_psd(model):
    # the exact path of preceq rests on this: s - t with non-negative atom
    # coefficients is then PSD at every level
    for atom in _catalog_atoms(model):
        for level in DEFAULT_LEVELS[model]:
            assert forms.psd_range(forms._atom_matrix(model, atom, level))[2], (atom, level)


def _agrees_with_numeric(t, s):
    numeric = tag_includes(s.domain, t.domain) and families._preceq_numeric(t, s)
    assert preceq(t, s) == numeric, (t, s)
    return numeric


def test_preceq_agrees_with_numeric_oracle_on_chains():
    hits = 0
    for pool in _chain_pools():
        for t in pool:
            for s in pool:
                hits += _agrees_with_numeric(t, s)
    assert hits > 500


def test_preceq_agrees_with_numeric_oracle_sampled():
    rng = random.Random(23)
    hits = 0
    for model, family in [(GRID, "vf"), (GRID, "rf"), (SEQUENCE, "vf"), (SEQUENCE, "bf")]:
        for _ in range(75):
            x = sample_form(model, family, rng)
            y = sample_form(model, family, rng)
            hits += _agrees_with_numeric(x, y)
            u = oplus(x, y)
            if u is not None:
                hits += _agrees_with_numeric(x, u)
    assert hits > 250


def test_one_positivity_rule():
    # the least eigenvalue may undershoot zero by PSD_TOL relative to the largest
    assert forms.psd_range(np.diag([-0.5 * PSD_TOL, 1.0]))[2]
    assert forms.psd_range(np.diag([-3 * PSD_TOL, 4.0]))[2]
    assert not forms.psd_range(np.diag([-2 * PSD_TOL, 1.0]))[2]
    assert forms.psd_range(np.diag([-1.0, 3.0])) == (-1.0, 3.0, False)
    # mat(seeded:1) has norm 1, so it sits below mat(id) and 1e-6 above (1 - 1e-6) mat(id)
    for model in (SEQUENCE, GRID):
        seeded = bounded_matrix_form("seeded:1", model=model)
        assert preceq(seeded, bounded_matrix_form("id", model=model))
        assert not preceq(seeded, bounded_matrix_form("id", coeff=1 - Fraction(1, 10**6), model=model))


def test_numeric_order_reports_a_failed_eigensolve_as_eigen_failure(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    # mat(seeded:1) is no atom of 2*mat(id) and neither form is diagonal, so only the eigensolve decides the pair
    with pytest.raises(EigenFailure):
        preceq(bounded_matrix_form("seeded:1"), bounded_matrix_form("id", coeff=2))
    with pytest.raises(EigenFailure):
        forms.numerical_range_bounds(diag_form("1/j"), 8)


def test_preceq_exact_path_needs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve on an atom-wise certifiable pair")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert preceq(energy_form(1), energy_with_endpoints(1, 1, 1))
    assert preceq(zero_form(SEQUENCE), diag_form("j"))


def test_le_oplus_is_a_decision_procedure():
    assert le_oplus(T_PRIME, T_1) and le_oplus(T_0, T_1)
    assert not le_oplus(T_1, T_PRIME)
    # bounded minuend on the full space is comparable with anything above it
    assert le_oplus(diag_form("1/j"), form_add(diag_form("1/j"), diag_form("j")))
    # domain gate: restricted minuend with a different domain upstairs
    assert not le_oplus(diag_form("j", domain=FINITE_SUPPORT), diag_form("j"))


def test_le_oplus_implies_preceq_sampled():
    rng = random.Random(9)
    hits = 0
    for _ in range(150):
        x = sample_form(GRID, "vf", rng)
        y = sample_form(GRID, "vf", rng)
        u = oplus(x, y)
        if u is None:
            continue
        hits += 1
        assert le_oplus(x, u)
        assert preceq(x, u)
    assert hits > 40


def test_le_bar_strictly_finer():
    assert le_oplus(T_PRIME, T_1)
    assert not le_family("vf-bar", T_PRIME, T_1)  # the difference is singular, bar sum undefined
    assert le_family("vf-bar", T_0, form_add(T_0, T_0))
    assert le_family("vf-bar", T_PRIME, energy_form(2))
    assert not le_family("vf-bar", T_0, T_1)


def test_le_family_membership_gate():
    assert le_family("cf", T_PRIME, energy_form(2))
    # the unique difference witness t_0 is not closed, so the closed-family
    # order does not relate t' to t_1 even though the plain order does
    assert not le_family("cf", T_PRIME, T_1)
    assert not le_family("cf", T_0, T_1)  # t_0 is not a member at all
    assert not le_family("rf", T_PRIME, T_1)  # witness t_0 is not regular
    assert not le_family("vf-bar", T_PRIME, T_1)  # every form is a member, but the bar sum of t' and t_0 is undefined
    assert le_family("bf", diag_form("1/j"), form_add(diag_form("1/j"), bounded_matrix_form()))
    assert not le_family("bf", diag_form("1/j"), form_add(diag_form("1/j"), diag_form("j")))


def test_order_queries_build_no_sum(monkeypatch):
    # every derived order reads the support plans that the sums read; a sum
    # is built only where one is returned
    rng = random.Random(28)
    pairs = []
    for family in ("vf", "vf-bar", "bf", "rf", "sf", "gf", "cf", "vfd:h1_grid", "vfd:finite_support", "vh", "sa"):
        alg = gea_by_name(family)
        for _ in range(30):
            x, y = alg.sample(rng), alg.sample(rng)
            u = alg.add(x, y) or y
            pairs += [(family, x, u), (family, u, x), (family, x, y)]
    built = []
    monkeypatch.setattr(forms, "add_shaped", lambda *args: built.append(args))
    verdicts = []
    for family, t, s in pairs:
        ominus_forms(s, t)
        if family == "vf":
            le_oplus(t, s)
        verdicts.append(le_family(family, t, s))
    assert not built
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


# --------------------------------------------------------- closure suites


def test_closure_batteries():
    clean = [
        ("bf", SEQUENCE, False),
        ("gf", SEQUENCE, False),
        ("rf", GRID, True),
        ("sf", GRID, True),
    ]
    for family, model, use_bar in clean:
        out = families.closure_violations(model, family, samples=300, seed=7, use_bar=use_bar)
        assert out["ok"], f"{family} battery found {len(out['violations'])} violations"
        assert out["checked"] == 300
    dirty = families.closure_violations(GRID, "rf", samples=1000, seed=7)
    assert not dirty["ok"] and len(dirty["violations"]) > 50
    x, y, u = dirty["violations"][0]
    flags = (in_family(x, "rf"), in_family(y, "rf"), in_family(u, "rf"))
    assert sum(flags) == 2


def test_regular_sum_demo_pinned():
    demo = families.regular_sum_demo()
    assert demo["triple"] == (T_PRIME, T_0, T_1)
    assert demo["memberships"] == {"t_prime": True, "t_0": False, "t_1": True}
    assert demo["two_of_three_violated"]
    assert demo["sum_regular_part"] == T_1 and demo["sum_singular_part"].is_zero
    assert demo["split_of_sum_is_whole"]
    assert demo["regular_parts_sum"] == T_PRIME and demo["regular_parts_sum_is_t_prime"]
    assert demo["bar_sum_undefined"]
    assert demo["strict_increase"]


# -------------------------------------------------------------- operators


def test_operator_families():
    rng = random.Random(1)
    a = sample_form(SEQUENCE, "sa", rng)
    assert in_family(a, "gf") and in_family(a, "vh")
    zero = zero_form(SEQUENCE)
    assert oplus(a, zero) == a
    # an operator whose form is not closed is outside sa, and sa's sum refuses it
    restricted = diag_form("j", domain=FINITE_SUPPORT)
    assert in_family(restricted, "vh") and not in_family(restricted, "sa")
    with pytest.raises(NotInFamily):
        gea_by_name("sa").add(restricted, zero)


def test_operator_correspondence():
    """VH is isomorphic to GF: an operator is the form it generates, and
    the operator algebra's sum and order agree with gf's on sampled pairs."""
    vh, gf = gea_by_name("vh"), gea_by_name("gf", SEQUENCE)
    rng = random.Random(5)
    defined = related = 0
    for _ in range(400):
        a = sample_form(SEQUENCE, "vh", rng)
        b = sample_form(SEQUENCE, "vh", rng)
        u = vh.add(a, b)
        assert u == gf.add(a, b), (a, b)
        defined += u is not None
        for x, y in [(a, b), (b, a)] + ([(a, u)] if u is not None else []):
            le = vh.le_oracle(x, y)
            assert le == gf.le_oracle(x, y), (x, y)
            related += le
    assert 0 < defined < 400 and related > 0


def test_operator_axioms_sampled():
    for alg in (gea_by_name("vh"), gea_by_name("sa")):
        rep = kernel.check_axioms(alg, mode="sampled", samples=200, seed=3)
        assert rep.all_pass, rep.to_dict()


# ------------------------------------------------------------- factories

# every registry id; a fixed-domain family with one tag per model
REGISTRY_IDS = tuple(b for b, f in FAMILIES.items() if f.model) + tuple(
    f"{b}:{tag}" for b, f in FAMILIES.items() if not f.model for tag in ("h1_grid", "finite_support")
)


def test_every_registry_id_is_accepted():
    assert len(REGISTRY_IDS) == len(FAMILIES) + 1
    for family in REGISTRY_IDS:
        alg = gea_by_name(family)
        assert alg.family == family
        assert in_family(alg.zero, family)
        t = sample_form(alg.model, family, random.Random(0))
        assert in_family(t, family), (family, t)


def test_fixed_domain_samplers_draw_on_their_tag():
    rng = random.Random(4)
    for family, tag in (("vfd:finite_support", FINITE_SUPPORT), ("vfd:diag_max:j", forms.diag_domain("j"))):
        draws = [sample_form(SEQUENCE, family, rng) for _ in range(300)]
        unbounded = [t for t in draws if not forms.is_bounded(t)]
        assert len(unbounded) > 100 and all(t.domain == tag for t in unbounded)
    # on diag_max:j the unbounded draws carry the diagonal j itself
    assert all(diag_atom("j") in t.atoms_dict() for t in unbounded)
    with pytest.raises(ValueError):
        sample_form(GRID, "vfd:finite_support", random.Random(1))
    # the h1_grid draws are those of the grid energy and boundary sampler
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(300):
        digest.update(forms.form_to_json(sample_form(GRID, "vfd:h1_grid", rng)).encode())
    assert digest.hexdigest() == "6a8f5297a24ffbd920e254cad44186ff9ab4c16f242bc442eea4436052abc17b"
    # the sequence-tag draws keep their bytes too
    pinned = {
        "vfd:finite_support": "8cb118517f64f5a4346e7293c5c5874ca063d9a1b885b6a1d530b9ac5e81aabc",
        "vfd:diag_max:j": "0dcf00325860bf57334e809ef754fb36f29ce01e706e8932d9b58d59fc66a4cd",
    }
    for family, want in pinned.items():
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(300):
            digest.update(forms.form_to_json(sample_form(SEQUENCE, family, rng)).encode())
        assert digest.hexdigest() == want, family


@pytest.mark.parametrize("family", ["vfd:full", "vfd:diag_max:1/j", "vfd:diag_max:const:2"])
def test_fixed_domain_without_unbounded_forms_draws_bounded_forms(family):
    # no unbounded catalog form lives on these tags: the family is V_F^D with D = H
    rng, bf = random.Random(9), random.Random(9)
    draws = [sample_form(SEQUENCE, family, rng) for _ in range(300)]
    assert all(forms.is_bounded(t) and t.domain == FULL_SPACE for t in draws)
    assert all(in_family(t, family) for t in draws)
    assert draws == [sample_form(SEQUENCE, "bf", bf) for _ in range(300)]


def test_full_tag_draws_bounded_forms_on_either_model():
    for model in (GRID, SEQUENCE):
        rng, bf = random.Random(9), random.Random(9)
        draws = [sample_form(model, "vfd:full", rng) for _ in range(300)]
        assert all(forms.is_bounded(t) and t.domain == FULL_SPACE and t.model == model for t in draws)
        assert draws == [sample_form(model, "bf", bf) for _ in range(300)]
    with pytest.raises(ValueError):
        sample_form(GRID, "vfd:diag_max:1/j", random.Random(1))


FAMILY_IDS = [*(f for f in FAMILIES if f != "vfd"), "vfd:h1_grid", "vfd:finite_support"]


def ref_atom_bounded(a):
    """Catalog boundedness of an atom, from its fields."""
    if a.kind == "diag":
        return a.cut is not None or forms.lam_sup(a.lam) is not None
    return a.kind == "bounded_mat"


def ref_atom_natural_domain(a):
    """The natural domain of an atom, from its fields."""
    if a.kind == "diag" and not ref_atom_bounded(a):
        return forms.diag_domain(a.lam)
    if a.kind in ("dirichlet", "boundary0", "boundary1"):
        return forms.H1_GRID
    return FULL_SPACE


def _rebuilt(t):
    """A structurally equal copy of t built from fresh objects, no hash cached."""
    atoms = tuple(
        (forms.FormAtom(a.kind, a.lam, a.cut, a.gen), Fraction(c.numerator, c.denominator))
        for a, c in t.atoms
    )
    return forms.FormSpec(t.model, forms.DomainTag(t.domain.kind, t.domain.param), atoms)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_cached_classification_matches_a_fresh_copy(family):
    alg = gea_by_name(family)
    rng = random.Random(17)
    draws = [alg.sample(rng) for _ in range(500)]
    # the family sums classify the operands and their sums before the comparison
    sums = [alg.add(x, y) for x, y in zip(draws, draws[1:])]
    for t in draws + [u for u in sums if u is not None]:
        fresh = _rebuilt(t)
        assert fresh == t and hash(fresh) == hash(t) and fresh.support is t.support
        for predicate in (forms.is_bounded, forms.singular_atoms, forms.is_closed):
            assert predicate(t) == predicate(fresh), (predicate.__name__, t)
        # an atom's facts are stored once per atom object: recompute them from its fields
        for a, _ in t.atoms:
            assert hash(a) == hash((a.kind, a.lam, a.cut, a.gen))
            assert a.sort_key == (a.kind, a.lam, -1 if a.cut is None else a.cut, a.gen)
            assert a.bounded == ref_atom_bounded(a), a
            assert a.natural_domain == ref_atom_natural_domain(a), a
        assert [a.bounded for a, _ in t.atoms] == [a.bounded for a, _ in fresh.atoms]
        assert [in_family(t, f) for f in FAMILY_IDS] == [in_family(fresh, f) for f in FAMILY_IDS], t


def test_is_bounded_body_runs_once_per_form(monkeypatch):
    # boundedness and the other support facts are decided when a Support is
    # made, so each (model, domain, atoms) key must be made at most once;
    # _SUPPORTS is not cleared, since that could leave two Supports of one key in use
    made = []
    init = forms.Support.__init__

    def counting(self, model, domain, atoms):
        made.append((model, domain, atoms))
        init(self, model, domain, atoms)

    known = set(forms._SUPPORTS)
    monkeypatch.setattr(forms.Support, "__init__", counting)
    kernel.check_axioms(gea_by_name("vf-bar"), mode="sampled", samples=500, seed=3)
    assert len(set(made)) == len(made)
    assert not known.intersection(made)


# the families of the sampled-axioms benchmark workload
BENCH_FAMILIES = ("sf", "vf-bar", "rf", "bf", "cf", "sa", "vfd:h1_grid", "gf", "vh", "vf")


def test_sampled_check_reads_each_lam_sup_at_most_once(monkeypatch):
    calls = []
    lam_sup = forms.lam_sup

    def counting(lam):
        calls.append(lam)
        return lam_sup(lam)

    monkeypatch.setattr(forms, "lam_sup", counting)
    assert kernel.check_axioms(gea_by_name("bf"), mode="sampled", samples=2000, seed=7).all_pass
    assert len(calls) == len(set(calls)), len(calls)


# sha256 of the draws and sums below, computed before the samplers drew prebuilt atoms
DRAWS_AND_SUMS = {
    "sf": "6d35625fa19de158a782ca41d18c32472dbad601ca6d239ec944f61aa1919813",
    "vf-bar": "fa04f062f3c00c7f937814863461a5807682f89c665132fe6686a1e8ce70d54b",
    "rf": "5800a126420cc32c72669bdf8e5b21ac6b6ffeb668d82dd4d74011a61ce4d866",
    "bf": "66124b11b1f10d5147294991d7bcd8c9dc4438b07c8119fd6c19d486f7ea4d3b",
    "cf": "5800a126420cc32c72669bdf8e5b21ac6b6ffeb668d82dd4d74011a61ce4d866",
    "sa": "3ca15a2454bad73ba71d3c9dc08ed9c9a6d257b49dbe17c08ddb2c363fda336a",
    "vfd:h1_grid": "cf730ad2c4041645bc6e1e23115312f666889c129f4605d1c32623e695aee6c7",
    "gf": "1a8df8eee65760e802591b1256ed25aae70a9aaa5a5289ea50e82dd8593e2863",
    "vh": "44d5bcf93c8656b1b0265186a40952d6ca91bbd007aa99397538808b8f018321",
    "vf": "3ace7ef656514e41dacb11bbeba5e2d25a8a0db91b870022dd428380e08e2aad",
}


@pytest.mark.parametrize("family", BENCH_FAMILIES)
def test_sampled_draws_and_sums_keep_their_bytes(family):
    # a passing report prints the same bytes whatever the draws: pin the values
    alg = gea_by_name(family)
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(300):
        x, y, z = alg.sample(rng), alg.sample(rng), alg.sample(rng)
        xy, yz = alg.add(x, y), alg.add(y, z)
        sums = (
            alg.add(x, alg.zero),
            xy,
            alg.add(y, x),
            xy and alg.add(xy, z),
            yz,
            yz and alg.add(x, yz),
            alg.add(x, z),
        )
        for t in (x, y, z, *sums):
            digest.update(b"null" if t is None else forms.form_to_json(t).encode())
    assert digest.hexdigest() == DRAWS_AND_SUMS[family]


@pytest.mark.parametrize("family", BENCH_FAMILIES)
def test_sampled_check_shares_one_object_per_atom(family):
    alg = gea_by_name(family)
    seen = []  # every draw and sum, kept alive so their atoms' ids stay distinct
    sample, add = alg.sample, alg.add

    def recording_sample(rng):
        seen.append(sample(rng))
        return seen[-1]

    def recording_add(a, b):
        seen.append(add(a, b))
        return seen[-1]

    alg.sample, alg.add = recording_sample, recording_add
    kernel.check_axioms(alg, mode="sampled", samples=300, seed=5)
    ids: dict = {}
    for t in filter(None, seen):
        for a, _ in t.atoms:
            ids.setdefault((a.kind, a.lam, a.cut, a.gen), set()).add(id(a))
    # the samplers draw prebuilt atoms and sums reuse their operands' atoms
    assert ids and all(len(group) == 1 for group in ids.values()), ids


def test_gea_by_name():
    alg = gea_by_name("cf")
    assert isinstance(alg, FormsGEA) and alg.model == GRID
    assert gea_by_name("bf").model == SEQUENCE
    for family in ("vh", "sa"):
        alg = gea_by_name(family)
        assert isinstance(alg, FormsGEA) and alg.family == family and alg.model == SEQUENCE
        assert repr(alg) == f"FormsGEA({family!r}, model='sequence')"
    assert gea_by_name("vfd:h1_grid").family == "vfd:h1_grid"
    assert gea_by_name("vfd:h1_grid").model == GRID
    assert gea_by_name("vfd:finite_support").model == SEQUENCE
    assert gea_by_name("vfd:diag_max:j").model == SEQUENCE
    with pytest.raises(ValueError):
        gea_by_name("hf")
    with pytest.raises(ValueError):
        FormsGEA(SEQUENCE, "hf")
    with pytest.raises(ValueError):
        gea_by_name("vfd")
    with pytest.raises(ValueError):
        gea_by_name("rf:h1_grid")  # only the fixed-domain family takes a tag


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_samplers_produce_members(seed):
    rng = random.Random(seed)
    for family in REGISTRY_IDS + ("vfd:diag_max:j", "vfd:diag_max:j^2"):
        t = sample_form(gea_by_name(family).model, family, rng)
        assert in_family(t, family), (family, t)


def test_forms_gea_axioms_sampled_smoke():
    rep = kernel.check_axioms(gea_by_name("vf-bar"), mode="sampled", samples=200, seed=11)
    assert rep.all_pass, rep.to_dict()
