"""Monotone chains: term formulas, convergence tables, meets and joins."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gealab import chains, families, forms, hilbert
from gealab.chains import (
    FormChain,
    cf_prec_sup,
    chain_by_name,
    check_monotone,
    filling_energy_chain,
    join_in_family,
    join_obstruction_vf,
    meet_in_family,
    order_predicate,
    pointwise_limit,
    shrinking_bounded_chain,
    sigma_report,
    surplus_energy_chain,
    truncated_diag_chain,
    vanishing_energy_chain,
)
from gealab.errors import (
    GealabError,
    MonotonicityViolation,
    NoDeclaredLimit,
    NotClosedChain,
    NotDominated,
    NotInFamily,
    VerificationFailed,
)
from gealab.forms import (
    diag_form,
    endpoint_form,
    energy_form,
    energy_with_endpoints,
    zero_form,
)
from gealab.hilbert import DEFAULT_LEVELS, GRID, SEQUENCE

T_PRIME = energy_form(1)
T_0 = endpoint_form(1, 1)
T_1 = energy_with_endpoints(1, 1, 1)

N_MAX = 12  # enough window for every verdict here; keeps the suite quick


def test_chain_registry():
    for name in chains.CHAIN_IDS:
        assert chain_by_name(name).chain_id == name
    with pytest.raises(ValueError):
        chain_by_name("cauchy")
    with pytest.raises(ValueError):
        order_predicate("lexicographic")


def test_order_table():
    assert order_predicate("prec") is families.preceq
    assert order_predicate("oplus") is families.le_oplus
    bar = order_predicate("bar")
    assert bar.func is families.le_family and bar.args == ("vf-bar",)
    pairs = [(T_PRIME, T_1), (T_PRIME, energy_form(2)), (T_0, T_1)]
    for order, family in chains.ORDERS.items():
        if family is not None:
            assert [order_predicate(order)(t, s) for t, s in pairs] == [
                families.gea_by_name(family).le_oracle(t, s) for t, s in pairs
            ]
    # family ids are no order ids unless the table names them
    for family in ("sf", "bf", "gf", "vfd:h1_grid"):
        with pytest.raises(ValueError):
            order_predicate(family)


def test_term_values_vanishing_energy():
    chain = vanishing_energy_chain()
    ramp = hilbert.grid_nodes(9)
    # energy of the ramp is 1 and both endpoint terms contribute |0|^2+|1|^2
    assert forms.quadratic(chain.term(1), ramp) == pytest.approx(2.0)
    assert forms.quadratic(chain.term(4), ramp) == pytest.approx(1.25)
    assert forms.quadratic(chain.limit, ramp) == pytest.approx(1.0)
    ones = np.ones(11)
    assert forms.quadratic(chain.term(7), ones) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        chain.term(0)


def test_term_values_truncated_diag():
    t3 = truncated_diag_chain().term(3)
    e2, e5 = np.zeros(8), np.zeros(8)
    e2[1] = 1.0
    e5[4] = 1.0
    assert forms.quadratic(t3, e2) == pytest.approx(2.0)
    assert forms.quadratic(t3, e5) == 0.0
    assert forms.is_bounded(t3)


def test_term_values_filling_energy():
    chain = filling_energy_chain()
    assert chain.term(1).is_zero
    ramp = hilbert.grid_nodes(49)
    for n in (2, 4, 8):
        assert forms.quadratic(chain.term(n), ramp) == pytest.approx(1 - 1 / n)


def test_check_monotone_all_shipped_chains():
    for name in chains.CHAIN_IDS:
        out = check_monotone(chain_by_name(name), n_max=N_MAX)
        assert out["ok"] and out["steps_checked"] == N_MAX - 1


def test_check_monotone_violations():
    kato = vanishing_energy_chain()
    with pytest.raises(MonotonicityViolation) as info:
        check_monotone(replace(kato, direction="ascending"))
    assert info.value.n == 1
    with pytest.raises(MonotonicityViolation) as info:
        check_monotone(replace(filling_energy_chain(), direction="descending"))
    assert info.value.n == 1
    with pytest.raises(ValueError):
        check_monotone(kato, n_max=1)
    with pytest.raises(ValueError):
        check_monotone(replace(kato, direction="sideways"))


def test_check_monotone_alternate_order():
    # the surplus chain also descends pointwise, not only in its own order
    assert check_monotone(surplus_energy_chain(), n_max=8, order="prec")["ok"]


def test_pointwise_limit_energy_identity():
    out = pointwise_limit(vanishing_energy_chain())
    assert out["identity_ok"] and out["identity_max_rel_dev"] <= 1e-9
    assert out["levels"] == [9, 49, 199]
    # gaps shrink like 1/n at every level
    by_level = {}
    for row in out["table"]:
        by_level.setdefault(row["level"], []).append(row["max_gap"])
    for gaps in by_level.values():
        assert gaps[0] > gaps[-1] and gaps[-1] >= 0.0


def test_pointwise_limit_takes_each_sample_energy_once(monkeypatch):
    # the energy depends on the vector, not on n: one evaluation per named vector and level
    calls = []
    value = chains.atom_value
    monkeypatch.setattr(chains, "atom_value", lambda atom, nums, den: calls.append(atom) or value(atom, nums, den))
    out = pointwise_limit(vanishing_energy_chain())
    assert out["identity_ok"] and len(out["n_values"]) == 6
    assert calls == [forms.DIRICHLET] * len(out["levels"]) * out["samples_per_level"]
    assert len(calls) == 12


def test_pointwise_limit_filling_energy():
    out = pointwise_limit(filling_energy_chain(), levels=(9, 49))
    assert out["limit"] == forms.form_to_dict(T_PRIME)
    for row in out["table"]:
        # the gap is energy/n, so reported gaps fall monotonically in n
        assert row["max_gap"] >= 0.0
    by_level = {}
    for row in out["table"]:
        by_level.setdefault(row["level"], []).append(row["max_gap"])
    for gaps in by_level.values():
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_pointwise_limit_diag_operator_gaps():
    out = pointwise_limit(truncated_diag_chain(), levels=(8, 16))
    gaps = [row["gap"] for row in out["operator_gaps"]]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_pointwise_limit_tabulates_powers_of_two_up_to_n_max():
    chain = truncated_diag_chain()
    out = pointwise_limit(chain, levels=(8,), n_max=6)
    assert out["n_values"] == [1, 2, 4]
    assert [row["n"] for row in out["table"]] == [1, 2, 4]
    assert [row["n"] for row in out["operator_gaps"]] == [1, 2, 4]
    assert pointwise_limit(chain, levels=(8,))["n_values"] == [1, 2, 4, 8, 16, 32]


def test_pointwise_limit_reports_the_samples_it_drew():
    for chain, levels, count in ((truncated_diag_chain(), (8, 16), 3), (vanishing_energy_chain(), (9, 49), 4)):
        out = pointwise_limit(chain, levels=levels, n_max=4)
        for level in levels:
            assert out["samples_per_level"] == len(chains.named_vectors(chain.model, level)) == count


def test_named_vectors_are_the_rational_test_functions():
    names = {GRID: ["one", "linear", "square", "hat"], SEQUENCE: ["e1", "e2", "geometric"]}
    for model, level in ((GRID, 9), (GRID, 10), (SEQUENCE, 8), (SEQUENCE, 1)):
        vectors = chains.named_vectors(model, level)
        assert [name for name, _, _ in vectors] == names[model]
        for _, nums, den in vectors:
            assert len(nums) == hilbert.dim_of(model, level) and all(type(a) is int for a in nums)
    xs = [Fraction(k, 10) for k in range(11)]
    exact = {name: [Fraction(a, den) for a in nums] for name, nums, den in chains.named_vectors(GRID, 9)}
    assert exact == {
        "one": [1] * 11,
        "linear": xs,
        "square": [x * x for x in xs],
        "hat": [1 - 2 * abs(x - Fraction(1, 2)) for x in xs],
    }
    geometric = chains.named_vectors(SEQUENCE, 8)[2]
    assert [Fraction(a, geometric[2]) for a in geometric[1]] == [Fraction(1, 2**k) for k in range(8)]


def test_atom_value_is_exact_on_the_named_vectors():
    for mesh in (9, 10, 49):
        m = mesh + 1
        vectors = {name: (nums, den) for name, nums, den in chains.named_vectors(GRID, mesh)}
        energy = {name: chains.atom_value(forms.DIRICHLET, *vec) for name, vec in vectors.items()}
        # the hat's kink sits on a node only when m is even
        hat = 4 if m % 2 == 0 else 4 - Fraction(4, m)
        assert energy == {"one": 0, "linear": 1, "square": Fraction(4 * m * m - 1, 3 * m * m), "hat": hat}
    _, geo, den = chains.named_vectors(SEQUENCE, 8)[2]
    for lam, cut in (("1/j", None), ("j", 3), ("j^2", None), ("const:2/3", 5)):
        want = sum(forms.lam_value(lam, j) * Fraction(1, 4 ** (j - 1)) for j in range(1, min(cut or 8, 8) + 1))
        assert chains.atom_value(forms.diag_atom(lam, cut), geo, den) == want
    with pytest.raises(GealabError):
        chains.atom_value(forms.bounded_mat_atom("id"), geo, den)


def test_pointwise_gaps_match_the_float_oracle():
    # the float path stays as the oracle: at every default level, named
    # vector and tabulated n the exact gap is t_n(u) - t(u) from the matrices
    for name in chains.CHAIN_IDS:
        chain = chain_by_name(name)
        steps = pointwise_limit(chain, levels=(DEFAULT_LEVELS[chain.model][0],))["n_values"]
        for level in DEFAULT_LEVELS[chain.model]:
            table = chains.gap_table(chain.model, level, [chain.gap(n) for n in steps])
            for vec, nums, den in chains.named_vectors(chain.model, level):
                u = np.array(nums, dtype=float) / den
                lim = forms.quadratic(chain.limit, u)
                for n, exact in zip(steps, table[vec]):
                    val = forms.quadratic(chain.term(n), u)
                    scale = max(1.0, abs(val), abs(lim))
                    assert abs(float(exact) - (val - lim)) <= 1e-9 * scale, (name, level, vec, n)


def test_pointwise_table_reads_no_matrix_or_random_vector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pointwise table built a matrix or drew a vector")

    for name in ("matrix_at", "_atom_matrix", "quadratic"):
        monkeypatch.setattr(forms, name, refuse)
    monkeypatch.setattr(hilbert, "VectorSampler", refuse)
    for name in chains.CHAIN_IDS:
        assert pointwise_limit(chain_by_name(name))["table"]


def test_pointwise_limit_reports_each_declared_gap():
    out = pointwise_limit(truncated_diag_chain(), levels=(8,), n_max=4)
    assert out["gap"] == [
        {"n": n, "coeffs": {f"diag(j,cut={n})": "1", "diag(j)": "-1"}} for n in (1, 2, 4)
    ]
    out = pointwise_limit(filling_energy_chain(), levels=(9,), n_max=2)
    assert out["gap"] == [{"n": 1, "coeffs": {"energy": "-1"}}, {"n": 2, "coeffs": {"energy": "-1/2"}}]
    # kato's gap is energy/n, largest on the hat (energy 4), so the identity is exact
    out = pointwise_limit(vanishing_energy_chain())
    assert out["identity_max_rel_dev"] == 0.0
    assert [row["max_gap"] for row in out["table"]] == [4 / n for n in out["n_values"]] * 3


def test_pointwise_limit_refuses_a_wrong_gap():
    # a declared gap is checked against t_n - t at every tabulated n
    kato = vanishing_energy_chain()
    wrong = replace(kato, gap_fn=lambda n: {forms.DIRICHLET: Fraction(1, n) if n < 8 else Fraction(1, 7)})
    with pytest.raises(VerificationFailed, match="n=8"):
        pointwise_limit(wrong, levels=(9,))
    assert pointwise_limit(wrong, levels=(9,), n_max=7)["identity_ok"]
    with pytest.raises(NoDeclaredLimit):
        pointwise_limit(replace(kato, gap_fn=None))


def test_pointwise_limit_requires_declared_limit():
    anon = FormChain(
        chain_id="anon",
        model=GRID,
        direction="ascending",
        order="oplus",
        limit=None,
        term_fn=lambda n: energy_form(1 - Fraction(1, n)),
    )
    with pytest.raises(NoDeclaredLimit):
        pointwise_limit(anon)


# -------------------------------------------------------- meets and joins


def test_meet_found_rows():
    cases = [
        (vanishing_energy_chain(), "vfd:h1_grid", T_0),
        (surplus_energy_chain(), "vf", T_1),
        (shrinking_bounded_chain(), "bf", diag_form("1/j")),
    ]
    for chain, family, want in cases:
        report = meet_in_family(chain, family, n_max=N_MAX)
        assert report.ok and report.found == want
        assert report.evidence["is_declared_limit"]
        assert report.to_dict()["verdict"] == "found"
        assert report.to_dict()["element"] == forms.form_to_dict(want)


def test_meet_obstruction_rows():
    for family in ("rf", "cf", "vf-bar"):
        report = meet_in_family(surplus_energy_chain(), family, n_max=N_MAX)
        assert not report.ok
        assert report.witnesses == (T_1, T_PRIME)
        assert report.evidence["both_lower_bounds"]
        assert not report.evidence["a_le_b"] and not report.evidence["b_le_a"]
        assert report.evidence["candidates_dominating_both"] == []
        assert report.to_dict()["verdict"] == "obstruction"


def test_meet_limit_not_a_member_falls_back_to_candidates():
    # in the closed family the endpoint limit is not a member; the only
    # candidate lower bound left is zero, which is then the candidate meet
    report = meet_in_family(vanishing_energy_chain(), "cf", n_max=N_MAX)
    assert report.ok and report.found == zero_form(GRID)
    assert not report.evidence["is_declared_limit"]


def test_meet_puts_the_declared_limit_first_wherever_it_is_passed():
    # the surplus chain's limit comes last here; the search still reads it
    # first, so it is the first obstruction witness, as with the palette
    chain = surplus_energy_chain()
    palette = chains._candidate_palette(chain)
    late = [c for c in palette if c != chain.limit] + [chain.limit]
    for cands in (palette, late):
        report = meet_in_family(chain, "cf", candidates=cands, n_max=N_MAX)
        assert report.witnesses == (T_1, T_PRIME) and report.bounds[0] == chain.limit


def test_meet_custom_candidates():
    report = meet_in_family(
        surplus_energy_chain(), "vf", candidates=[zero_form(GRID), T_1], n_max=N_MAX
    )
    assert report.found == T_1


def test_meet_family_guard():
    with pytest.raises(NotInFamily):
        meet_in_family(vanishing_energy_chain(), "bf", n_max=N_MAX)
    with pytest.raises(MonotonicityViolation):
        meet_in_family(filling_energy_chain(), "vf", n_max=N_MAX)  # ascends


def test_join_found_row():
    report = join_in_family(filling_energy_chain(), "vfd:h1_grid", n_max=N_MAX)
    assert report.ok and report.found == T_PRIME
    assert report.evidence["is_declared_limit"]


def test_join_obstruction_rows():
    for family in ("rf", "cf", "vf-bar"):
        report = join_in_family(filling_energy_chain(), family, n_max=N_MAX)
        assert not report.ok
        assert report.witnesses == (T_PRIME, T_1)
        assert report.evidence["candidates_bounded_by_both"] == []


def test_join_obstruction_truncated_diag():
    chain = truncated_diag_chain()
    report = join_obstruction_vf(n_max=N_MAX)
    assert not report.ok
    assert report.witnesses == chain.dominators
    assert report.evidence["each_dominator_bounds_chain"]
    assert report.evidence["prec_between_dominators"]
    assert not report.evidence["a_le_b"] and not report.evidence["b_le_a"]
    # doubling a dominator still bounds the chain, so the obstruction is
    # not an artifact of the two shipped bounds being too small
    double = forms.form_scale(chain.dominators[0], 2)
    assert all(families.le_oplus(t, double) for t in chain.terms(N_MAX))


@pytest.mark.parametrize(
    "search, chain_fn, family, verdict, keys",
    [
        ("meet", surplus_energy_chain, "vf", "found",
         {"lower_bound", "is_declared_limit", "dominates_candidate_lower_bounds"}),
        ("meet", surplus_energy_chain, "rf", "obstruction",
         {"both_lower_bounds", "a_le_b", "b_le_a", "candidates_dominating_both"}),
        ("join", filling_energy_chain, "vfd:h1_grid", "found",
         {"upper_bound", "is_declared_limit", "below_candidate_upper_bounds"}),
        ("join", filling_energy_chain, "rf", "obstruction",
         {"both_upper_bounds", "a_le_b", "b_le_a", "candidates_bounded_by_both"}),
    ],
)
def test_evidence_keys(search, chain_fn, family, verdict, keys):
    search_fn = meet_in_family if search == "meet" else join_in_family
    report = search_fn(chain_fn(), family, n_max=N_MAX)
    assert report.direction == ("down" if search == "meet" else "up")
    assert report.to_dict()["verdict"] == verdict
    assert set(report.evidence) == keys


# ------------------------------------------------- pointwise least bound


def ref_cf_prec_sup(chain, dominator, n_max=chains.DEFAULT_N_MAX, candidates=None):
    """The pointwise least upper bound as its own loop: guards, term
    membership, a monotonicity loop, domination, then every candidate
    upper bound."""
    if chain.limit is None:
        raise NoDeclaredLimit(f"chain {chain.chain_id!r} declares no limit form")
    if not forms.is_closed(chain.limit):
        raise NotClosedChain(f"{forms.describe(chain.limit)} is not closed")
    if not forms.is_closed(dominator):
        raise NotClosedChain(f"dominator {forms.describe(dominator)} is not closed")
    terms = chain.terms(n_max)
    for t in terms:
        if not forms.is_closed(t):
            raise NotInFamily(f"chain term {forms.describe(t)} is outside cf")
    for n in range(len(terms) - 1):
        if not families.preceq(terms[n], terms[n + 1]):
            raise MonotonicityViolation(n + 1)
    for t in terms:
        if not families.preceq(t, dominator):
            raise NotDominated(f"{forms.describe(t)} is not below {forms.describe(dominator)}")
    lim = chain.limit
    if candidates is None:
        candidates = chains._candidate_palette(chain, extra=[dominator])
    if not all(families.preceq(t, lim) for t in terms):
        raise VerificationFailed("declared limit is not an upper bound")
    uppers = [
        c
        for c in candidates
        if not c.has_kind("hamel") and all(families.preceq(t, c) for t in terms)
    ]
    for c in uppers:
        if not families.preceq(lim, c):
            raise VerificationFailed(f"{forms.describe(c)} is an upper bound not above the limit")
    return lim


DOMINATORS = [
    energy_form(1),
    energy_form(Fraction(1, 2)),
    energy_form(3),
    endpoint_form(1, 1),
    energy_with_endpoints(1, 1, 1),
    energy_with_endpoints(2, 2, 2),
    diag_form("j"),
    diag_form("j", cut=40),
    diag_form("1/j", coeff=3),
    diag_form("j^2"),
    zero_form(GRID),
    zero_form(SEQUENCE),
]


def _outcome(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except GealabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n_max", [2, 8, 32])
@pytest.mark.parametrize("name", chains.CHAIN_IDS)
def test_cf_prec_sup_matches_reference(name, n_max):
    for dominator in DOMINATORS:
        got = _outcome(cf_prec_sup, chain_by_name(name), dominator, n_max=n_max)
        assert got == _outcome(ref_cf_prec_sup, chain_by_name(name), dominator, n_max=n_max), dominator


def test_cf_prec_sup_names_the_first_upper_bound_not_above_the_limit():
    chain = filling_energy_chain()
    # terms 0 and 1/2*energy: the candidate 1/2*energy bounds both, below the limit
    with pytest.raises(VerificationFailed) as info:
        cf_prec_sup(chain, dominator=energy_form(3), n_max=2)
    assert str(info.value) == "1/2*energy on h1_grid [grid] is an upper bound not above the limit"
    # a limit that is no upper bound is named as such
    low = FormChain("low", GRID, "ascending", "prec", energy_form(Fraction(1, 4)), chain.term_fn)
    with pytest.raises(VerificationFailed) as info:
        cf_prec_sup(low, dominator=T_1, n_max=N_MAX)
    assert str(info.value) == "declared limit is not an upper bound"
    assert _outcome(cf_prec_sup, low, T_1, n_max=N_MAX) == _outcome(ref_cf_prec_sup, low, T_1, n_max=N_MAX)


def test_cf_prec_sup_custom_candidates_match_reference():
    chain = filling_energy_chain()
    for cands in ([T_1, T_PRIME], [T_1], [energy_form(2), T_1], [forms.hamel_form(), T_1]):
        got = _outcome(cf_prec_sup, chain, T_1, n_max=N_MAX, candidates=cands)
        assert got == _outcome(ref_cf_prec_sup, chain, T_1, n_max=N_MAX, candidates=cands)


def test_cf_prec_sup_positive():
    sup = cf_prec_sup(filling_energy_chain(), dominator=T_1, n_max=N_MAX)
    assert sup == T_PRIME


def test_cf_prec_sup_constant_chain():
    const = FormChain(
        chain_id="const",
        model=GRID,
        direction="ascending",
        order="prec",
        limit=T_PRIME,
        term_fn=lambda n: T_PRIME,
    )
    assert cf_prec_sup(const, dominator=T_PRIME, n_max=6) == T_PRIME


def test_cf_prec_sup_guards():
    with pytest.raises(NotClosedChain):
        cf_prec_sup(filling_energy_chain(), dominator=T_0, n_max=N_MAX)
    with pytest.raises(NotClosedChain):
        # the vanishing-energy chain's declared limit is not closed
        cf_prec_sup(vanishing_energy_chain(), dominator=T_1, n_max=N_MAX)
    with pytest.raises(NotDominated):
        cf_prec_sup(filling_energy_chain(), dominator=energy_form(Fraction(1, 2)), n_max=N_MAX)
    with pytest.raises(MonotonicityViolation):
        cf_prec_sup(surplus_energy_chain(), dominator=energy_form(3), n_max=N_MAX)
    anon = FormChain(
        chain_id="anon",
        model=GRID,
        direction="ascending",
        order="prec",
        limit=None,
        term_fn=lambda n: energy_form(1 - Fraction(1, n)),
    )
    with pytest.raises(NoDeclaredLimit):
        cf_prec_sup(anon, dominator=T_PRIME, n_max=N_MAX)


def test_cf_prec_sup_classifies_terms_once_in_the_search():
    # a term outside cf is refused by the search's membership check, after
    # the limit and dominator guards, and named as a chain term
    term = {2: T_0}
    opened = FormChain("opened", GRID, "ascending", "prec", T_PRIME, lambda n: term.get(n, zero_form(GRID)))
    with pytest.raises(NotInFamily) as info:
        cf_prec_sup(opened, dominator=T_1, n_max=3)
    assert str(info.value) == f"chain term {forms.describe(T_0)} is outside cf"
    assert _outcome(cf_prec_sup, opened, T_1, n_max=3) == _outcome(ref_cf_prec_sup, opened, T_1, n_max=3)
    with pytest.raises(NotClosedChain) as info:
        cf_prec_sup(opened, dominator=T_0, n_max=3)
    assert str(info.value) == f"dominator {forms.describe(T_0)} is not closed"


# ------------------------------------------------------------ sigma table


def test_sigma_report_shape_and_verdicts():
    out = sigma_report(n_max=N_MAX)
    rows = out["rows"]
    assert len(rows) == 12
    verdicts = {
        (row["family"], row["direction"], row.get("order", "family")): row["sigma_complete"]
        for row in rows
    }
    assert verdicts == {
        ("vfd:h1_grid", "down", "family"): True,
        ("vfd:h1_grid", "up", "family"): True,
        ("vf", "down", "family"): True,
        ("vf", "up", "family"): False,
        ("bf", "down", "family"): True,
        ("rf", "down", "family"): False,
        ("rf", "up", "family"): False,
        ("cf", "down", "family"): False,
        ("cf", "up", "family"): False,
        ("vf-bar", "down", "family"): False,
        ("vf-bar", "up", "family"): False,
        ("cf", "up", "prec"): True,
    }
    for row in rows:
        report = row["report"]
        if row.get("order") == "prec":
            assert report["sup"] == forms.form_to_dict(T_PRIME)
        elif row["sigma_complete"]:
            assert report["verdict"] == "found" and "element" in report
        else:
            assert report["verdict"] == "obstruction" and len(report["witnesses"]) == 2
    up_rows = [r for r in rows if r["direction"] == "up" and "note" in r]
    assert len(up_rows) == 3  # the transferred verdicts carry their note
    assert set(out["summary"]) == {"vfd:h1_grid", "vf", "bf", "rf", "cf", "vf-bar"}


def test_sigma_summary_is_read_off_the_rows():
    rows = sigma_report(n_max=N_MAX)["rows"]
    summary = chains._sigma_summary(rows)
    assert summary == {
        "vfd:h1_grid": "up and down",
        "vf": "down only",
        "bf": "down",
        "rf": "neither",
        "cf": "neither (up holds under the pointwise order)",
        "vf-bar": "neither",
    }
    for i, row in enumerate(rows):
        flipped = list(rows)
        flipped[i] = dict(row, sigma_complete=not row["sigma_complete"])
        changed = chains._sigma_summary(flipped)
        family = row["family"]
        assert changed[family] != summary[family], row
        assert {f: p for f, p in changed.items() if f != family} == {
            f: p for f, p in summary.items() if f != family
        }
