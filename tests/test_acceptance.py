"""Acceptance gate: the ten shipped criteria, one verdict line each.

Every test prints exactly one ``ACCEPTANCE PASS/FAIL [n]`` line; run with
``pytest -v`` (or ``-rA`` to see the lines for passing tests too).
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from gealab import chains, families, forms, hilbert, instances, kernel
from gealab.forms import (
    FINITE_SUPPORT,
    FULL_SPACE,
    H1_GRID,
    diag_form,
    endpoint_form,
    energy_form,
    energy_with_endpoints,
    form_add,
    form_from_json,
    form_to_json,
    zero_form,
)
from gealab.hilbert import DEFAULT_LEVELS, GRID, SEQUENCE

T_PRIME = energy_form(1)
T_0 = endpoint_form(1, 1)
T_1 = energy_with_endpoints(1, 1, 1)

SAMPLED_FAMILIES = ("vf", "vf-bar", "bf", "rf", "sf", "gf", "cf", "vfd:h1_grid", "vh", "sa")
SEEDS = (7, 11, 13)


def _verdict(num: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE FAIL [{num}] {label}")
        raise
    print(f"ACCEPTANCE PASS [{num}] {label}")


def test_criterion_01_axiom_suites():
    def body():
        start = time.monotonic()
        exhaustive = [instances.NatGEA(50), instances.EvenGapGEA(50)]
        exhaustive += [instances.make_interval_ea(u) for u in range(1, 7)]
        exhaustive += [instances.make_interval_ea(u) for u in ((2, 2), (3, 2))]
        for alg in exhaustive:
            rep = kernel.check_axioms(alg, mode="exhaustive")
            assert rep.all_pass, (alg, rep.to_dict())
        for family in SAMPLED_FAMILIES:
            total = 0
            for seed in SEEDS:
                rep = kernel.check_axioms(
                    families.gea_by_name(family), mode="sampled", samples=700, seed=seed
                )
                assert rep.all_pass, (family, seed, rep.to_dict())
                total += rep.samples_tested
            assert total >= 2000, family
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"axiom suites took {elapsed:.1f}s"

    _verdict(1, "axiom suites exhaustive + sampled within 30s", body)


def test_criterion_02_restricted_order_regression():
    def body():
        ambient = instances.NatGEA(50)
        subset = set(instances.EvenGapGEA(50).elements())
        check = kernel.is_sub_gea(ambient, subset)
        assert not check.ok and check.certificate == (4, 2, 6)
        assert kernel.derived_le(ambient, 4, 6)
        assert not kernel.derived_le(instances.EvenGapGEA(50), 4, 6)
        demo = instances.restricted_order_demo(cap=50)
        assert demo["ambient_axioms_pass"] and demo["subset_axioms_pass"]
        assert not demo["is_sub_gea"] and demo["certificate"] == (4, 2, 6)

    _verdict(2, "sum-closed subset fails 2-of-3 with certificate (4, 2, 6)", body)


def test_criterion_03_two_of_three_batteries():
    def body():
        bf = families.closure_violations(SEQUENCE, "bf", samples=1000, seed=7)
        assert bf["ok"] and bf["checked"] == 1000
        # the pinned regular-family violation
        assert families.oplus(T_PRIME, T_0) == T_1
        flags = tuple(families.in_family(t, "rf") for t in (T_PRIME, T_0, T_1))
        assert flags == (True, False, True)
        rf_plain = families.closure_violations(GRID, "rf", samples=1000, seed=7)
        assert not rf_plain["ok"]
        for family in ("rf", "sf"):
            bar = families.closure_violations(GRID, family, samples=1000, seed=7, use_bar=True)
            assert bar["ok"] and bar["checked"] == 1000, family

    _verdict(3, "bounded family closed, regular family not, bar sums closed (1000 each)", body)


def test_criterion_04_regular_sum_counterexample():
    def body():
        assert forms.reg_sing_split(families.oplus(T_PRIME, T_0)) == (T_1, zero_form(GRID))
        reg_parts = form_add(forms.reg_sing_split(T_PRIME)[0], forms.reg_sing_split(T_0)[0])
        assert reg_parts == T_PRIME
        assert families.oplus_bar(T_PRIME, T_0) is None
        assert families.preceq(T_PRIME, T_1)
        assert not families.preceq(T_1, T_PRIME)

    _verdict(4, "regular-part sum drops below the sum's regular part, strictly", body)


def test_criterion_05_energy_chain_convergence():
    def body():
        start = time.monotonic()
        chain = chains.vanishing_energy_chain()
        out = chains.pointwise_limit(chain)
        assert out["identity_ok"] and out["identity_max_rel_dev"] <= 1e-9
        assert out["levels"] == [9, 49, 199]
        assert chains.check_monotone(chain, n_max=32)["ok"]
        assert chains.check_monotone(chain, n_max=32, order="prec")["ok"]
        for mesh in (9, 49, 199):
            ramp = hilbert.grid_nodes(mesh)
            assert abs(forms.quadratic(chain.term(1), ramp) - 2.0) < 1e-9
            ones = np.ones(mesh + 2)
            for n in (1, 2, 7, 32):
                assert abs(forms.quadratic(chain.term(n), ones) - 2.0) < 1e-9
        sine = np.sin(np.pi * hilbert.grid_nodes(199))
        assert abs(hilbert.dirichlet_energy(sine) - np.pi**2 / 2) < 1e-3
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"convergence checks took {elapsed:.1f}s"

    _verdict(5, "energy chain: exact 1/n gap identity, monotone, spot values, <10s", body)


def test_criterion_06_sigma_table():
    def body():
        table = chains.sigma_report(n_max=32)
        got = {
            (row["family"], row["direction"], row.get("order", "family")): row["sigma_complete"]
            for row in table["rows"]
        }
        assert got == {
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
        by_key = {(r["family"], r["direction"], r.get("order", "family")): r for r in table["rows"]}
        # the verified meet of the surplus chain and its maximality evidence
        vf_down = by_key[("vf", "down", "family")]["report"]
        assert vf_down["element"] == forms.form_to_dict(T_1)
        assert vf_down["evidence"]["is_declared_limit"]
        # the incomparable-dominator obstruction
        vf_up = by_key[("vf", "up", "family")]["report"]
        dominators = chains.truncated_diag_chain().dominators
        assert vf_up["witnesses"] == [forms.form_to_dict(d) for d in dominators]
        assert vf_up["evidence"]["prec_between_dominators"]
        assert vf_up["evidence"]["each_dominator_bounds_chain"]
        # the shared downward obstruction pair (t_1, t')
        pair = [forms.form_to_dict(T_1), forms.form_to_dict(T_PRIME)]
        for family in ("rf", "cf", "vf-bar"):
            rep = by_key[(family, "down", "family")]["report"]
            assert rep["witnesses"] == pair, family
            assert not rep["evidence"]["a_le_b"] and not rep["evidence"]["b_le_a"]
        # pointwise least upper bound of the filling chain
        assert by_key[("cf", "up", "prec")]["report"]["sup"] == forms.form_to_dict(T_PRIME)

    _verdict(6, "completeness table matches the pinned verdicts with verified witnesses", body)


def test_criterion_07_complement_route_meets_and_joins():
    def body():
        meets = joins = 0
        for u in range(1, 7):
            alg = instances.make_interval_ea(u)
            elems = list(alg.elements())
            le = {(a, b) for a in elems for b in elems if kernel.derived_le(alg, a, b)}
            desc = [
                (a, b, c)
                for a, b, c in itertools.product(elems, repeat=3)
                if (b, a) in le and (c, b) in le
            ]
            for chain in desc:
                assert kernel.meet_via_complement_join(alg, chain) == kernel.brute_meet(alg, chain)
                meets += 1
            asc = [tuple(reversed(chain)) for chain in desc]
            for chain in asc:
                bounds = [d for d in elems if (chain[-1], d) in le]
                results = {kernel.join_via_complement_meet(alg, chain, b) for b in bounds}
                assert len(results) == 1
                assert results.pop() == kernel.brute_join(alg, chain)
                joins += 1
        assert meets == 209 and joins == 209

    _verdict(7, "complement-route meet/join agree with brute force on all interval chains", body)


def test_criterion_08_singularity_criterion():
    def body():
        for mesh in (9, 49, 199):
            sampler = hilbert.VectorSampler(GRID, mesh, seed=mesh)
            for _ in range(50):
                x = sampler.draw(unit=True)
                y = forms.singularity_witness(T_0, x)
                assert y is not None
                ratio = forms.quadratic(T_0, y) / abs(hilbert.inner(GRID, x, y)) ** 2
                assert ratio < 1.0
                assert forms.singularity_witness(T_1, x) is None
        for level in (8, 16, 32):
            sampler = hilbert.VectorSampler(SEQUENCE, level, seed=level)
            for _ in range(50):
                x = sampler.draw(unit=True)
                assert forms.singularity_witness(diag_form("j"), x) is None

    _verdict(8, "endpoint form always admits a witness; closed forms never do", body)


def test_criterion_09_polarization_riesz_json():
    def body():
        for _, t in forms.catalog_forms():
            level = DEFAULT_LEVELS[t.model][0]
            sampler = hilbert.VectorSampler(t.model, level, seed=21)
            q = lambda v: forms.quadratic(t, v)
            for _ in range(100):
                x, y = sampler.draw(), sampler.draw()
                want = forms.evaluate(t, x, y)
                got = hilbert.polarize(q, x, y)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
            if forms.is_bounded(t):
                for lv in DEFAULT_LEVELS[t.model]:
                    a = forms.riesz_operator_of_bounded(t, lv)
                    s2 = hilbert.VectorSampler(t.model, lv, seed=22)
                    scale = max(1.0, forms.numerical_range_bounds(t, lv)[1])
                    for _ in range(5):
                        x, y = s2.draw(), s2.draw()
                        resid = abs(forms.evaluate(t, x, y) - hilbert.inner(t.model, a @ x, y))
                        assert resid < 1e-10 * scale * max(
                            1.0, float(np.linalg.norm(x) * np.linalg.norm(y))
                        )
        restricted = [
            diag_form("1/j", domain=FINITE_SUPPORT),
            forms.make_form(GRID, {forms.bounded_mat_atom("seeded:3"): 1}, H1_GRID),
        ]
        for r in restricted:
            ext = forms.extend_bounded(r)
            assert ext.domain == FULL_SPACE and ext.atoms == r.atoms
            text = form_to_json(ext)
            assert form_from_json(text) == ext
            assert form_to_json(form_from_json(text)) == text

    _verdict(9, "polarization, Riesz residuals, and bounded-extension JSON round trips", body)


def test_criterion_10_cli_determinism():
    def body():
        cmd = [sys.executable, "-m", "gealab.cli", "sigma", "--seed", "7", "--format", "json"]
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr.decode()
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout
        body_json = json.loads(runs[0].stdout)
        assert body_json["ok"] and body_json["schema"] == "gealab/1"

    _verdict(10, "sigma command output is byte-identical across runs", body)
