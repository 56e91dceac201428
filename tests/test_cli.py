"""End-to-end CLI behavior: exit codes, envelopes, determinism."""

import errno
import hashlib
import importlib
import json
import os
import random
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gealab import chains, cli, families, forms, hilbert, instances, kernel
from gealab.errors import GealabError


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    return code, (json.loads(out) if out.strip() else None), err


def test_axioms_exhaustive_instance(capsys):
    code, body, _ = run_json(["axioms", "--instance", "zplus", "--cap", "30"], capsys)
    assert code == 0
    assert body["schema"] == "gealab/1" and body["command"] == "axioms"
    assert body["ok"] and body["report"]["all_pass"]
    assert body["report"]["mode"] == "exhaustive"
    assert body["config"]["instance"] == "zplus"


def test_axioms_broken_instance_fails(capsys):
    code, body, _ = run_json(["axioms", "--instance", "broken-max", "--cap", "8"], capsys)
    assert code == 1
    assert not body["ok"]
    failing = [v for v in body["report"]["verdicts"] if not v["passed"]]
    assert failing and all(v["counterexample"] for v in failing)
    assert any(v["axiom"] == "GEiv" for v in failing)


def test_axioms_sampled_family(capsys):
    code, body, _ = run_json(
        ["axioms", "--family", "bf", "--samples", "250", "--seed", "3"], capsys
    )
    assert code == 0 and body["ok"]
    assert body["report"]["mode"] == "sampled"
    assert body["report"]["samples_tested"] == 250


def test_axioms_selector_usage_errors(capsys):
    for argv in (["axioms"], ["axioms", "--instance", "zplus", "--family", "bf"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out
        assert err == "config error: exactly one of --instance / --family is required\n"
    code, out, err = run_cli(["axioms", "--instance", "hilbert-hotel"], capsys)
    assert code == 2 and "config error" in err
    code, out, err = run_cli(["axioms", "--family", "vfd"], capsys)
    assert code == 2 and "config error" in err


def test_axioms_samples_below_one_is_config_error(capsys):
    for n in ("-5", "0"):
        code, out, err = run_cli(["axioms", "--family", "bf", "--samples", n], capsys)
        assert code == 2 and not out
        assert err.startswith("config error:") and err.count("\n") == 1


def test_axioms_negative_cap_is_config_error(capsys):
    code, out, err = run_cli(["axioms", "--instance", "cone:2", "--cap", "-1"], capsys)
    assert code == 2 and not out
    assert err.startswith("config error:") and err.count("\n") == 1


def test_axioms_negative_cone_dimension_is_config_error(capsys):
    code, out, err = run_cli(["axioms", "--instance", "cone:-1"], capsys)
    assert code == 2 and not out
    assert err == "config error: dimension must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "name, part",
    [("cone:x", "dimension 'x'"), ("interval:a", "bound entry 'a'"), ("half-open:3,", "bound entry ''")],
)
def test_axioms_instance_parse_errors_name_the_selector(capsys, name, part):
    code, out, err = run_cli(["axioms", "--instance", name], capsys)
    assert code == 2 and not out
    assert err == f"config error: instance {name!r}: {part} is not an integer\n"


@pytest.mark.parametrize("name", ["zplus:abc", "even-gap:3", "broken-max:x"])
def test_axioms_selector_without_argument_refuses_one(capsys, name):
    code, out, err = run_cli(["axioms", "--instance", name, "--cap", "3"], capsys)
    base, _, arg = name.partition(":")
    assert code == 2 and not out
    assert err == f"config error: instance {name!r}: {base} takes no argument, got {arg!r}\n"


def test_axioms_cap_zero_is_honoured(capsys):
    code, body, _ = run_json(["axioms", "--instance", "zplus", "--cap", "0"], capsys)
    assert code == 0 and body["config"]["cap"] == 0
    assert body["report"]["algebra"] == "NatGEA(cap=0)"
    assert body["report"]["samples_tested"] == 3  # the carrier is {0}


def test_axioms_instance_json_is_byte_stable():
    cmd = [sys.executable, "-m", "gealab.cli", "axioms", "--instance", "interval:3,2", "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["report"]["algebra"] == "IntervalEA(u=(3, 2))"


def test_counterexamples_all_pass(capsys):
    for name in cli.COUNTEREXAMPLES:
        code, body, _ = run_json(["counterexample", name], capsys)
        assert code == 0, name
        assert body["ok"] and body["config"]["name"] == name


def test_counterexample_reports_pin_their_facts(capsys):
    _, body, _ = run_json(["counterexample", "remark-2-2"], capsys)
    assert body["report"]["certificate"] == [4, 2, 6]
    assert body["report"]["le_in_ambient"] and not body["report"]["le_in_subset"]
    _, body, _ = run_json(["counterexample", "example-5-4"], capsys)
    assert body["report"]["verdict"] == "obstruction"
    assert len(body["report"]["witnesses"]) == 2
    _, body, _ = run_json(["counterexample", "regular-sum"], capsys)
    assert body["report"]["memberships"] == {"t_prime": True, "t_0": False, "t_1": True}
    assert body["report"]["bar_sum_undefined"]
    for name in ("kato-inf", "bar-inf"):
        _, body, _ = run_json(["counterexample", name], capsys)
        assert body["report"]["verdict"] == "obstruction"


def test_counterexample_unknown_name(capsys):
    code, out, err = run_cli(["counterexample", "russell"], capsys)
    assert code == 2 and not out
    assert err.startswith("config error:") and err.count("\n") == 1 and "'russell'" in err


def test_chain_descending_with_meet(capsys):
    code, body, _ = run_json(["chain", "--chain", "kato", "--n-max", "8"], capsys)
    assert code == 0 and body["ok"]
    rep = body["report"]
    assert rep["monotone"]["ok"] and rep["pointwise"]["identity_ok"]
    assert rep["completeness"]["verdict"] == "found"


def test_chain_ascending_obstruction_still_exits_zero(capsys):
    # an obstruction is a verified verdict, not a failure of the run
    code, body, _ = run_json(["chain", "--chain", "diag", "--n-max", "8"], capsys)
    assert code == 0 and body["ok"]
    assert body["report"]["completeness"]["verdict"] == "obstruction"


def test_chain_prec_order_reports_sup(capsys):
    code, body, _ = run_json(
        ["chain", "--chain", "complement", "--order", "prec", "--n-max", "8"], capsys
    )
    assert code == 0
    assert body["report"]["sup"]["atoms"][0]["kind"] == "dirichlet"


def test_chain_order_failure_exits_one(capsys):
    # the truncation steps have no atom-wise difference witness, so the
    # family-order monotonicity check fails with a replayable witness
    code, body, _ = run_json(["chain", "--chain", "diag", "--order", "cf", "--n-max", "8"], capsys)
    assert code == 1 and not body["ok"]
    assert "error" in body["report"] and body["report"]["witness"]["order"] == "cf"


def test_chain_diag_prec_takes_its_closed_dominator(capsys):
    # diag's last dominator is its finite-support restriction, which is not
    # closed; the supremum is taken under the full-domain diagonal instead
    code, body, _ = run_json(["chain", "--chain", "diag", "--order", "prec", "--n-max", "8"], capsys)
    assert code == 0 and body["ok"]
    sup = body["report"]["sup"]
    assert sup["domain"] == "diag_max:j" and [a["lambda"] for a in sup["atoms"]] == ["j"]


# every chain in every order choice (None: the chain's own): exit code and
# error, both float-free; only diag fails, at its first step, in the
# orders whose witness needs an atom-wise difference
CHAIN_RUNS = {(c, o): (0, None) for c in chains.CHAIN_IDS for o in (None, *chains.ORDERS)}
CHAIN_RUNS.update({("diag", o): (1, "order violated between terms 1 and 2") for o in ("cf", "rf", "bar")})


@pytest.mark.parametrize("chain, order", CHAIN_RUNS, ids=str)
def test_chain_run_checks_its_steps_once(chain, order, monkeypatch, capsys):
    steps = []
    check = chains._check_steps
    monkeypatch.setattr(chains, "_check_steps", lambda terms, below: steps.append(1) or check(terms, below))
    code, body, _ = run_json(["chain", "--chain", chain] + (["--order", order] if order else []), capsys)
    assert (code, body["report"].get("error")) == CHAIN_RUNS[chain, order]
    # the bound search's step check is the run's monotone block
    assert len(steps) == 1
    assert ("monotone" in body["report"]) == (code == 0)


def test_example_5_4_reads_its_dominators_off_the_search(monkeypatch, capsys):
    calls = {"diagonal": 0, "numeric": 0}

    def counted(route, fn):
        def call(*args):
            calls[route] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(families, "_preceq_numeric", counted("numeric", families._preceq_numeric))
    monkeypatch.setattr(forms, "diagonal_order_witness", counted("diagonal", forms.diagonal_order_witness))
    code, body, _ = run_json(["counterexample", "example-5-4"], capsys)
    assert code == 0 and body["report"]["evidence"]["each_dominator_bounds_chain"]
    # every pair the search sends past the atom-wise certificate is diagonal
    assert calls == {"diagonal": 171, "numeric": 0}


def test_chain_unknown_ids(capsys):
    code, _, err = run_cli(["chain", "--chain", "zeno"], capsys)
    assert code == 2 and "config error" in err
    code, _, err = run_cli(["chain", "--chain", "kato", "--order", "zorn"], capsys)
    assert code == 2


def test_chain_order_ids_come_from_the_order_table(capsys):
    # family ids outside the order table are no chain orders
    for order in ("sf", "vfd:h1_grid"):
        code, out, err = run_cli(["chain", "--chain", "kato", "--order", order], capsys)
        assert code == 2 and not out
        assert err.startswith("config error:") and err.count("\n") == 1


def test_help_lists_the_registries(capsys):
    instance_grammar = ["zplus", "even-gap", "cone:<d>", "interval:<u>", "half-open:<u>", "broken-max"]
    for argv, ids in (
        (["axioms", "--help"], [b if f.model else f"{b}:<tag>" for b, f in families.FAMILIES.items()]),
        (["axioms", "-h"], instance_grammar),
        (["chain", "--help"], list(chains.CHAIN_IDS)),
        (["chain", "--help"], list(chains.ORDERS)),
        (["counterexample", "-h"], list(cli.COUNTEREXAMPLES)),
        (["-h"], list(cli.COUNTEREXAMPLES)),
    ):
        assert cli.main(argv) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert " | ".join(ids) in text


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help"],
        *([name, "-h"] for name in ("axioms", "counterexample", "chain", "sigma")),
        [],
        ["bogus"],
        ["--seed", "3", "axioms"],
        ["chain"],
        ["counterexample"],
        ["counterexample", "russell"],
        ["sigma", "--format", "xml"],
        ["axioms", "--cap", "x"],
        ["chain", "--chain", "kato", "--levels", "a,b"],
        ["sigma", "--chain", "kato"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_parser_of_one_subcommand_answers_as_the_full_parser(argv, capsys):
    # the parse reads the named subcommand's table alone: its help is that
    # subcommand's part of the full help, and a usage error is one line
    code, out, err = run_cli(argv, capsys)
    if "-h" in argv or "--help" in argv:
        assert (code, err) == (0, "")
        full = run_cli(["--help"], capsys)[1]
        usage, _, body = out.partition("\n")
        assert body and full.startswith(usage + "\n") and body in full
        command = argv[0] if argv[0] in cli._SUBCOMMANDS else None
        for name, (_, options, _) in cli._SUBCOMMANDS.items():
            if command in (None, name):
                assert all(f"\n  {key} " in out for key in {**options, **cli._COMMON}), name
    else:
        assert code == 2 and not out
        assert err.startswith("config error:") and err.count("\n") == 1, err


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    argv = ["axioms", "--instance", "broken-max", "--cap", "8", "--seed", "7", "--format", "json"]
    monkeypatch.setattr(sys, "argv", ["gealab", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("gealab", run_name="__main__")
    via_module = exc.value.code, capsys.readouterr()
    assert via_module == (cli.main(argv), capsys.readouterr())
    assert via_module[0] == 1 and json.loads(via_module[1].out)["command"] == "axioms"


@pytest.mark.parametrize(
    "argv, bound, name",
    [
        (["axioms", "--family", "bf", "--samples"], kernel.MAX_SAMPLES, "kernel.MAX_SAMPLES"),
        (["axioms", "--instance", "zplus", "--mode", "sampled", "--samples"], kernel.MAX_SAMPLES, "kernel.MAX_SAMPLES"),
        (["chain", "--chain", "kato", "--n-max"], chains.MAX_N_MAX, "chains.MAX_N_MAX"),
        (["sigma", "--n-max"], chains.MAX_N_MAX, "chains.MAX_N_MAX"),
    ],
)
def test_work_past_its_bound_is_config_error(argv, bound, name, capsys):
    for n in (bound + 1, 10**8):
        code, out, err = run_cli(argv + [str(n)], capsys)
        assert code == 2 and not out
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{name} = {bound}" in err and err.rstrip().endswith(f"got {n}")


def test_fixed_domain_families_on_sequence_tags(capsys):
    for family in ("vfd:finite_support", "vfd:diag_max:j"):
        code, body, _ = run_json(["axioms", "--family", family, "--samples", "500"], capsys)
        assert code == 0 and body["ok"], family
        assert body["report"]["algebra"] == f"FormsGEA({family!r}, model='sequence')"
    code, out, err = run_cli(["axioms", "--family", "vfd:finite_support", "--model", "grid"], capsys)
    assert code == 2 and not out and err.startswith("config error:")


def test_model_with_an_instance_is_refused(capsys):
    # no instance reads a model, so the flag would do nothing
    code, out, err = run_cli(["axioms", "--instance", "zplus", "--cap", "3", "--model", "grid"], capsys)
    assert (code, out, err) == (2, "", "config error: --model applies to --family only\n")


def test_unknown_model_is_named(capsys):
    for family in ("vf", "vfd:full"):
        code, out, err = run_cli(["axioms", "--family", family, "--model", "torus"], capsys)
        assert (code, out, err) == (2, "", "config error: unknown model 'torus'\n")


def test_zero_denominator_constant_is_a_config_error(capsys):
    argv = ["axioms", "--family", "vfd:diag_max:const:1/0", "--samples", "5"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "config error: diagonal constant 'const:1/0' is not a rational number\n"


@pytest.mark.parametrize("seed", ["7", "101"])
@pytest.mark.parametrize("family", ["vfd:full", "vfd:diag_max:1/j", "vfd:diag_max:const:2"])
def test_fixed_domain_families_without_unbounded_forms(family, seed, capsys):
    code, body, err = run_json(["axioms", "--family", family, "--samples", "500", "--seed", seed], capsys)
    assert code == 0 and body["ok"] and not err, (family, err)


@pytest.mark.parametrize("seed", ["7", "101"])
def test_full_tag_takes_either_model(seed, capsys):
    # bounded grid forms live on the full space too
    code, body, err = run_json(["axioms", "--family", "vfd:full", "--model", "grid", "--seed", seed], capsys)
    assert code == 0 and body["ok"] and not err, err
    assert body["report"]["algebra"] == "FormsGEA('vfd:full', model='grid')"
    for family in ("vfd:finite_support", "vfd:diag_max:j", "vfd:diag_max:1/j"):
        code, out, err = run_cli(["axioms", "--family", family, "--model", "grid", "--seed", seed], capsys)
        assert code == 2 and not out and "lives on the sequence model" in err, family


BYTE_STABLE_RUNS = [
    ["axioms", "--instance", "half-open:3,3", "--cap", "8"],
    ["axioms", "--family", "vh", "--samples", "300"],
    ["axioms", "--family", "vfd:finite_support", "--samples", "300"],
    *(["counterexample", name] for name in cli.COUNTEREXAMPLES),
    ["chain", "--chain", "kato", "--n-max", "8"],
    ["sigma", "--n-max", "8"],
]


@pytest.mark.parametrize("argv", BYTE_STABLE_RUNS, ids=" ".join)
def test_json_is_byte_stable_in_process(argv, capsys):
    outs = []
    for _ in range(2):
        assert cli.main(argv + ["--seed", "7", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs[0] == outs[1]


def test_chain_n_max_below_two_is_config_error(capsys):
    code, out, err = run_cli(["chain", "--chain", "kato", "--n-max", "1"], capsys)
    assert code == 2 and not out
    assert err.startswith("config error:") and err.count("\n") == 1


def test_chain_pointwise_table_stops_at_n_max(capsys):
    code, body, _ = run_json(["chain", "--chain", "kato", "--n-max", "4"], capsys)
    assert code == 0
    pointwise = body["report"]["pointwise"]
    assert pointwise["n_values"] == [1, 2, 4]
    assert {row["n"] for row in pointwise["table"]} == {1, 2, 4}


def test_chain_nonpositive_level_is_config_error(capsys):
    for levels in ("-3", "0,8"):
        code, out, err = run_cli(["chain", "--chain", "kato", "--levels", levels], capsys)
        assert code == 2 and not out
        assert err.startswith("config error:") and err.count("\n") == 1


def test_chain_levels_past_the_bound_are_refused_before_the_table(capsys, monkeypatch):
    # the refused levels never reach the pointwise table, so none is allocated
    seen = []

    def pointwise_limit(chain, levels, n_max):
        if sum(hilbert.dim_of(chain.model, level) for level in levels) > chains.MAX_LEVEL_DIMS:
            raise AssertionError(f"levels {levels} reached the pointwise table")
        seen.append(levels)
        return {}

    monkeypatch.setattr(chains, "pointwise_limit", pointwise_limit)
    bound = chains.MAX_LEVEL_DIMS
    refused = (("diag", "100000000"), ("diag", str(bound + 1)), ("kato", str(bound - 1)), ("diag", "600,600"))
    for chain, levels in refused:
        code, out, err = run_cli(["chain", "--chain", chain, "--levels", levels], capsys)
        assert code == 2 and not out
        assert err.startswith(f"config error: --levels {levels} spans") and err.count("\n") == 1
    # a sequence level is its dimension, a grid level two less
    for chain, levels in (("diag", str(bound)), ("kato", str(bound - 2)), ("diag", "256,768")):
        assert run_cli(["chain", "--chain", chain, "--levels", levels], capsys)[0] == 0
    assert seen == [(bound,), (bound - 2,), (256, 768)]


def test_chain_repeated_level_is_config_error(capsys, monkeypatch):
    # a repeated level would print its rows twice and count twice against the bound
    monkeypatch.setattr(chains, "pointwise_limit", lambda *args, **kwargs: pytest.fail("the run started"))
    for levels in ("9,9", "3,5,3"):
        code, out, err = run_cli(["chain", "--chain", "kato", "--levels", levels], capsys)
        assert code == 2 and not out
        assert err == f"config error: --levels {levels} names a level twice\n"


def test_chain_unparsable_levels_is_usage_error(capsys):
    code, out, err = run_cli(["chain", "--chain", "kato", "--levels", "a,b"], capsys)
    assert code == 2 and not out
    assert err.startswith("config error:") and err.count("\n") == 1 and "bad level list 'a,b'" in err


def test_chain_has_no_tol_option(capsys):
    code, out, err = run_cli(["chain", "--chain", "kato", "--tol", "1e-9"], capsys)
    assert code == 2 and not out
    assert err.startswith("config error:") and err.count("\n") == 1 and "--tol" in err


def test_sigma_n_max_below_two_is_config_error(capsys):
    code, out, err = run_cli(["sigma", "--n-max", "1"], capsys)
    assert code == 2 and not out
    assert err.startswith("config error:") and err.count("\n") == 1


def test_sigma_matches_expected_table(capsys):
    code, body, _ = run_json(["sigma", "--n-max", "12"], capsys)
    assert code == 0 and body["ok"]
    assert body["report"]["mismatches"] == []
    assert len(body["report"]["rows"]) == 12


def test_sigma_expected_table_covers_every_row(monkeypatch, capsys):
    # a flipped pointwise row is a mismatch like any other
    real = chains.sigma_report

    def flipped(**kwargs):
        table = real(**kwargs)
        table["rows"][-1]["sigma_complete"] = False
        return table

    monkeypatch.setattr(chains, "sigma_report", flipped)
    code, body, _ = run_json(["sigma", "--n-max", "8"], capsys)
    assert code == 1 and not body["ok"]
    assert body["report"]["mismatches"] == [
        {"family": "cf", "direction": "up", "got": False, "expected": True}
    ]


def test_sigma_row_that_raises_keeps_the_other_rows(capsys):
    # at --n-max 2, 1/2*energy bounds the filling chain's two terms but not
    # its limit, so the pointwise supremum raises; its row says so
    code, body, _ = run_json(["sigma", "--n-max", "2"], capsys)
    assert code == 1 and not body["ok"]
    rows = body["report"]["rows"]
    assert len(rows) == 12
    failed = [row for row in rows if "error" in row]
    assert failed == [
        {
            "family": "cf",
            "direction": "up",
            "order": "prec",
            "sigma_complete": None,
            "error": "1/2*energy on h1_grid [grid] is an upper bound not above the limit",
        }
    ]
    assert all("report" in row for row in rows if "error" not in row)
    assert {"family": "cf", "direction": "up", "got": None, "expected": True} in body["report"]["mismatches"]


# sha256 of the JSON these runs print at --seed 7: a change that moves a
# byte of these float-free reports has to say so here
GOLDEN_JSON = [
    ("sigma", 0, "a3e5b852d9154384bdf81eef54c48015e9382b766e5f3c4c2113bec19a9f74d1"),
    # chain terms with cuts up to 64, past the largest default level 32
    ("sigma --n-max 64", 0, "75e1ef864a6e3b50bc59a4aa80899dd0182450235cd047b4cfe8cf580a427e61"),
    ("counterexample remark-2-2", 0, "e8f1509b4d217a8bdfca2c3bcc1b769e2dd7b0df8de33965fd820aa2bad4f334"),
    ("counterexample example-5-4", 0, "651538658f6f9fb1268078dc708c28654bf883d33c22aa2d9023fafa08883c37"),
    ("counterexample regular-sum", 0, "8d5211d650a3d00fbd4b3efb6dc09099bb5d96728e96315a4a2ee5487c0a96ce"),
    ("counterexample kato-inf", 0, "0fbf47d918b540bf53df77b5d5efb3df02042b20ff36438ef9cf136d01de2bc8"),
    ("counterexample bar-inf", 0, "976b7e399cfadcc114a77efbc416fff5cb532d5343e5af92b6ca5c3ad914d821"),
    ("axioms --instance cone:2 --cap 8", 0, "39d258116236a5a51e98d82ad9a4a05b97e1b1171a0f5a9710f3a8252ea9d5d2"),
    ("axioms --instance cone:3 --cap 3", 0, "d3abbb5b957c51dc7f7fc507c25381d5311d65fa846c6ffcf23f7216ab51616a"),
    ("axioms --instance zplus --cap 50", 0, "7760ca1010afd8e9ce7ffd48b59beea8c96713001aef05a9c0ef7718ebbd49e8"),
    ("axioms --instance even-gap --cap 50", 0, "995674e736d98ca60a6df022f0b2ce2955692d37d51636b6d09dce9843771be6"),
    ("axioms --instance interval:3,2 --cap 8", 0, "17b34de2a5ec4d37449539afadffe36f7cb421b082f7bfdb7dbc93200178bba7"),
    ("axioms --instance half-open:3,3 --cap 8", 0, "80685dbfb97764aa27e8c878572f16880255bc1271552143cd8c401c96f633cc"),
    ("axioms --instance broken-max --cap 8", 1, "791ace7c1f270b88aee28a2f88f1343be7c9273b3e074f071d17114458f091fa"),
    # the sampled path: the benchmark's ten families, and a sampled counterexample
    ("axioms --family sf --samples 500", 0, "f3a257038613b123add5822e2310030a98061f464b9cfdc0a9f37e1005e4d9e9"),
    ("axioms --family vf-bar --samples 500", 0, "ade5fa6f1f47fa6b1929e2d8e087d440d93ddeeb4033496b388caf0906da3b66"),
    ("axioms --family rf --samples 500", 0, "cd1c79b937ea3db57e5e4590e20b8bb144ef2fae9c9ca4afc03e1be5148ddd11"),
    ("axioms --family bf --samples 500", 0, "9c7a6b2eb50f3dc604c5ad4aee3472282a77cd3e8fcf02fd1799e4e5d45db58b"),
    ("axioms --family cf --samples 500", 0, "56ee170c740518884c3d07bab6de19116695f06aec686a747844dc998b389d7d"),
    ("axioms --family sa --samples 500", 0, "b6609ac0bed1e291098fe48097fa8d830ca6abe50874c37cf32d1bfc40f9f169"),
    ("axioms --family vfd:h1_grid --samples 500", 0, "b4c9f939a2e013f6a976ba4edfc240d82c72b4a20a38271edca3d1cb2c3d4365"),
    ("axioms --family gf --samples 500", 0, "00110567fe064c2d2aef56060dbf50db84d902491db4d0174c05f6996dc2c788"),
    ("axioms --family vh --samples 500", 0, "22717881b129ceffbd5f8446e709ea77c888f41c8b14eb4775b11e6d7f025795"),
    ("axioms --family vf --samples 500", 0, "a3fc733cd430536bf69558b89f50e4f266cb64e7d56629455ee8e8fef02d43fe"),
    # the sequence model, where the plain sum of two sampled forms can be undefined
    ("axioms --family vf --model sequence --samples 500", 0, "b5b2f3c1a0cde310471a2d170879fdf800798c2c0fa7423cb77b6502d1ced00a"),
    ("axioms --family vf-bar --model sequence --samples 500", 0, "0c9f81b966b678907f17845db728fc3cccd69422010e99505eb734739b0fd2d2"),
    ("axioms --family rf --model sequence --samples 500", 0, "2b8b409daa666822c4b15ed06728c439399f43b2bb6e752101bfbad47d126ef6"),
    ("axioms --family cf --model sequence --samples 500", 0, "11c7b77b868f630f8fd10150d6db2c22bb9e424af587fb893f3ce1d8d11ce6ce"),
    ("axioms --family sf --model sequence --samples 500", 0, "36512cadaadce42f249f527d327418d20b431b78e2598ad26d466a41cd718f69"),
    (
        "axioms --instance broken-max --cap 8 --mode sampled",
        1,
        "bf53bf4d07a6ebf15086c0a563c3149bdf34ee8b3802db53abe35ea837596c4d",
    ),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN_JSON, ids=[g[0] for g in GOLDEN_JSON])
def test_json_bytes_match_golden_digest(command, code, digest, capsys):
    assert cli.main(command.split() + ["--seed", "7", "--format", "json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the text these runs print at --seed 7: the text keeps the
# report's key order, which JSON's sorted keys do not show
GOLDEN_TEXT = [
    ("counterexample remark-2-2", 0, "1dc31251b8dd8b469797fd78c6058feec9a55f5ffc583addb599cc53109938bc"),
    ("counterexample regular-sum", 0, "a705e933ea2189240619e9bca6311b354d230594db665f79fbe42331dccd00d7"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN_TEXT, ids=[g[0] for g in GOLDEN_TEXT])
def test_text_bytes_match_golden_digest(command, code, digest, capsys):
    assert cli.main(command.split() + ["--seed", "7", "--format", "text"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of every chain x order run's JSON at --seed 7, less the pointwise
# block (GOLDEN_POINTWISE pins it), dumped again with sorted keys: the order
# layer decides the bound searches and monotone checks these pin
GOLDEN_CHAIN = [
    ("kato", "oplus", 0, "7e8c9f7384787cdf2ecf044a2908d2a96680bddccfd53b504b0cc32bcda5df10"),
    ("kato", "prec", 0, "33b32ad6a9a4d96918a184bf759306c453501b63a30120958e36a525cba97be3"),
    ("kato", "cf", 0, "2f875f2ba963ee2ee4f28178fbaa0022ce9fd77fc192b78d66d48f40d42449e4"),
    ("kato", "rf", 0, "4a21a48e8eb9c959902e5babcd67665b3fdcc99939c2a268d2c3222aeb577c4e"),
    ("kato", "bar", 0, "52f80e6e8ae8ebc00f1d09c33c5ba708fcc7079c614b9a7e9d0f9bc30eb30f77"),
    ("shifted", "oplus", 0, "38d3cd5155ea7a341c3ef46a96a4ea9295a50fdb512274c76ce51995a10c3479"),
    ("shifted", "prec", 0, "c03316517977e3bd94c9eecfefa7cf46f1fbfa67ded6d7990d310e336f5fee33"),
    ("shifted", "cf", 0, "250cb47c89629c63f4fc397ce7cf5c577bcf3aa612abc7f064180369a0aea93d"),
    ("shifted", "rf", 0, "5af6d26a6aced3782fc350dc8e75e868746863d9ab0aae935ca99b1952de25d5"),
    ("shifted", "bar", 0, "2ccac8b44c8d5e7da2127978141d3597e537f01d36b733ab5502d004e9db4848"),
    ("complement", "oplus", 0, "36cf0c59ed8bbed5d486f34119b63abefbe4a6080fdb7ded7a121063ce73f756"),
    ("complement", "prec", 0, "10771caba030468a64371e42a123529de4deb78a91308b2a423336d4764990a2"),
    ("complement", "cf", 0, "beafa29cc5ad8cdf5ecdedf4a89ce7065bc7c0bf38f9bb44fcee7765dc7b31d8"),
    ("complement", "rf", 0, "a6a798e487d191c9fdb39a8f8b90f1a9d0751134ed96d856470e56301611d516"),
    ("complement", "bar", 0, "1b7b01fd0d2c24f27db269c7db2aada2ade8483e77ece347cd99b2c55448291d"),
    ("diag", "oplus", 0, "52c9b462a5e703476a64a8409db6fb0e43f02d147beecf34506cd3f90afdb0ed"),
    ("diag", "prec", 0, "19a933472256492b0e809df02d262c777442302706791b38732670b3d0d967c9"),
    ("diag", "cf", 1, "d4602275a25ae6c160df9c83cb8140a3edc1929a1579b31a9bf0ff376193edff"),
    ("diag", "rf", 1, "86d1a1b9f8c595592bdd15383da5869a9887052eab27e3c1fae39feadf6fd62e"),
    ("diag", "bar", 1, "061b9cc0ca7f8596a52a48445a9d90cef3b0a0c7da34d041d67104ae5cb44a7a"),
    ("bounded", "oplus", 0, "ef99438838dd9c9aa3dfe9a55f37f7152221b130fa38f8ee1c60d077316c71c2"),
    ("bounded", "prec", 0, "23f08b3479be631008f0db0671b64540bbb50360cec139dcf98a93d0f1ab5fe4"),
    ("bounded", "cf", 0, "da1dc8df775aa35d219946e2c6ae9f6fc34d488eabf6ae5ee533f03ebc787f4e"),
    ("bounded", "rf", 0, "6f8ede5ca244b51bb87fbc6a43bb22c70514d16a4798a2b51d070d9d4000b729"),
    ("bounded", "bar", 0, "e7b095c381f94f57342cae25a35847fecc3dad62df31b37957c2727720f1b386"),
]


@pytest.mark.parametrize("chain, order, code, digest", GOLDEN_CHAIN, ids=[f"{c}-{o}" for c, o, _, _ in GOLDEN_CHAIN])
def test_chain_runs_match_golden_digest(chain, order, code, digest, capsys):
    assert cli.main(["chain", "--chain", chain, "--order", order, "--seed", "7", "--format", "json"]) == code
    body = json.loads(capsys.readouterr().out)
    body["report"].pop("pointwise", None)
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == digest


# sha256 of each chain's pointwise block at the default levels, dumped again
# with sorted keys: its gaps are exact rationals, each rounded once to a float
GOLDEN_POINTWISE = {
    "kato": "3ec7eda4235f2812397b01008b0ebd6fb1990d9a2cfc329c34ffe11bffe61fc0",
    "shifted": "3ed45854fbd1228d38a0b6c585c231b6ee12555ab935612b40aa57113b23adc4",
    "complement": "8fcd990e48fcaa42092cdef72ece508f1196c111dc7d55b5f80483a0952f4b4f",
    "diag": "1532d4144da22a4a5301485c109c069c28915d74340aa1160a9e143e65bb8b50",
    "bounded": "4094c28dc962de8ed5aebe6daee4156bdf7d4f00d705bb2db3fa628ee3c6e733",
}


@pytest.mark.parametrize("chain", chains.CHAIN_IDS)
def test_pointwise_block_matches_golden_digest_at_every_seed(chain, capsys):
    # no random vector is left, so the seed moves no byte of the block
    blocks = []
    for seed in ("0", "7"):
        assert cli.main(["chain", "--chain", chain, "--seed", seed, "--format", "json"]) == 0
        blocks.append(json.loads(capsys.readouterr().out)["report"]["pointwise"])
    assert blocks[0] == blocks[1]
    assert hashlib.sha256(json.dumps(blocks[0], sort_keys=True).encode()).hexdigest() == GOLDEN_POINTWISE[chain]


def test_golden_chain_runs_cover_every_chain_and_order():
    assert [(c, o) for c, o, _, _ in GOLDEN_CHAIN] == [(c, o) for c in chains.CHAIN_IDS for o in chains.ORDERS]


def test_sigma_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli.main(["sigma", "--n-max", "8", "--seed", "7", "--format", "json", "--out", str(p)])
        assert code == 0
    capsys.readouterr()
    a, b = (p.read_bytes() for p in paths)
    assert a == b and a  # byte-identical reruns


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(
        ["counterexample", "regular-sum", "--format", "json", "--out", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    body = json.loads(target.read_text())
    assert body["schema"] == "gealab/1"


def test_out_into_missing_directory_is_config_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(
            ["counterexample", "regular-sum", "--format", "json", "--out", str(target)], capsys
        )
        assert code == 2 and not out
        assert err.startswith("config error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_out_the_os_refuses_is_one_config_line(tmp_path, capsys):
    target = tmp_path / ("x" * 300)
    code, out, err = run_cli(["sigma", "--n-max", "3", "--out", str(target)], capsys)
    assert code == 2 and not out
    assert err == f"config error: --out {str(target)!r}: {os.strerror(errno.ENAMETOOLONG)}\n"
    assert list(tmp_path.iterdir()) == []


def test_out_name_longer_than_the_directory_takes_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(chains, "sigma_report", no_work)
    target = tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
    code, out, err = run_cli(["sigma", "--n-max", "3", "--out", str(target)], capsys)
    assert code == 2 and not out
    assert err == f"config error: --out {str(target)!r}: {os.strerror(errno.ENAMETOOLONG)}\n"
    assert list(tmp_path.iterdir()) == []


class _FullDisk:
    """An --out file whose write stops part of the way, as on a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_out_whose_write_fails_is_one_config_line_and_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "open", _FullDisk, raising=False)
    target = tmp_path / "report.json"
    code, out, err = run_cli(["counterexample", "regular-sum", "--out", str(target)], capsys)
    assert code == 2 and not out
    assert err == f"config error: --out {str(target)!r}: {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["--seed", "GEALAB_SEED"])
@pytest.mark.parametrize(
    "argv",
    [["chain", "--chain", "kato"], ["sigma"], ["axioms", "--family", "bf"], ["counterexample", "regular-sum"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_refused_before_any_work(argv, source, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("meet_in_family", "join_in_family", "sigma_report"):
        monkeypatch.setattr(chains, name, no_work)
    monkeypatch.setattr(kernel, "check_axioms", no_work)
    monkeypatch.setitem(cli._CE_HANDLERS, "regular-sum", no_work)
    if source == "--seed":
        argv = argv + ["--seed", "-1"]
    else:
        monkeypatch.setenv("GEALAB_SEED", "-1")
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and not out
    assert err == f"config error: {source}=-1 is negative; a seed is a non-negative integer\n"


def test_axioms_exhaustive_work_is_bounded(monkeypatch, capsys):
    add, add_arrays = instances.ConeGEA.add, instances.ConeGEA.add_arrays

    def no_add(self, a, b):
        raise AssertionError("the sum table was built")

    monkeypatch.setattr(instances.ConeGEA, "add", no_add)
    monkeypatch.setattr(instances.ConeGEA, "add_arrays", no_add)
    code, out, err = run_cli(["axioms", "--instance", "cone:2"], capsys)
    monkeypatch.setattr(instances.ConeGEA, "add", add)
    monkeypatch.setattr(instances.ConeGEA, "add_arrays", add_arrays)
    assert code == 2 and not out
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "--cap" in err and "--mode sampled" in err
    code, body, _ = run_json(["axioms", "--instance", "cone:2", "--cap", "8"], capsys)
    assert code == 0 and body["ok"]
    assert body["report"]["samples_tested"] == 81 + 81**2 + 81**3


def test_axioms_refuses_an_oversized_carrier_unread(monkeypatch, capsys):
    def no_iter(self):
        raise AssertionError("the carrier was enumerated")

    monkeypatch.setattr(instances._Lazy, "__iter__", no_iter)
    for mode in ("exhaustive", "sampled"):
        code, out, err = run_cli(["axioms", "--instance", "cone:40", "--cap", "1", "--mode", mode], capsys)
        assert code == 2 and not out
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(2**40) in err


def test_text_format_renders(capsys):
    code, out, _ = run_cli(["counterexample", "regular-sum"], capsys)
    assert code == 0
    assert not out.lstrip().startswith("{")
    assert "two_of_three_violated: True" in out


def test_chain_and_sigma_text_format(capsys):
    # kato's exact gaps are 4/n; diag's operator gaps are square roots
    code, body, _ = run_json(["chain", "--chain", "diag", "--n-max", "4"], capsys)
    code_text, out, _ = run_cli(["chain", "--chain", "diag", "--n-max", "4"], capsys)
    assert code == code_text == 0
    lines = out.splitlines()
    # plain list items, and floats at 12 significant digits
    assert lines[lines.index("    n_values:") + 1 : lines.index("    n_values:") + 4] == [
        "      - 1",
        "      - 2",
        "      - 4",
    ]
    pointwise = body["report"]["pointwise"]
    gaps = [row["max_gap"] for row in pointwise["table"]]
    assert [line.strip() for line in lines if "max_gap:" in line] == [f"max_gap: {g:.12g}" for g in gaps]
    operator_gaps = [row["gap"] for row in pointwise["operator_gaps"]]
    assert [line.strip() for line in lines if line.strip().startswith("gap: ")] == [f"gap: {g:.12g}" for g in operator_gaps]
    assert any(len(f"{g:.12g}".replace(".", "")) == 12 for g in operator_gaps)
    code, out, _ = run_cli(["sigma", "--n-max", "8"], capsys)
    assert code == 0 and "ok: True" in out.splitlines()
    assert "        - 1*energy on h1_grid [grid]" in out.splitlines()


def test_counterexample_error_exits_one_with_error_field(monkeypatch, capsys):
    def fails():
        raise GealabError("no witness today")

    monkeypatch.setitem(cli._CE_HANDLERS, "regular-sum", fails)
    code, body, _ = run_json(["counterexample", "regular-sum"], capsys)
    assert code == 1 and not body["ok"]
    assert body["report"] == {"error": "no witness today"}


def test_sigma_error_exits_one_with_error_field(monkeypatch, capsys):
    def fails(**kwargs):
        raise GealabError("no table today")

    monkeypatch.setattr(chains, "sigma_report", fails)
    code, body, _ = run_json(["sigma", "--n-max", "8"], capsys)
    assert code == 1 and not body["ok"]
    assert body["report"] == {"error": "no table today", "witness": {"n_max": 8}}


@pytest.mark.parametrize("instance, verdict", [("zplus", 0), ("broken-max", 1)])
def test_closed_stdout_keeps_the_verdict_code(instance, verdict):
    cmd = [sys.executable, "-m", "gealab.cli", "axioms", "--instance", instance, "--cap", "3", "--format", "json"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the child is still importing, so it writes to a closed pipe
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == verdict
    assert err == b""


def test_closed_stdout_of_python_dash_m_gealab_sigma():
    # the reader goes before the child writes: the rest of the report goes nowhere, quietly
    proc = subprocess.Popen(
        [sys.executable, "-m", "gealab", "sigma", "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("GEALAB_SEED", "5")
    code, body, _ = run_json(["axioms", "--family", "bf", "--samples", "150"], capsys)
    assert code == 0 and body["config"]["seed"] == 5
    monkeypatch.setenv("GEALAB_SEED", "five")
    code, _, err = run_cli(["sigma"], capsys)
    assert code == 2 and "GEALAB_SEED" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gealab.cli", "counterexample", "regular-sum", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_cli_import_does_not_load_scipy():
    # nor argparse and its gettext, whose cold start the table parser avoids
    proc = subprocess.run(
        [sys.executable, "-c", "import gealab.cli, sys; print(sorted({'scipy', 'argparse', 'gettext'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_console_script_targets_cli_main():
    # the `gealab` console script, checked from pyproject.toml without an install
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gealab"]
    assert target == "gealab.cli:main"
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main


# ------------------------------------------------------------ argv fuzz

_LAMS = ("j", "j^2", "1/j", "1/j^2", "const:2", "const:1/2", "const:0", "const:x", "k", "", "j^j")
_TAGS = ("h1_grid", "finite_support", "full", "bogus", "", *(f"diag_max:{lam}" for lam in _LAMS))
_FUZZ_CALLS = 120
# no drawn call comes near this: a slow one has lost its bound
_FUZZ_WALL_S = 20.0


def _pick(rng, inside, refused):
    """A value inside its bound, or now and then one the CLI refuses before any work."""
    return rng.choice(refused) if rng.random() < 0.2 else rng.choice(inside)


def _fuzz_argv(rng, tmp_path):
    """One argv the parser accepts, drawn from the CLI grammar; an --out,
    when drawn, is a name too long for the OS under ``tmp_path``."""
    command = rng.choice(("instance", "family", "counterexample", "chain", "sigma"))
    if command == "instance":
        small = rng.choice(
            ["zplus", "even-gap", "broken-max", "zplus:3", "cone:x", "hilbert-hotel", "interval:x,1"]
            + [f"cone:{d}" for d in range(4)]
            + [f"{kind}:{u}" for kind in ("interval", "half-open") for u in ("3", "2,2", "1,2,2", "0", "-1")]
        )
        argv = ["axioms", "--instance", small, "--cap", str(_pick(rng, range(5), [-1]))]
        if rng.random() < 0.1:  # far past the exhaustive bound, refused before a sum is taken
            argv = ["axioms", "--instance", rng.choice(["cone:40", "interval:99,99,99", "cone:2"]), "--cap", "50"]
        elif rng.random() < 0.5:
            argv += ["--mode", "sampled", "--samples", str(_pick(rng, range(1, 40), [0, -2, kernel.MAX_SAMPLES + 1]))]
    elif command == "family":
        family = rng.choice([*families.FAMILIES, "vfd", "zz", "rf:h1_grid", *(f"vfd:{tag}" for tag in _TAGS)])
        argv = ["axioms", "--family", family, "--samples", str(_pick(rng, range(1, 40), [0, -2, kernel.MAX_SAMPLES + 1]))]
        model = rng.choice([None, None, None, None, "grid", "sequence", "bogus"])
        if model:
            argv += ["--model", model]
        if rng.random() < 0.1:
            argv += ["--mode", "exhaustive"]
    elif command == "counterexample":
        argv = ["counterexample", rng.choice(cli.COUNTEREXAMPLES)]
    elif command == "chain":
        chain = rng.choice([*chains.CHAIN_IDS, "bogus"])
        argv = ["chain", "--chain", chain, "--n-max", str(_pick(rng, range(2, 7), [1, 0, -3, chains.MAX_N_MAX + 1]))]
        order = rng.choice([None, *chains.ORDERS, "sf", "vfd:h1_grid"])
        if order:
            argv += ["--order", order]
        if rng.random() < 0.4:
            argv += ["--levels", _pick(rng, ["9", "3,5", "17,33", "60"], ["0", "-1", "", "2000", "600,600"])]
    else:
        argv = ["sigma", "--n-max", str(_pick(rng, range(2, 6), [1, 0, -3, chains.MAX_N_MAX + 1]))]
    if rng.random() < 0.05:
        argv += ["--out", str(tmp_path / ("o" * 300))]
    return argv + ["--seed", str(_pick(rng, range(1000), [-1, -999])), "--format", rng.choice(("text", "json"))]


def test_fuzzed_argv_ends_in_a_verdict_or_one_config_line(tmp_path, monkeypatch, capsys):
    # calls run one at a time in this process: the test starts no process
    monkeypatch.delenv("GEALAB_SEED", raising=False)
    rng = random.Random(7)
    codes = set()
    for _ in range(_FUZZ_CALLS):
        argv = _fuzz_argv(rng, tmp_path)
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out.err, argv
        if code == 2:
            assert not out.out and out.err.startswith("config error:") and out.err.count("\n") == 1, argv
        else:
            assert out.out and not out.err, argv
        assert elapsed < _FUZZ_WALL_S, argv
        codes.add(code)
    assert codes == {0, 1, 2}


def _corrupt(rng, argv):
    """``argv`` with one usage error: a dropped value, an unknown flag, a
    non-integer, a bad choice, a flag before the subcommand, or a bad ``--flag=value``."""
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    how = rng.randrange(6)
    if how == 0:
        drop = rng.choice(flags) + 1
        return argv[:drop] + argv[drop + 1 :]
    if how == 1:
        return argv + ["--tol", "1e-9"]
    if how == 2:
        return argv + ["--cap", "x"]
    if how == 3:
        return argv[:-1] + ["xml"]  # the drawn argv ends in --format <value>
    if how == 4:
        return ["--seed", "3"] + argv
    return argv + [rng.choice(["--seed=x", "--seed=", "--format=xml", "--format=", "--samples=1.5", "--n-max=two"])]


def test_fuzzed_usage_errors_end_in_one_config_line(tmp_path, monkeypatch, capsys):
    # every corruption is refused by the parse, before any work
    monkeypatch.delenv("GEALAB_SEED", raising=False)
    rng = random.Random(29)
    for _ in range(_FUZZ_CALLS):
        argv = _corrupt(rng, _fuzz_argv(rng, tmp_path))
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out, argv
        assert err.startswith("config error:") and err.count("\n") == 1, argv
