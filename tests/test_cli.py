"""End-to-end CLI behavior: exit codes, envelopes, determinism."""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gealab import chains, cli, families, hilbert, instances
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


def test_counterexample_unknown_name():
    with pytest.raises(SystemExit) as info:
        cli.main(["counterexample", "russell"])
    assert info.value.code == 2


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
    calls = []
    numeric = families._preceq_numeric
    monkeypatch.setattr(families, "_preceq_numeric", lambda t, s: calls.append(1) or numeric(t, s))
    code, body, _ = run_json(["counterexample", "example-5-4"], capsys)
    assert code == 0 and body["report"]["evidence"]["each_dominator_bounds_chain"]
    assert len(calls) == 171


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
    for argv, ids in (
        (["axioms", "--help"], [b if f.model else f"{b}:<tag>" for b, f in families.FAMILIES.items()]),
        (["chain", "--help"], list(chains.CHAIN_IDS)),
        (["chain", "--help"], list(chains.ORDERS)),
    ):
        with pytest.raises(SystemExit):
            cli.main(argv)
        text = " ".join(capsys.readouterr().out.split())
        assert " | ".join(ids) in text


def test_fixed_domain_families_on_sequence_tags(capsys):
    for family in ("vfd:finite_support", "vfd:diag_max:j"):
        code, body, _ = run_json(["axioms", "--family", family, "--samples", "500"], capsys)
        assert code == 0 and body["ok"], family
        assert body["report"]["algebra"] == f"FormsGEA({family!r}, model='sequence')"
    code, out, err = run_cli(["axioms", "--family", "vfd:finite_support", "--model", "grid"], capsys)
    assert code == 2 and not out and err.startswith("config error:")


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

    def pointwise_limit(chain, levels, seed, n_max):
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
    for chain, levels in (("diag", str(bound)), ("kato", str(bound - 2)), ("diag", "512,512")):
        assert run_cli(["chain", "--chain", chain, "--levels", levels], capsys)[0] == 0
    assert seen == [(bound,), (bound - 2,), (512, 512)]


def test_chain_unparsable_levels_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chain", "--chain", "kato", "--levels", "a,b"])
    assert exc.value.code == 2
    assert "bad level list 'a,b'" in capsys.readouterr().err


def test_chain_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chain", "--chain", "kato", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


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
    rows = chains.sigma_report(n_max=8)["rows"]
    assert {(r["family"], r["direction"], r.get("order")) for r in rows} == set(cli._EXPECTED_SIGMA)
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


# sha256 of the JSON these runs print at --seed 7: a change that moves a
# byte of these float-free reports has to say so here
GOLDEN_JSON = [
    ("sigma", 0, "a3e5b852d9154384bdf81eef54c48015e9382b766e5f3c4c2113bec19a9f74d1"),
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
    code, body, _ = run_json(["chain", "--chain", "kato", "--n-max", "4"], capsys)
    code_text, out, _ = run_cli(["chain", "--chain", "kato", "--n-max", "4"], capsys)
    assert code == code_text == 0
    lines = out.splitlines()
    # plain list items, and floats at 12 significant digits
    assert lines[lines.index("    n_values:") + 1 : lines.index("    n_values:") + 4] == [
        "      - 1",
        "      - 2",
        "      - 4",
    ]
    gaps = [row["max_gap"] for row in body["report"]["pointwise"]["table"]]
    assert [line.strip() for line in lines if "max_gap:" in line] == [f"max_gap: {g:.12g}" for g in gaps]
    assert any(len(f"{g:.12g}".replace(".", "")) == 12 for g in gaps)
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
    proc = subprocess.run(
        [sys.executable, "-c", "import gealab.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_console_script_targets_cli_main():
    # the `gealab` console script, checked from pyproject.toml without an install
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gealab"]
    assert target == "gealab.cli:main"
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
