"""The benchmark's tracer changes no output.

``perfbench/layertrace.py`` swaps every public function of the layers for a
counting wrapper, and after every ``preceq`` it computes an extra
``ominus_forms``, which makes forms, supports and plans in an order the plain
run never sees.  A cache keyed by too little, by the ``id()`` of a freed
object, or by a function's identity or attributes, shows here first.

Every command of the benchmark's ``verdict-table`` workload, and two sampled
axiom checks, run one after another in one process per mode, plain and
traced; each command's output bytes and exit code must agree.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy", reason="the tracer wraps scipy.linalg.eigh, so it imports scipy")

ROOT = Path(__file__).resolve().parents[1]

RUN = """
import contextlib, io, json, sys
from gealab import cli
if sys.argv[1] == "traced":
    sys.path.insert(0, {perfbench!r})
    from layertrace import Tracer
    main = cli.main
    Tracer().install()
    assert cli.main is not main
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
""".format(perfbench=str(ROOT / "perfbench"))

VERDICT_TABLE = (
    ["sigma"],
    *(["chain", "--chain", chain] for chain in ("shifted", "complement", "kato", "diag", "bounded")),
    ["chain", "--chain", "diag", "--order", "cf"],
    *(["counterexample", name] for name in ("example-5-4", "regular-sum", "kato-inf", "bar-inf")),
)
AXIOMS = tuple(["axioms", "--family", family] for family in ("vf", "vf-bar"))
COMMANDS = (*VERDICT_TABLE, *AXIOMS)
SAMPLES = ["--samples", "300"]


@pytest.fixture(scope="module")
def runs():
    """(exit code, stdout) of every command, plain and traced."""
    argvs = json.dumps(
        [[*argv, *(SAMPLES if argv in AXIOMS else ()), "--seed", "0", "--format", "json"] for argv in COMMANDS]
    )
    out = {}
    for mode in ("plain", "traced"):
        proc = subprocess.run([sys.executable, "-c", RUN, mode, argvs], capture_output=True, timeout=300)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr.decode()[-2000:]
        out[mode] = json.loads(proc.stdout)
    return out


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(argv) for argv in COMMANDS])
def test_output_is_the_same_under_the_tracer(runs, index):
    plain, traced = runs["plain"][index], runs["traced"][index]
    assert plain[1]
    assert traced == plain
