"""The benchmark's tracer changes no output.

``perfbench/layertrace.py`` swaps every public function of the layers for a
counting wrapper, and after every ``preceq`` it computes an extra
``ominus_forms``, which makes forms, supports and plans in an order the plain
run never sees.  A cache keyed by too little, by the ``id()`` of a freed
object, or by a function's identity or attributes, shows here first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy", reason="the tracer wraps scipy.linalg.eigh, so it imports scipy")

ROOT = Path(__file__).resolve().parents[1]

RUN = """
import sys
from gealab import cli
if sys.argv.pop(1) == "traced":
    sys.path.insert(0, {perfbench!r})
    from layertrace import Tracer
    main = cli.main
    Tracer().install()
    assert cli.main is not main
sys.exit(cli.main(sys.argv[1:]))
""".format(perfbench=str(ROOT / "perfbench"))

COMMANDS = (
    ["sigma"],
    ["chain", "--chain", "diag"],
    ["counterexample", "example-5-4"],
    ["axioms", "--family", "vf-bar", "--samples", "300"],
)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_output_is_the_same_under_the_tracer(argv):
    runs = [
        subprocess.run(
            [sys.executable, "-c", RUN, mode, *argv, "--format", "json"], capture_output=True, timeout=120
        )
        for mode in ("plain", "traced")
    ]
    plain, traced = runs
    assert plain.stdout and not plain.stderr and not traced.stderr, traced.stderr.decode()[-2000:]
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
