"""Run one benchmark op in this fresh interpreter and print its record.

Usage: python3 worker.py '<op spec as JSON>'

The spec holds either ``argv`` (a ``gealab.cli.main`` invocation) or an
interval ``bound`` with descending ``chains`` for the derived-order queries.
``trace: true`` wraps the gealab layers before the op runs.  The last
line on stdout is one JSON object: monotonic time stamps, exit code, the
op's output text, CPU and peak memory of this process, and the trace.
"""

import contextlib
import io
import json
import resource
import sys
import time

import gealab
import gealab.cli
from gealab import instances, kernel

READY = time.monotonic()


def derived_order(bound, chains) -> int:
    """Meets and joins of descending chains in the interval [0, bound],
    each computed by the complement routes and by exhaustive scan."""
    top = tuple(bound)
    alg = instances.make_interval_ea(top)
    results = []
    for chain in chains:
        chain = [tuple(a) for a in chain]
        results.append(
            [
                kernel.meet_via_complement_join(alg, chain),
                kernel.join_via_complement_meet(alg, chain[::-1], top),
                kernel.brute_meet(alg, chain),
                kernel.brute_join(alg, chain),
            ]
        )
    print(json.dumps({"bound": list(top), "results": results}, sort_keys=True))
    return 0


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        if "argv" in spec:
            try:
                code = gealab.cli.main(spec["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        else:
            code = derived_order(spec["bound"], spec["chains"])
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    import numpy
    import scipy

    record = {
        "ready": READY,
        "start": start,
        "end": end,
        "exit": code,
        "out": out.getvalue(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "gealab_file": gealab.__file__,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
