"""gealab benchmark: time to a correct verdict, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verdict-table --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of ops.  An op is a ``gealab.cli.main(argv)``
invocation or, where the CLI has no entry point, a public library call.
Every op runs in a fresh worker interpreter (``worker.py``), one at a time,
in a closed loop with a single client, so ``lru_cache``s start cold as they
do for every CLI user.  Every outcome is checked against the hand-written
table in ``expected.py``.

``--trace 0`` runs every op once and then, among the ops expected to end
within ``--seconds``, the one whose next sample most reduces the relative
errors of ``wall_s`` and ``cmd_max_s`` per second it takes (``gain``), so
the slow ops, and most of all the slowest, get the most samples.

On a shared 2-vCPU Xeon host the same op's time varies by up to 2x
within minutes as other tenants load the host.  So between untraced
workers this process, pinned with its workers to one CPU, times a fixed
reference loop (``reference_loop``, no gealab code), and each of a
worker's times is scaled by ``REF_S`` over the mean time of the two
loops before the worker started and the two after it ended (wall time
for wall times, CPU time for CPU times): every time below is in seconds
on a host where the loop takes ``REF_S``.  The unscaled
values are printed and recorded beside them.  It reports the end-to-end
metrics:

    setup_s      median over all workers of spawn -> gealab.cli imported
    wall_s       sum over ops of the op's time to verdict (parse, compute,
                 JSON emit; import excluded), mean of its samples
    cmd_max_s    the slowest op's time to verdict, mean of its samples
    cpu_s        sum over ops of the user+sys CPU of its worker (import
                 and op), mean of its samples
    peak_rss_mb  largest ru_maxrss of any worker (not scaled)

Wrong verdicts, crashes and timeouts are the result's ``failed`` ops out of
``attempted``.  ``--trace 1`` runs one untraced and one traced pass
(``layertrace.py`` wraps the layers from outside) and reports the
per-layer metrics of ``PER_LAYER`` plus the tracing overhead.

Each run writes a record under ``.perfbench/records/``: run metadata, every
sample's outcome, time and output sha256, the ops whose output bytes
differed between samples, and the traced spans.  ``diff_records.py``
compares the output bytes of two records.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from expected import CHECKERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench" / "records"
WORKER = HERE / "worker.py"

REF_S = 0.120  # reference-loop seconds that the scaled times assume
OP_TIMEOUT_S = 60.0  # a hung op fails the run instead of stalling it
RUN_DEADLINE_S = 120.0  # after this every op gets a 1 s timeout, so runs end within 180 s
IMPORT_TIMEOUT_S = 10.0
IMPORT_SAMPLES = 3
# Workers run single-threaded BLAS: on a 2-core machine idle OpenBLAS
# threads spin on the other core, which doubled cpu_s, slowed sigma and
# widened the run-to-run spread.  The inherited values go in the metadata.
WORKER_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BLAS_ENV = (*WORKER_THREAD_ENV, "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INHERITED_BLAS_ENV = {k: os.environ.get(k) for k in BLAS_ENV}

# ------------------------------------------------------------- workloads

# every list runs its slowest ops first
CHAIN_IDS = ("shifted", "complement", "kato", "diag", "bounded")
FAMILIES = ("sf", "vf-bar", "rf", "bf", "cf", "sa", "vfd:h1_grid", "gf", "vh", "vf")
SAMPLES = 2000
# explicit caps: the CLI default --cap 50 on cone:2 runs for hours
INSTANCES = (
    ("cone:2", 8),
    ("cone:3", 3),
    ("zplus", 50),
    ("even-gap", 50),
    ("interval:3,2", 8),
    ("half-open:3,3", 8),
    ("broken-max", 8),
)
DERIVED_ORDER = (((4, 4), 200), ((6, 6), 50))  # (interval bound, chains)


def _cli(kind: str, argv: list[str], seed: int, **info) -> dict:
    argv = argv + ["--seed", str(seed), "--format", "json"]
    return {"name": " ".join(argv[:-4]), "kind": kind, "argv": argv, "seed": seed, **info}


def verdict_table(seed: int) -> list[dict]:
    """The order layer: dense eigensolves and preceq, no integer instances."""
    ops = [_cli("sigma", ["sigma"], seed)]
    ops += [_cli("chain", ["chain", "--chain", c], seed, chain=c) for c in CHAIN_IDS]
    ops.append(_cli("chain", ["chain", "--chain", "diag", "--order", "cf"], seed, chain="diag", order="cf"))
    for name in ("example-5-4", "regular-sum", "kato-inf", "bar-inf"):
        ops.append(_cli("counterexample", ["counterexample", name], seed, name=name))
    return ops


def sampled_axioms(seed: int) -> list[dict]:
    """Symbolic form algebra and family sums, no eigensolves."""
    return [
        _cli("axioms", ["axioms", "--family", f, "--samples", str(SAMPLES)], seed, family=f, samples=SAMPLES)
        for f in FAMILIES
    ]


def _descending_chain(rng: random.Random, bound) -> list[list[int]]:
    a1 = [rng.randint(0, u) for u in bound]
    a2 = [rng.randint(0, x) for x in a1]
    a3 = [rng.randint(0, x) for x in a2]
    return [a1, a2, a3]


def exact_kernel(seed: int) -> list[dict]:
    """Exhaustive axiom sweeps and derived-order queries: kernel and instances only."""
    sweeps = [
        _cli("axioms", ["axioms", "--instance", inst, "--cap", str(cap)], seed, instance=inst)
        for inst, cap in INSTANCES
    ]
    rng = random.Random(seed)
    queries = []
    for bound, count in DERIVED_ORDER:
        chains = [_descending_chain(rng, bound) for _ in range(count)]
        name = f"derived-order interval:{bound[0]},{bound[1]} x{count}"
        queries.append({"name": name, "kind": "derived-order", "bound": list(bound), "chains": chains})
    remark = _cli("counterexample", ["counterexample", "remark-2-2"], seed, name="remark-2-2")
    return sweeps[:1] + queries + sweeps[1:] + [remark]


WORKLOADS = {
    "verdict-table": verdict_table,
    "sampled-axioms": sampled_axioms,
    "exact-kernel": exact_kernel,
}

# ------------------------------------------------------------ running ops


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds for a fixed mix of rational arithmetic, tuple-keyed dict
    updates and dense 200x200 eigensolves, in about equal parts: the kinds
    of work the workloads do; about 0.12 s on a 2.0 GHz Xeon vCPU.  The
    collector is off, so the loop's time does not depend on the heap."""
    import numpy  # after main() has set single-threaded BLAS

    matrix = numpy.add.outer(numpy.arange(200.0), numpy.arange(200.0))
    gc.disable()
    start, cpu_start = time.perf_counter(), time.process_time()
    acc = Fraction(0)
    for i in range(1, 10000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    counts: dict = {}
    for a in range(40):
        for b in range(40):
            for c in range(80):
                key = (a + b, b + c)
                counts[key] = counts.get(key, 0) + 1
    for _ in range(20):
        numpy.linalg.eigvalsh(matrix)
    elapsed = time.perf_counter() - start, time.process_time() - cpu_start
    gc.enable()
    return elapsed


def run_op(op: dict, trace: bool, timeout: float) -> dict:
    """Spawn a worker for one op, wait for it and check its verdict."""
    spec = {k: op[k] for k in ("argv", "bound", "chains") if k in op}
    spec["trace"] = trace
    env = dict(os.environ, **WORKER_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"name": op["name"], "time_s": timeout, "problems": [f"timed out after {timeout:.1f} s"]}
    elapsed = time.monotonic() - spawn
    try:
        w = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return {"name": op["name"], "time_s": elapsed, "problems": [f"worker crashed (exit {proc.returncode}): {tail}"]}
    problems = CHECKERS[op["kind"]](op, w["exit"], w["out"])
    if not w["gealab_file"].startswith(str(SRC)):
        problems.append(f"imported gealab from {w['gealab_file']}, not from {SRC}")
    text = w["out"].encode()
    return {
        "name": op["name"],
        "exit": w["exit"],
        "setup_s": w["ready"] - spawn,
        "time_s": w["end"] - w["start"],
        "cpu_s": w["cpu_s"],
        "maxrss_mb": w["maxrss_kb"] / 1024.0,
        "out_bytes": len(text),
        "sha256": hashlib.sha256(text).hexdigest(),
        "problems": problems,
        "versions": w["versions"],
        "trace": w.get("trace"),
    }


def run_pass(ops: list[dict], trace: bool, deadline: float) -> list[dict]:
    results = []
    for op in ops:
        timeout = max(1.0, min(OP_TIMEOUT_S, deadline - time.monotonic()))
        results.append(run_op(op, trace, timeout))
    return results


def gain(samples: list[list[dict]], j: int) -> float:
    """How much one more sample of op j shrinks the squared relative
    standard errors of ``wall_s`` and ``cmd_max_s``, in units of the
    per-sample variance: (t_j / wall)^2 plus 1 for the slowest op, times
    1/n - 1/(n+1)."""
    means = [statistics.mean(r["time_s"] for r in rs) for rs in samples]
    n = len(samples[j])
    weight = (means[j] / sum(means)) ** 2 + (means[j] == max(means))
    return weight / (n * (n + 1))


def run_cycle(ops: list[dict], seconds: float, deadline: float) -> list[list[dict]]:
    """Untraced samples: every op once, then, among the ops expected to fit
    in ``seconds``, the one with the largest gain per second; per-op lists.
    The reference loop runs before the first op and after each; a sample's
    ``ref_s`` and ``ref_cpu_s`` are the mean wall and CPU times of the two
    loops before its worker started and the two after it ended."""
    samples: list[list[dict]] = [[] for _ in ops]
    last = [0.0] * len(ops)  # each op's last duration, setup included
    refs = [reference_loop()]
    order: list[dict] = []
    start = time.monotonic()
    for i in itertools.count():
        now = time.monotonic()
        if i < len(ops):
            k = i
        else:
            fits = [j for j in range(len(ops)) if now - start + last[j] <= seconds]
            if not fits or now > deadline:
                break
            k = max(fits, key=lambda j: gain(samples, j) / last[j])
        timeout = max(1.0, min(OP_TIMEOUT_S, deadline - now))
        result = run_op(ops[k], False, timeout)
        refs.append(reference_loop())
        samples[k].append(result)
        order.append(result)
        last[k] = time.monotonic() - now
    for n, result in enumerate(order, start=1):  # refs[n] followed order[n - 1]
        near = refs[max(0, n - 2) : n + 2]
        result["ref_s"] = statistics.mean(wall for wall, _ in near)
        result["ref_cpu_s"] = statistics.mean(cpu for _, cpu in near)
    return samples


# --------------------------------------------------------------- metrics


def end_to_end(samples: list[list[dict]]) -> tuple[dict, dict]:
    """End-to-end metrics, each wall time scaled by ``REF_S / ref_s`` of
    its sample and each CPU time by ``REF_S / ref_cpu_s``, and the same
    metrics unscaled."""

    def summary(scaled: bool) -> dict:
        def wall(r):
            return REF_S / r["ref_s"] if scaled else 1.0

        def cpu(r):
            return REF_S / r["ref_cpu_s"] if scaled else 1.0

        times = [statistics.mean(r["time_s"] * wall(r) for r in rs) for rs in samples]
        cpus = [statistics.mean(r["cpu_s"] * cpu(r) for r in rs if "cpu_s" in r) for rs in samples if any("cpu_s" in r for r in rs)]
        setups = [r["setup_s"] * wall(r) for rs in samples for r in rs if "setup_s" in r]
        return {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": sum(times),
            "cmd_max_s": max(times),
            "cpu_s": sum(cpus),
        }

    rss = [r["maxrss_mb"] for rs in samples for r in rs if "maxrss_mb" in r]
    metrics = {name: (value, "s") for name, value in summary(True).items()}
    metrics["peak_rss_mb"] = (max(rss, default=0.0), "MB")
    refs = [r["ref_s"] for rs in samples for r in rs]
    return metrics, {"ref_median_s": statistics.median(refs), **summary(False)}


# trace keys summed into each group; a group gives <group>.calls and <group>.self_s
_GROUPS = {
    "eig": lambda k: k.startswith("eig."),
    "families.preceq": {"families.preceq"},
    "forms.matrix_at": {"forms.matrix_at"},
    "hilbert": lambda k: k.startswith("hilbert."),
    "forms.make_form": {"forms.make_form"},
    "forms.form_add": {"forms.form_add"},
    "forms.reg_sing_split": {"forms.reg_sing_split"},
    "forms.is_bounded": {"forms.is_bounded"},
    "families.sum": {"families.oplus", "families.oplus_bar", "families.oplus_family"},
    "families.in_family": {"families.in_family"},
    "families.sample": {"families.sample_form", "families.sample_operator"},
    "families.order": {"families.le_oplus", "families.le_bar", "families.le_family"},
    "families.ominus_forms": {"families.ominus_forms"},
    "kernel.check_axioms": {"kernel.check_axioms"},
    "kernel.order": {"kernel.derived_le", "kernel.ominus"},
    "kernel.meet_join": {
        "kernel.brute_meet",
        "kernel.brute_join",
        "kernel.meet_via_complement_join",
        "kernel.join_via_complement_meet",
    },
    "kernel.is_sub_gea": {"kernel.is_sub_gea"},
    "instances.add": lambda k: k.startswith("instances.") and k.endswith(".add"),
    "instances.elements": lambda k: k.startswith("instances.") and k.endswith(".elements"),
    "chains.check_monotone": {"chains.check_monotone"},
    "chains.pointwise_limit": {"chains.pointwise_limit"},
    "chains.meet_join": {
        "chains.meet_in_family",
        "chains.join_in_family",
        "chains.join_obstruction_vf",
        "chains.cf_prec_sup",
    },
    "chains.sigma_report": {"chains.sigma_report"},
    "cli.main": {"cli.main"},
    "cli.json_dumps": {"json.dumps"},
    "forms": lambda k: k.startswith("forms."),
    "families": lambda k: k.startswith("families."),
    "kernel": lambda k: k.startswith("kernel."),
    "instances": lambda k: k.startswith("instances."),
    "chains": lambda k: k.startswith("chains."),
    "cli": lambda k: k.startswith("cli."),
}

PER_LAYER = {
    "import.scipy_s": "s",
    "import.gealab_s": "s",
    "import.modules": "count",
    "eig.calls": "count",
    "eig.self_s": "s",
    "eig.dim_max": "count",
    "eig.n3_sum": "n3-computed",  # sum of n^3 over eigensolves, not a measured count
    "families.preceq.calls": "count",
    "families.preceq.self_s": "s",
    "families.preceq.atomwise_certifiable": "count",
    "forms.matrix_at.calls": "count",
    "forms.matrix_at.misses": "count",
    "forms.matrix_at.self_s": "s",
    "hilbert.calls": "count",
    "hilbert.self_s": "s",
    "forms.make_form.calls": "count",
    "forms.make_form.self_s": "s",
    "forms.form_add.calls": "count",
    "forms.form_add.self_s": "s",
    "forms.reg_sing_split.calls": "count",
    "forms.reg_sing_split.self_s": "s",
    "forms.is_bounded.calls": "count",
    "families.sum.calls": "count",
    "families.sum.defined": "count",
    "families.sum.self_s": "s",
    "families.in_family.calls": "count",
    "families.in_family.self_s": "s",
    "families.sample.calls": "count",
    "families.sample.self_s": "s",
    "families.order.calls": "count",
    "families.order.self_s": "s",
    "families.ominus_forms.calls": "count",
    "families.ominus_forms.self_s": "s",
    "kernel.check_axioms.self_s": "s",
    "kernel.tuples_tested": "count",
    "instances.add.calls": "count",
    "instances.add.self_s": "s",
    "kernel.order.calls": "count",
    "kernel.order.self_s": "s",
    "kernel.meet_join.calls": "count",
    "kernel.meet_join.self_s": "s",
    "kernel.is_sub_gea.self_s": "s",
    "instances.elements.calls": "count",
    "instances.elements.items": "count",
    "chains.check_monotone.self_s": "s",
    "chains.pointwise_limit.self_s": "s",
    "chains.meet_join.self_s": "s",
    "chains.sigma_report.self_s": "s",
    "cli.main.calls": "count",
    "cli.json_dumps_s": "s",
    "cli.out_bytes": "bytes",
    "forms.self_s": "s",
    "families.self_s": "s",
    "kernel.self_s": "s",
    "instances.self_s": "s",
    "chains.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def import_profile() -> dict:
    """``python -X importtime -c "import gealab"``, medians of a few runs.

    ``import.scipy_s`` is the cumulative time of the outermost scipy
    imports, so it includes what scipy pulls in that nothing else needs.
    """
    env = dict(os.environ, **WORKER_THREAD_ENV, PYTHONPATH=str(SRC))
    scipy_s, gealab_s, modules = [], [], 0
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gealab"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=IMPORT_TIMEOUT_S,
        )
        rows = []  # (depth, cumulative us, module), children before parents
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                rows.append((len(name) - len(name.lstrip()), int(parts[1]), name.strip()))
        outer_scipy = 0
        ancestors: list[tuple[int, bool]] = []  # (depth, under a scipy import)
        for depth, cumulative, name in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            under = bool(ancestors) and ancestors[-1][1]
            is_scipy = name.split(".")[0] == "scipy"
            if is_scipy and not under:
                outer_scipy += cumulative
            ancestors.append((depth, under or is_scipy))
        scipy_s.append(outer_scipy / 1e6)
        gealab_s.append(sum(c for _, c, name in rows if name == "gealab") / 1e6)
        modules = len(rows)
    return {
        "import.scipy_s": statistics.median(scipy_s),
        "import.gealab_s": statistics.median(gealab_s),
        "import.modules": modules,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    stats: dict[str, list[int]] = {}
    extra: dict[str, int] = {}
    for r in traced:
        trace = r.get("trace") or {"stats": {}, "extra": {}}
        for key, vals in trace["stats"].items():
            acc = stats.setdefault(key, [0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in trace["extra"].items():
            extra[key] = max(extra.get(key, 0), v) if key == "eig.dim_max" else extra.get(key, 0) + v
    out = {}
    for group, sel in _GROUPS.items():
        keys = [k for k in stats if (sel(k) if callable(sel) else k in sel)]
        out[f"{group}.calls"] = sum(stats[k][0] for k in keys)
        out[f"{group}.self_s"] = sum(stats[k][1] for k in keys) / 1e9
    out.update(extra)
    out["cli.json_dumps_s"] = out["cli.json_dumps.self_s"]
    out["cli.out_bytes"] = sum(r.get("out_bytes", 0) for r in traced)
    out["trace.wall_s"] = sum(r["time_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - sum(r["time_s"] for r in untraced)
    out.update(import_profile())
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}


# ----------------------------------------------------------------- record


def unstable_bytes(samples: list[list[dict]]) -> list[str]:
    """Ops whose output bytes differ between samples (not gated)."""
    return [rs[0]["name"] for rs in samples if len({r.get("sha256") for r in rs}) > 1]


def metadata(seed: int, results: list[dict]) -> dict:
    commit = None  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gealab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = next((r["versions"] for r in results if "versions" in r), {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas_env": INHERITED_BLAS_ENV,
        "worker_thread_env": WORKER_THREAD_ENV,
        "unix_time": time.time(),
    }


def write_record(args, meta, samples, metrics, unscaled, unstable, traced=None) -> Path:
    def slim(r):
        return {k: v for k, v in r.items() if k not in ("trace", "versions")}

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "meta": meta,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "unscaled": unscaled,
        "unstable_bytes": unstable,
        "ops": [{"name": rs[0]["name"], "samples": [slim(r) for r in rs]} for rs in samples],
    }
    if traced is not None:
        record["spans"] = {r["name"]: (r.get("trace") or {}).get("spans", []) for r in traced}
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, sort_keys=True))
    return path


# ------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gealab" / "cli.py").is_file():
        print(f"no gealab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # like an installed package, workers read compiled bytecode
    compileall.compile_dir(str(SRC / "gealab"), quiet=1)
    # the reference loop must run on the CPU its workers ran on, and its
    # eigensolves single-threaded as theirs are
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.update(WORKER_THREAD_ENV)

    ops = WORKLOADS[args.workload](args.seed)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        untraced = run_pass(ops, False, deadline)
        traced = run_pass(ops, True, deadline)
        samples = [[u, t] for u, t in zip(untraced, traced)]
        metrics = per_layer(traced, untraced)
        unscaled = None
    else:
        samples = run_cycle(ops, args.seconds, deadline)
        traced = None
        metrics, unscaled = end_to_end(samples)
    results = [r for rs in samples for r in rs]
    failed = [r for r in results if r["problems"]]
    unstable = unstable_bytes(samples)
    meta = metadata(args.seed, results)
    path = write_record(args, meta, samples, metrics, unscaled, unstable, traced)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if unscaled:
        print(f"{'reference loop, median':40s} {unscaled['ref_median_s']:14.6g} s (REF_S {REF_S} s)")
        for name in ("setup_s", "wall_s", "cmd_max_s", "cpu_s"):
            print(f"{'unscaled ' + name:40s} {unscaled[name]:14.6g} s")
    print(f"{'wrong_verdicts':40s} {len(failed):14d} of {len(results)} op runs")
    for r in failed:
        print(f"  FAILED {r['name']}: {'; '.join(r['problems'])}")
    for name in unstable:
        print(f"  output bytes changed between samples: {name}")
    print(f"record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
