"""Command-line interface.

Four subcommands: ``axioms`` (exhaustive or sampled axiom suites),
``counterexample`` (pinned regression fixtures), ``chain`` (monotone
convergence experiments), ``sigma`` (the completeness verdict table).

Exit codes: 0 all verdicts pass, 1 a verified property failed (the
report carries a machine-replayable witness block), 2 usage or config
error.  JSON output is deterministic: sorted keys, floats at 12
significant digits, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chains, families, forms, hilbert, instances, kernel
from .errors import GealabError

SCHEMA = "gealab/1"


def _round_floats(obj):
    """Normalise every float to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_round_floats(report), sort_keys=True, indent=2)
    else:
        text = _render_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has gone: send the rest, and the flush at exit, nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _render_text(report: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key in report:
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(val, indent + 1))
        elif isinstance(val, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in val:
                if isinstance(item, dict):
                    lines.append(_render_text(item, indent + 1))
                    lines.append("")
                else:
                    lines.append(f"{pad}  - {item}")
            while lines and lines[-1] == "":
                lines.pop()
        else:
            if isinstance(val, float):
                val = f"{val:.12g}"
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(line for line in lines if line is not None)


def _envelope(command: str, config: dict, report: dict, ok: bool) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config, "ok": ok, "report": report}


# ----------------------------------------------------------------- axioms


def cmd_axioms(args) -> int:
    config = {
        "instance": args.instance,
        "family": args.family,
        "model": args.model,
        "cap": args.cap,
        "samples": args.samples,
        "seed": args.seed,
        "mode": args.mode,
    }
    if (args.instance is None) == (args.family is None):
        print("config error: exactly one of --instance / --family is required", file=sys.stderr)
        return 2
    try:
        if args.instance is not None:
            alg = instances.instance_by_name(args.instance, cap=args.cap)
            mode = args.mode or "exhaustive"
        else:
            alg = families.gea_by_name(args.family, args.model)
            mode = args.mode or "sampled"
        report = kernel.check_axioms(alg, mode=mode, samples=args.samples, seed=args.seed)
    except (ValueError, GealabError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    body = report.to_dict()
    body["algebra"] = repr(alg)
    _emit(_envelope("axioms", config, body, report.all_pass), args)
    return 0 if report.all_pass else 1


# --------------------------------------------------------- counterexamples


def _ce_remark_2_2() -> tuple[dict, bool]:
    demo = instances.restricted_order_demo(cap=50)
    expected = [4, 2, 6]
    ok = (
        demo["ambient_axioms_pass"]
        and demo["subset_axioms_pass"]
        and not demo["is_sub_gea"]
        and list(demo["certificate"]) == expected
        and demo["le_in_ambient"]
        and not demo["le_in_subset"]
    )
    report = dict(demo)
    report["expected_certificate"] = expected
    report["witness"] = {
        "triple": list(demo["certificate"]),
        "replay": "restricted_order_demo(cap=50)",
    }
    return report, ok


def _ce_example_5_4() -> tuple[dict, bool]:
    rep = chains.join_obstruction_vf()
    ok = (
        rep.found is None
        and not rep.evidence["a_le_b"]
        and not rep.evidence["b_le_a"]
        and rep.evidence["each_dominator_bounds_chain"]
        and rep.evidence["prec_between_dominators"]
        and not rep.evidence["candidates_bounded_by_both"]
    )
    return rep.to_dict(), ok


def _ce_regular_sum() -> tuple[dict, bool]:
    demo = families.regular_sum_demo()
    ok = (
        demo["two_of_three_violated"]
        and demo["split_of_sum_is_whole"]
        and demo["regular_parts_sum_is_t_prime"]
        and demo["bar_sum_undefined"]
        and demo["strict_increase"]
    )
    report = {key: _form_dicts(val) for key, val in demo.items()}
    report["witness"] = {"replay": "regular_sum_demo()"}
    return report, ok


def _form_dicts(val):
    """A form, or a tuple of forms, in its ``form_to_dict`` form; any other value as it is."""
    if isinstance(val, forms.FormSpec):
        return forms.form_to_dict(val)
    if isinstance(val, tuple):
        return [_form_dicts(v) for v in val]
    return val


def _ce_obstruction(family: str) -> tuple[dict, bool]:
    chain = chains.surplus_energy_chain()
    rep = chains.meet_in_family(chain, family)
    t_1 = forms.energy_with_endpoints(1, 1, 1)
    t_prime = forms.energy_form(1)
    ok = (
        rep.found is None
        and rep.witnesses == (t_1, t_prime)
        and not rep.evidence["a_le_b"]
        and not rep.evidence["b_le_a"]
        and not rep.evidence["candidates_dominating_both"]
    )
    return rep.to_dict(), ok


_CE_HANDLERS = {
    "remark-2-2": _ce_remark_2_2,
    "example-5-4": _ce_example_5_4,
    "regular-sum": _ce_regular_sum,
    "kato-inf": lambda: _ce_obstruction("cf"),
    "bar-inf": lambda: _ce_obstruction("vf-bar"),
}
COUNTEREXAMPLES = tuple(_CE_HANDLERS)


def cmd_counterexample(args) -> int:
    try:
        report, ok = _CE_HANDLERS[args.name]()
    except GealabError as exc:
        report, ok = {"error": str(exc)}, False
    _emit(_envelope("counterexample", {"name": args.name}, report, ok), args)
    return 0 if ok else 1


# ------------------------------------------------------------------ chains


def cmd_chain(args) -> int:
    config = {
        "chain": args.chain,
        "order": args.order,
        "n_max": args.n_max,
        "levels": args.levels,
        "seed": args.seed,
    }
    try:
        if args.n_max < 2:
            raise ValueError(f"--n-max must be at least 2, got {args.n_max}")
        if args.levels is not None and (not args.levels or min(args.levels) <= 0):
            got = ",".join(map(str, args.levels))
            raise ValueError(f"--levels needs positive integers, got {got!r}")
        chain = chains.chain_by_name(args.chain)
        if args.levels is not None:
            dims = sum(hilbert.dim_of(chain.model, level) for level in args.levels)
            if dims > chains.MAX_LEVEL_DIMS:
                got = ",".join(map(str, args.levels))
                raise ValueError(f"--levels {got} spans {dims} coordinates, more than {chains.MAX_LEVEL_DIMS}")
        order = args.order or chain.order
        chains.order_predicate(order)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    ok = True
    body: dict = {"chain": args.chain, "order": order, "direction": chain.direction}
    family = chains.ORDERS[order]
    try:
        # a bound search checks the chain's steps in the run's order and
        # direction, so it is the run's one monotonicity check
        found = {}
        if family is not None:
            search = chains.meet_in_family if chain.direction == "descending" else chains.join_in_family
            found["completeness"] = search(chain, family, n_max=args.n_max).to_dict()
        elif chain.dominators:
            # the last closed dominator: diag's last one is its finite-support restriction
            closed = [d for d in chain.dominators if forms.is_closed(d)] or chain.dominators
            found["sup"] = forms.form_to_dict(chains.cf_prec_sup(chain, closed[-1], n_max=args.n_max))
        else:
            chains.check_monotone(chain, n_max=args.n_max, order=order)
        body["monotone"] = chains.monotone_report(chain, order, args.n_max)
        body["pointwise"] = chains.pointwise_limit(chain, levels=args.levels, seed=args.seed, n_max=args.n_max)
        body.update(found)
    except GealabError as exc:
        body["error"] = str(exc)
        body["witness"] = {"chain": args.chain, "order": order, "n_max": args.n_max}
        ok = False
    _emit(_envelope("chain", config, body, ok), args)
    return 0 if ok else 1


# (family, direction, order): None is the family's own order
_EXPECTED_SIGMA = {
    ("vfd:h1_grid", "down", None): True,
    ("vfd:h1_grid", "up", None): True,
    ("vf", "down", None): True,
    ("vf", "up", None): False,
    ("bf", "down", None): True,
    ("rf", "down", None): False,
    ("rf", "up", None): False,
    ("cf", "down", None): False,
    ("cf", "up", None): False,
    ("vf-bar", "down", None): False,
    ("vf-bar", "up", None): False,
    ("cf", "up", "prec"): True,
}


def cmd_sigma(args) -> int:
    config = {"n_max": args.n_max, "seed": args.seed}
    if args.n_max < 2:
        print(f"config error: --n-max must be at least 2, got {args.n_max}", file=sys.stderr)
        return 2
    try:
        table = chains.sigma_report(n_max=args.n_max, seed=args.seed)
    except GealabError as exc:
        body = {"error": str(exc), "witness": {"n_max": args.n_max}}
        _emit(_envelope("sigma", config, body, False), args)
        return 1
    mismatches = []
    for row in table["rows"]:
        family, direction, got = row["family"], row["direction"], row["sigma_complete"]
        expected = _EXPECTED_SIGMA.get((family, direction, row.get("order")))
        if expected is not None and got != expected:
            mismatches.append({"family": family, "direction": direction, "got": got, "expected": expected})
    table["mismatches"] = mismatches
    ok = not mismatches
    _emit(_envelope("sigma", config, table, ok), args)
    return 0 if ok else 1


# ------------------------------------------------------------------ parser


def _parse_levels(text: str):
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gealab",
        description="Partial-sum algebras of positive forms: axiom suites, "
        "counterexamples and monotone-convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="seed (default: $GEALAB_SEED or 0)")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_ax = sub.add_parser("axioms", help="run the defining-axiom suite on an instance or family")
    p_ax.add_argument("--instance", default=None, help="zplus | even-gap | cone:<d> | interval:<u> | half-open:<u> | broken-max")
    family_ids = (b if f.model else f"{b}:<tag>" for b, f in families.FAMILIES.items())
    p_ax.add_argument("--family", default=None, help=" | ".join(family_ids))
    p_ax.add_argument("--model", default=None, help="override the family's default model")
    p_ax.add_argument("--cap", type=int, default=50, help="carrier cap for integer instances")
    p_ax.add_argument("--mode", choices=("exhaustive", "sampled"), default=None)
    p_ax.add_argument("--samples", type=int, default=2000)
    common(p_ax)
    p_ax.set_defaults(func=cmd_axioms)

    p_ce = sub.add_parser("counterexample", help="replay a pinned counterexample")
    p_ce.add_argument("name", choices=COUNTEREXAMPLES)
    common(p_ce)
    p_ce.set_defaults(func=cmd_counterexample)

    p_ch = sub.add_parser("chain", help="monotone chain experiment")
    p_ch.add_argument("--chain", required=True, help=" | ".join(chains.CHAIN_IDS))
    p_ch.add_argument("--order", default=None, help=" | ".join(chains.ORDERS))
    p_ch.add_argument("--n-max", type=int, default=chains.DEFAULT_N_MAX)
    p_ch.add_argument("--levels", type=_parse_levels, default=None, help="comma-separated levels")
    common(p_ch)
    p_ch.set_defaults(func=cmd_chain)

    p_sg = sub.add_parser("sigma", help="completeness verdict table")
    p_sg.add_argument("--n-max", type=int, default=chains.DEFAULT_N_MAX)
    common(p_sg)
    p_sg.set_defaults(func=cmd_sigma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None:
        raw = os.environ.get("GEALAB_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            print(f"config error: GEALAB_SEED={raw!r} is not an integer", file=sys.stderr)
            return 2
    # refuse an unwritable --out before the run, not after it
    if args.out and os.path.isdir(args.out):
        print(f"config error: --out {args.out!r} is a directory", file=sys.stderr)
        return 2
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        print(f"config error: --out {args.out!r} is in a missing directory", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
