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

import errno
import json
import os
import sys
import types

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
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a refusal; a failed open names its path, a failed write leaves part of the report
            if exc.filename is None and os.path.isfile(args.out):
                os.remove(args.out)
            raise ValueError(f"--out {args.out!r}: {exc.strerror or exc}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has gone: send the rest, and the flush at exit, nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _render_text(report: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key, val in report.items():
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
    return "\n".join(lines)


# ----------------------------------------------------------------- axioms


def cmd_axioms(args) -> tuple[dict, dict, bool]:
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
        raise ValueError("exactly one of --instance / --family is required")
    if args.instance is not None:
        if args.model is not None:
            raise ValueError("--model applies to --family only")
        alg = instances.instance_by_name(args.instance, cap=args.cap)
        mode = args.mode or "exhaustive"
    else:
        alg = families.gea_by_name(args.family, args.model)
        mode = args.mode or "sampled"
    report = kernel.check_axioms(alg, mode=mode, samples=args.samples, seed=args.seed)
    body = report.to_dict()
    body["algebra"] = repr(alg)
    return config, body, report.all_pass


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


def cmd_counterexample(args) -> tuple[dict, dict, bool]:
    try:
        report, ok = _CE_HANDLERS[args.name]()
    except GealabError as exc:
        report, ok = {"error": str(exc)}, False
    return {"name": args.name}, report, ok


# ------------------------------------------------------------------ chains


def _check_n_max(n_max: int) -> None:
    """Refuse an ``--n-max`` outside 2 .. ``chains.MAX_N_MAX``."""
    if n_max < 2:
        raise ValueError(f"--n-max must be at least 2, got {n_max}")
    if n_max > chains.MAX_N_MAX:
        raise ValueError(f"--n-max must be at most chains.MAX_N_MAX = {chains.MAX_N_MAX}, got {n_max}")


def cmd_chain(args) -> tuple[dict, dict, bool]:
    config = {
        "chain": args.chain,
        "order": args.order,
        "n_max": args.n_max,
        "levels": args.levels,
        "seed": args.seed,
    }
    _check_n_max(args.n_max)
    got = ",".join(map(str, args.levels or ()))
    if args.levels is not None and (not args.levels or min(args.levels) <= 0):
        raise ValueError(f"--levels needs positive integers, got {got!r}")
    chain = chains.chain_by_name(args.chain)
    if args.levels is not None:
        dims = sum(hilbert.dim_of(chain.model, level) for level in args.levels)
        if dims > chains.MAX_LEVEL_DIMS:
            raise ValueError(f"--levels {got} spans {dims} coordinates, more than {chains.MAX_LEVEL_DIMS}")
        if len(set(args.levels)) < len(args.levels):
            raise ValueError(f"--levels {got} names a level twice")
    order = args.order or chain.order
    chains.order_predicate(order)
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
        body["pointwise"] = chains.pointwise_limit(chain, levels=args.levels, n_max=args.n_max)
        body.update(found)
    except GealabError as exc:
        body["error"] = str(exc)
        body["witness"] = {"chain": args.chain, "order": order, "n_max": args.n_max}
        return config, body, False
    return config, body, True


def cmd_sigma(args) -> tuple[dict, dict, bool]:
    config = {"n_max": args.n_max, "seed": args.seed}
    _check_n_max(args.n_max)
    try:
        table = chains.sigma_report(n_max=args.n_max, seed=args.seed)
    except GealabError as exc:
        return config, {"error": str(exc), "witness": {"n_max": args.n_max}}, False
    # the rows come in the order of chains.SIGMA_ROWS; a row that raised has no verdict
    table["mismatches"] = [
        {"family": spec.family, "direction": spec.direction, "got": row["sigma_complete"], "expected": spec.expected}
        for row, spec in zip(table["rows"], chains.SIGMA_ROWS)
        if row["sigma_complete"] != spec.expected
    ]
    return config, table, not table["mismatches"]


# ------------------------------------------------------------------ parser


def _parse_levels(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p)


class _Choice(tuple):
    """A converter that takes one of its items; the help lists the same tuple."""

    def __call__(self, text):
        if text in self:
            return text
        raise ValueError(f"invalid choice {text!r} (choose from {', '.join(self)})")


_BAD = {int: "not an integer:", _parse_levels: "bad level list"}  # what a converter's ValueError means
# options: flag or <positional> -> (dest, convert, default, help); a default of ... marks a required one
_COMMON = {
    "--seed": ("seed", int, None, "a non-negative integer; default: $GEALAB_SEED, else 0"),
    "--out": ("out", str, None, "write the report to this path; default: stdout"),
    "--format": ("format", _Choice(("text", "json")), "text", ""),
}
_N_MAX = {"--n-max": ("n_max", int, chains.DEFAULT_N_MAX, "terms of each chain, 2 .. chains.MAX_N_MAX")}
_AXIOMS = {
    "--instance": ("instance", str, None, "zplus | even-gap | cone:<d> | interval:<u> | half-open:<u> | broken-max"),
    "--family": ("family", str, None, " | ".join(b if f.model else f"{b}:<tag>" for b, f in families.FAMILIES.items())),
    "--model": ("model", str, None, "a model for --family; default: the family's own"),
    "--cap": ("cap", int, 50, "carrier cap for integer instances"),
    "--mode": ("mode", _Choice(("exhaustive", "sampled")), None, "default: exhaustive on --instance, else sampled"),
    "--samples": ("samples", int, 2000, "draws of a sampled suite"),
}
_CHAIN = {
    "--chain": ("chain", str, ..., " | ".join(chains.CHAIN_IDS)),
    "--order": ("order", str, None, " | ".join(chains.ORDERS) + "; default: the chain's own"),
    **_N_MAX,
    "--levels": ("levels", _parse_levels, None, "comma-separated levels; default: the model's"),
}
_COUNTEREXAMPLE = {"<name>": ("name", _Choice(COUNTEREXAMPLES), ..., "")}
# name -> (help, options, handler), in the order the help lists them
_SUBCOMMANDS = {
    "axioms": ("run the defining-axiom suite on one --instance or --family", _AXIOMS, cmd_axioms),
    "counterexample": ("replay a pinned counterexample", _COUNTEREXAMPLE, cmd_counterexample),
    "chain": ("monotone chain experiment", _CHAIN, cmd_chain),
    "sigma": ("completeness verdict table", _N_MAX, cmd_sigma),
}


def _help(commands) -> str:
    """Usage, then the help and flags of each of ``commands``, read off the tables the parse reads."""
    lines = ["usage: gealab <subcommand> [--flag value | --flag=value ...]; flag names are given in full"]
    for command in commands:
        text, options, _ = _SUBCOMMANDS[command]
        lines += ["", f"gealab {' '.join([command, *(k for k in options if k[0] == '<')])}: {text}"]
        for key, (_, convert, default, info) in {**options, **_COMMON}.items():
            default = "required" if default is ... else "" if default is None else f"default: {default}"
            parts = (" | ".join(convert) if isinstance(convert, _Choice) else "", info, default)
            lines.append(f"  {key:<12}" + "; ".join(p for p in parts if p))
    return "\n".join(lines)


def _parse(argv: list[str]):
    """One argv's namespace, or the help text if asked for; a usage error raises one line naming the bad token."""
    if {"-h", "--help"} & set(argv):
        return _help(argv[:1] if argv[0] in _SUBCOMMANDS else _SUBCOMMANDS)
    if not argv or argv[0] not in _SUBCOMMANDS:
        raise ValueError(f"expected a subcommand first ({' | '.join(_SUBCOMMANDS)}), got {' '.join(argv[:1])!r}")
    command, rest = argv[0], iter(argv[1:])
    table = {**_SUBCOMMANDS[command][1], **_COMMON}
    args = types.SimpleNamespace(command=command, **{row[0]: row[2] for row in table.values()})
    slots = [key for key in table if key[0] == "<"]
    for token in rest:  # one pass: a repeated flag's last value wins
        flag = token.startswith("--")
        key, eq, value = token.partition("=") if flag else (slots.pop(0) if slots else token, "", token)
        if key not in table:
            raise ValueError(f"{command}: unexpected argument {key!r}")
        if flag and not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{key} needs a value")
        dest, convert, _, _ = table[key]
        try:
            setattr(args, dest, convert(value))
        except ValueError as exc:
            raise ValueError(f"{key}: {_BAD[convert]} {value!r}" if convert in _BAD else f"{key}: {exc}") from None
    for key, (dest, _, _, _) in table.items():
        if getattr(args, dest) is ...:
            raise ValueError(f"{command} needs {key}")
    return args


def _name_max(directory: str) -> float:
    """The longest file name, in bytes, that ``directory`` takes; no bound
    where the OS names none (the write then refuses a name it cannot take)."""
    try:
        limit = os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, or no such limit here
        return float("inf")
    return limit if limit > 0 else float("inf")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # every refusal, of the parse, of main's checks and of the handler, ends here: one line, exit 2
    try:
        args = _parse(argv)
        if isinstance(args, str):  # the help was asked for
            print(args)
            return 0
        source = "--seed"
        if args.seed is None:
            source, raw = "GEALAB_SEED", os.environ.get("GEALAB_SEED", "0")
            try:
                args.seed = int(raw)
            except ValueError:
                raise ValueError(f"GEALAB_SEED={raw!r} is not an integer") from None
        if args.seed < 0:
            raise ValueError(f"{source}={args.seed} is negative; a seed is a non-negative integer")
        # refuse an unwritable --out before the run, not after it
        if args.out:
            where = os.path.dirname(os.path.abspath(args.out))
            if os.path.isdir(args.out):
                raise ValueError(f"--out {args.out!r} is a directory")
            if not os.path.isdir(where):
                raise ValueError(f"--out {args.out!r} is in a missing directory")
            if len(os.fsencode(os.path.basename(args.out))) > _name_max(where):
                raise ValueError(f"--out {args.out!r}: {os.strerror(errno.ENAMETOOLONG)}")
        config, report, ok = _SUBCOMMANDS[args.command][2](args)
        _emit({"schema": SCHEMA, "command": args.command, "config": config, "ok": ok, "report": report}, args)
    except (ValueError, GealabError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
