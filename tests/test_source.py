"""Source hygiene: every module constant of the package is read somewhere,
every default of a private function is overridden by some call, every
function the benchmark tracer spans exists, every mutant of the mutation
probe still applies and names a test, the CLI refuses and reports in
one place, and the chain and sigma runs import no random generator."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from test_kernel import ARRAY_INSTANCES

from gealab import cli, instances

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gealab").glob("*.py"))


def _constants(tree):
    """Module-level ALL_CAPS names bound by a plain or annotated assignment."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.lstrip("_").isupper():
                yield target.id


def _reads(tree):
    """Every name the module loads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_module_constant_is_read():
    # a constant nothing reads is a knob that does nothing
    trees = {p: ast.parse(p.read_text()) for p in SOURCES + sorted((ROOT / "tests").glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [f"{p.name}:{name}" for p in SOURCES for name in _constants(trees[p]) if name not in read]
    assert not unread


def _private_defaults(tree):
    """(function, parameter, position) for each defaulted parameter of a
    private function or method; position is None for a keyword-only one."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") or fn.name.endswith("__"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        skip = 1 if id(fn) in methods else 0  # self is bound, not passed
        for i in range(len(positional) - len(fn.args.defaults), len(positional)):
            yield fn.name, positional[i].arg, i - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _passes(call, param, position):
    if any(k.arg == param or k.arg is None for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_private_default_is_set():
    # a default that no call overrides is a knob that does nothing: the
    # parameter is the constant it defaults to
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{fn}({param})"
        for tree in trees
        for fn, param, position in _private_defaults(tree)
        if not any(_passes(call, param, position) for call in calls.get(fn, []))
    ]
    assert not unset


def test_every_array_sum_is_cross_checked():
    # an add_arrays that no test compares with its add could drift from it
    defining = {c for c in vars(instances).values() if isinstance(c, type) and "add_arrays" in vars(c)}
    assert defining and defining <= {type(alg) for alg in ARRAY_INSTANCES}


def test_forms_are_built_only_in_the_forms_module():
    # the support tables hold because every form comes out of make_form,
    # form_add or zero_form, so every coefficient is a positive Fraction
    outside = [
        f"{p.name}:{node.lineno}"
        for p in SOURCES
        if p.name != "forms.py"
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
        and "FormSpec" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not outside


def test_every_traced_span_names_a_package_function():
    # the benchmark tracer keeps spans for these "module.name" keys, so a
    # rename that left one behind would drop its span without a word; the
    # tracer's source is read, not imported
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    (keys,) = [
        ast.literal_eval(node.value.args[0])
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPAN_KEYS"]
    ]
    assert keys
    missing = []
    for key in sorted(keys):
        module, name = key.split(".")
        if not callable(getattr(importlib.import_module(f"gealab.{module}"), name, None)):
            missing.append(key)
    assert not missing


def test_every_mutant_applies_and_names_a_test():
    # a refactor that moved a mutant's line or renamed its killer would
    # leave tools/mutants.py broken until someone ran it; the probe's
    # source is read, not imported
    tree = ast.parse((ROOT / "tools" / "mutants.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["MUTANTS"]
    ]
    mutants = [[ast.literal_eval(arg) for arg in call.args] for call in table.elts]
    assert mutants and all(len(m) == 5 for m in mutants)
    assert len({m[0] for m in mutants}) == len(mutants)
    bad = []
    for name, path, old, _, killer in mutants:
        if (ROOT / path).read_text().count(old) != 1:
            bad.append(f"{name}: text")
        test_file, _, test_name = killer.split("[")[0].partition("::")
        defined = {node.name for node in ast.parse((ROOT / test_file).read_text()).body if isinstance(node, ast.FunctionDef)}
        if test_name not in defined:
            bad.append(f"{name}: killer")
    assert not bad


def test_only_cli_main_refuses_emits_and_picks_the_exit_code():
    # a subcommand's handler returns (config, report, ok) and raises for a
    # refusal; main alone writes the one config error line, emits the
    # envelope and turns ok into the exit code
    tree = ast.parse((ROOT / "src" / "gealab" / "cli.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def users(found):
        return {fn.name for fn in functions for node in ast.walk(fn) if found(node)}

    refusing = users(lambda n: isinstance(n, ast.Constant) and "config error:" in str(n.value))
    emitting = users(lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_emit")
    assert refusing == emitting == {"main"}
    handlers = [fn for fn in functions if fn.name.startswith("cmd_")]
    assert {fn.name for fn in handlers} == {handler.__name__ for _, _, handler in cli._SUBCOMMANDS.values()}
    for fn in handlers:
        returned = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert returned and all(isinstance(v, ast.Tuple) and len(v.elts) == 3 for v in returned), fn.name


# the runs of the order layer, each through cli.main in one fresh interpreter:
# sigma, the five default chain runs, diag in cf (exit 1) and four counterexamples
_RUNS_WITHOUT_RANDOM = """
import contextlib, io, sys
from gealab import chains, cli
runs = [["sigma"]] + [["chain", "--chain", name] for name in chains.CHAIN_IDS]
runs += [["chain", "--chain", "diag", "--order", "cf"]]
runs += [["counterexample", name] for name in ("example-5-4", "regular-sum", "kato-inf", "bar-inf")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv + ["--format", "json"]) for argv in runs]
print(*codes, "numpy.random" in sys.modules)
"""


def test_order_layer_runs_import_no_random_generator():
    # the pointwise table draws no random vector, so numpy.random, which
    # numpy imports only on first use, is never loaded by these runs
    run = subprocess.run([sys.executable, "-c", _RUNS_WITHOUT_RANDOM], capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0"] * 6 + ["1"] + ["0"] * 4 + ["False"]
