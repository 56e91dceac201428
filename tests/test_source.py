"""Source hygiene: every module constant of the package is read somewhere,
and every default of a private function is overridden by some call."""

import ast
from pathlib import Path

from test_kernel import ARRAY_INSTANCES

from gealab import instances

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
