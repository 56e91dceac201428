"""Source hygiene: every module constant of the package is read somewhere."""

import ast
from pathlib import Path

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
