"""Source hygiene, checked from the syntax tree: no library module imports a
name it never uses, no UPPER_CASE module constant goes unread, and no
function, class or method is defined that nothing references."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trusspath"
MODULES = sorted(PACKAGE.glob("*.py"))
CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings of its `__all__`."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def imported_names(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            out += [a.asname or a.name.partition(".")[0] for a in node.names]
    return out


def references(tree: ast.Module) -> set[str]:
    """Names read anywhere in the file: loads, attributes and imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = parse(path)
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


def read_anywhere() -> set[str]:
    """Names referenced by any Python file under src/, tests/ or perfbench/."""
    sources = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return set().union(*(references(parse(p)) for p in sources))


def test_every_module_constant_is_read():
    read = read_anywhere()
    unread = [
        f"{path.name}: {target.id}"
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id)
        and target.id not in read
    ]
    assert not unread, f"module constants nothing reads: {unread}"


def test_every_definition_is_referenced():
    read = read_anywhere()
    unused = [
        f"{path.name}: {node.name}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]
    assert not unused, f"definitions nothing references: {unused}"
