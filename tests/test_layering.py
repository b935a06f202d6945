"""Import layering of the fprod modules, read from their source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fprod"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imported_names(module: str) -> list[tuple[str, str]]:
    """(source module, name) for every `from .x import name` in a module."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                out.extend((alias.name, "") for alias in node.names)
            else:
                out.extend((node.module, alias.name) for alias in node.names)
    return out


def test_every_module_is_read():
    assert {"foundations", "fproduct", "uniformity", "verifier"} <= set(MODULES)


def test_uniformity_holds_single_space_theory():
    sources = {source for source, _ in imported_names("uniformity")}
    assert "fproduct" not in sources
    assert sources <= {"foundations", "topology"}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module(module):
    private = [f"{src}.{name}" for src, name in imported_names(module) if name.startswith("_")]
    assert private == []


def _tree(module: str) -> ast.AST:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def defined_names(module: str) -> set[str]:
    """Every name a module binds: functions, classes, assigned names and attributes."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return out


def private_attribute_reads(module: str) -> list[tuple[str, int]]:
    """(attribute, line) for every read of a non-dunder `_`-prefixed attribute."""
    return [
        (node.attr, node.lineno)
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_attribute_is_read_across_modules(module):
    own = defined_names(module)
    others = set().union(*(defined_names(m) for m in MODULES if m != module))
    crossing = [
        f"{module}.py:{line}: .{attr}"
        for attr, line in private_attribute_reads(module)
        if attr not in own and attr in others
    ]
    assert crossing == []


def test_the_package_exports_exactly_what_it_imports():
    import fprod

    exported = fprod.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(fprod, name)] == []
    imported = {name for _, name in imported_names("__init__") if not name.startswith("_")}
    assert imported == set(exported)
