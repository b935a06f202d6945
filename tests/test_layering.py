"""Import layering of the fprod modules, read from their source."""

import ast
import importlib
import inspect
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


TRACING = SRC.parent.parent / "bench" / "tracing.py"


def tracing_constant(name: str):
    """The literal value bench/tracing.py assigns to a module-level name, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_every_traced_member_is_defined_on_its_class():
    # the tracer wraps vars(cls)[attr] for each MEMBERS entry, so a deleted member crashes every bench mode
    missing = [
        f"{layer}.{cls_name}.{attr}"
        for layer, cls_name, attr, _ in tracing_constant("MEMBERS")
        if attr not in vars(getattr(importlib.import_module(f"fprod.{layer}"), cls_name))
    ]
    assert missing == []


def test_the_distinct_spec_counter_can_call_its_function_with_two_positional_arguments():
    layer, name = tracing_constant("_DISTINCT").split(".")
    fn = getattr(importlib.import_module(f"fprod.{layer}"), name)
    inspect.signature(fn).bind(object(), None)  # TypeError if the second parameter is gone


# Public names that no code in src/ loads, each kept for a reader outside it.
UNREACHED = {
    "map_fibres": "turns a map of values into the fibres is_continuous takes",
    "is_continuous": "the definitional reference that tests hold all_projections_continuous to",
    "product_spec": "the README session builds its products with it",
    "replay_witness": "the documented way to re-run a reported witness",
    "Topology.is_open": "bench/tracing.py's MEMBERS wraps it",
    "Topology.neighborhoods_filter": "bench/tracing.py's MEMBERS wraps it",
    "Uniformity.member": "bench/tracing.py's MEMBERS wraps it",
}


def public_definitions(module: str) -> list[tuple[str, str]]:
    """(qualified name, loaded name) for every public module-level function and
    class of a module and every public method of its classes."""
    out = []
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return out


def loaded_names(module: str) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_public_name_is_reached_from_src_or_allowed_with_a_reason():
    modules = [m for m in MODULES if m != "__init__"]
    loaded = set().union(*(loaded_names(m) for m in modules))
    defined = [q for m in modules for q, name in public_definitions(m) if name not in loaded]
    assert sorted(defined) == sorted(UNREACHED)
