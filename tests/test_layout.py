"""The package's layout against its benchmark and its own callers."""

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sweeploc"
TIMED = (".calls", ".self_s", ".call_us_p50", ".call_us_p99")


def _timed_functions():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"] for m in metrics]
    return sorted({n[:-len(s)] for n in names for s in TIMED if n.endswith(s)})


@pytest.mark.parametrize("path", _timed_functions())
def test_benchmarked_functions_exist(path):
    """perfbench/run.py --trace 1 reads a per-layer metric for every one of
    these names and fails if the function behind it is gone."""
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"sweeploc.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def _loaded_names(paths):
    """Names loaded bare, and attribute names loaded, anywhere in paths."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def _definitions(path):
    """(qualified name, name, whether it is a class member) for top-level
    functions, classes and upper-case constants, and for the methods and
    properties of each class (dunder methods are called implicitly)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, False
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")):
                    yield f"{node.name}.{member.name}", member.name, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, target.id, False


def test_every_definition_has_a_caller_outside_the_tests():
    """A definition only tests reach is deleted. A reference is a load of
    the name in the package (re-exports in __init__.py do not count) or in
    perfbench/: bare or as an attribute for a top-level definition, only as
    an attribute for a method or property, so a parameter or local of the
    same name does not keep it. A dead method that shares its name with a
    live attribute elsewhere still goes unnoticed."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    names, attributes = _loaded_names(
        modules + sorted((ROOT / "perfbench").glob("*.py")))
    unused = [f"{path.stem}.{qualified}"
              for path in modules for qualified, name, member in _definitions(path)
              if name not in attributes and (member or name not in names)]
    assert unused == []


def _dataclass_fields(path):
    """(class, field) for every field of each top-level dataclass."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators):
            for member in node.body:
                if (isinstance(member, ast.AnnAssign)
                        and isinstance(member.target, ast.Name)):
                    yield node.name, member.target.id


def _read_attributes(paths):
    """Attribute loads, and the names getattr takes as a string: a literal
    argument, or the literals a for loop binds to the argument's name."""
    reads = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        looped: dict[str, set] = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.For, ast.comprehension))
                    and isinstance(node.target, ast.Name)
                    and isinstance(node.iter, (ast.Tuple, ast.List))):
                looped.setdefault(node.target.id, set()).update(
                    e.value for e in node.iter.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1):
                name = node.args[1]
                if isinstance(name, ast.Constant):
                    reads.add(name.value)
                elif isinstance(name, ast.Name):
                    reads |= looped.get(name.id, set())
    return reads


def test_every_dataclass_field_is_read_outside_the_tests():
    """A field that nothing in the package or in perfbench/ reads is
    deleted. A read is an attribute load or a getattr string, matched by
    name, so a field sharing its name with a read attribute elsewhere goes
    unnoticed."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    reads = _read_attributes(modules + sorted((ROOT / "perfbench").glob("*.py")))
    unread = [f"{path.stem}.{cls}.{name}"
              for path in modules for cls, name in _dataclass_fields(path)
              if name not in reads]
    assert unread == []
