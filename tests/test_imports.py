"""Every import in the package, its tests and its demos is used.

A stdlib-only stand-in for a linter's unused-import rule: a name an
import binds must be read somewhere in the same file.  Package
``__init__.py`` files, whose imports are re-exports, and import lines
marked ``# noqa: F401`` are exempt.  Outside ``__init__.py``, such a
marked import in the package is kept only for the benchmark's tracer,
so it must name what the tracer wraps in that module.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bound_names(path: Path):
    """``(name, line number, marked # noqa: F401)`` for each name an import
    in ``path`` binds, with the tree it was parsed into."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], alias.lineno,
                              "# noqa: F401" in lines[alias.lineno - 1]))
    return bound, tree


def unused_imports(path: Path) -> list[str]:
    bound, tree = bound_names(path)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line, noqa in sorted(bound, key=lambda b: b[1])
            if not noqa and name not in read]


def test_no_unused_imports():
    files = [p for d in ("src/tilerun", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    assert [u for p in files for u in unused_imports(p)] == []


def test_package_reexports_are_names_the_benchmark_tracer_wraps(monkeypatch):
    # perfbench/layers.py wraps names where its caller looks them up
    # (its _GLOBALS); a re-export kept for it goes once it is not wrapped.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    wrapped = {module.__name__: set(names) for module, names in layers._GLOBALS}
    kept = [(f"tilerun.{p.stem}", name) for p in sorted((ROOT / "src/tilerun").glob("*.py"))
            if p.name != "__init__.py" for name, _, noqa in bound_names(p)[0] if noqa]
    assert kept
    assert [(module, name) for module, name in kept
            if name not in wrapped.get(module, ())] == []



def is_stub(node) -> bool:
    """Whether ``node`` is a function whose body is only a docstring."""
    return (isinstance(node, ast.FunctionDef) and len(node.body) == 1
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str))


def test_docstring_only_methods_are_names_the_benchmark_tracer_wraps(monkeypatch):
    # A method whose body is only a docstring does nothing; the package
    # keeps such a stub only as a name perfbench/layers.py wraps (its
    # _METHODS), so each goes once it is not wrapped.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    wrapped = {(prefix, name) for _, prefix, names in layers._METHODS for name in names}
    stubs = [(f"{p.stem}.{cls.name}", fn.name)
             for p in sorted((ROOT / "src/tilerun").glob("*.py"))
             for cls in ast.walk(ast.parse(p.read_text())) if isinstance(cls, ast.ClassDef)
             for fn in cls.body if is_stub(fn)]
    assert stubs
    assert [stub for stub in stubs if stub not in wrapped] == []
