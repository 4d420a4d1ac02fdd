"""Every import in the package, its tests and its demos is used.

A stdlib-only stand-in for a linter's unused-import rule: a name an
import binds must be read somewhere in the same file.  Package
``__init__.py`` files, whose imports are re-exports, are exempt, and no
other file keeps a re-export marked ``# noqa: F401``.  A function the
package keeps with only a docstring must be a name the benchmark's
tracer wraps.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# every Python file of the package, its tests and its demos, but the
# packages' __init__.py files
FILES = [p for d in ("src/tilerun", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
         if p.name != "__init__.py"]


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
            for name, line, _ in sorted(bound, key=lambda b: b[1]) if name not in read]


def test_no_unused_imports():
    assert len(FILES) > 20
    assert [u for p in FILES for u in unused_imports(p)] == []


def test_no_reexport_is_left_outside_package_init():
    # an import marked # noqa: F401 is a re-export; only a package's
    # __init__.py keeps those
    assert [f"{p.relative_to(ROOT)}:{line}: {name}" for p in FILES
            for name, line, noqa in bound_names(p)[0] if noqa] == []


def is_stub(node) -> bool:
    """Whether ``node`` is a function whose body is only a docstring."""
    return (isinstance(node, ast.FunctionDef) and len(node.body) == 1
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str))


def test_docstring_only_methods_are_names_the_benchmark_tracer_wraps(monkeypatch):
    # A function or method whose body is only a docstring does nothing; the
    # package keeps such a stub only as a name perfbench/layers.py wraps: a
    # module-level one where its caller looks it up (its _GLOBALS), a
    # method on its class (its _METHODS).  Each goes once it is not wrapped.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    wrapped = ({(module.__name__, name) for module, names in layers._GLOBALS for name in names}
               | {(f"tilerun.{prefix}", name) for _, prefix, names in layers._METHODS
                  for name in names})
    stubs = []
    for p in sorted((ROOT / "src/tilerun").glob("*.py")):
        tree = ast.parse(p.read_text())
        stubs += [(f"tilerun.{p.stem}", fn.name) for fn in tree.body if is_stub(fn)]
        stubs += [(f"tilerun.{p.stem}.{cls.name}", fn.name) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body if is_stub(fn)]
    assert stubs
    assert [stub for stub in stubs if stub not in wrapped] == []
