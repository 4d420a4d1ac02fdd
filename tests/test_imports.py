"""Every import in the package, its tests and its demos is used.

A stdlib-only stand-in for a linter's unused-import rule: a name an
import binds must be read somewhere in the same file.  Package
``__init__.py`` files, whose imports are re-exports, and import lines
marked ``# noqa: F401`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}  # name -> line number of the import that binds it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda nl: nl[1]) if name not in read]


def test_no_unused_imports():
    files = [p for d in ("src/tilerun", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    assert [u for p in files for u in unused_imports(p)] == []
