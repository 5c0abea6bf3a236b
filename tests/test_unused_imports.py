"""No module under ``src/repro`` imports a name it never uses.

A stdlib-``ast`` scan, no linter dependency.  Package ``__init__`` modules
are skipped (their imports are the re-exported API).  A name counts as
used when any expression reads it, when ``__all__`` lists it, or when a
string annotation mentions it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.append((alias.asname or alias.name, node.lineno))
    return names


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """Names read by an annotation, including inside string annotations."""
    found: set[str] = set()
    if annotation is None:
        return found
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            found |= _annotation_names(parsed.body)
    return found


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    used.add(element.value)
    return used


def unused_imports(root: Path = SRC) -> list[str]:
    """``path:line name`` for every imported name its module never uses."""
    problems = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        rel = path.relative_to(root.parent)
        for name, line in _imported_names(tree):
            if name not in used:
                problems.append(f"{rel}:{line} {name}")
    return problems


def test_no_unused_imports_in_src():
    assert unused_imports() == []


def test_scan_flags_an_unused_import_and_spares_used_ones(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("import os\n")
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Iterator, Mapping\n"
        "from json import dumps as to_json, loads\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Mapping[str, Any]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(pkg) == [
        "repro/mod.py:3 Iterator",
        "repro/mod.py:4 to_json",
    ]
