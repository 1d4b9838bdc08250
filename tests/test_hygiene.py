"""Source hygiene: no unused imports anywhere in ``src/``.

A stdlib AST scan.  An imported name counts as used when the module reads
it (including inside string annotations), lists it in ``__all__``, or when
a package ``__init__.py`` imports it from this module (a re-export).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations ("Circuit", "Optional[Spec]")
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                sub.id for sub in ast.walk(expression) if isinstance(sub, ast.Name)
            )
    return used


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return set()


def _reexports(trees: dict[Path, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) pairs a package ``__init__.py`` imports."""
    pairs: set[tuple[str, str]] = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                pairs.update((node.module, alias.name) for alias in node.names)
    return pairs


def unused_imports(root: Path = SRC) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(root.rglob("*.py"))}
    reexported = _reexports(trees)
    findings = []
    for path, tree in trees.items():
        module = _module_name(path, root)
        used = _used_names(tree) | _dunder_all(tree)
        for name, line in _imported_names(tree).items():
            if name not in used and (module, name) not in reexported:
                findings.append(f"{path.relative_to(root)}:{line}: {name}")
    return findings


def test_no_unused_imports_in_src():
    assert unused_imports() == []


def test_scan_flags_an_unused_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.mod import Exported\n__all__ = ['Exported']\n"
    )
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Union\n"
        "from collections import OrderedDict as Ordered, deque\n"
        "from json import dumps as Exported\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return deque()\n"
    )
    assert unused_imports(tmp_path) == [
        "pkg/mod.py:2: os",
        "pkg/mod.py:3: Union",
        "pkg/mod.py:4: Ordered",
    ]
