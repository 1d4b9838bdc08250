"""Source hygiene: no unused imports anywhere in ``src/``, and no import
at module load of anything outside the standard library and ``repro``.

A stdlib AST scan.  An imported name counts as used when the module reads
it (including inside string annotations), lists it in ``__all__``, or when
a package ``__init__.py`` imports it from this module (a re-export).  An
import inside a function body runs only when called, so only the others
count as loaded.
"""

from __future__ import annotations

import ast
import sys
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


def _load_time_imports(tree: ast.Module):
    """(line, top-level package) of every absolute import outside a def."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]
        pending.extend(ast.iter_child_nodes(node))


def third_party_imports(root: Path = SRC) -> list[str]:
    allowed = set(sys.stdlib_module_names) | {"repro"}
    findings = []
    for path in sorted(root.rglob("*.py")):
        for line, package in sorted(_load_time_imports(ast.parse(path.read_text()))):
            if package not in allowed:
                findings.append(f"{path.relative_to(root)}:{line}: {package}")
    return findings


def test_src_loads_only_the_standard_library():
    assert third_party_imports() == []


def test_scan_flags_a_third_party_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "import json\n"
        "import networkx as nx\n"
        "from repro.boolean import cube\n"
        "from . import sibling\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    numpy = None\n"
        "class Holder:\n"
        "    from yaml import safe_load\n"
        "def solver():\n"
        "    import pysat.solvers\n"
        "    return pysat.solvers\n"
    )
    assert third_party_imports(tmp_path) == [
        "pkg/mod.py:2: networkx",
        "pkg/mod.py:6: numpy",
        "pkg/mod.py:10: yaml",
    ]


#: the packages of the paper's algorithms; ``repro.api`` drives them, so
#: none of them may reach back into it
ALGORITHM_PACKAGES = (
    "boolean",
    "petri",
    "stg",
    "structural",
    "statebased",
    "synthesis",
    "sat",
    "verify",
    "gates",
)


def _imported_modules(tree: ast.Module, module: str, is_package: bool):
    """(line, absolute dotted name) of every import, in a def or not.

    ``from a import b`` yields ``a.b`` (``b`` may be a submodule), and a
    relative import is resolved against ``module``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.split(".")[: None if is_package else -1]
                package = package[: len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def api_imports(root: Path = SRC) -> list[str]:
    findings = []
    for path in sorted(root.rglob("*.py")):
        module = _module_name(path, root)
        parts = module.split(".")
        if parts[0] != "repro" or len(parts) < 2 or parts[1] not in ALGORITHM_PACKAGES:
            continue
        tree = ast.parse(path.read_text())
        for line, name in sorted(_imported_modules(tree, module, path.name == "__init__.py")):
            if name == "repro.api" or name.startswith("repro.api."):
                findings.append(f"{path.relative_to(root)}:{line}: {name}")
    return findings


def test_algorithm_layers_do_not_import_the_api():
    assert api_imports() == []


def test_scan_flags_an_api_import(tmp_path):
    synthesis = tmp_path / "repro" / "synthesis"
    synthesis.mkdir(parents=True)
    (tmp_path / "repro" / "api").mkdir()
    (tmp_path / "repro" / "api" / "driver.py").write_text(
        "from repro.api.spec import Spec\n"
    )
    (synthesis / "__init__.py").write_text("from ..api import pipeline\n")
    (synthesis / "engine.py").write_text(
        "import repro.apiary\n"
        "from repro import api\n"
        "from repro.boolean.cover import Cover\n"
        "def prepare():\n"
        "    from repro.api.pipeline import Pipeline\n"
        "    from ..api import spec\n"
        "    import repro.api.store\n"
    )
    assert api_imports(tmp_path) == [
        "repro/synthesis/__init__.py:1: repro.api.pipeline",
        "repro/synthesis/engine.py:2: repro.api",
        "repro/synthesis/engine.py:5: repro.api.pipeline.Pipeline",
        "repro/synthesis/engine.py:6: repro.api.spec",
        "repro/synthesis/engine.py:7: repro.api.store",
    ]
