"""The package imports only the standard library, numpy and scipy, and declares exactly numpy and scipy."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "scipy", "cavtraj"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_stdlib_numpy_and_scipy():
    modules = sorted((ROOT / "src" / "cavtraj").rglob("*.py"))
    assert len(modules) >= 9
    foreign = {f"{path.relative_to(ROOT)}: {name}" for path in modules for name in _top_level_imports(path)
               if name not in sys.stdlib_module_names and name not in ALLOWED}
    assert not foreign


def test_pyproject_declares_exactly_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower() for spec in project["dependencies"]]
    assert sorted(names) == ["numpy", "scipy"]
