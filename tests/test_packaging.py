"""Packaging metadata: declared console scripts and export lists resolve, and
every public definition is reached from somewhere."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"


@pytest.mark.parametrize("module", ["hapticnet", "hapticnet.engine", "hapticnet.io"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__, f"{module} exports nothing"
    namespace = {}
    exec(f"from {module} import *", namespace)  # imports listed submodules too
    missing = [name for name in mod.__all__ if name not in namespace]
    assert not missing, f"{module}.__all__ names {missing}, which do not resolve"


def test_every_public_def_is_referenced():
    """Each top-level public def or class in the package is named somewhere
    in src/, tests/ or perfbench/ outside its own definition."""
    sources = {path: path.read_text()
               for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")}
    words = Counter(w for text in sources.values() for w in re.findall(r"\w+", text))
    unreferenced = []
    for path, text in sources.items():
        if not path.is_relative_to(ROOT / "src" / "hapticnet"):
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[start - 1:node.end_lineno])
            if words[node.name] == re.findall(r"\w+", own).count(node.name):
                unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unreferenced, f"public definitions nothing names: {unreferenced}"
