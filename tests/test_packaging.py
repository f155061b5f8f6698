"""Packaging metadata: declared console scripts and export lists resolve."""

import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
