"""Packaging metadata: declared console scripts and export lists resolve, and
every public definition is reached from somewhere."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from hapticnet.synth import SynthConfig
from hapticnet.training import TrainSchedule

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


@pytest.mark.parametrize("module", ["hapticnet", "hapticnet.engine"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__, f"{module} exports nothing"
    namespace = {}
    exec(f"from {module} import *", namespace)  # imports listed submodules too
    missing = [name for name in mod.__all__ if name not in namespace]
    assert not missing, f"{module}.__all__ names {missing}, which do not resolve"


def _def_spans(tree):
    """{name: [(first line, last line)]} of every def and class, nested ones too,
    decorators included."""
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans.setdefault(node.name, []).append((start, node.end_lineno))
    return spans


def _unreferenced(paths):
    """{name: ["file:line", ...]} of each public def or class in the package
    (a function, class, method, property or nested def) that none of
    ``paths`` names outside every definition of that name, so two unused
    definitions of one name do not count as references to each other.
    ``paths`` must include the package's own files."""
    sources = {path: path.read_text() for path in paths}
    spans = {path: _def_spans(ast.parse(text)) for path, text in sources.items()}
    lines_of = {path: {} for path in sources}  # word -> lines it occurs on
    for path, text in sources.items():
        for number, line in enumerate(text.splitlines(), start=1):
            for word in set(re.findall(r"\w+", line)):
                lines_of[path].setdefault(word, []).append(number)

    def referenced(name):
        return any(not any(lo <= number <= hi for lo, hi in spans[path].get(name, ()))
                   for path in sources for number in lines_of[path].get(name, ()))

    unreferenced = {}
    for path in sources:
        if path.is_relative_to(ROOT / "src" / "hapticnet"):
            for name, defs in spans[path].items():
                if not name.startswith("_") and not referenced(name):
                    unreferenced.setdefault(name, []).extend(
                        f"{path.relative_to(ROOT)}:{lo}" for lo, _ in defs)
    return unreferenced


def test_every_public_def_is_referenced():
    """Each public definition in the package is named somewhere in src/,
    tests/ or perfbench/."""
    unreferenced = _unreferenced(path for folder in ("src", "tests", "perfbench")
                                 for path in (ROOT / folder).rglob("*.py"))
    assert not unreferenced, f"public definitions nothing names: {unreferenced}"


# Public definitions that only tests reach, each with the reason it stays.
TEST_ONLY = {
    "aggregate": "the run summary of ROADMAP item 1 reports the per-seed AUCs through it",
    "to_kv_text": "item 1c's CLI prints one of the two report formats; the other then goes",
    "to_table_csv": "item 1c's CLI prints one of the two report formats; the other then goes",
    "separable_config": "the tests' one-factor dataset, which both modalities see near-noiselessly",
    "assemble_instance": "perfbench/test_perfbench.py checks its instance against the "
                         "benchmark's re-derivation, so it stays while that test calls it",
    "save_model": "item 10's replay and item 1b's runner write checkpoints",
    "load_model": "item 10's replay and item 1b's runner write checkpoints",
}


def test_public_defs_only_tests_reach_are_listed():
    """The public definitions that nothing in src/ or in the benchmark's own
    code (perfbench/ outside its test_*.py) names are exactly TEST_ONLY.  A
    new one is wired in, deleted, or listed here with its reason.  A
    package's ``__init__.py`` re-exports names for other code to call, so
    its mention reaches nothing."""
    reached_from = [*(path for path in (ROOT / "src").rglob("*.py")
                      if path.name != "__init__.py"),
                    *(path for path in (ROOT / "perfbench").rglob("*.py")
                      if not path.name.startswith("test_"))]
    found = _unreferenced(reached_from)
    unlisted = {name: where for name, where in found.items() if name not in TEST_ONLY}
    reached = sorted(TEST_ONLY.keys() - found.keys())
    assert not unlisted and not reached, (
        f"reached only from tests, not listed: {unlisted}; listed, but reached: {reached}")


def test_every_error_type_is_raised():
    """Each exception class in errors.py, the base class aside, is constructed
    in src/ outside errors.py: raised, or returned by a helper that builds
    the error a caller raises."""
    package = ROOT / "src" / "hapticnet"
    errors = {node.name for node in ast.parse((package / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)} - {"HapticNetError"}
    built = set()
    for path in package.rglob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                value = node.exc
            elif isinstance(node, ast.Return):
                value = node.value
            else:
                continue
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                built.add(value.func.id)
    assert errors, "errors.py defines no exception class"
    assert not errors - built, f"error types nothing in src/ raises: {sorted(errors - built)}"


def test_no_function_imports():
    """Every import in src/ sits at module level, where a reader sees a
    module's dependencies at once; no cycle needs one deferred."""
    inside = [f"{path.relative_to(ROOT)}:{node.lineno} in {fn.name}"
              for path in (ROOT / "src").rglob("*.py")
              for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inside, f"imports inside functions: {inside}"


def _raises(node, function=None):
    """Yield (innermost enclosing function name, raise node) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _raises(child, inner)


def test_every_raise_is_a_package_error():
    """Each raise in src/ builds a class from errors.py by name, with no
    exception: no internal invariant raises an error of its own."""
    package = ROOT / "src" / "hapticnet"
    errors = {node.name for node in ast.parse((package / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)}
    stray = []
    for path in package.rglob("*.py"):
        for function, node in _raises(ast.parse(path.read_text())):
            exc = node.exc
            name = exc.func.id if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) else None
            if name not in errors:
                stray.append(f"{path.relative_to(ROOT)}:{node.lineno} in {function}")
    assert not stray, f"raises of something other than the package's errors: {stray}"


def _cache_factory(node, imported):
    """The functools decorator ``node`` names, ``"lru_cache"`` or ``"cache"``,
    else None; ``imported`` maps each name a ``from functools import`` binds
    to what it names."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "functools" and node.attr in ("lru_cache", "cache"):
        return node.attr
    return imported.get(node.id) if isinstance(node, ast.Name) else None


def test_every_cache_is_bounded():
    """Every functools.lru_cache in src/ is called with an integer maxsize,
    so no cache grows with the inputs a run sees.  functools.cache, which
    has no bound, and a bare lru_cache are both refused."""
    cached, unbounded = set(), []
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "functools"
                    for alias in node.names if alias.name in ("lru_cache", "cache")}
        bounded = set()  # ids of the factory nodes called with an integer maxsize
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _cache_factory(getattr(d, "func", d), imported) for d in node.decorator_list):
                cached.add(node.name)
            if isinstance(node, ast.Call) and _cache_factory(node.func, imported) == "lru_cache":
                sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                if sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                    bounded.add(id(node.func))
        unbounded += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                      if _cache_factory(node, imported) and id(node) not in bounded]
    assert cached >= {"_templates", "_subsample_index"}
    assert not unbounded, f"caches without an integer maxsize: {unbounded}"


def _callee(call):
    """The name a call's function goes by: ``f`` of ``f(...)`` and ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_config_field_has_a_caller_that_sets_it():
    """Each field of TrainSchedule and SynthConfig is set by keyword, in a
    call of the class or of ``dataclasses.replace``, somewhere in src/ or in
    the benchmark's own code (perfbench/ outside its test_*.py).  A setting
    only tests vary is a constant of the package, and one it can work out
    is derived."""
    sources = [*(ROOT / "src").rglob("*.py"),
               *(path for path in (ROOT / "perfbench").rglob("*.py")
                 if not path.name.startswith("test_"))]
    configs = {cls.__name__: {f.name for f in dataclasses.fields(cls)}
               for cls in (TrainSchedule, SynthConfig)}
    set_by_keyword = {name: set() for name in configs}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            callee = _callee(node) if isinstance(node, ast.Call) else None
            # a replace() may be of either class; its keywords count for both
            for name in configs if callee == "replace" else {callee} & configs.keys():
                set_by_keyword[name] |= {k.arg for k in node.keywords}
    unset = {name: sorted(fields - set_by_keyword[name]) for name, fields in configs.items()
             if fields - set_by_keyword[name]}
    assert not unset, f"config fields no caller sets: {unset}"
