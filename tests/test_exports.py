"""The export surface: each module's __all__ names what it defines, and the
package namespace re-exports only names its modules declare.  Also the
package's caches: there is one.  And the names perfbench's tracer binds:
they exist, and it puts every binding back."""

import ast
import functools
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import spdc_coherence

MODULES = sorted(info.name for info in pkgutil.iter_modules(spdc_coherence.__path__))
# the library modules; cli is the command-line entry point and exports nothing
EXPORTING = [m for m in MODULES if hasattr(importlib.import_module(f"spdc_coherence.{m}"), "__all__")]


def _package_imports():
    """(module, name) for every name spdc_coherence/__init__.py imports."""
    tree = ast.parse(Path(spdc_coherence.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("modname", EXPORTING)
def test_every_export_exists(modname):
    mod = importlib.import_module(f"spdc_coherence.{modname}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate entries in __all__"
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from spdc_coherence.{modname} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_only_declared_names():
    imports = _package_imports()
    assert {modname for modname, _ in imports} <= set(EXPORTING)
    undeclared = [
        f"{modname}.{name}"
        for modname, name in imports
        if name not in importlib.import_module(f"spdc_coherence.{modname}").__all__
    ]
    assert undeclared == []


def test_one_lru_cache():
    """The non-Gaussian minus factor is the package's only cache; it is
    keyed on what it reads, so nothing under it needs a cache of its own."""
    found = set()
    for modname in MODULES:
        mod = importlib.import_module(f"spdc_coherence.{modname}")
        classes = [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__]
        scopes = [vars(mod)] + [vars(cls) for cls in classes]
        for scope in scopes:
            for val in scope.values():
                fn = getattr(val, "__func__", val)  # staticmethod / classmethod
                if isinstance(fn, functools._lru_cache_wrapper):
                    found.add(f"{fn.__module__}.{fn.__qualname__}")
    assert found == {"spdc_coherence.joint._minus_marginal"}


CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _name(node):
    # the name a decorator or reference ends in: cache, functools.cache,
    # lru_cache(maxsize=32)
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_one_cache_in_the_source():
    """The same in the source, nested functions and methods included: the
    only cache, lru_cache or cached_property decorator in the package sits
    on joint._minus_marginal, and those names appear nowhere else (so no
    cache is made by a call either).  Imports are not references."""
    found, uses = [], 0

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{scope}.{child.name}"
                found.extend(qual for d in child.decorator_list if _name(d) in CACHE_DECORATORS)
                visit(child, qual)
            else:
                visit(child, scope)

    for path in sorted(Path(spdc_coherence.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.stem)
        uses += sum(isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in CACHE_DECORATORS
                    for node in ast.walk(tree))
    assert found == ["joint._minus_marginal"]
    assert uses == len(found)


def _load_spans():
    """perfbench/spans.py as a module of its own, writing no bytecode
    under perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _bound(owner, attr):
    # what perfbench's Tracer.patch saves: a class's own entry, else the attribute
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_perfbench_bindings_install_and_restore():
    """perfbench's tracer wraps package functions by name (sine_integral,
    bessel_j0, hankel0, every validation check_*, JointGrid's serializers)
    in every module that binds them, and counts the package's caches:
    `perfbench/run.py --trace 1` runs only while each of those names
    exists.  Installing finds them all, uninstalling restores every
    binding, and the one cache is the one it finds."""
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, spdc_coherence)
        saved = list(tracer._saved)
        wrapped = [_bound(owner, attr) is not original for owner, attr, original in saved]
    finally:
        tracer.uninstall()
    assert saved and all(wrapped)
    assert [(owner, attr) for owner, attr, original in saved if _bound(owner, attr) is not original] == []
    assert list(spans.CacheSet(spdc_coherence).caches) == ["spdc_coherence.joint._minus_marginal"]
