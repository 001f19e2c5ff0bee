"""The export surface: each module's __all__ names what it defines, and the
package namespace re-exports only names its modules declare.  Also the
package's caches: there is one."""

import ast
import functools
import importlib
import pkgutil
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
