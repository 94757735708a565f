"""Every exported name resolves, and the package re-exports every module's."""

import importlib
import pkgutil

import pytest

import trispec

# The command-line entry point is not re-exported: binding its ``cli``
# command on the package would shadow the ``trispec.cli`` module.
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(trispec.__path__) if info.name != "cli"
)


def test_package_exports_resolve():
    missing = [name for name in trispec.__all__ if not hasattr(trispec, name)]
    assert missing == []
    assert len(set(trispec.__all__)) == len(trispec.__all__)


@pytest.mark.parametrize("name", LIBRARY_MODULES + ["cli"])
def test_module_exports_resolve(name):
    module = importlib.import_module(f"trispec.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_package_reexports_module_exports(name):
    module = importlib.import_module(f"trispec.{name}")
    assert sorted(set(module.__all__) - set(trispec.__all__)) == []
    for export in module.__all__:
        assert getattr(trispec, export) is getattr(module, export)


def test_package_exports_exactly_the_module_exports():
    names = [
        n for name in LIBRARY_MODULES for n in importlib.import_module(f"trispec.{name}").__all__
    ]
    assert sorted(trispec.__all__) == sorted(names)
