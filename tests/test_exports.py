import importlib
import pkgutil

import pytest

import partition_sieve

MODULES = ["partition_sieve"] + [
    f"partition_sieve.{info.name}" for info in pkgutil.iter_modules(partition_sieve.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES[1:])
def test_module_exports_reach_the_package(module_name):
    module = importlib.import_module(module_name)
    unexported = set(getattr(module, "__all__", ())) - set(partition_sieve.__all__)
    assert unexported == set()


def test_no_name_exported_by_two_modules():
    # The package star-imports every module, so a name in two modules'
    # __all__ would silently shadow the other.
    owners = {}
    for module_name in MODULES[1:]:
        for name in getattr(importlib.import_module(module_name), "__all__", ()):
            owners.setdefault(name, []).append(module_name)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
