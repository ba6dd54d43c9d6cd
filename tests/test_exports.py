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
