"""Brute force stays independent of the fast paths that it cross-checks:
an import that routes `distribution` through sieve code fails here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_sieve"


def package_imports(source):
    """{package module: names taken from it} over every import statement of
    a module of the package, nested ones too; "*" is the whole module."""
    taken = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "partition_sieve":
                    continue
                module = module.removeprefix("partition_sieve").lstrip(".")
            if module:
                taken.setdefault(module, set()).update(alias.name for alias in node.names)
            else:
                for alias in node.names:
                    taken.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "partition_sieve" and module:
                    taken.setdefault(module, set()).add("*")
    return taken


def module_imports(name):
    return package_imports((SRC / f"{name}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "source,taken",
    [
        ("from .sieve import _count_subsets", {"sieve": {"_count_subsets"}}),
        ("from . import sieve", {"sieve": {"*"}}),
        ("from partition_sieve.sieve import sieve_distribution", {"sieve": {"sieve_distribution"}}),
        ("from partition_sieve import sieve as s", {"sieve": {"*"}}),
        ("import partition_sieve.sieve", {"sieve": {"*"}}),
        ("def f():\n    from .sieve import _grow\n", {"sieve": {"_grow"}}),
        ("import itertools\nfrom collections import Counter", {}),
    ],
)
def test_every_import_form_is_seen(source, taken):
    assert package_imports(source) == taken


def test_brute_force_imports_nothing_from_the_sieve():
    assert "sieve" not in module_imports("distribution")


def test_brute_force_takes_only_the_partition_count():
    # P(q) is read through count_partitions, not the sieve's accessors.
    assert module_imports("distribution")["partitions"] == {"count_partitions"}


def test_sieve_takes_only_the_table_from_brute_force():
    assert module_imports("sieve")["distribution"] == {"DistributionTable"}
