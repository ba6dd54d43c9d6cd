"""Strands are read in one module. Only `families` reads a strand's fields,
so brute force, the sieve and the checkers take their members from
`MultisetFamily.member_patterns` and `FamilyPair.positions`: a module that
walks strands itself, or reaches for the strand reader, fails here."""

import ast
from pathlib import Path

import pytest

from test_independence import module_imports

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_sieve"

STRAND_FIELDS = {"strands", "explicit", "entries", "tmin"}


def strand_reads(source):
    """(line, field) for every strand field a module reads, as an attribute
    or through getattr with a literal name, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STRAND_FIELDS:
            found.append((node.lineno, node.attr))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in STRAND_FIELDS
        ):
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


@pytest.mark.parametrize(
    "source,found",
    [
        ("pair.F.strands", [(1, "strands")]),
        ("x = strand.explicit\ny = strand.tmin", [(1, "explicit"), (2, "tmin")]),
        ("def f(s):\n    return [e for e in s.entries]", [(2, "entries")]),
        ("getattr(strand, 'tmin')", [(1, "tmin")]),
        ("strands = explicit = tmin\nf(entries=1)\nx.entry", []),
    ],
)
def test_every_read_form_is_seen(source, found):
    assert strand_reads(source) == found


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(SRC.glob("*.py")) if path.name != "families.py"],
    ids=lambda path: path.name,
)
def test_only_families_reads_strands(path):
    assert strand_reads(path.read_text(encoding="utf-8")) == []


def test_sieve_takes_records_and_patterns_from_families():
    taken = module_imports("sieve")["families"]
    assert taken == {"FamilyIndex", "FamilyPair", "MultisetFamily", "Pattern"}
