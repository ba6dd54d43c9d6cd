"""Every pair and every template strand of the package is assembled in one
place: `FamilyPair(...)` is called only inside `families._pair`, and
`StrandEntry(...)` only inside `families._strand`. A new catalog entry or
parser path then cannot grow its own assembly code."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_sieve"


def callers(source, callee):
    """The innermost enclosing function of every call of `callee` in a
    module, by plain or attribute name, in source order; "<module>" for a
    call outside every function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee:
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def package_callers(callee):
    """(module, function) for every call of `callee` in the package."""
    return [
        (path.stem, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner in callers(path.read_text(encoding="utf-8"), callee)
    ]


@pytest.mark.parametrize(
    "source,found",
    [
        ("FamilyPair(1)", ["<module>"]),
        ("families.FamilyPair(1)", ["<module>"]),
        ("def f():\n    return FamilyPair(1)", ["f"]),
        ("def f():\n    def g():\n        FamilyPair(1)\n    FamilyPair(2)", ["g", "f"]),
        ("class C:\n    def m(self):\n        return [FamilyPair(x) for x in y]", ["m"]),
        ("x = {k: FamilyPair(k) for k in y}", ["<module>"]),
        ("FamilyPairs(1)\nFamilyPair", []),
    ],
)
def test_every_call_form_is_seen(source, found):
    assert callers(source, "FamilyPair") == found


def test_only_pair_assembles_family_pairs():
    assert package_callers("FamilyPair") == [("families", "_pair")]


def test_only_strand_assembles_template_entries():
    assert package_callers("StrandEntry") == [("families", "_strand")]
