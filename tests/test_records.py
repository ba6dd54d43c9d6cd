"""The result and family records are named tuples: their reprs, immutability,
validation through `_replace`, pickling and copying, and the import they
keep cheap."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from partition_sieve import (
    FamilyError,
    FamilyStatistic,
    Strand,
    builtin_pair,
    check_theorem_b,
    check_theorem_c,
    compare,
    distribution_bruteforce,
    pair_statistics,
    parse_family_pair,
    sieve_distribution,
)
from partition_sieve.distribution import DistributionTable
from partition_sieve.families import mod6_prose_family

SRC = Path(__file__).resolve().parent.parent / "src"

EULER = builtin_pair("euler")
EULER_X, EULER_Y = pair_statistics(EULER)
# F and G differ in weight at the one index.
WEIGHT_FAIL = parse_family_pair(
    '{"name": "w", "F": [{"explicit": [[1, 1]]}], "G": [{"explicit": [[2, 1]]}]}'
)
# Equal weights index by index, but the union of both indices differs.
UNION_FAIL = parse_family_pair(
    '{"name": "u", "F": [{"explicit": [[1, 1]]}, {"explicit": [[1, 1]]}],'
    ' "G": [{"explicit": [[1, 1]]}, {"explicit": [[2, 1]]}]}'
)


def records():
    """One instance of each record type, built lazily so that a failing
    constructor fails its own case."""
    mod6_x, _ = pair_statistics(builtin_pair("mod6"))
    remmel = builtin_pair("remmel_consecutive")
    return {
        "StrandEntry": lambda: EULER.F.strands[0].entries[0],
        "Strand": lambda: EULER.F.strands[0],
        "MultisetFamily": lambda: WEIGHT_FAIL.F,
        "FamilyPair": lambda: EULER,
        "DistributionTable": lambda: distribution_bruteforce(EULER_X, 4),
        "ComparisonVerdict": lambda: compare(
            mod6_x, FamilyStatistic(mod6_prose_family()), 6, 6
        ).verdicts[0],
        "ComparisonReport": lambda: compare(EULER_X, EULER_Y, 0, 1),
        "SieveResult": lambda: sieve_distribution(EULER.F, 4),
        "DisjointnessWitness": lambda: check_theorem_b(remmel, 10).witness,
        "WeightWitness": lambda: check_theorem_b(WEIGHT_FAIL, 3).witness,
        "UnionWeightWitness": lambda: check_theorem_c(UNION_FAIL, 3).witness,
        "HypothesisReport": lambda: check_theorem_c(UNION_FAIL, 3),
    }


RECORDS = records()

# Recorded from the dataclass records that these named tuples replaced.
REPRS = {
    "StrandEntry": "StrandEntry(size=(0, 2, 0), mult=(0, 1))",
    "Strand": (
        "Strand(entries=(StrandEntry(size=(0, 2, 0), mult=(0, 1)),), explicit=None, tmin=1)"
    ),
    "MultisetFamily": (
        "MultisetFamily(name='w.F', strands=(Strand(entries=(), "
        "explicit=Multiset({1: 1}), tmin=1),))"
    ),
    "FamilyPair": (
        "FamilyPair(name='euler', F=MultisetFamily(name='euler.F', strands=(Strand("
        "entries=(StrandEntry(size=(0, 2, 0), mult=(0, 1)),), explicit=None, tmin=1),)), "
        "G=MultisetFamily(name='euler.G', strands=(Strand(entries=(StrandEntry("
        "size=(0, 1, 0), mult=(0, 2)),), explicit=None, tmin=1),)))"
    ),
    "DistributionTable": "DistributionTable(n=4, counts={0: 2, 1: 3}, total=5)",
    "ComparisonVerdict": "ComparisonVerdict(n=6, identical=False, j=0, count_x=3, count_y=2)",
    "ComparisonReport": (
        "ComparisonReport(label_x='euler.X', label_y='euler.Y', n_from=0, n_to=1, "
        "verdicts=(ComparisonVerdict(n=0, identical=True, j=None, count_x=None, "
        "count_y=None), ComparisonVerdict(n=1, identical=True, j=None, count_x=None, "
        "count_y=None)))"
    ),
    "SieveResult": (
        "SieveResult(table=DistributionTable(n=4, counts={0: 2, 1: 3}, total=5), "
        "subsets_explored=3, truncated=False)"
    ),
    "DisjointnessWitness": (
        "DisjointnessWitness(side='F', idx_a=FamilyIndex(strand=0, t=1), "
        "idx_b=FamilyIndex(strand=0, t=2), element=4, multiset_a=Multiset({2: 1, 4: 1}), "
        "multiset_b=Multiset({4: 1, 6: 1}))"
    ),
    "WeightWitness": (
        "WeightWitness(idx=FamilyIndex(strand=0, t=1), weight_f=1, weight_g=2, "
        "multiset_f=Multiset({1: 1}), multiset_g=Multiset({2: 1}))"
    ),
    "UnionWeightWitness": (
        "UnionWeightWitness(positions=(FamilyIndex(strand=0, t=1), FamilyIndex(strand=1, "
        "t=1)), weight_f=1, weight_g=3, union_f=Multiset({1: 1}), "
        "union_g=Multiset({1: 1, 2: 1}))"
    ),
    "HypothesisReport": (
        "HypothesisReport(theorem='C', verified_up_to=3, holds=False, "
        "witness=UnionWeightWitness(positions=(FamilyIndex(strand=0, t=1), "
        "FamilyIndex(strand=1, t=1)), weight_f=1, weight_g=3, union_f=Multiset({1: 1}), "
        "union_g=Multiset({1: 1, 2: 1})), subsets_explored=3, inconclusive=False)"
    ),
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_unchanged(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


# andrews' strands are explicit multisets, where RECORDS' strand and pair
# are euler's templates. Its G's strand 0, {1: 2}, is G's own; F's is {2: 1}.
ANDREWS = builtin_pair("andrews", m1=[1, 2, 4, 8], bound=8)
EXPLICIT = {
    "explicit Strand": lambda: ANDREWS.G.strands[0],
    "explicit MultisetFamily": lambda: ANDREWS.G,
    "explicit FamilyPair": lambda: ANDREWS,
}
CLONED = {**RECORDS, **EXPLICIT}


@pytest.mark.parametrize("name", sorted(CLONED))
def test_pickle_round_trip(name):
    record = CLONED[name]()
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record)
    assert restored == record


@pytest.mark.parametrize("name", sorted(CLONED))
def test_deepcopy_equals_the_record(name):
    record = CLONED[name]()
    assert copy.deepcopy(record) == record


def test_distribution_table_stays_unhashable():
    with pytest.raises(TypeError):
        hash(DistributionTable(4, {0: 2, 1: 3}))


def test_distribution_table_equals_its_field_tuple():
    table = DistributionTable(4, {0: 2, 1: 3, 5: 0})
    assert table == (4, {0: 2, 1: 3}, 5)
    assert table != DistributionTable(5, {0: 2, 1: 3})
    n, counts, total = table
    assert (n, counts, total) == (4, {0: 2, 1: 3}, 5)


def test_replace_cleans_and_totals_the_table():
    table = DistributionTable(4, {0: 2, 1: 3})._replace(counts={0: 1, 2: 0, 3: 4})
    assert table == DistributionTable(4, {0: 1, 3: 4})
    assert table.total == 5
    with pytest.raises(ValueError, match="count must be >= 0"):
        table._replace(counts={0: -1})


def test_replace_validates_family_records():
    strand = EULER.F.strands[0]
    assert strand._replace(tmin=2) == Strand(entries=strand.entries, tmin=2)
    with pytest.raises(FamilyError, match="tmin must be an integer"):
        strand._replace(tmin="1")
    with pytest.raises(FamilyError, match="has no strands"):
        EULER.F._replace(strands=())
    with pytest.raises(FamilyError, match="F has 1 strands but G has 2"):
        EULER._replace(G=UNION_FAIL.G)
    with pytest.raises(FamilyError, match="size must be 3 integer coefficients"):
        strand.entries[0]._replace(size=(0, 2))


def test_asdict_names_every_field():
    assert EULER._asdict() == {"name": "euler", "F": EULER.F, "G": EULER.G}


def module_roots(source):
    """Top-level names of the absolute imports in `source`, nested ones too."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
    return roots


@pytest.mark.parametrize(
    "source",
    [
        "from dataclasses import dataclass",
        "import dataclasses as dc",
        "import os, dataclasses",
        "def f():\n    from dataclasses import fields\n",
    ],
)
def test_every_dataclasses_import_is_seen(source):
    assert "dataclasses" in module_roots(source)


@pytest.mark.parametrize(
    "path", sorted(SRC.joinpath("partition_sieve").glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in module_roots(path.read_text(encoding="utf-8"))


def test_package_import_loads_no_dataclasses_inspect_or_click():
    # -S leaves out `site` and whatever its hooks would import. The library
    # never starts the CLI framework: loading click would cost every run
    # that only calls the library tens of milliseconds.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import partition_sieve, sys; "
        "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == "[]\n"
