"""Exact-arithmetic verification of identically distributed partition statistics.

Distributions Prob_n(X = j) are computed two independent ways -- brute-force
enumeration of all partitions of n, and an inclusion-exclusion sieve over
multiset-family indices -- and compared exactly. Mechanical checkers certify
the two sufficient hypotheses (pairwise-disjoint weight-matched families;
equal union weights for every index set) on finite truncations.
"""

from .partitions import Multiset, count_partitions
from .families import (
    BUILTIN_PAIRS,
    FamilyError,
    FamilyIndex,
    FamilyPair,
    MultisetFamily,
    Strand,
    StrandEntry,
    builtin_pair,
    parse_family_pair,
    render_family_pair,
)
from .statistics import FamilyStatistic, NativeStatistic, native, pair_statistics
from .distribution import (
    ComparisonReport,
    ComparisonVerdict,
    DistributionTable,
    compare,
    distribution_bruteforce,
)
from .sieve import (
    DEFAULT_SUBSET_CAP,
    DisjointnessWitness,
    HypothesisReport,
    SieveResult,
    UnionWeightWitness,
    WeightWitness,
    check_theorem_b,
    check_theorem_c,
    sieve_distribution,
)

__all__ = [
    "BUILTIN_PAIRS",
    "ComparisonReport",
    "ComparisonVerdict",
    "DEFAULT_SUBSET_CAP",
    "DisjointnessWitness",
    "DistributionTable",
    "FamilyError",
    "FamilyIndex",
    "FamilyPair",
    "FamilyStatistic",
    "HypothesisReport",
    "Multiset",
    "MultisetFamily",
    "NativeStatistic",
    "SieveResult",
    "Strand",
    "StrandEntry",
    "UnionWeightWitness",
    "WeightWitness",
    "builtin_pair",
    "check_theorem_b",
    "check_theorem_c",
    "compare",
    "count_partitions",
    "distribution_bruteforce",
    "native",
    "pair_statistics",
    "parse_family_pair",
    "render_family_pair",
    "sieve_distribution",
]

__version__ = "0.1.0"
