"""Exact-arithmetic verification of identically distributed partition statistics.

Distributions Prob_n(X = j) are computed two independent ways -- brute force
over all partitions of n as a transfer DP over the part sizes, and an
inclusion-exclusion sieve over multiset-family indices -- and compared exactly. Mechanical checkers certify
the two sufficient hypotheses (pairwise-disjoint weight-matched families;
equal union weights for every index set) on finite truncations.
"""

# The public API is the union of the modules' own __all__ lists, each
# module's names republished here by its star import.
from . import partitions, families, statistics, distribution, sieve
from .partitions import *
from .families import *
from .statistics import *
from .distribution import *
from .sieve import *

__all__ = sorted(
    name
    for module in (partitions, families, statistics, distribution, sieve)
    for name in module.__all__
)

__version__ = "0.1.0"
