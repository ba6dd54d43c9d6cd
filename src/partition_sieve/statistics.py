"""Partition statistics induced by multiset families.

A family-induced statistic counts how many family members a partition
contains: X(pi) = |{i : F_i contained in pi}|. Brute force, the sieve and
the CLI tally only these. Each one is deterministic, total on partitions,
and returns a nonnegative integer.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .families import FamilyPair, MultisetFamily

__all__ = [
    "FamilyStatistic",
    "NativeStatistic",
    "pair_statistics",
]

CountsRule = Callable[[Mapping[int, int]], int]


class FamilyStatistic:
    """X(pi) = number of family members contained in pi.

    Only members of weight <= n can occur in a partition of n.
    `family.member_patterns(n)` gives those members' items, which brute
    force tallies; `counts_evaluator(n)` gives a rule that counts them in
    one {size: multiplicity} map, the independent per-map form the tests
    check the tally against.
    """

    def __init__(self, family: MultisetFamily, label: str | None = None):
        self.family = family
        self.label = label if label is not None else family.name

    def counts_evaluator(self, n: int) -> CountsRule:
        patterns = self.family.member_patterns(n)

        def rule(counts: Mapping[int, int]) -> int:
            hits = 0
            get = counts.get
            for pattern in patterns:
                for size, mult in pattern:
                    if get(size, 0) < mult:
                        break
                else:
                    hits += 1
            return hits

        return rule

    def __repr__(self) -> str:
        return f"FamilyStatistic({self.label!r})"


class NativeStatistic:
    """A named closed-form rule on the {size: multiplicity} map.

    Nothing in the package builds one. It stays for `perfbench/tracing.py`,
    which wraps this class's `counts_evaluator` by name.
    """

    def __init__(self, label: str, rule: CountsRule):
        self.label = label
        self._rule = rule

    def counts_evaluator(self, n: int) -> CountsRule:
        return self._rule

    def __repr__(self) -> str:
        return f"NativeStatistic({self.label!r})"


def pair_statistics(pair: FamilyPair) -> tuple[FamilyStatistic, FamilyStatistic]:
    """The (X, Y) statistics induced by a pair's F and G families."""
    return (
        FamilyStatistic(pair.F, label=f"{pair.name}.X"),
        FamilyStatistic(pair.G, label=f"{pair.name}.Y"),
    )
