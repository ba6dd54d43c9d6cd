"""Exact distribution tables for partition statistics, and pairwise
identical-distribution verification over a range of n.

A table holds the numerators |{pi in P(n) : X(pi) = j}|. Comparison
verdicts are computed from exact counts only, never from floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .partitions import partition_walk
from .statistics import FamilyStatistic

__all__ = [
    "ComparisonReport",
    "ComparisonVerdict",
    "DistributionTable",
    "compare",
    "distribution_bruteforce",
]


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Exact counts {j: |{pi in P(n) : X(pi) = j}|} with their sum.

    Absent j means count 0; zero counts are never stored. For full
    enumerations the total equals p(n).
    """

    n: int
    counts: dict[int, int]
    total: int

    def __init__(self, n: int, counts: Mapping[int, int]):
        clean = {}
        for j, c in counts.items():
            if j < 0:
                raise ValueError(f"statistic value must be >= 0, got {j}")
            if c < 0:
                raise ValueError(f"count must be >= 0, got {c} at j={j}")
            if c:
                clean[j] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", clean)
        object.__setattr__(self, "total", sum(clean.values()))

    def marginal(self, j: int) -> int:
        """The count at j (0 if absent)."""
        return self.counts.get(j, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistributionTable):
            return NotImplemented
        return self.n == other.n and self.counts == other.counts

    def __repr__(self) -> str:
        body = ", ".join(f"{j}: {c}" for j, c in sorted(self.counts.items()))
        return f"DistributionTable(n={self.n}, counts={{{body}}}, total={self.total})"


def _tally_walk(stats: tuple[FamilyStatistic, ...], n: int) -> list[dict[int, int]]:
    """Tally each statistic over one walk of the partitions of n: one
    {j: count} per statistic, in order.

    No statistic is evaluated per partition. Each member (see
    `FamilyStatistic.member_patterns`) is a slot holding its number of
    unmet entries, and watch[s] lists the (needed multiplicity, slot, side)
    entries of every member that uses size s, by need. The walk reports each
    change of a watched multiplicity, so a step touches only the members
    that use the few sizes it changed, and hits[side] is the side's count of
    members contained in the current partition.
    """
    watch: list[list[tuple[int, int, int]] | None] = [None] * (n + 1)
    unmet: list[int] = []
    hits = [0] * len(stats)
    tallies = []
    for side, stat in enumerate(stats):
        patterns = stat.member_patterns(n)
        for items in patterns:
            slot = len(unmet)
            unmet.append(len(items))
            for size, need in items:
                bucket = watch[size]
                if bucket is None:
                    bucket = watch[size] = []
                bucket.append((need, slot, side))
        # At most every member is contained at once.
        tallies.append([0] * (len(patterns) + 1))
    for bucket in watch:
        if bucket:
            bucket.sort()

    def on_change(bucket, old, new):
        if old < new:
            for need, slot, side in bucket:
                if need > new:
                    break
                if need > old:
                    unmet[slot] -= 1
                    if not unmet[slot]:
                        hits[side] += 1
        else:
            for need, slot, side in bucket:
                if need > old:
                    break
                if need > new:
                    if not unmet[slot]:
                        hits[side] -= 1
                    unmet[slot] += 1

    sides = tuple(enumerate(tallies))
    for _ in partition_walk(n, watch, on_change):
        for side, tally in sides:
            tally[hits[side]] += 1
    return [{j: c for j, c in enumerate(tally) if c} for tally in tallies]


def distribution_bruteforce(stat: FamilyStatistic, n: int) -> DistributionTable:
    """Tally the statistic over every partition of n by full enumeration,
    from hit counts that the walk keeps up to date as multiplicities change.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    (tally,) = _tally_walk((stat,), n)
    return DistributionTable(n, tally)


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome at one n: identical count maps, or the smallest differing j."""

    n: int
    identical: bool
    j: int | None = None
    count_x: int | None = None
    count_y: int | None = None


@dataclass(frozen=True)
class ComparisonReport:
    label_x: str
    label_y: str
    n_from: int
    n_to: int
    verdicts: tuple[ComparisonVerdict, ...]

    @property
    def identical_everywhere(self) -> bool:
        return all(v.identical for v in self.verdicts)

    def first_divergence(self) -> ComparisonVerdict | None:
        return next((v for v in self.verdicts if not v.identical), None)


def first_count_difference(
    a: Mapping[int, int], b: Mapping[int, int]
) -> tuple[int, int, int] | None:
    """Smallest j where two count maps differ, with both counts; None if equal."""
    for j in sorted(set(a) | set(b)):
        if a.get(j, 0) != b.get(j, 0):
            return j, a.get(j, 0), b.get(j, 0)
    return None


def compare(
    stat_x: FamilyStatistic, stat_y: FamilyStatistic, n_from: int, n_to: int
) -> ComparisonReport:
    """Check Prob_n(X=j) = Prob_n(Y=j) for every n in [n_from, n_to].

    Both sides are tallied over one walk of P(n), as in
    `distribution_bruteforce`, so equal count maps mean equal distributions
    exactly. A divergent verdict carries the smallest j whose counts differ.
    """
    if not 0 <= n_from <= n_to:
        raise ValueError(f"need 0 <= n_from <= n_to, got [{n_from}, {n_to}]")
    verdicts = []
    for n in range(n_from, n_to + 1):
        tx, ty = _tally_walk((stat_x, stat_y), n)
        diff = first_count_difference(tx, ty)
        if diff is None:
            verdicts.append(ComparisonVerdict(n, True))
        else:
            j, cx, cy = diff
            verdicts.append(ComparisonVerdict(n, False, j, cx, cy))
    return ComparisonReport(stat_x.label, stat_y.label, n_from, n_to, tuple(verdicts))
