"""Exact distribution tables for partition statistics, and pairwise
identical-distribution verification over a range of n.

A table holds the numerators |{pi in P(n) : X(pi) = j}|. Comparison
verdicts are computed from exact counts only, never from floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping

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


def _cover(classes: Iterable[tuple[tuple[int, int], int]], rest: int) -> list[int]:
    """For k = 0 .. rest // 2, how many members of the given classes the tail
    2^k 1^(rest - 2k) contains. A class is the (a, b) that its members need
    at sizes 2 and 1, given with its number of members; the tail contains
    them iff k >= a and rest - 2k >= b, so for k in [a, (rest - b) // 2].
    """
    top = rest >> 1
    diff = [0] * (top + 2)
    for (a, b), mult in classes:
        hi = (rest - b) >> 1
        if a <= hi:
            diff[a] += mult
            diff[hi + 1] -= mult
    return list(accumulate(diff[: top + 1]))


def _tally_walk(stats: tuple[FamilyStatistic, ...], n: int) -> list[dict[int, int]]:
    """Tally each statistic over one walk of the partitions of n: one
    {j: count} per statistic, in order.

    No statistic is evaluated per partition. `partition_walk` yields groups:
    a map nu of the parts >= 3 and a rest r, standing for the partitions
    nu + 2^k 1^(r - 2k), k = 0 .. r // 2. Each member (see
    `FamilyStatistic.member_patterns`) needs some a at size 2 and b at
    size 1 (0 where it has no entry); the partition of k contains it iff
    its entries at sizes >= 3 are met in nu and k lies in [a, (r - b) // 2].

    A member with entries at sizes >= 3 is a slot holding its number of
    unmet such entries, and watch[s] lists the (needed multiplicity, slot,
    class) entries of every member that uses size s, by need. The walk
    reports each change of a watched multiplicity, so a step touches only
    the members at the few sizes it changed, and level[class] counts the
    class's members whose entries >= 3 are all met. A side's members with
    no entry below 3 form its base class, contained at every k; the others
    are classed by (a, b), so a group costs its rest plus the side's
    classes, not its members. A group's histogram of hit counts over k
    depends only on r and the levels of the side's mixed classes, so it is
    made once per such state.
    """
    watch: list[list[tuple[int, int, int]] | None] = [None] * (n + 1)
    unmet: list[int] = []
    level: list[int] = []
    sides = []
    for stat in stats:
        patterns = stat.member_patterns(n)
        base = len(level)
        level.append(0)
        mixed: dict[tuple[int, int], int] = {}
        small: Counter[tuple[int, int]] = Counter()
        for items in patterns:
            need = dict(items)
            ab = (need.get(2, 0), need.get(1, 0))
            big = [(size, mult) for size, mult in items if size >= 3]
            if not big:
                small[ab] += 1
                continue
            cls = base if ab == (0, 0) else mixed.get(ab)
            if cls is None:
                cls = mixed[ab] = len(level)
                level.append(0)
            slot = len(unmet)
            unmet.append(len(big))
            for size, mult in big:
                bucket = watch[size]
                if bucket is None:
                    bucket = watch[size] = []
                bucket.append((mult, slot, cls))
        # At most every member is contained at once.
        tally = [0] * (len(patterns) + 1)
        # The side's mixed classes sit at level[base + 1 : end], in the order
        # of `mixed`. A group's histogram depends only on its rest and those
        # levels, so each is made once.
        memo: dict[int | tuple[int, ...], tuple[tuple[int, int], ...]] = {}
        sides.append((tally, base, len(level), tuple(mixed), tuple(small.items()), memo))
    for bucket in watch:
        if bucket:
            bucket.sort()

    def on_change(bucket, old, new):
        if old < new:
            for need, slot, cls in bucket:
                if need > new:
                    break
                if need > old:
                    unmet[slot] -= 1
                    if not unmet[slot]:
                        level[cls] += 1
        else:
            for need, slot, cls in bucket:
                if need > old:
                    break
                if need > new:
                    if not unmet[slot]:
                        level[cls] -= 1
                    unmet[slot] += 1

    for _, rest in partition_walk(n, watch, on_change):
        for tally, base, end, mixed, small_classes, memo in sides:
            # With no mixed class the bare rest is the key: building a tuple
            # per group would cost more than the tally.
            key = (rest, *level[base + 1 : end]) if mixed else rest
            histogram = memo.get(key)
            if histogram is None:
                levels = level[base + 1 : end]
                cover = _cover(small_classes + tuple(zip(mixed, levels)), rest)
                histogram = memo[key] = tuple(Counter(cover).items())
            hits = level[base]
            for c, count in histogram:
                tally[hits + c] += count
    return [{j: c for j, c in enumerate(tally) if c} for tally, *_ in sides]


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
