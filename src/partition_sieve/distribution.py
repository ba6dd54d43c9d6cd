"""Exact distribution tables for partition statistics, and pairwise
identical-distribution verification over a range of n.

A table holds the numerators |{pi in P(n) : X(pi) = j}|. Comparison
verdicts are computed from exact counts only, never from floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .partitions import count_partitions, partition_walk
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


def _cover(classes: Iterable[tuple[tuple[int, int, int], int]], rest: int) -> Counter[int]:
    """How many tails 3^t 2^k 1^(rest - 3t - 2k) of rest contain each number
    of members of the given classes: {hits: tails}. A class is the (c, a, b)
    that its members need at sizes 3, 2 and 1, given with its number of
    members; a tail contains them iff t >= c, k >= a and rest - 3t - 2k >= b,
    so for each t >= c for k in [a, (rest - 3t - b) // 2]. Only a tail that
    some member with two or more entries couples to the others needs this;
    `_tally_walk` counts any other tail in the product of `_hit_rows`.
    """
    hits: list[int] = []
    for t in range(rest // 3 + 1):
        left = rest - 3 * t
        top = left >> 1
        diff = [0] * (top + 2)
        for (c, a, b), mult in classes:
            hi = (left - b) >> 1
            if c <= t and a <= hi:
                diff[a] += mult
                diff[hi + 1] -= mult
        hits += accumulate(diff[: top + 1])
    return Counter(hits)


def _hit_rows(needs: Mapping[int, Sequence[int]], n: int) -> tuple[int, list[int]]:
    """The product over the sizes s of `needs` of sum_k q^(sk) y^(h_s(k)),
    h_s(k) the number of needs[s] that are <= k, to q^n, as (b, rows): row
    h holds the coefficient of q^u y^h in digit u of base 2^b, for u <= n.

    A coefficient counts partitions of u, so it is at most p(u) <= p(n) <
    2^(b - 1) and no carry reaches a digit <= n. Per size s, pre sums the
    row along stride s (digit u of pre is the sum of the row's digits
    u - ks, k >= 0); the k in [a, c), a range with the same number of
    needs <= k, give (pre << b s a) - (pre << b s c). pre never falls along
    stride s, so that difference never borrows.
    """
    b = count_partitions(n).bit_length() + 1
    top = b * n
    mask = (1 << top + b) - 1

    def stride_sums(row: int, s: int) -> int:
        # Each pass doubles the number of k summed.
        shift = b * s
        while shift <= top:
            row += row << shift & mask
            shift <<= 1
        return row

    # The sizes that no member needs first, while there is one row.
    row = 1
    for s, mults in needs.items():
        if not mults:
            row = stride_sums(row, s)
    rows = [row]
    for s, mults in needs.items():
        if not mults:
            continue
        stride = b * s
        mults = sorted(mults)
        product = [0] * (len(rows) + len(mults))
        for h, row in enumerate(rows):
            if not row:
                continue
            pre = stride_sums(row, s)
            low = pre
            for m in mults:
                high = pre << stride * m & mask
                product[h] += low - high
                low = high
                h += 1
            product[h] += low
        while not product[-1]:
            product.pop()
        rows = product
    return b, rows


def _tally_walk(
    patterns: Sequence[tuple[tuple[int, int], ...]], n_from: int, n_to: int
) -> list[dict[int, int]]:
    """Tally the statistic that counts the members with these (size,
    multiplicity) patterns at every n in [n_from, n_to], over one walk of
    the partitions of n_to: one {j: count} per n, in order.

    No member is checked per partition. W is the set of sizes >= 4 that
    some member with two or more entries uses, and only W is watched, so
    `partition_walk` yields groups: a map nu of the parts at those sizes
    and a rest r, standing for the partitions nu + mu of n_to, mu a
    partition of r into the sizes outside W. A member with one entry, at a
    size s outside W, is met iff mu holds at least its need at s, so it
    only adds a hit to the mu that do. Per size s, h_s(k) counts those
    members at s that need at most k, and the mu of u that meet h of them
    are counted by the coefficient of q^u y^h in the product over the
    sizes s outside W of sum_k q^(sk) y^(h_s(k)) (`_hit_rows`).

    The tail at sizes 3, 2 and 1 is coupled when some member with two or
    more entries uses one of them. Then the product runs over the sizes
    >= 4 outside W only, and each member (see
    `MultisetFamily.member_patterns`) with an entry below 4 needs some
    (c, a, b) at sizes 3, 2 and 1 (0 where it has no entry); nu + mu +
    3^t 2^k 1^j contains it iff its entries at sizes >= 4 are met in
    nu + mu, t >= c, k >= a and j >= b.

    Every other member is classed by its (c, a, b): class 0, (0, 0, 0),
    is met by the whole group. level[class] counts the class's members
    whose entries >= 4, all in W, are met; a member with none is counted at
    set-up, any other is a slot holding its number of unmet such entries,
    and watch[s] lists the (needed multiplicity, slot, class) entries of
    every member that uses size s, by need. The walk reports each change
    of a watched multiplicity, so a step touches only the members at the
    few sizes it changed, and counts its groups by state: the rest and
    every level.

    Per levels L of the classes other than 0, series_L is the product rows
    times the tail rows: tail row c holds, in digit r, the tails of r that
    meet c members of the classes (`_cover`); with no coupled tail the
    tail rows are [1].
    Digit r <= n_to of series_L row h counts partitions of r, so it stays
    below 2^(b - 1): the carries of the multiply from the digits above n_to
    move only up, and are masked off. The same nu with rest r - d is a
    group of n_to - d, so a state (rest r, base, L) adds, at each n with
    r - (n_to - n) >= 0, its groups times digit r - (n_to - n) of series_L
    row h to the count of base + h. The members are those of n_to for
    every n: a member heavier than n is never met at n.
    """
    walked_sizes = {s for items in patterns if len(items) > 1 for s, _ in items if s >= 4}
    coupled = any(len(items) > 1 and items[0][0] <= 3 for items in patterns)
    # needs[s]: what each one-entry member at the unwalked size s needs.
    needs: dict[int, list[int]] = {
        s: [] for s in range(4 if coupled else 1, n_to + 1) if s not in walked_sizes
    }
    watch: list[list[tuple[int, int, int]] | None] = [None] * (n_to + 1)
    unmet: list[int] = []
    level = [0]
    classes: dict[tuple[int, int, int], int] = {}
    for items in patterns:
        if len(items) == 1 and items[0][0] in needs:
            size, mult = items[0]
            needs[size].append(mult)
            continue
        need = dict(items)
        cab = (need.get(3, 0), need.get(2, 0), need.get(1, 0))
        cls = 0 if cab == (0, 0, 0) else classes.get(cab)
        if cls is None:
            cls = classes[cab] = len(level)
            level.append(0)
        big = [(size, mult) for size, mult in items if size >= 4]
        if not big:
            level[cls] += 1
            continue
        slot = len(unmet)
        unmet.append(len(big))
        for size, mult in big:
            bucket = watch[size]
            if bucket is None:
                bucket = watch[size] = []
            bucket.append((mult, slot, cls))
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

    walked: Counter[tuple[int, ...]] = Counter()
    for _, rest in partition_walk(n_to, watch, on_change):
        walked[(rest, *level)] += 1
    b, rows = _hit_rows(needs, n_to)
    by_levels: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for (rest, base, *levels), groups in walked.items():
        by_levels.setdefault(tuple(levels), []).append((rest, base, groups))

    digit = (1 << b) - 1
    mask = (1 << b * (n_to + 1)) - 1
    # At most every member is contained at once.
    tallies = [[0] * (len(patterns) + 1) for _ in range(n_from, n_to + 1)]
    for levels, states in by_levels.items():
        series = rows
        if coupled:
            met = tuple(zip(classes, levels))
            tail: list[int] = []
            for r in range(max(rest for rest, _, _ in states) + 1):
                for c, tails in _cover(met, r).items():
                    tail += [0] * (c + 1 - len(tail))
                    tail[c] += tails << b * r
            series = [0] * (len(rows) + len(tail) - 1)
            for h, row in enumerate(rows):
                for hc, tail_row in enumerate(tail, h):
                    series[hc] += row * tail_row
            series = [row & mask for row in series]
        for rest, base, groups in states:
            # At n, the rest is rest - (n_to - n): read where it is >= 0.
            first = rest - (n_to - n_from)
            reads = list(zip(tallies[max(0, -first) :], range(b * max(0, first), b * rest + 1, b)))
            for h, row in enumerate(series, base):
                for tally, shift in reads:
                    tally[h] += groups * (row >> shift & digit)
    return [{j: c for j, c in enumerate(tally) if c} for tally in tallies]


def distribution_bruteforce(stat: FamilyStatistic, n: int) -> DistributionTable:
    """Tally the statistic over every partition of n: one walk of the
    partitions into the sizes that members with two or more entries use,
    and every other size counted in closed form (`_tally_walk`).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    (tally,) = _tally_walk(stat.family.member_patterns(n), n, n)
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

    Each side is tallied at every n of the range over its own walk of
    P(n_to), as in `distribution_bruteforce`, so equal count maps mean
    equal distributions exactly. A divergent verdict carries the smallest j
    whose counts differ.
    """
    if not 0 <= n_from <= n_to:
        raise ValueError(f"need 0 <= n_from <= n_to, got [{n_from}, {n_to}]")
    verdicts = []
    tally_x = _tally_walk(stat_x.family.member_patterns(n_to), n_from, n_to)
    tally_y = _tally_walk(stat_y.family.member_patterns(n_to), n_from, n_to)
    for n, tx, ty in zip(range(n_from, n_to + 1), tally_x, tally_y):
        diff = first_count_difference(tx, ty)
        if diff is None:
            verdicts.append(ComparisonVerdict(n, True))
        else:
            j, cx, cy = diff
            verdicts.append(ComparisonVerdict(n, False, j, cx, cy))
    return ComparisonReport(stat_x.label, stat_y.label, n_from, n_to, tuple(verdicts))
