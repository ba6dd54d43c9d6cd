"""Exact distribution tables for partition statistics, and pairwise
identical-distribution verification over a range of n.

A table holds the numerators |{pi in P(n) : X(pi) = j}|, counted by a
transfer DP over the part sizes, not partition by partition. The DP
starts from P(q) = prod_s 1/(1 - q^s) to q^n packed into one integer, read
from `count_partitions`, and splits its rows only at the sizes that members
use, each by differences of shifted copies. Comparison verdicts are
computed from exact counts only, never from floating point.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

from .families import Pattern
from .partitions import count_partitions
from .statistics import FamilyStatistic

__all__ = [
    "ComparisonReport",
    "ComparisonVerdict",
    "DistributionTable",
    "compare",
    "distribution_bruteforce",
]


class DistributionTable(
    NamedTuple("DistributionTable", [("n", int), ("counts", dict[int, int]), ("total", int)])
):
    """Exact counts {j: |{pi in P(n) : X(pi) = j}|} with their sum.

    Absent j means count 0; zero counts are never stored. For full
    enumerations the total equals p(n). The total is always worked out
    from the counts, by the constructor and by `_replace` alike.
    """

    __slots__ = ()

    def __new__(cls, n: int, counts: Mapping[int, int]):
        clean = {}
        for j, c in counts.items():
            if j < 0:
                raise ValueError(f"statistic value must be >= 0, got {j}")
            if c < 0:
                raise ValueError(f"count must be >= 0, got {c} at j={j}")
            if c:
                clean[j] = c
        return super().__new__(cls, n, clean, sum(clean.values()))

    @classmethod
    def _make(cls, values) -> DistributionTable:
        n, counts, _total = values
        return cls(n, counts)

    def __getnewargs__(self) -> tuple[int, dict[int, int]]:
        return self.n, self.counts

    def marginal(self, j: int) -> int:
        """The count at j (0 if absent)."""
        return self.counts.get(j, 0)

    def __repr__(self) -> str:
        body = ", ".join(f"{j}: {c}" for j, c in sorted(self.counts.items()))
        return f"DistributionTable(n={self.n}, counts={{{body}}}, total={self.total})"


@lru_cache(maxsize=1)
def _partition_row(n: int) -> tuple[int, int]:
    """(b, P(q) to q^n packed in base 2^b): digit u is p(u), and b is the
    least multiple of 8 with p(n) < 2^b."""
    width = (count_partitions(n).bit_length() + 7) // 8
    digits = b"".join(count_partitions(u).to_bytes(width, "little") for u in range(n + 1))
    return 8 * width, int.from_bytes(digits, "little")


def _hit_rows(needs: Mapping[int, Sequence[int]], n: int) -> tuple[int, list[int]]:
    """P(q) = prod_s 1/(1 - q^s) with y^(h_s(k)) on the term q^(sk) of each
    size s of `needs`, h_s(k) the number of needs[s] that are <= k, to q^n,
    as (b, rows): row h holds the coefficient of q^u y^h in digit u of base
    2^b, for u <= n.

    The rows start as one, packed P(q) (`_partition_row`), so every size
    with no need is already counted. Each row holds 1/(1 - q^s) for every
    size s not yet split: its partitions with at least k parts of size s
    are the row shifted by s k, and the k in a range with the same number
    of needs <= k are one difference of two such shifts. A coefficient
    counts partitions of u, so it lies in [0, p(u)] and no borrow or carry
    crosses a digit <= n.
    """
    b, row = _partition_row(n)
    mask = (1 << b * (n + 1)) - 1
    rows = [row]
    for s, mults in needs.items():
        shifts = [b * s * m for m in sorted(mults)]
        product = [0] * (len(rows) + len(shifts))
        for h, row in enumerate(rows):
            low = row
            for shift in shifts:
                high = row << shift & mask
                product[h] += low - high
                low = high
                h += 1
            product[h] += low
        while not product[-1]:
            product.pop()
        rows = product
    return b, rows


def _sweep(
    patterns: Sequence[Pattern], n: int
) -> Iterator[tuple[int, dict[frozenset[int], dict[int, int]]]]:
    """The transfer DP over the part sizes (Stanley, EC I 4.7) for the
    members with these (size, multiplicity) patterns: yields (b, states) at
    the start and after each size it sweeps, rows packed as in `_hit_rows`.

    The factors 1/(1 - q^s) of P(q) commute. W holds the sizes that members
    with two or more entries use. A member is a class iff its smallest size
    is in W, one entry or more, and identical members are one class; every
    other member has one entry, at a size outside W. The start is one
    state, no class pending, whose rows are `_hit_rows` of those one-entry
    members, so they start from packed P(q); then W is swept in increasing
    order. A state is the set of pending classes (first size swept, last
    not, every swept entry met) and maps each number of hits h to a row
    whose digit u counts the partitions of u that reach it. A row still
    holds 1/(1 - q^s) for each unswept size s.

    At size s the needs there of the classes that start at s and of the
    pending ones cut k into ranges, and each range sends the state to one
    next state with the same added hits, by the difference of the row
    shifted by s times the range's ends, as in `_hit_rows`; a class hits at
    its last size. A state's lightest partition has no part of an unswept
    size, so a class whose unswept entries weigh more than n minus the
    lowest nonzero digit of its state is met at no u <= n: it leaves the
    pending set, and equal states merge. No row is zero.
    """
    swept = sorted({s for items in patterns if len(items) > 1 for s, _ in items})
    # at[s]: (need at s, class, whether it starts at s, its copies if it
    # ends at s, else 0) per class entry at s; left[c]: c's unswept weight.
    at: dict[int, list[tuple[int, int, bool, int]]] = {s: [] for s in swept}
    classes = Counter(items for items in patterns if items[0][0] in at)
    needs: dict[int, list[int]] = {}
    for items in patterns:
        if items[0][0] not in at:
            ((size, mult),) = items
            needs.setdefault(size, []).append(mult)
    b, rows = _hit_rows(needs, n)
    mask = (1 << b * (n + 1)) - 1
    left = []
    for c, (items, copies) in enumerate(classes.items()):
        for i, (size, mult) in enumerate(items):
            at[size].append((mult, c, i == 0, copies if i == len(items) - 1 else 0))
        left.append(sum(size * mult for size, mult in items))
    states = {frozenset(): {h: row for h, row in enumerate(rows) if row}}
    yield b, states
    for s in swept:
        for mult, c, _, _ in at[s]:
            left[c] -= s * mult
        stepped: dict[frozenset[int], dict[int, int]] = {}
        for pending, hit_rows in states.items():
            met = [(m, c, hit) for m, c, first, hit in at[s] if first or c in pending]
            cuts = sorted({m for m, _, _ in met})
            stay = pending.difference(c for _, c, _ in met)
            targets = []
            for k in (0, *cuts):
                target = stay.union(c for m, c, hit in met if m <= k and not hit)
                hits = sum(hit for m, _, hit in met if m <= k)
                targets.append((target, hits))
            for h, row in hit_rows.items():
                highs = [row << b * s * k & mask for k in (0, *cuts)] + [0]
                for (target, hits), low, high in zip(targets, highs, highs[1:]):
                    if piece := low - high:
                        into = stepped.setdefault(target, {})
                        into[h + hits] = into.get(h + hits, 0) + piece
        states = {}
        for pending, hit_rows in stepped.items():
            lowest = min((row & -row).bit_length() - 1 for row in hit_rows.values()) // b
            pending = frozenset(c for c in pending if left[c] <= n - lowest)
            into = states.setdefault(pending, {})
            for h, row in hit_rows.items():
                into[h] = into.get(h, 0) + row
        yield b, states


def _tally_sweep(patterns: Sequence[Pattern], n_from: int, n_to: int) -> list[dict[int, int]]:
    """Tally the statistic that counts the members with these (size,
    multiplicity) patterns at every n in [n_from, n_to], over one `_sweep`
    to n_to: one {j: count} per n, in order.

    After the last size every class has met its last size, so one state is
    left, with no pending class; digit n of its row h counts the
    partitions of n with h hits. The members are those of n_to for every
    n: a member heavier than n is never met at n.
    """
    for b, states in _sweep(patterns, n_to):
        pass
    (hit_rows,) = states.values()
    digit = (1 << b) - 1
    # At most every member is contained at once.
    tallies = [[0] * (len(patterns) + 1) for _ in range(n_from, n_to + 1)]
    for h, row in hit_rows.items():
        for tally, n in zip(tallies, range(n_from, n_to + 1)):
            tally[h] += row >> b * n & digit
    return [{j: c for j, c in enumerate(tally) if c} for tally in tallies]


def distribution_bruteforce(stat: FamilyStatistic, n: int) -> DistributionTable:
    """Tally the statistic over every partition of n by the transfer DP
    (`_tally_sweep`), started from packed P(q).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    (tally,) = _tally_sweep(stat.family.member_patterns(n), n, n)
    return DistributionTable(n, tally)


class ComparisonVerdict(NamedTuple):
    """Outcome at one n: identical count maps, or the smallest differing j."""

    n: int
    identical: bool
    j: int | None = None
    count_x: int | None = None
    count_y: int | None = None


class ComparisonReport(NamedTuple):
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

    Each side is tallied at every n of the range by its own sweep to n_to,
    as in `distribution_bruteforce`, both from one packed P(q) to q^n_to
    (`_partition_row` keeps the last one), so equal count maps mean
    equal distributions exactly. A divergent verdict carries the smallest j
    whose counts differ.
    """
    if not 0 <= n_from <= n_to:
        raise ValueError(f"need 0 <= n_from <= n_to, got [{n_from}, {n_to}]")
    verdicts = []
    tally_x = _tally_sweep(stat_x.family.member_patterns(n_to), n_from, n_to)
    tally_y = _tally_sweep(stat_y.family.member_patterns(n_to), n_from, n_to)
    for n, tx, ty in zip(range(n_from, n_to + 1), tally_x, tally_y):
        diff = first_count_difference(tx, ty)
        if diff is None:
            verdicts.append(ComparisonVerdict(n, True))
        else:
            j, cx, cy = diff
            verdicts.append(ComparisonVerdict(n, False, j, cx, cy))
    return ComparisonReport(stat_x.label, stat_y.label, n_from, n_to, tuple(verdicts))
