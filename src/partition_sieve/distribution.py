"""Exact distribution tables for partition statistics, and pairwise
identical-distribution verification over a range of n.

A table holds the numerators |{pi in P(n) : X(pi) = j}|, counted by a
transfer DP over the part sizes, not partition by partition. Comparison
verdicts are computed from exact counts only, never from floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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


def _stride_sums(row: int, stride: int, mask: int) -> int:
    """Digit u of the result sums the row's digits u - ks, k >= 0, for
    stride = b s, to the digits of mask: each pass doubles the k summed.
    It never falls along stride s, so (sums << b s a) - (sums << b s c),
    the k in [a, c), never borrows.
    """
    width = mask.bit_length()
    while stride < width:
        row += row << stride & mask
        stride <<= 1
    return row


def _hit_rows(needs: Mapping[int, Sequence[int]], n: int) -> tuple[int, list[int]]:
    """The product over the sizes s of `needs` of sum_k q^(sk) y^(h_s(k)),
    h_s(k) the number of needs[s] that are <= k, to q^n, as (b, rows): row
    h holds the coefficient of q^u y^h in digit u of base 2^b, for u <= n.

    A coefficient counts partitions of u, so it is at most p(u) <= p(n) <
    2^(b - 1) and no carry reaches a digit <= n. The k in a range with the
    same number of needs <= k are one difference of `_stride_sums`.
    """
    b = count_partitions(n).bit_length() + 1
    mask = (1 << b * (n + 1)) - 1
    # The sizes that no member needs first, while there is one row.
    row = 1
    for s, mults in needs.items():
        if not mults:
            row = _stride_sums(row, b * s, mask)
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
            pre = _stride_sums(row, stride, mask)
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
    state, no class pending, whose rows are `_hit_rows` over the sizes
    outside W; then W is swept in increasing order. A state is the set of
    pending classes (first size swept, last not, every swept entry met) and
    maps each number of hits h to a row whose digit u counts partitions of
    u into the swept sizes.

    At size s the needs there of the classes that start at s and of the
    pending ones cut k into ranges, and each range sends the state to one
    next state with the same added hits; a class hits at its last size. A
    class whose unswept entries weigh more than n minus the lowest nonzero
    digit of its state is met at no u <= n, so it leaves the pending set,
    and equal states merge. No row is zero.
    """
    swept = sorted({s for items in patterns if len(items) > 1 for s, _ in items})
    # at[s]: (need at s, class, whether it starts at s, its copies if it
    # ends at s, else 0) per class entry at s; left[c]: c's unswept weight.
    at: dict[int, list[tuple[int, int, bool, int]]] = {s: [] for s in swept}
    classes = Counter(items for items in patterns if items[0][0] in at)
    needs: dict[int, list[int]] = {s: [] for s in range(1, n + 1) if s not in at}
    for items in patterns:
        if items[0][0] not in at:
            ((size, mult),) = items
            needs[size].append(mult)
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
                pre = _stride_sums(row, b * s, mask)
                highs = [pre << b * s * k & mask for k in (0, *cuts)] + [0]
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
    """Tally the statistic over every partition of n: the sizes that only
    one-entry members use in closed form, the others by the transfer DP
    (`_tally_sweep`).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    (tally,) = _tally_sweep(stat.family.member_patterns(n), n, n)
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

    Each side is tallied at every n of the range by its own sweep to n_to,
    as in `distribution_bruteforce`, so equal count maps mean
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
