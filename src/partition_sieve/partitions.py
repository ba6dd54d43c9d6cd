"""Exact partition enumeration and counting, and the multisets that
family members are made of.

All counts are Python ints (arbitrary precision); there is no floating
point anywhere in a counting path. Multisets are immutable value objects.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Multiset",
    "count_partitions",
]


class Multiset:
    """A finite multiset of positive integers (part-size -> multiplicity).

    Invariants: every stored size is >= 1, every stored multiplicity is >= 1;
    sizes with multiplicity zero are simply absent. Instances are immutable
    and hashable.
    """

    __slots__ = ("_items", "_weight")

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        merged: dict[int, int] = {}
        for size, mult in pairs:
            if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                raise ValueError(f"part size must be an integer >= 1, got {size!r}")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ValueError(
                    f"multiplicity must be an integer >= 1, got {mult!r} for size {size}"
                )
            merged[size] = merged.get(size, 0) + mult
        items = tuple(sorted(merged.items()))
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_weight", sum(s * m for s, m in items))

    def __setattr__(self, name, value):
        raise AttributeError("Multiset is immutable")

    @property
    def weight(self) -> int:
        """Sum of elements counted with multiplicity (0 for the empty multiset)."""
        return self._weight

    def items(self) -> tuple[tuple[int, int], ...]:
        """(size, multiplicity) pairs in increasing size order."""
        return self._items

    def sizes(self) -> tuple[int, ...]:
        """The support: distinct sizes present, in increasing order."""
        return tuple(s for s, _ in self._items)

    def union(self, other: "Multiset") -> "Multiset":
        """Multiset union with max multiplicities.

        A partition contains every member of a collection of multisets iff it
        contains their max-union, which is why this (and not the sum of
        multiplicities) is the union the sieve machinery needs. The two
        coincide when supports are disjoint.
        """
        merged = dict(self._items)
        for s, m in other._items:
            if merged.get(s, 0) < m:
                merged[s] = m
        return Multiset(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{s}: {m}" for s, m in self._items)
        return f"Multiset({{{body}}})"


def descending_part_sequences(n: int) -> Iterator[dict[int, int]]:
    """Yield every partition of n as a new {size: multiplicity} dict,
    partitions in reverse lexicographic order of their weakly decreasing
    part sequences.

    This is the canonical enumeration order: for n=4 it yields
    {4: 1}, {3: 1, 1: 1}, {2: 2}, {2: 1, 1: 2}, {1: 4}. No size is stored
    with multiplicity 0, and the keys run in strictly decreasing order.

    It is `partition_walk` with no size watched, each group expanded: the
    walk's map of parts >= 4 with 3^t 2^k 1^(rest - 3t - 2k) added, for
    t = rest // 3 down to 0 and, within each t, for k = (rest - 3t) // 2
    down to 0.
    """
    for counts, rest in partition_walk(n, [None] * (n + 1), None):
        for threes in range(rest // 3, -1, -1):
            for twos in range((rest - 3 * threes) // 2, -1, -1):
                tail = {3: threes, 2: twos, 1: rest - 3 * threes - 2 * twos}
                yield {**counts, **{s: m for s, m in tail.items() if m}}


def partition_walk(
    n: int,
    watch: Sequence[object],
    on_change: Callable[[object, int, int], object] | None,
) -> Iterator[tuple[dict[int, int], int]]:
    """Walk the partitions of n in groups, reporting the sizes >= 4 it changes.

    Yields ``(counts, rest)`` for every partition nu of some m <= n into
    parts >= 4, in reverse lexicographic order of the part sequences (a
    sequence before its own prefixes), with rest = n - m. ``counts`` is nu
    as one {size: multiplicity} dict, updated in place between yields, keys
    in decreasing order; it never holds the sizes 1, 2 or 3. The group of
    nu is the partitions nu + 3^t 2^k 1^(rest - 3t - 2k), one for each
    partition of rest into parts <= 3, round((rest + 3)^2 / 12) of them;
    the groups, in order and each expanded as in
    `descending_part_sequences`, are every partition of n in its order.
    There are p(n) - p(n - 2) - p(n - 3) + p(n - 5) groups, the coefficient
    of q^n in P(q)(1 - q^2)(1 - q^3).

    ``watch[s]`` (0 <= s <= n) is a caller's bucket for size s, or None (or
    anything falsy) when s is not watched. Before each yield,
    ``on_change(watch[s], old, new)`` is called once for every watched size
    s whose multiplicity in ``counts`` differs from the one at the previous
    yield, the empty map before the first; replaying these changes on an
    empty dict therefore rebuilds ``counts``. A step pops one part of the
    smallest size s. A 4 goes to rest; a larger s is refilled with parts of
    size s - 1 and one remainder part, kept when it is >= 4 and otherwise
    the new rest. So a step reports at most three sizes: s, s - 1 and the
    remainder, and never 1, 2 or 3.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    counts: dict[int, int] = {}
    rest = n
    if n >= 4:
        counts[n] = 1
        rest = 0
        if watch[n]:
            on_change(watch[n], 0, 1)
    while True:
        yield counts, rest
        if not counts:
            return
        # Every size is inserted below all sizes already present, so the
        # dict's last key is always its smallest size.
        s, m = counts.popitem()
        if m > 1:
            counts[s] = m - 1
        bucket = watch[s]
        if bucket:
            on_change(bucket, m, m - 1)
        if s == 4:
            rest += 4
            continue
        q, r = divmod(s + rest, s - 1)
        counts[s - 1] = q
        bucket = watch[s - 1]
        if bucket:
            on_change(bucket, 0, q)
        if r < 4:
            rest = r
        else:
            rest = 0
            counts[r] = 1
            bucket = watch[r]
            if bucket:
                on_change(bucket, 0, 1)


# Memo for count_partitions: append-only, p(0) .. p(len - 1).
_p_table: list[int] = [1]


def count_partitions(n: int) -> int:
    """The number of partitions of n, exactly.

    p(0) = 1 and p(n) = 0 for n < 0, so p(n - weight(M)), the number of
    partitions of n that contain a multiset M, is defined for every M.
    Computed by the pentagonal-number recurrence

        p(n) = sum_k (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]

    with a memo table that only ever grows.
    """
    if n < 0:
        return 0
    while len(_p_table) <= n:
        m = len(_p_table)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            term = _p_table[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                term += _p_table[m - g2]
            total += term if k % 2 else -term
            k += 1
        _p_table.append(total)
    return _p_table[n]
