"""Exact partition enumeration and counting, and the multisets that
family members are made of.

All counts are Python ints (arbitrary precision); there is no floating
point anywhere in a counting path. Multisets are immutable value objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

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

    def __reduce__(self):
        # Pickle and copy rebuild through __init__, not through __setattr__.
        return Multiset, (self._items,)

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

    One map is updated in place and copied at each yield. A step drops the
    1s, takes one part of the smallest size s left, and refills s plus the
    1s greedily with parts of size s - 1 and one remainder part, so it
    changes at most four sizes, all at most s.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    counts = {n: 1} if n else {}
    while True:
        yield dict(counts)
        ones = counts.pop(1, 0)
        if not counts:
            return
        # Every size is inserted below all sizes already present, so the
        # dict's last key is always its smallest size.
        s, m = counts.popitem()
        if m > 1:
            counts[s] = m - 1
        q, r = divmod(s + ones, s - 1)
        counts[s - 1] = q
        if r:
            counts[r] = 1


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


def partition_counts_down(n: int) -> list[int]:
    """[p(n), p(n - 1), ..., p(0)]: at index w, the number of partitions of
    n that contain a multiset of weight w."""
    count_partitions(n)
    return _p_table[n::-1]
