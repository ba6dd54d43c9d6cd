"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own algorithms: partition
counts come from a coin-style dynamic program (not the pentagonal
recurrence), partitions from a recursive max-part enumerator (not the
descending in-place stepper), distributions from direct tallies over
that enumerator, and sieve level sums and theorem C verdicts from walks
over the index subsets one by one (not the frontier states that the
library's sieve and theorem C check share). The native statistics
(`native`) apply each theorem's closed-form rule, e.g. "number of even part
sizes", to one {size: multiplicity} map, where the library only counts the
family members a partition contains. A disagreement therefore localizes a
bug to one of two unrelated code paths.
"""

import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from math import comb

CountsRule = Callable[[Mapping[int, int]], int]


def partitions_recursive(n, max_part=None):
    """All partitions of n as weakly decreasing tuples, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions_recursive(n - k, k):
            yield (k,) + rest


def partition_counts_dp(n):
    """[p(0), ..., p(n)] by the classic parts-as-coins dynamic program."""
    return partition_counts_into(range(1, n + 1), n)


def partition_counts_into(sizes, n):
    """[p_S(0), ..., p_S(n)], p_S(m) the partitions of m into parts from
    the set S of sizes, by the classic parts-as-coins dynamic program."""
    table = [1] + [0] * n
    for part in sorted(set(sizes)):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


def count_partitions_dp(n):
    """p(n) by the classic parts-as-coins dynamic program."""
    if n < 0:
        return 0
    return partition_counts_dp(n)[n]


def count_distinct_parts_dp(n):
    """Partitions of n into distinct parts (each part used at most once)."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(n, part - 1, -1):
            table[total] += table[total - part]
    return table[n]


def count_odd_parts_dp(n):
    """Partitions of n into odd parts (unlimited repetition)."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def tally_distribution(rule, n):
    """{j: count} for a rule over {size: multiplicity} maps, via the
    recursive enumerator."""
    tally = Counter()
    for parts in partitions_recursive(n):
        tally[rule(Counter(parts))] += 1
    return dict(tally)


class NativeStatistic:
    """A named closed-form rule on the {size: multiplicity} map, with the
    library statistics' interface: `counts_evaluator(n)` gives the rule,
    which is the same for every n."""

    def __init__(self, label: str, rule: CountsRule):
        self.label = label
        self._rule = rule

    def counts_evaluator(self, n: int) -> CountsRule:
        return self._rule

    def __repr__(self) -> str:
        return f"NativeStatistic({self.label!r})"


def _even_sizes(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if s % 2 == 0)


def _repeated_sizes(counts: Mapping[int, int]) -> int:
    return sum(1 for m in counts.values() if m >= 2)


def _square_sizes(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if math.isqrt(s) ** 2 == s)


def _mult_ge_size(counts: Mapping[int, int]) -> int:
    return sum(1 for s, m in counts.items() if m >= s)


def _mod6_x(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if s % 6 in (2, 3, 4))


def _mod6_y_prose(counts: Mapping[int, int]) -> int:
    # Literal reading: any multiple of 3 counts, repetition only matters for
    # the rest. Diverges from the weight-matched mod6 family at n=6.
    return sum(1 for s, m in counts.items() if s % 3 == 0 or m >= 2)


def _consecutive_even(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if s % 2 == 0 and s + 2 in counts)


def _consecutive_repeated(counts: Mapping[int, int]) -> int:
    return sum(1 for s, m in counts.items() if m >= 2 and counts.get(s + 1, 0) >= 2)


_SIMPLE_NATIVES: dict[str, CountsRule] = {
    "even_sizes": _even_sizes,
    "repeated_sizes": _repeated_sizes,
    "square_sizes": _square_sizes,
    "mult_ge_size": _mult_ge_size,
    "mod6_X": _mod6_x,
    "mod6_Y_prose": _mod6_y_prose,
    "consecutive_even": _consecutive_even,
    "consecutive_repeated": _consecutive_repeated,
}

NATIVE_NAMES = tuple(sorted(_SIMPLE_NATIVES)) + ("andrews_Y", "mult_ge", "not_in_M2")


def native(
    name: str,
    *,
    d: int | None = None,
    m1: Iterable[int] | None = None,
) -> NativeStatistic:
    """Construct a native statistic by name.

    mult_ge requires d >= 1; not_in_M2 and andrews_Y require the explicit
    M1 list. The remaining names take no parameters: even_sizes,
    repeated_sizes, square_sizes, mult_ge_size, mod6_X, mod6_Y_prose,
    consecutive_even, consecutive_repeated.
    """
    if name == "mult_ge":
        if d is None or d < 1:
            raise ValueError(f"mult_ge requires an integer d >= 1, got {d!r}")
        return NativeStatistic(
            f"mult_ge({d})",
            lambda counts, _d=d: sum(1 for m in counts.values() if m >= _d),
        )
    if name in ("not_in_M2", "andrews_Y"):
        if m1 is None:
            raise ValueError(f"{name} requires the M1 list")
        m1set = frozenset(m1)
        if name == "not_in_M2":
            # M2 = M1 minus the doubles of M1's members.
            m2 = frozenset(m for m in m1set if m % 2 or m // 2 not in m1set)
            return NativeStatistic(
                "not_in_M2",
                lambda counts, _m2=m2: sum(1 for s in counts if s not in _m2),
            )
        return NativeStatistic(
            "andrews_Y",
            lambda counts, _m1=m1set: sum(
                1 for s, m in counts.items() if s not in _m1 or m >= 2
            ),
        )
    if d is not None or m1 is not None:
        raise ValueError(f"native {name!r} takes no parameters")
    try:
        rule = _SIMPLE_NATIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown native statistic {name!r}; known: {', '.join(NATIVE_NAMES)}"
        ) from None
    return NativeStatistic(name, rule)


def contains(host_items, pattern_items):
    """True iff every size occurs in the host at least as often as in the
    pattern; both are given as (size, mult) pairs."""
    host = Counter(dict(host_items))
    return all(host[s] >= m for s, m in pattern_items)


def count_containing_bruteforce(n, pattern_items):
    """Partitions of n containing the given (size, mult) pattern, by scan."""
    return sum(
        1 for parts in partitions_recursive(n) if contains(Counter(parts).items(), pattern_items)
    )


def theorem_b_scan(pair, n_max):
    """Theorem B's witness by the direct nested-loop scan, or None if it holds.

    Positions relevant to n_max on either side are ordered by (min weight,
    strand, t). Each side, F then G, is scanned over every pair a < b of
    positions; the first pair whose supports meet gives
    ("DisjointnessWitness", side, idx_a, idx_b, smallest shared size,
    member_a, member_b). Failing that, the first position whose weights
    differ gives ("WeightWitness", idx, weight_f, weight_g, member_f, member_g).
    """

    def weight(ms):
        return sum(s * m for s, m in ms.items())

    positions = set(pair.F.relevant_indices(n_max)) | set(pair.G.relevant_indices(n_max))
    rows = sorted(
        positions,
        key=lambda idx: (
            min(weight(pair.F.member(idx)), weight(pair.G.member(idx))),
            idx.strand,
            idx.t,
        ),
    )
    for side, family in (("F", pair.F), ("G", pair.G)):
        members = [(idx, family.member(idx)) for idx in rows]
        for a in range(len(members)):
            idx_a, ms_a = members[a]
            for b in range(a + 1, len(members)):
                idx_b, ms_b = members[b]
                shared = set(ms_a.sizes()) & set(ms_b.sizes())
                if shared:
                    return ("DisjointnessWitness", side, idx_a, idx_b, min(shared), ms_a, ms_b)
    for idx in rows:
        f, g = pair.F.member(idx), pair.G.member(idx)
        if weight(f) != weight(g):
            return ("WeightWitness", idx, weight(f), weight(g), f, g)
    return None


def annotated_positions(pair, n_max):
    """The checkers' position table from the set union of both sides'
    relevant indices, each member built by `member(idx)`: rows (idx, F
    items, F weight, G items, G weight), sorted by (min weight, strand, t)."""
    positions = set(pair.F.relevant_indices(n_max)) | set(pair.G.relevant_indices(n_max))
    table = [(idx, pair.F.member(idx), pair.G.member(idx)) for idx in positions]
    table.sort(key=lambda row: (min(row[1].weight, row[2].weight), row[0].strand, row[0].t))
    return [(idx, f.items(), f.weight, g.items(), g.weight) for idx, f, g in table]


def _added_weight(pattern, union):
    get = union.get
    return sum((m - get(s, 0)) * s for s, m in pattern if m > get(s, 0))


def _apply(pattern, union):
    """Raise union multiplicities to cover pattern; return restore info."""
    saved = []
    for s, m in pattern:
        cur = union.get(s, 0)
        if m > cur:
            saved.append((s, cur))
            union[s] = m
    return saved


def _restore(union, saved):
    for s, cur in saved:
        if cur:
            union[s] = cur
        else:
            del union[s]


def sieve_dfs(patterns, n, cap):
    """The sieve by a depth-first walk over index subsets, one at a time.

    patterns are members as (size, mult) tuples, in family order. Every
    subset S whose max-union weight is <= n is visited once, in preorder,
    and p(n - weight) is added to level |S|. Returns (counts, explored,
    truncated); past cap subsets it stops with ({}, cap + 1, True).
    """
    p = partition_counts_dp(n)
    levels = [0] * (len(patterns) + 1)
    union = {}
    # One frame per subset on the current path: [next candidate, union
    # weight, undo record of the inclusion that made it]. The root is S = {}.
    path = [[0, 0, None]]
    levels[0] = p[n]
    explored = 1
    while path:
        frame = path[-1]
        weight = frame[1]
        for i in range(frame[0], len(patterns)):
            added = _added_weight(patterns[i], union)
            if weight + added <= n:
                break
        else:
            path.pop()
            if path:
                _restore(union, frame[2])
            continue
        frame[0] = i + 1
        explored += 1
        if explored > cap:
            return {}, explored, True
        levels[len(path)] += p[n - weight - added]
        path.append([i + 1, weight + added, _apply(patterns[i], union)])

    counts = {}
    top = len(levels) - 1
    for j in range(top + 1):
        e = sum((-1) ** (t - j) * comb(t, j) * levels[t] for t in range(j, top + 1))
        if e:
            counts[j] = e
    return counts, explored, False


def theorem_c_dfs(pair, n_max, cap):
    """Theorem C by a depth-first walk over index sets S, one at a time.

    Positions relevant to n_max on either side are ordered by (min weight,
    strand, t), and every S with min(w(union F_S), w(union G_S)) <= n_max is
    visited once, in preorder. Returns (holds, inconclusive, explored,
    witness). The first S whose two union weights differ gives the witness
    (positions, weight_f, weight_g, union_f items, union_g items); past cap
    sets the walk stops with (True, True, cap + 1, None).
    """
    positions = set(pair.F.relevant_indices(n_max)) | set(pair.G.relevant_indices(n_max))
    rows = [(idx, pair.F.member(idx).items(), pair.G.member(idx).items()) for idx in positions]
    rows.sort(
        key=lambda row: (
            min(sum(s * m for s, m in row[1]), sum(s * m for s, m in row[2])),
            row[0].strand,
            row[0].t,
        )
    )
    union_f = {}
    union_g = {}
    chosen = []
    # One frame per set on the current path: [next candidate, F union weight,
    # G union weight, undo records of the inclusion that made it].
    path = [[0, 0, 0, None, None]]
    explored = 1
    while path:
        frame = path[-1]
        weight_f, weight_g = frame[1], frame[2]
        for i in range(frame[0], len(rows)):
            idx, pat_f, pat_g = rows[i]
            added_f = _added_weight(pat_f, union_f)
            added_g = _added_weight(pat_g, union_g)
            if min(weight_f + added_f, weight_g + added_g) <= n_max:
                break
        else:
            path.pop()
            if path:
                chosen.pop()
                _restore(union_f, frame[3])
                _restore(union_g, frame[4])
            continue
        frame[0] = i + 1
        explored += 1
        if explored > cap:
            return True, True, explored, None
        weight_f += added_f
        weight_g += added_g
        chosen.append(idx)
        saved_f = _apply(pat_f, union_f)
        saved_g = _apply(pat_g, union_g)
        if weight_f != weight_g:
            witness = (
                tuple(chosen),
                weight_f,
                weight_g,
                tuple(sorted(union_f.items())),
                tuple(sorted(union_g.items())),
            )
            return False, False, explored, witness
        path.append([i + 1, weight_f, weight_g, saved_f, saved_g])
    return True, False, explored, None
