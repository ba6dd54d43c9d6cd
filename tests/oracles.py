"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own algorithms: partition
counts come from a coin-style dynamic program (not the pentagonal
recurrence), partitions from a recursive max-part enumerator (not the
descending in-place stepper), distributions from direct tallies over
that enumerator, and sieve level sums and theorem C verdicts from walks
over the index subsets one by one (not the frontier states that the
library's sieve and theorem C check share). A disagreement therefore
localizes a bug to one of two unrelated code paths.
"""

from collections import Counter
from math import comb


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
    relevant indices: rows (idx, F member, G member), sorted by (min weight,
    strand, t)."""
    positions = set(pair.F.relevant_indices(n_max)) | set(pair.G.relevant_indices(n_max))
    table = [(idx, pair.F.member(idx), pair.G.member(idx)) for idx in positions]
    table.sort(key=lambda row: (min(row[1].weight, row[2].weight), row[0].strand, row[0].t))
    return table


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
