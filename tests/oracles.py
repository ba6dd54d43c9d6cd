"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own algorithms: partition
counts come from a coin-style dynamic program (not the pentagonal
recurrence), partitions from a recursive max-part enumerator (not the
descending in-place stepper), and distributions from direct tallies over
that enumerator. A disagreement therefore localizes a bug to one of two
unrelated code paths.
"""

from collections import Counter


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


def count_partitions_dp(n):
    """p(n) by the classic parts-as-coins dynamic program."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


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
