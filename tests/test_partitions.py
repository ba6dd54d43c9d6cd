from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partition_sieve.partitions as partitions_module
from partition_sieve import Multiset, count_partitions
from partition_sieve.partitions import descending_part_sequences, partition_walk

from oracles import (
    contains,
    count_containing_bruteforce,
    count_partitions_dp,
    partition_counts_into,
    partitions_recursive,
)

multisets = st.dictionaries(
    st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4), max_size=5
).map(Multiset)


class TestMultiset:
    def test_weight_empty(self):
        assert Multiset().weight == 0

    def test_weight_counts_multiplicity(self):
        assert Multiset({2: 1, 4: 1}).weight == 6
        assert Multiset({1: 2, 2: 2}).weight == 6

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Multiset({0: 1})
        with pytest.raises(ValueError):
            Multiset({3: 0})
        with pytest.raises(ValueError):
            Multiset({-2: 1})

    def test_union_max_multiplicity(self):
        assert Multiset({2: 1, 4: 1}).union(Multiset({4: 1, 6: 1})) == Multiset(
            {2: 1, 4: 1, 6: 1}
        )
        assert Multiset({1: 2, 2: 2}).union(Multiset({2: 2, 3: 2})) == Multiset(
            {1: 2, 2: 2, 3: 2}
        )
        a = Multiset({5: 3})
        assert a.union(Multiset()) == a

    def test_hashable(self):
        assert len({Multiset({2: 1}), Multiset({2: 1}), Multiset({2: 2})}) == 2

    @given(multisets, multisets)
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(multisets, multisets, multisets)
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(multisets)
    def test_union_idempotent(self, a):
        assert a.union(a) == a

    @given(multisets, multisets, multisets)
    def test_containing_both_iff_containing_union(self, pi, a, b):
        both = contains(pi.items(), a.items()) and contains(pi.items(), b.items())
        assert both == contains(pi.items(), a.union(b).items())


def part_sequence(counts):
    """The weakly decreasing part sequence of a {size: multiplicity} map."""
    return tuple(s for s, m in sorted(counts.items(), reverse=True) for _ in range(m))


class TestEnumeration:
    """The enumeration yields a new map per partition, built from the
    walk's group without writing to the walk's own map."""

    def test_n0_single_empty(self):
        assert [dict(c) for c in descending_part_sequences(0)] == [{}]

    def test_n4_canonical_order(self):
        got = [dict(c) for c in descending_part_sequences(4)]
        assert got == [{4: 1}, {3: 1, 1: 1}, {2: 2}, {2: 1, 1: 2}, {1: 4}]

    def test_n10_has_42(self):
        assert sum(1 for _ in descending_part_sequences(10)) == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            list(descending_part_sequences(-1))

    @pytest.mark.parametrize("n", range(21))
    def test_matches_independent_enumerator(self, n):
        # Same partitions in the same order, each as its multiplicity map.
        ours = [dict(c) for c in descending_part_sequences(n)]
        reference = [dict(Counter(parts)) for parts in partitions_recursive(n)]
        assert ours == reference

    def test_weights_sum_to_n_without_zero_multiplicities(self):
        for n in range(21):
            for counts in descending_part_sequences(n):
                assert sum(s * m for s, m in counts.items()) == n
                assert all(s >= 1 and m >= 1 for s, m in counts.items()), counts

    def test_keys_strictly_decreasing(self):
        # Each map lists its 3s, 2s and 1s after the walk's sizes >= 4.
        for n in range(26):
            for counts in descending_part_sequences(n):
                keys = list(counts)
                assert all(a > b for a, b in zip(keys, keys[1:])), (n, counts)

    def test_duplicate_free_and_deterministic(self):
        for n in range(16):
            first = [frozenset(c.items()) for c in descending_part_sequences(n)]
            assert len(set(first)) == len(first)
            assert first == [frozenset(c.items()) for c in descending_part_sequences(n)]

    def test_reverse_lexicographic(self):
        for n in range(2, 14):
            seqs = [part_sequence(c) for c in descending_part_sequences(n)]
            assert seqs == sorted(seqs, reverse=True)

    def test_never_writes_to_the_walks_map(self, monkeypatch):
        # A read-only walk map: any write to it raises.
        walk = partitions_module.partition_walk

        def read_only_walk(n, watch, on_change):
            for counts, rest in walk(n, watch, on_change):
                yield MappingProxyType(counts), rest

        monkeypatch.setattr(partitions_module, "partition_walk", read_only_walk)
        ours = [list(c.items()) for c in descending_part_sequences(30)]
        reference = [list(Counter(parts).items()) for parts in partitions_recursive(30)]
        assert len(ours) == 5_604
        assert ours == reference

    def test_streams_independent(self):
        # Two live generators never share a dict: stepping one leaves the
        # other's map as it was.
        a = descending_part_sequences(5)
        b = descending_part_sequences(5)
        first_a = next(a)
        first_b = next(b)
        assert first_a is not first_b
        next(a)
        assert first_b == {5: 1}
        assert dict(next(b)) == {4: 1, 1: 1}


class TestWalkChanges:
    """partition_walk yields groups: the map of the parts at the watched
    sizes >= 4 and the rest left for every other size. Before each yield it
    reports every size whose multiplicity changed since the previous map
    (the empty map at first), never the sizes 1, 2 or 3."""

    @staticmethod
    def replay(n, watched):
        """Walk n watching the given sizes; after every step, the shadow map
        rebuilt from the reported changes, the live map, the rest and the
        running count of reports. Each bucket is its own size."""
        shadow = {}
        reports = []

        def on_change(bucket, old, new):
            reports.append(bucket)
            assert bucket in watched and bucket >= 4
            assert shadow.get(bucket, 0) == old != new
            if new:
                shadow[bucket] = new
            else:
                del shadow[bucket]

        watch = [s if s in watched else None for s in range(n + 1)]
        steps = []
        for counts, rest in partition_walk(n, watch, on_change):
            assert all(4 <= s <= n and s in watched for s in counts), counts
            assert sum(s * m for s, m in counts.items()) + rest == n
            steps.append((dict(shadow), dict(counts), rest, len(reports)))
        return steps

    @staticmethod
    def expand(counts, rest):
        """The partitions of a group in reverse-lex order: the tails of rest
        into 3s, 2s and 1s, most 3s first and, for each number of 3s, most
        2s first."""
        for threes in range(rest // 3, -1, -1):
            for twos in range((rest - 3 * threes) // 2, -1, -1):
                partition = dict(counts)
                for size, mult in ((3, threes), (2, twos), (1, rest - 3 * threes - 2 * twos)):
                    if mult:
                        partition[size] = mult
                yield partition

    @pytest.mark.parametrize("n", range(21))
    def test_replay_rebuilds_every_map(self, n):
        # Sizes 1, 2 and 3 are watched too; replay() asserts they never report.
        steps = self.replay(n, set(range(1, n + 1)))
        previous = 0
        for shadow, live, _, reported in steps:
            assert shadow == live
            # With every size watched: s, s - 1 and the remainder.
            assert reported - previous <= 3
            previous = reported
        # The groups, expanded in order, are the partitions of n in order.
        expanded = [p for _, live, rest, _ in steps for p in self.expand(live, rest)]
        assert expanded == [dict(c) for c in descending_part_sequences(n)]

    @given(st.integers(0, 30), st.sets(st.integers(1, 30)))
    @example(19, {4, 5, 10, 19})  # 19 is refilled as 10 + 5 + 4: four reports
    @example(30, set())
    @settings(max_examples=100, deadline=None)
    def test_unwatched_sizes_never_reported(self, n, watched):
        # replay() asserts that every reported bucket and every map key is a
        # watched size in [4, n], and that the parts and the rest sum to n.
        steps = self.replay(n, watched)
        for shadow, live, _, _ in steps:
            assert shadow == live
        # One group per partition of each m <= n into the watched sizes >= 4.
        walked = [s for s in watched if s >= 4]
        assert len(steps) == sum(partition_counts_into(walked, n))
        # Strictly reverse-lexicographic: a sequence before its own prefixes.
        seqs = [part_sequence(live) for _, live, _, _ in steps]
        assert all(a > b for a, b in zip(seqs, seqs[1:]))

    @pytest.mark.parametrize("n", range(41))
    def test_group_count(self, n):
        # Every size watched: the coefficient of q^n in P(q)(1 - q^2)(1 - q^3).
        groups = sum(1 for _ in partition_walk(n, [True] * (n + 1), lambda *change: None))
        p = count_partitions_dp
        assert groups == p(n) - p(n - 2) - p(n - 3) + p(n - 5)


class TestCountPartitions:
    def test_negative_is_zero(self):
        assert count_partitions(-3) == 0

    def test_known_values(self):
        assert count_partitions(0) == 1
        assert count_partitions(6) == 11
        assert count_partitions(100) == 190569292

    def test_against_dp_oracle(self):
        for n in range(61):
            assert count_partitions(n) == count_partitions_dp(n)

    def test_matches_enumeration(self):
        for n in range(21):
            assert count_partitions(n) == sum(1 for _ in descending_part_sequences(n))


class TestCountContaining:
    @given(
        st.integers(min_value=0, max_value=20),
        st.dictionaries(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=3),
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_bruteforce(self, n, entries):
        pattern = Multiset(entries)
        assert count_partitions(n - pattern.weight) == count_containing_bruteforce(
            n, pattern.items()
        )
