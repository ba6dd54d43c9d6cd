import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_sieve import Multiset, count_partitions
from partition_sieve.partitions import descending_part_sequences

from oracles import (
    contains,
    count_containing_bruteforce,
    count_partitions_dp,
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

    def test_refuses_assignment(self):
        ms = Multiset({2: 1})
        for name in ("_items", "_weight", "extra"):
            with pytest.raises(AttributeError, match="Multiset is immutable"):
                setattr(ms, name, ())
        assert ms.items() == ((2, 1),) and ms.weight == 2

    def test_never_equals_another_type(self):
        # __eq__ returns NotImplemented, so the items tuple is not a Multiset.
        assert Multiset({1: 1}).__eq__(((1, 1),)) is NotImplemented
        assert (Multiset({1: 1}) == ((1, 1),)) is False
        assert (((1, 1),) == Multiset({1: 1})) is False

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda ms: pickle.loads(pickle.dumps(ms))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_items_weight_and_hash(self, clone):
        ms = Multiset({3: 2, 1: 1})
        twin = clone(ms)
        assert type(twin) is Multiset and twin == ms and hash(twin) == hash(ms)
        assert (twin.items(), twin.weight) == (((1, 1), (3, 2)), 7)

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
    """The enumeration yields a new map per partition, a copy of the one
    map it steps."""

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

    def test_never_writes_to_the_walks_map(self):
        # The generator steps its own map and yields a copy: a caller that
        # rewrites every map it is given never changes what comes next.
        ours = []
        for counts in descending_part_sequences(30):
            ours.append(list(counts.items()))
            counts.clear()
            counts[1] = 99
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
    """descending_part_sequences steps one map in place: a step drops the
    1s, takes one part of the smallest size s left and refills below s, so
    it keeps every part above s and changes at most four sizes."""

    @staticmethod
    def step(parts):
        """The documented step on a weakly decreasing part sequence."""
        ones = parts.count(1)
        head = parts[: len(parts) - ones]
        s = head[-1]
        q, r = divmod(s + ones, s - 1)
        return head[:-1] + (s - 1,) * q + ((r,) if r else ())

    @pytest.mark.parametrize("n", range(21))
    def test_replay_rebuilds_every_map(self, n):
        # Replaying the step from (n,) rebuilds every map in order.
        parts = (n,) if n else ()
        maps = list(descending_part_sequences(n))
        for before, after in zip(maps, maps[1:] + [None]):
            assert part_sequence(before) == parts
            if after is None:
                assert parts == (1,) * n
                break
            parts = self.step(parts)
            # Only s, s - 1, the remainder and the 1s change.
            s = min(size for size in before if size > 1)
            sizes = before.keys() | after.keys()
            changed = {size for size in sizes if before.get(size) != after.get(size)}
            assert len(changed) <= 4 and max(changed) == s, (before, after)

    @pytest.mark.parametrize("n", range(41))
    def test_group_count(self, n):
        # One map per partition of n, from the stepped map alone.
        assert sum(1 for _ in descending_part_sequences(n)) == count_partitions_dp(n)


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
