
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partition_sieve import (
    DistributionTable,
    FamilyError,
    FamilyStatistic,
    Multiset,
    MultisetFamily,
    NativeStatistic,
    Strand,
    StrandEntry,
    builtin_pair,
    compare,
    count_partitions,
    distribution,
    distribution_bruteforce,
    pair_statistics,
)
from partition_sieve.cli import main as cli_main
from partition_sieve.distribution import first_count_difference
from partition_sieve.families import mod6_prose_family

from oracles import native, partition_counts_into, tally_distribution

# Brute force and compare are pinned against the recursive enumerator up to here.
N_ORACLE = 22


def builtin_pairs():
    # andrews is built to its bound, the largest n it is checked at.
    return [
        ("euler", builtin_pair("euler")),
        ("squares", builtin_pair("squares")),
        ("mod6", builtin_pair("mod6")),
        ("glaisher2", builtin_pair("glaisher", d=2)),
        ("glaisher3", builtin_pair("glaisher", d=3)),
        ("remmel", builtin_pair("remmel_consecutive")),
        ("andrews_pow2", builtin_pair("andrews", m1=[1, 2, 4, 8, 16], bound=N_ORACLE)),
    ]


def oracle_tallies(stat_x, stat_y, n_from, n_to):
    """[X tally, Y tally] per n, each from its own oracle tally."""
    return [
        [tally_distribution(stat.counts_evaluator(n), n) for stat in (stat_x, stat_y)]
        for n in range(n_from, n_to + 1)
    ]


def walk_tallies(stat_x, stat_y, n_from, n_to):
    """[X tally, Y tally] per n, each side from its own `_tally_walk`."""
    sides = [
        distribution._tally_walk(stat.family.member_patterns(n_to), n_from, n_to)
        for stat in (stat_x, stat_y)
    ]
    return [list(pair) for pair in zip(*sides)]


def oracle_verdicts(stat_x, stat_y, n_from, n_to, tallies=None):
    """(n, identical, j, count_x, count_y) per n from two separate oracle
    tallies (`oracle_tallies` unless given), the smallest differing j found
    by a scan of its own."""
    if tallies is None:
        tallies = oracle_tallies(stat_x, stat_y, n_from, n_to)
    verdicts = []
    for n, (tx, ty) in zip(range(n_from, n_to + 1), tallies):
        differing = [j for j in sorted(set(tx) | set(ty)) if tx.get(j, 0) != ty.get(j, 0)]
        if differing:
            j = differing[0]
            verdicts.append((n, False, j, tx.get(j, 0), ty.get(j, 0)))
        else:
            verdicts.append((n, True, None, None, None))
    return verdicts


@st.composite
def explicit_strands(draw):
    """One explicit member over sizes 1-8 (1 and 2 often): up to 3 entries."""
    sizes = st.one_of(st.sampled_from([1, 2]), st.integers(1, 8))
    entries = draw(st.dictionaries(sizes, st.integers(1, 3), min_size=1, max_size=3))
    return Strand(explicit=Multiset(entries))


@st.composite
def template_strands(draw):
    """Up to 3 entries with linear sizes and multiplicities from tmin 1 or 2;
    entries whose sizes meet merge. Invalid strands are rejected at build."""
    entries = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(-1, 3), st.integers(0, 1), st.integers(1, 2)),
            min_size=1,
            max_size=3,
        )
    )
    try:
        return Strand(
            entries=tuple(StrandEntry((0, a, b), (m1, m0)) for a, b, m1, m0 in entries),
            tmin=draw(st.integers(1, 2)),
        )
    except FamilyError:
        assume(False)


@st.composite
def drawn_families(draw):
    """Explicit and template strands, with drawn strands often repeated, so
    hit counts can pass n + 1 and members share sizes."""
    strand = st.one_of(explicit_strands(), template_strands())
    strands = draw(st.lists(strand, min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(strands), max_size=18))
    return MultisetFamily("drawn", tuple(strands + repeats))


@st.composite
def tail_families(draw):
    """Explicit members that mix needs of up to 4 at sizes 1, 2 and 3 with
    entries at sizes 3-8, or hold only one kind, often repeated."""
    small = st.dictionaries(st.sampled_from([1, 2, 3]), st.integers(1, 4), max_size=3)
    big = st.dictionaries(st.integers(3, 8), st.integers(1, 3), max_size=2)
    member = st.tuples(small, big).filter(any).map(lambda sb: {**sb[0], **sb[1]})
    strands = draw(st.lists(member, min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(strands), max_size=8))
    return explicit_family(*strands, *repeats)


@st.composite
def sparse_families(draw):
    """Explicit members whose entries >= 4 lie on the far-apart sizes 4, 7,
    11, 16 and 22, with optional needs at 1, 2 and 3, often repeated: the
    walk skips every other size >= 4."""
    small = st.dictionaries(st.sampled_from([1, 2, 3]), st.integers(1, 3), max_size=2)
    big = st.dictionaries(st.sampled_from([4, 7, 11, 16, 22]), st.integers(1, 2), max_size=2)
    member = st.tuples(small, big).filter(any).map(lambda sb: {**sb[0], **sb[1]})
    strands = draw(st.lists(member, min_size=1, max_size=4))
    repeats = draw(st.lists(st.sampled_from(strands), max_size=4))
    return explicit_family(*strands, *repeats)


@contextmanager
def counting_walks():
    """Record every walk made inside the block as [n, groups yielded]."""
    walks = []
    walk = distribution.partition_walk

    def counted(n, watch, on_change):
        walks.append([n, 0])
        for group in walk(n, watch, on_change):
            walks[-1][1] += 1
            yield group

    with patch.object(distribution, "partition_walk", counted):
        yield walks


def explicit_family(*members):
    return MultisetFamily("explicit", tuple(Strand(explicit=Multiset(m)) for m in members))


def report_verdicts(report):
    return [(v.n, v.identical, v.j, v.count_x, v.count_y) for v in report.verdicts]


class TestDistributionTable:
    def test_drops_zero_counts(self):
        table = DistributionTable(4, {0: 2, 1: 3, 7: 0})
        assert table.counts == {0: 2, 1: 3}
        assert table.total == 5

    def test_marginal(self):
        table = DistributionTable(4, {0: 2, 1: 3})
        assert table.marginal(0) == 2
        assert table.marginal(99) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistributionTable(4, {-1: 2})
        with pytest.raises(ValueError):
            DistributionTable(4, {0: -2})


class TestBruteForce:
    # euler's X counts the even part sizes, its Y the repeated part sizes.
    EVEN_SIZES, REPEATED_SIZES = pair_statistics(builtin_pair("euler"))

    def test_even_sizes_n4(self):
        table = distribution_bruteforce(self.EVEN_SIZES, 4)
        assert table.counts == {0: 2, 1: 3}
        assert table.total == 5

    def test_repeated_sizes_n4(self):
        table = distribution_bruteforce(self.REPEATED_SIZES, 4)
        assert table.counts == {0: 2, 1: 3}

    def test_n0_single_empty_partition(self):
        assert distribution_bruteforce(self.EVEN_SIZES, 0).counts == {0: 1}
        assert distribution_bruteforce(self.REPEATED_SIZES, 0).counts == {0: 1}

    def test_marginals_at_n5(self):
        assert distribution_bruteforce(self.REPEATED_SIZES, 5).marginal(0) == 3
        assert distribution_bruteforce(self.EVEN_SIZES, 5).marginal(0) == 3

    @pytest.mark.parametrize("n", [0, 1, 5, 9, 14])
    def test_matches_independent_tally(self, n):
        # Each family form against its native rule over the recursive enumerator.
        squares_x, _ = pair_statistics(builtin_pair("squares"))
        remmel_x, _ = pair_statistics(builtin_pair("remmel_consecutive"))
        for stat, name in (
            (self.EVEN_SIZES, "even_sizes"),
            (self.REPEATED_SIZES, "repeated_sizes"),
            (squares_x, "square_sizes"),
            (remmel_x, "consecutive_even"),
        ):
            table = distribution_bruteforce(stat, n)
            assert table.counts == tally_distribution(native(name).counts_evaluator(n), n)

    @pytest.mark.parametrize("n", range(0, 26, 5))
    def test_totals_are_partition_counts(self, n):
        for side in pair_statistics(builtin_pair("mod6")):
            assert distribution_bruteforce(side, n).total == count_partitions(n)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            distribution_bruteforce(self.EVEN_SIZES, -1)

    @pytest.mark.parametrize("name,pair", builtin_pairs(), ids=[name for name, _ in builtin_pairs()])
    def test_builtin_sides_match_independent_tally(self, name, pair):
        for stat in pair_statistics(pair):
            for n in range(N_ORACLE + 1):
                expected = tally_distribution(stat.counts_evaluator(n), n)
                assert distribution_bruteforce(stat, n).counts == expected, (stat.label, n)


class TestIncrementalTally:
    """Family sides are tallied from hit counts the walk keeps up to date; the
    per-map rule over the recursive enumerator is the oracle."""

    DUPLICATES = MultisetFamily("dup", (Strand(explicit=Multiset({1: 1})),) * 20)
    TOO_HEAVY = MultisetFamily("too_heavy", (Strand(explicit=Multiset({17: 1})),))

    @given(drawn_families(), st.integers(0, 16))
    @example(DUPLICATES, 16)  # 20 hits at {1: 16}, above n + 1
    @example(TOO_HEAVY, 16)  # no relevant member
    @settings(max_examples=150, deadline=None)
    def test_bruteforce_matches_oracle(self, family, n):
        stat = FamilyStatistic(family)
        assert distribution_bruteforce(stat, n).counts == tally_distribution(
            stat.counts_evaluator(n), n
        )

    @given(drawn_families(), drawn_families(), st.integers(0, 16))
    @example(DUPLICATES, TOO_HEAVY, 16)
    @settings(max_examples=150, deadline=None)
    def test_compare_matches_oracle(self, family_x, family_y, n):
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        tallies = walk_tallies(x, y, n, n)
        assert tallies == oracle_tallies(x, y, n, n)
        assert report_verdicts(compare(x, y, n, n)) == oracle_verdicts(x, y, n, n, tallies)

    @given(tail_families(), tail_families(), st.integers(0, 22))
    @example(explicit_family({2: 1, 1: 1}), explicit_family({2: 3}), 12)
    @example(explicit_family({1: 5}), explicit_family({2: 1, 3: 1}), 12)
    # At {6, 3} the member's 3 is met but its three 1s are not: rest 0.
    @example(explicit_family({1: 3, 3: 1}), explicit_family({1: 3, 3: 1}, {1: 3}), 9)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_tail_matches_oracle(self, family_x, family_y, n):
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        assert walk_tallies(x, y, n, n) == oracle_tallies(x, y, n, n)

    @given(tail_families(), tail_families(), st.integers(0, 22), st.integers(0, 22))
    # remmel's mixed members: {3: 2, 4: 2} weighs 14, inside the range.
    @example(explicit_family({3: 2, 4: 2}), explicit_family({2: 1, 4: 1}), 0, 22)
    @example(explicit_family({3: 2, 4: 2}, {1: 1}), explicit_family({2: 1, 4: 1}, {3: 3}), 9, 16)
    @settings(max_examples=60, deadline=None)
    def test_range_matches_per_n_oracle(self, family_x, family_y, a, b):
        # One walk of n_to tallies every n of the range with n_to's members.
        n_from, n_to = sorted((a, b))
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        expected = oracle_tallies(x, y, n_from, n_to)
        assert walk_tallies(x, y, n_from, n_to) == expected
        report = compare(x, y, n_from, n_to)
        assert report_verdicts(report) == oracle_verdicts(x, y, n_from, n_to, expected)

    @given(sparse_families(), sparse_families(), st.integers(0, 26), st.integers(0, 26))
    @example(explicit_family({23: 1}, {1: 2}), explicit_family({2: 1, 4: 1}), 20, 26)
    # Sizes <= 3 only: one group, the empty map with rest n_to.
    @example(explicit_family({1: 2}, {2: 1, 3: 1}), explicit_family({3: 2}), 0, 26)
    @example(TOO_HEAVY, explicit_family({4: 1, 7: 1}), 10, 16)
    @settings(max_examples=60, deadline=None)
    def test_unwatched_sizes_match_oracle(self, family_x, family_y, a, b):
        # The sizes >= 4 that no member uses are counted in closed form.
        n_from, n_to = sorted((a, b))
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        with counting_walks() as walks:
            tallies = walk_tallies(x, y, n_from, n_to)
        expected = oracle_tallies(x, y, n_from, n_to)
        assert tallies == expected
        report = compare(x, y, n_from, n_to)
        assert report_verdicts(report) == oracle_verdicts(x, y, n_from, n_to, expected)
        # Per side, one group per partition of each m <= n_to into the sizes
        # >= 4 that side's members use.
        groups = []
        for stat in (x, y):
            used = {s for items in stat.family.member_patterns(n_to) for s, _ in items if s >= 4}
            groups.append([n_to, sum(partition_counts_into(sorted(used), n_to))])
        assert walks == groups

    def test_copies_share_one_class(self, monkeypatch):
        # 1,500 copies of {1: 1}, as in the overlap workload's R1500 file,
        # and one mixed member (entries at 2 and at 4, the walk's smallest
        # size): a closed-form cover sees at most two classes.
        family = explicit_family(*[{1: 1}] * 1500, {2: 1, 4: 1})
        classes = []
        cover = distribution._cover

        def counted(pairs, rest):
            pairs = list(pairs)
            classes.append(len(pairs))
            return cover(pairs, rest)

        monkeypatch.setattr(distribution, "_cover", counted)
        stat = FamilyStatistic(family)
        table = distribution_bruteforce(stat, 20)
        assert max(classes) == 2
        assert table.counts == tally_distribution(stat.counts_evaluator(20), 20)

    def test_hits_above_n_plus_one(self):
        stat = FamilyStatistic(self.DUPLICATES)
        assert distribution_bruteforce(stat, 3).counts == {0: 1, 20: 2}

    def test_family_sides_skip_their_rule(self, monkeypatch):
        argv = ["compare", "--pair", "mod6", "--prose-y", "--n-max", "6"]
        expected = CliRunner().invoke(cli_main, argv)

        def refuse(self, n):
            raise AssertionError("side evaluated per map")

        for cls in (FamilyStatistic, NativeStatistic):
            monkeypatch.setattr(cls, "counts_evaluator", refuse)
        x, y = pair_statistics(builtin_pair("euler"))
        assert distribution_bruteforce(x, 12).total == count_partitions(12)
        assert compare(x, y, 0, 12).identical_everywhere
        result = CliRunner().invoke(cli_main, argv)
        assert (result.exit_code, result.stdout) == (1, expected.stdout)


class TestCompare:
    def test_euler_identical_through_12(self):
        x, y = pair_statistics(builtin_pair("euler"))
        report = compare(x, y, 1, 12)
        assert report.identical_everywhere
        assert [v.n for v in report.verdicts] == list(range(1, 13))

    def test_mod6_prose_divergence_at_6(self):
        x, _ = pair_statistics(builtin_pair("mod6"))
        prose = FamilyStatistic(mod6_prose_family())
        report = compare(x, prose, 6, 6)
        assert not report.identical_everywhere
        v = report.first_divergence()
        assert (v.n, v.j, v.count_x, v.count_y) == (6, 0, 3, 2)
        # full count maps behind that verdict
        assert distribution_bruteforce(x, 6).counts == {0: 3, 1: 6, 2: 2}
        assert distribution_bruteforce(prose, 6).counts == {0: 2, 1: 7, 2: 2}

    def test_reflexive(self):
        x, _ = pair_statistics(builtin_pair("squares"))
        assert compare(x, x, 0, 10).identical_everywhere

    def test_symmetric(self):
        x, _ = pair_statistics(builtin_pair("mod6"))
        y = FamilyStatistic(mod6_prose_family())
        fwd = compare(x, y, 1, 8)
        rev = compare(y, x, 1, 8)
        for a, b in zip(fwd.verdicts, rev.verdicts):
            assert a.identical == b.identical
            assert a.j == b.j
            assert (a.count_x, a.count_y) == (b.count_y, b.count_x)

    @pytest.mark.parametrize("name,pair", builtin_pairs(), ids=[name for name, _ in builtin_pairs()])
    def test_builtin_pairs_match_two_oracle_tallies(self, name, pair):
        x, y = pair_statistics(pair)
        assert report_verdicts(compare(x, y, 0, N_ORACLE)) == oracle_verdicts(x, y, 0, N_ORACLE)

    def test_mod6_prose_matches_two_oracle_tallies(self):
        x, _ = pair_statistics(builtin_pair("mod6"))
        report = compare(x, FamilyStatistic(mod6_prose_family()), 0, N_ORACLE)
        # The oracle tallies the prose reading's native rule.
        expected = oracle_verdicts(x, native("mod6_Y_prose"), 0, N_ORACLE)
        assert report_verdicts(report) == expected
        v = report.first_divergence()
        assert (v.n, v.identical, v.j, v.count_x, v.count_y) == next(
            verdict for verdict in expected if not verdict[1]
        )

    def test_one_enumeration_per_n(self):
        # One walk of n_to per side serves every n of the range.
        x, y = pair_statistics(builtin_pair("euler"))
        with counting_walks() as walks:
            assert compare(x, y, 3, 9).identical_everywhere
        assert [n for n, _ in walks] == [9, 9]

    @pytest.mark.parametrize(
        "name,n,groups",
        # 3,881 and 1,995 groups with every size >= 4 walked.
        [("euler", 39, 490), ("squares", 35, 38)],
        ids=["euler", "squares"],
    )
    def test_walks_only_the_sizes_members_use(self, name, n, groups):
        x, y = pair_statistics(builtin_pair(name))
        with counting_walks() as walks:
            table = distribution_bruteforce(x, n)
        assert walks == [[n, groups]]
        # Y uses more sizes, so its walk counts fewer of them in closed form.
        assert table == distribution_bruteforce(y, n)
        assert table.total == count_partitions(n)

    def test_compare_walks_only_the_sizes_members_use(self):
        x, y = pair_statistics(builtin_pair("euler"))
        with counting_walks() as walks:
            assert compare(x, y, 1, 39).identical_everywhere
        assert walks == [[39, 490], [39, 3_413]]

    def test_compare_walks_each_side_on_its_own_sizes(self):
        x, y = pair_statistics(builtin_pair("squares"))
        with counting_walks() as walks:
            assert compare(x, y, 1, 39).identical_everywhere
        assert walks == [[39, 50], [39, 142]]

    def test_one_enumeration_per_n_prose_y(self):
        x, _ = pair_statistics(builtin_pair("mod6"))
        prose = FamilyStatistic(mod6_prose_family())
        with counting_walks() as walks:
            assert not compare(x, prose, 3, 9).identical_everywhere
        assert [n for n, _ in walks] == [9, 9]

    def test_members_built_once_per_side(self, monkeypatch):
        calls = []
        patterns = MultisetFamily.member_patterns

        def counted(self, n):
            calls.append((self.name, n))
            return patterns(self, n)

        monkeypatch.setattr(MultisetFamily, "member_patterns", counted)
        x, y = pair_statistics(builtin_pair("euler"))
        assert compare(x, y, 1, 30).identical_everywhere
        assert calls == [("euler.F", 30), ("euler.G", 30)]

    def test_rejects_bad_range(self):
        x, y = pair_statistics(builtin_pair("euler"))
        with pytest.raises(ValueError):
            compare(x, y, 5, 4)
        with pytest.raises(ValueError):
            compare(x, y, -1, 4)

    def test_first_difference_picks_smallest_j(self):
        assert first_count_difference({0: 1, 2: 5}, {0: 1, 1: 3, 2: 2}) == (1, 0, 3)
        assert first_count_difference({}, {}) is None

