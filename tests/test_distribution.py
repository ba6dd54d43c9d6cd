
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
    sieve_distribution,
)
from partition_sieve.cli import main as cli_main
from partition_sieve.distribution import first_count_difference
from partition_sieve.families import mod6_prose_family

from oracles import native, partition_counts_into, tally_distribution

# Brute force and compare are pinned against the recursive enumerator up to here.
N_ORACLE = 22
# The benchmark's andrews M1: k * 2^b <= 2048 for k in {1, 3, 5}.
BENCH_M1 = sorted(k << b for k in (1, 3, 5) for b in range(12) if k << b <= 2048)


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


@st.composite
def one_size_families(draw):
    """Members with one entry, at sizes 1-12 (often 4-6) with needs 1-4,
    often repeated and often several at one size; the heavier ones weigh
    more than n."""
    size = st.one_of(st.integers(4, 6), st.integers(1, 12))
    strands = draw(st.lists(st.tuples(size, st.integers(1, 4)), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(strands), max_size=6))
    return explicit_family(*({s: m} for s, m in strands + repeats))


@st.composite
def mixed_families(draw):
    """One-entry members at sizes 4-9 next to members with two or three
    entries at sizes 1-9, so a one-entry member often shares a walked size."""
    one = st.tuples(st.integers(4, 9), st.integers(1, 3)).map(lambda sm: {sm[0]: sm[1]})
    many = st.dictionaries(st.integers(1, 9), st.integers(1, 2), min_size=2, max_size=3)
    members = draw(st.lists(st.one_of(one, many), min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(members), max_size=4))
    return explicit_family(*members, *repeats)


@st.composite
def product_families(draw, walked=False, coupled=False):
    """One-entry members at sizes 1-8 (often 1-3) needing 1-4, often
    several and equal at one size; the heavier ones weigh more than n.
    `walked` adds members with two or three entries at sizes 4-9 only, and
    `coupled` one member with two entries, one of them at a size <= 3."""
    one = st.tuples(st.one_of(st.integers(1, 3), st.integers(1, 8)), st.integers(1, 4))
    members = [{s: m} for s, m in draw(st.lists(one, min_size=1, max_size=6))]
    if walked:
        many = st.dictionaries(st.integers(4, 9), st.integers(1, 2), min_size=2, max_size=3)
        members += draw(st.lists(many, min_size=1, max_size=3))
    if coupled:
        low = draw(st.integers(1, 3))
        other = draw(st.integers(1, 6).filter(lambda s: s != low))
        members.append({low: draw(st.integers(1, 2)), other: 1})
    repeats = draw(st.lists(st.sampled_from(members), max_size=6))
    return explicit_family(*members, *repeats)


@st.composite
def tally_ranges(draw):
    """(n_from, n_to), n_to often 0 or 1 and n_from often 0."""
    n_to = draw(st.one_of(st.integers(0, 1), st.integers(0, 20)))
    return draw(st.one_of(st.just(0), st.integers(0, n_to))), n_to


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


@contextmanager
def counting_covers():
    """Record the rest of every `_cover` call made inside the block."""
    rests = []
    cover = distribution._cover

    def counted(classes, rest):
        rests.append(rest)
        return cover(classes, rest)

    with patch.object(distribution, "_cover", counted):
        yield rests


def refuse_cover(classes, rest):
    raise AssertionError("the tail went to _cover")


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
        # The sizes >= 4 that no member with two or more entries uses are
        # counted in closed form.
        n_from, n_to = sorted((a, b))
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        with counting_walks() as walks:
            tallies = walk_tallies(x, y, n_from, n_to)
        expected = oracle_tallies(x, y, n_from, n_to)
        assert tallies == expected
        report = compare(x, y, n_from, n_to)
        assert report_verdicts(report) == oracle_verdicts(x, y, n_from, n_to, expected)
        # Per side, one group per partition of each m <= n_to into the sizes
        # >= 4 that side's members with two or more entries use.
        groups = []
        for stat in (x, y):
            patterns = stat.family.member_patterns(n_to)
            used = {s for items in patterns if len(items) > 1 for s, _ in items if s >= 4}
            groups.append([n_to, sum(partition_counts_into(sorted(used), n_to))])
        assert walks == groups

    @given(one_size_families(), st.integers(0, 20))
    @example(explicit_family({5: 1}, {5: 1}, {5: 3}, {4: 2}), 20)  # equal needs at 5
    @example(explicit_family({12: 3}, {6: 4}, {4: 1}), 16)  # members heavier than n
    @settings(max_examples=150, deadline=None)
    def test_one_size_members_match_oracle(self, family, n):
        # Every size >= 4 is counted by the product, so nothing is walked.
        stat = FamilyStatistic(family)
        with counting_walks() as walks:
            table = distribution_bruteforce(stat, n)
        assert table.counts == tally_distribution(stat.counts_evaluator(n), n)
        assert walks == [[n, 1]]

    @given(mixed_families(), st.integers(0, 18), st.integers(0, 18))
    # {4: 2} is walked with {4: 1, 2: 1}; {5: 1} and {5: 2} are not.
    @example(explicit_family({4: 2}, {4: 1, 2: 1}, {5: 1}, {5: 2}), 0, 18)
    @settings(max_examples=100, deadline=None)
    def test_mixed_families_match_oracle(self, family, a, b):
        n_from, n_to = sorted((a, b))
        stat = FamilyStatistic(family)
        expected = [tally_distribution(stat.counts_evaluator(n), n) for n in range(n_from, n_to + 1)]
        patterns = stat.family.member_patterns(n_to)
        assert distribution._tally_walk(patterns, n_from, n_to) == expected
        assert distribution_bruteforce(stat, n_to).counts == expected[-1]

    @given(one_size_families(), mixed_families(), st.integers(0, 18), st.integers(0, 18))
    # 4 is one-size for X, walked for Y; 5 the other way round.
    @example(
        explicit_family({4: 1}, {4: 2}, {5: 1, 6: 1}),
        explicit_family({4: 1, 6: 1}, {5: 1}, {5: 2}),
        0,
        18,
    )
    @settings(max_examples=100, deadline=None)
    def test_compare_one_size_against_walked(self, family_x, family_y, a, b):
        n_from, n_to = sorted((a, b))
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        expected = oracle_tallies(x, y, n_from, n_to)
        assert walk_tallies(x, y, n_from, n_to) == expected
        report = compare(x, y, n_from, n_to)
        assert report_verdicts(report) == oracle_verdicts(x, y, n_from, n_to, expected)

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
        # Every member has one entry, so the product counts every size >= 4
        # and the walk yields one group (3,881 and 1,995 with all walked).
        [("euler", 39, 1), ("squares", 35, 1)],
        ids=["euler", "squares"],
    )
    def test_walks_only_the_sizes_members_use(self, name, n, groups):
        x, y = pair_statistics(builtin_pair(name))
        with counting_walks() as walks:
            table = distribution_bruteforce(x, n)
        assert walks == [[n, groups]]
        assert table == distribution_bruteforce(y, n)
        assert table.total == count_partitions(n)

    def test_compare_walks_only_the_sizes_members_use(self):
        x, y = pair_statistics(builtin_pair("euler"))
        with counting_walks() as walks:
            assert compare(x, y, 1, 39).identical_everywhere
        assert walks == [[39, 1], [39, 1]]

    def test_compare_walks_each_side_on_its_own_sizes(self):
        x, y = pair_statistics(builtin_pair("squares"))
        with counting_walks() as walks:
            assert compare(x, y, 1, 39).identical_everywhere
        assert walks == [[39, 1], [39, 1]]

    def test_compare_walks_the_sizes_of_two_size_members(self):
        # remmel's members have two sizes each, so both sides walk nearly
        # every size, as they did before the product counted any size.
        x, y = pair_statistics(builtin_pair("remmel_consecutive"))
        with counting_walks() as walks:
            assert compare(x, y, 1, 39).identical_everywhere
        assert walks == [[39, 423], [39, 1_221]]

    def test_compare_andrews_walks_one_group_per_side(self):
        x, y = pair_statistics(builtin_pair("andrews", m1=list(BENCH_M1), bound=60))
        with counting_walks() as walks:
            assert compare(x, y, 59, 60).identical_everywhere
        assert walks == [[60, 1], [60, 1]]

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


class TestTailPaths:
    """Sizes 1, 2 and 3 join the per-size product unless a member with two
    or more entries uses one of them; only then does `_cover` count the
    tail."""

    # The benchmark's pairs at its largest dist n.
    PRODUCT_PAIRS = [
        ("euler", builtin_pair("euler")),
        ("squares", builtin_pair("squares")),
        ("mod6", builtin_pair("mod6")),
        ("glaisher2", builtin_pair("glaisher", d=2)),
        ("glaisher3", builtin_pair("glaisher", d=3)),
        ("glaisher4", builtin_pair("glaisher", d=4)),
        ("andrews", builtin_pair("andrews", m1=BENCH_M1, bound=39)),
    ]

    @pytest.mark.parametrize("name,pair", PRODUCT_PAIRS, ids=[name for name, _ in PRODUCT_PAIRS])
    def test_builtin_sides_skip_cover(self, name, pair, monkeypatch):
        x, y = pair_statistics(pair)
        monkeypatch.setattr(distribution, "_cover", refuse_cover)
        for stat in (x, y):
            expected = tally_distribution(stat.counts_evaluator(39), 39)
            assert distribution_bruteforce(stat, 39).counts == expected, stat.label
        assert report_verdicts(compare(x, y, 28, 29)) == oracle_verdicts(x, y, 28, 29)

    WATCH_PAIRS = PRODUCT_PAIRS + [("remmel", builtin_pair("remmel_consecutive"))]

    @pytest.mark.parametrize("name,pair", WATCH_PAIRS, ids=[name for name, _ in WATCH_PAIRS])
    def test_walk_watches_no_size_below_4(self, name, pair, monkeypatch):
        # The walk walks every size it is given; `_tally_walk` never gives 1, 2 or 3.
        watched = []
        walk = distribution.partition_walk

        def recorded(n, watch, on_change):
            watched.append([s for s, bucket in enumerate(watch) if bucket])
            return walk(n, watch, on_change)

        monkeypatch.setattr(distribution, "partition_walk", recorded)
        x, y = pair_statistics(pair)
        compare(x, y, 1, 39)
        assert len(watched) == 2
        assert all(s >= 4 for sizes in watched for s in sizes), watched
        if name == "remmel":
            assert all(watched)

    def test_mod6_prose_skips_cover(self, monkeypatch):
        x, _ = pair_statistics(builtin_pair("mod6"))
        prose = FamilyStatistic(mod6_prose_family())
        monkeypatch.setattr(distribution, "_cover", refuse_cover)
        report = compare(x, prose, 28, 29)
        assert report_verdicts(report) == oracle_verdicts(x, prose, 28, 29)

    def test_remmel_couples_the_tail(self):
        # {2, 4} and {1, 1, 2, 2} are members with two entries below 4.
        x, y = pair_statistics(builtin_pair("remmel_consecutive"))
        for stat in (x, y):
            with counting_covers() as rests:
                table = distribution_bruteforce(stat, 20)
            assert rests
            assert table.counts == tally_distribution(stat.counts_evaluator(20), 20)

    @given(product_families(), product_families(walked=True), tally_ranges())
    @example(explicit_family({1: 2}, {1: 2}, {3: 4}), explicit_family({2: 1}), (0, 0))
    @example(explicit_family({1: 1}, {2: 3}), explicit_family({4: 1, 5: 1}, {1: 1}), (0, 1))
    @settings(max_examples=100, deadline=None)
    def test_product_tail_matches_oracle(self, family_x, family_y, n_range):
        n_from, n_to = n_range
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        with patch.object(distribution, "_cover", refuse_cover):
            tallies = walk_tallies(x, y, n_from, n_to)
            report = compare(x, y, n_from, n_to)
        expected = oracle_tallies(x, y, n_from, n_to)
        assert tallies == expected
        assert report_verdicts(report) == oracle_verdicts(x, y, n_from, n_to, expected)

    @given(
        product_families(walked=True, coupled=True), product_families(walked=True), tally_ranges()
    )
    @example(explicit_family({1: 1}, {2: 1, 4: 1}), explicit_family({3: 1}), (0, 1))
    @example(explicit_family({3: 2}, {1: 1, 2: 1}, {4: 1, 6: 1}), explicit_family({1: 3}), (0, 20))
    @settings(max_examples=100, deadline=None)
    def test_coupled_tail_matches_oracle(self, family_x, family_y, n_range):
        n_from, n_to = n_range
        x, y = FamilyStatistic(family_x), FamilyStatistic(family_y)
        with counting_covers() as rests:
            tallies = walk_tallies(x, y, n_from, n_to)
        # Y never couples its tail; X does unless its coupling member is heavier than n_to.
        patterns = family_x.member_patterns(n_to)
        assert bool(rests) == any(len(items) > 1 and items[0][0] <= 3 for items in patterns)
        expected = oracle_tallies(x, y, n_from, n_to)
        assert tallies == expected
        report = compare(x, y, n_from, n_to)
        assert report_verdicts(report) == oracle_verdicts(x, y, n_from, n_to, expected)


class TestHitRows:
    """The packed per-size product against a plain list DP of the same
    coefficients."""

    @staticmethod
    def plain_rows(needs, n):
        rows = [[1] + [0] * n]
        for s, mults in needs.items():
            product = [[0] * (n + 1) for _ in range(len(rows) + len(mults))]
            for h, row in enumerate(rows):
                for u, ways in enumerate(row):
                    for k in range((n - u) // s + 1):
                        product[h + sum(m <= k for m in mults)][u + s * k] += ways
            rows = product
        rows = [[(u, ways) for u, ways in enumerate(row) if ways] for row in rows]
        while not rows[-1]:
            rows.pop()
        return rows

    @given(
        st.dictionaries(
            st.one_of(st.integers(1, 3), st.integers(4, 70)),
            st.lists(st.integers(1, 8), max_size=5),
            max_size=8,
        ),
        st.integers(0, 60),
    )
    @example({4: [1, 1, 2], 5: [], 9: [3]}, 0)
    @example({4: [1, 1, 2], 5: [], 9: [3]}, 1)
    @example({1: [1, 2], 2: [], 3: [1, 1]}, 1)
    @example({s: [1, 2] for s in range(1, 61)}, 60)
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_product(self, needs, n):
        # Row h holds its coefficient of q^u in digit u, and no digit above n.
        b, rows = distribution._hit_rows(needs, n)
        digit = (1 << b) - 1
        assert all(row >> b * (n + 1) == 0 for row in rows)
        unpacked = [[(u, w) for u in range(n + 1) if (w := row >> b * u & digit)] for row in rows]
        assert unpacked == self.plain_rows(needs, n)


# The largest n under the CLI's partition cap.
N_CAP_EDGE = 94


@pytest.mark.parametrize(
    "pair",
    [
        builtin_pair("euler"),
        builtin_pair("squares"),
        builtin_pair("mod6"),
        builtin_pair("glaisher", d=2),
        builtin_pair("glaisher", d=3),
        builtin_pair("glaisher", d=4),
        builtin_pair("andrews", m1=BENCH_M1, bound=N_CAP_EDGE),
    ],
    ids=["euler", "squares", "mod6", "glaisher2", "glaisher3", "glaisher4", "andrews"],
)
def test_bruteforce_matches_sieve_at_the_cap_edge(pair):
    for family in (pair.F, pair.G):
        sieved = sieve_distribution(family, N_CAP_EDGE)
        assert not sieved.truncated
        table = distribution_bruteforce(FamilyStatistic(family), N_CAP_EDGE)
        assert table == sieved.table
        assert table.total == count_partitions(N_CAP_EDGE)


def test_bruteforce_matches_sieve_on_a_coupled_tail():
    # remmel's members with two entries below 4 keep its tail with `_cover`.
    pair = builtin_pair("remmel_consecutive")
    for family in (pair.F, pair.G):
        sieved = sieve_distribution(family, 60)
        assert not sieved.truncated
        table = distribution_bruteforce(FamilyStatistic(family), 60)
        assert table == sieved.table
        assert table.total == count_partitions(60)
