
import pytest

from partition_sieve import (
    DistributionTable,
    builtin_pair,
    compare,
    count_partitions,
    distribution_bruteforce,
    native,
    pair_statistics,
)
from partition_sieve.distribution import first_count_difference

from oracles import tally_distribution


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
    def test_even_sizes_n4(self):
        table = distribution_bruteforce(native("even_sizes"), 4)
        assert table.counts == {0: 2, 1: 3}
        assert table.total == 5

    def test_repeated_sizes_n4(self):
        table = distribution_bruteforce(native("repeated_sizes"), 4)
        assert table.counts == {0: 2, 1: 3}

    def test_n0_single_empty_partition(self):
        assert distribution_bruteforce(native("even_sizes"), 0).counts == {0: 1}
        x, _ = pair_statistics(builtin_pair("euler"))
        assert distribution_bruteforce(x, 0).counts == {0: 1}

    def test_marginals_at_n5(self):
        assert distribution_bruteforce(native("repeated_sizes"), 5).marginal(0) == 3
        assert distribution_bruteforce(native("even_sizes"), 5).marginal(0) == 3

    @pytest.mark.parametrize("n", [0, 1, 5, 9, 14])
    def test_matches_independent_tally(self, n):
        for name in ("even_sizes", "repeated_sizes", "square_sizes", "consecutive_even"):
            stat = native(name)
            table = distribution_bruteforce(stat, n)
            assert table.counts == tally_distribution(stat.counts_evaluator(n), n)

    @pytest.mark.parametrize("n", range(0, 26, 5))
    def test_totals_are_partition_counts(self, n):
        for side in pair_statistics(builtin_pair("mod6")):
            assert distribution_bruteforce(side, n).total == count_partitions(n)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            distribution_bruteforce(native("even_sizes"), -1)


class TestCompare:
    def test_euler_identical_through_12(self):
        x, y = pair_statistics(builtin_pair("euler"))
        report = compare(x, y, 1, 12)
        assert report.identical_everywhere
        assert [v.n for v in report.verdicts] == list(range(1, 13))

    def test_mod6_prose_divergence_at_6(self):
        report = compare(native("mod6_X"), native("mod6_Y_prose"), 6, 6)
        assert not report.identical_everywhere
        v = report.first_divergence()
        assert (v.n, v.j, v.count_x, v.count_y) == (6, 0, 3, 2)
        # full count maps behind that verdict
        assert distribution_bruteforce(native("mod6_X"), 6).counts == {0: 3, 1: 6, 2: 2}
        assert distribution_bruteforce(native("mod6_Y_prose"), 6).counts == {0: 2, 1: 7, 2: 2}

    def test_reflexive(self):
        x, _ = pair_statistics(builtin_pair("squares"))
        assert compare(x, x, 0, 10).identical_everywhere

    def test_symmetric(self):
        x = native("mod6_X")
        y = native("mod6_Y_prose")
        fwd = compare(x, y, 1, 8)
        rev = compare(y, x, 1, 8)
        for a, b in zip(fwd.verdicts, rev.verdicts):
            assert a.identical == b.identical
            assert a.j == b.j
            assert (a.count_x, a.count_y) == (b.count_y, b.count_x)

    def test_rejects_bad_range(self):
        x, y = pair_statistics(builtin_pair("euler"))
        with pytest.raises(ValueError):
            compare(x, y, 5, 4)
        with pytest.raises(ValueError):
            compare(x, y, -1, 4)

    def test_first_difference_picks_smallest_j(self):
        assert first_count_difference({0: 1, 2: 5}, {0: 1, 1: 3, 2: 2}) == (1, 0, 3)
        assert first_count_difference({}, {}) is None

