from collections import Counter
from collections.abc import Mapping

import pytest

from partition_sieve import (
    FamilyStatistic,
    MultisetFamily,
    builtin_pair,
    pair_statistics,
    sieve_distribution,
)
from partition_sieve.families import mod6_prose_family

from oracles import native, partitions_recursive, tally_distribution

PI_4221 = (4, 2, 2, 1)


def evaluate(stat, parts):
    """The statistic's value on the partition with the given parts.

    Takes a part list, whose sum is n. A {size: multiplicity} map sums to
    the wrong n here, so it is refused: loops over the enumeration call the
    rule for their own n on the map instead.
    """
    if isinstance(parts, Mapping):
        raise TypeError("evaluate takes a part list, not a multiplicity map")
    return stat.counts_evaluator(sum(parts))(Counter(parts))


def assert_statistics_agree(stat_a, stat_b, n_hi=25):
    """Exhaustively compare two statistics on every partition of every n <= n_hi."""
    for n in range(n_hi + 1):
        rule_a = stat_a.counts_evaluator(n)
        rule_b = stat_b.counts_evaluator(n)
        for parts in partitions_recursive(n):
            counts = Counter(parts)
            assert rule_a(counts) == rule_b(counts), (stat_a.label, stat_b.label, parts)


class TestEvaluate:
    def test_euler_sides_on_4221(self):
        x, y = pair_statistics(builtin_pair("euler"))
        assert evaluate(x, PI_4221) == 2  # even sizes 4 and 2 occur
        assert evaluate(y, PI_4221) == 1  # only size 2 repeats

    def test_empty_partition_is_zero(self):
        for name in ("euler", "squares", "mod6", "remmel_consecutive"):
            x, y = pair_statistics(builtin_pair(name))
            assert evaluate(x, ()) == 0
            assert evaluate(y, ()) == 0

    def test_strand_order_irrelevant(self):
        pair = builtin_pair("mod6")
        shuffled = MultisetFamily("mod6.F.shuffled", pair.F.strands[::-1])
        a = FamilyStatistic(pair.F)
        b = FamilyStatistic(shuffled)
        for n in range(16):
            rule_a = a.counts_evaluator(n)
            rule_b = b.counts_evaluator(n)
            for parts in partitions_recursive(n):
                counts = Counter(parts)
                assert rule_a(counts) == rule_b(counts)

    def test_bounded_by_relevant_indices(self):
        pair = builtin_pair("squares")
        stat = FamilyStatistic(pair.G)
        for n in range(20):
            cap = len(pair.G.relevant_indices(n))
            rule = stat.counts_evaluator(n)
            for parts in partitions_recursive(n):
                assert 0 <= rule(Counter(parts)) <= cap

    def test_repr_names_the_label(self):
        x, _ = pair_statistics(builtin_pair("euler"))
        assert repr(x) == "FamilyStatistic('euler.X')"
        assert repr(FamilyStatistic(mod6_prose_family())) == "FamilyStatistic('mod6_Y_prose')"


class TestNatives:
    def test_mult_ge(self):
        stat = native("mult_ge", d=2)
        assert evaluate(stat, [3, 3, 1]) == 1

    def test_consecutive_even(self):
        stat = native("consecutive_even")
        assert evaluate(stat, [2, 4, 8]) == 1

    def test_mod6_y_prose(self):
        stat = native("mod6_Y_prose")
        assert evaluate(stat, [3, 3]) == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown native"):
            native("no_such_statistic")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            native("mult_ge")
        with pytest.raises(ValueError):
            native("not_in_M2")
        with pytest.raises(ValueError):
            native("even_sizes", d=2)

    def test_not_in_m2_all_integers(self):
        # M1 = 1..30 makes M2 the odd numbers up to 30.
        stat = native("not_in_M2", m1=range(1, 31))
        assert evaluate(stat, [4, 2, 2, 1]) == 2
        assert evaluate(stat, [3, 1, 1]) == 0

    def test_andrews_y(self):
        stat = native("andrews_Y", m1=[1, 2, 4, 8, 16])
        # 3 is outside M1 (counts); 2 in M1 unrepeated (no); 1 in M1 repeated (counts).
        assert evaluate(stat, [3, 2, 1, 1]) == 2


class TestFamilyNativeEquivalence:
    """The family-induced form and its native oracle must agree on every
    partition of every n <= 25; they share no code path."""

    def test_euler(self):
        x, y = pair_statistics(builtin_pair("euler"))
        assert_statistics_agree(x, native("even_sizes"))
        assert_statistics_agree(y, native("repeated_sizes"))

    def test_squares(self):
        x, y = pair_statistics(builtin_pair("squares"))
        assert_statistics_agree(x, native("square_sizes"))
        assert_statistics_agree(y, native("mult_ge_size"))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_glaisher_g(self, d):
        _, y = pair_statistics(builtin_pair("glaisher", d=d))
        assert_statistics_agree(y, native("mult_ge", d=d))

    def test_mod6_x(self):
        x, _ = pair_statistics(builtin_pair("mod6"))
        assert_statistics_agree(x, native("mod6_X"))

    def test_remmel(self):
        x, y = pair_statistics(builtin_pair("remmel_consecutive"))
        assert_statistics_agree(x, native("consecutive_even"))
        assert_statistics_agree(y, native("consecutive_repeated"))

    @pytest.mark.parametrize(
        "m1", [list(range(1, 31)), [1, 2, 4, 8, 16], [3, 6, 12, 24]], ids=["all", "pow2", "3x2k"]
    )
    def test_andrews(self, m1):
        x, y = pair_statistics(builtin_pair("andrews", m1=m1, bound=30))
        assert_statistics_agree(x, native("not_in_M2", m1=m1))
        assert_statistics_agree(y, native("andrews_Y", m1=m1))

    def test_mod6_prose(self):
        assert_statistics_agree(
            FamilyStatistic(mod6_prose_family()), native("mod6_Y_prose"), n_hi=30
        )

    def test_mod6_prose_sieve_matches_native_tally(self):
        rule = native("mod6_Y_prose").counts_evaluator(0)
        for n in range(31):
            table = sieve_distribution(mod6_prose_family(), n).table
            assert table.counts == tally_distribution(rule, n), n

    def test_mod6_family_y_differs_from_prose(self):
        # The weight-matched family Y and the literal prose Y are NOT the
        # same statistic; first disagreement is on a partition of 6.
        _, y = pair_statistics(builtin_pair("mod6"))
        prose = native("mod6_Y_prose")
        assert evaluate(y, [6]) == 0  # 6 is an even multiple of 3: no member matches
        assert evaluate(prose, [6]) == 1
