from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import theorem_b_scan
from partition_sieve import (
    DisjointnessWitness,
    FamilyPair,
    FamilyStatistic,
    Multiset,
    MultisetFamily,
    Strand,
    StrandEntry,
    UnionWeightWitness,
    WeightWitness,
    builtin_pair,
    check_theorem_b,
    check_theorem_c,
    compare,
    count_partitions,
    distribution_bruteforce,
    pair_statistics,
    sieve_distribution,
)


def single_entry_strand(size_poly, mult_poly):
    return Strand(entries=(StrandEntry(size_poly, mult_poly),))


def builtin_sides():
    sides = []
    for name, pair in [
        ("euler", builtin_pair("euler")),
        ("squares", builtin_pair("squares")),
        ("mod6", builtin_pair("mod6")),
        ("glaisher3", builtin_pair("glaisher", d=3)),
        ("remmel", builtin_pair("remmel_consecutive")),
        ("andrews_pow2", builtin_pair("andrews", m1=[1, 2, 4, 8, 16], bound=30)),
    ]:
        sides.append((f"{name}.F", pair.F))
        sides.append((f"{name}.G", pair.G))
    return sides


def explicit_pair(name, f_multisets, g_multisets):
    return FamilyPair(
        name,
        MultisetFamily(f"{name}.F", tuple(Strand(explicit=Multiset(m)) for m in f_multisets)),
        MultisetFamily(f"{name}.G", tuple(Strand(explicit=Multiset(m)) for m in g_multisets)),
    )


@st.composite
def disjoint_members(draw, k, lowest):
    """k members with pairwise disjoint supports, all sizes >= lowest."""
    sizes = draw(st.permutations(range(lowest, lowest + 3 * k)))
    members = []
    for i in range(k):
        support = sizes[3 * i : 3 * i + draw(st.integers(1, 3))]
        members.append({s: draw(st.integers(1, 2)) for s in support})
    return members


@st.composite
def clashing_members(draw, k):
    """k members from a small size pool, with at least one shared size."""
    members = [
        draw(st.dictionaries(st.integers(1, 6), st.integers(1, 2), min_size=1, max_size=3))
        for _ in range(k)
    ]
    a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    members[b].setdefault(min(members[a]), 1)
    return members


@st.composite
def theorem_b_pairs(draw):
    """Explicit pairs whose supports overlap on F, on G, on both or on
    neither. Unless exactly one side overlaps, G copies F's member at a
    random subset of positions, so weights match there."""
    k = draw(st.integers(2, 6))
    clash = draw(st.sampled_from(["", "F", "G", "FG"]))
    f = draw(clashing_members(k) if "F" in clash else disjoint_members(k, 1))
    if "G" in clash:
        g = draw(clashing_members(k))
    else:
        # Sizes from 100 up never meet F's, so copied F members keep G disjoint.
        g = draw(disjoint_members(k, 100))
    if clash in ("", "FG"):
        for i in range(k):
            if draw(st.booleans()):
                g[i] = dict(f[i])
    return explicit_pair("drawn", f, g), draw(st.integers(1, 150))


# 1500 identical {1:1} members: every subset has union weight 1, so the
# depth-first path grows as deep as the family before the cap stops it.
DEEP_PAIR = explicit_pair("deep", [{1: 1}] * 1500, [{1: 1}] * 1500)


class TestSieveDistribution:
    def test_euler_f_n4_by_hand(self):
        # N0 = p(4) = 5, N1 = p(2) + p(0) = 3, N2 pruned (union weight 6 > 4):
        # e0 = 2, e1 = 3, and only the 3 surviving subsets are explored.
        result = sieve_distribution(builtin_pair("euler").F, 4)
        assert result.table.counts == {0: 2, 1: 3}
        assert result.subsets_explored == 3
        assert not result.truncated

    def test_n0_empty_subset_only(self):
        result = sieve_distribution(builtin_pair("squares").F, 0)
        assert result.table.counts == {0: 1}
        assert result.subsets_explored == 1

    def test_remmel_f_n12_equals_bruteforce(self):
        family = builtin_pair("remmel_consecutive").F
        result = sieve_distribution(family, 12)
        assert result.table == distribution_bruteforce(FamilyStatistic(family), 12)

    @pytest.mark.parametrize("label,family", builtin_sides())
    def test_equals_bruteforce_up_to_15(self, label, family):
        for n in range(16):
            result = sieve_distribution(family, n)
            assert not result.truncated
            assert result.table == distribution_bruteforce(FamilyStatistic(family), n), (
                label,
                n,
            )

    @pytest.mark.parametrize("label,family", builtin_sides())
    def test_nonnegative_and_totals(self, label, family):
        for n in range(0, 21, 4):
            table = sieve_distribution(family, n).table
            assert all(e >= 0 for e in table.counts.values())
            assert table.total == count_partitions(n)

    def test_cap_flags_truncation(self):
        result = sieve_distribution(builtin_pair("euler").F, 4, subset_cap=2)
        assert result.truncated
        assert result.subsets_explored > 2
        assert result.table.counts == {}

    def test_deep_family_truncates(self):
        result = sieve_distribution(DEEP_PAIR.F, 10, subset_cap=2000)
        assert result.truncated
        assert result.subsets_explored == 2001

    def test_validation(self):
        family = builtin_pair("euler").F
        with pytest.raises(ValueError):
            sieve_distribution(family, -1)
        with pytest.raises(ValueError):
            sieve_distribution(family, 4, subset_cap=0)


class TestCheckTheoremB:
    def test_euler_holds(self):
        report = check_theorem_b(builtin_pair("euler"), 20)
        assert report.holds and report.witness is None
        assert report.verified_up_to == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "squares"},
            {"name": "mod6"},
            {"name": "glaisher", "d": 2},
            {"name": "glaisher", "d": 5},
            {"name": "andrews", "m1": [1, 2, 4, 8, 16], "bound": 30},
        ],
    )
    def test_disjoint_builtins_hold(self, kwargs):
        name = kwargs.pop("name")
        assert check_theorem_b(builtin_pair(name, **kwargs), 30).holds

    def test_remmel_shared_element_witness(self):
        report = check_theorem_b(builtin_pair("remmel_consecutive"), 20)
        assert not report.holds
        w = report.witness
        assert isinstance(w, DisjointnessWitness)
        assert w.side == "F"
        assert w.element == 4
        assert {w.multiset_a, w.multiset_b} == {
            Multiset({2: 1, 4: 1}),
            Multiset({4: 1, 6: 1}),
        }

    def test_weight_mismatch_witness(self):
        pair = FamilyPair(
            "halved",
            MultisetFamily("halved.F", (single_entry_strand((0, 2, 0), (0, 1)),)),  # {2t}
            MultisetFamily("halved.G", (single_entry_strand((0, 1, 0), (0, 1)),)),  # {t}
        )
        report = check_theorem_b(pair, 10)
        assert not report.holds
        w = report.witness
        assert isinstance(w, WeightWitness)
        assert (w.idx.t, w.weight_f, w.weight_g) == (1, 2, 1)

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            check_theorem_b(builtin_pair("euler"), 0)

    def test_g_side_witness_is_first_pair_not_first_clash_met(self):
        # Weights 6, 8, 10, 12 on both sides; F is disjoint. On G, positions
        # 1 and 2 clash before position 3 is reached, but position 0 clashes
        # with 3, so (0, 3) wins, with 2 the smaller of its shared sizes 2, 4.
        pair = explicit_pair(
            "gclash",
            [{6: 1}, {8: 1}, {10: 1}, {12: 1}],
            [{2: 1, 4: 1}, {1: 2, 3: 2}, {1: 1, 3: 3}, {2: 2, 4: 2}],
        )
        report = check_theorem_b(pair, 20)
        assert not report.holds
        w = report.witness
        assert isinstance(w, DisjointnessWitness)
        assert (w.side, w.idx_a.strand, w.idx_b.strand, w.element) == ("G", 0, 3, 2)
        assert (w.multiset_a, w.multiset_b) == (Multiset({2: 1, 4: 1}), Multiset({2: 2, 4: 2}))

    @settings(max_examples=300, deadline=None)
    @given(theorem_b_pairs())
    def test_witness_matches_nested_scan(self, drawn):
        pair, n_max = drawn
        report = check_theorem_b(pair, n_max)
        expected = theorem_b_scan(pair, n_max)
        assert report.holds == (expected is None)
        w = report.witness
        found = None if w is None else (type(w).__name__, *(getattr(w, f.name) for f in fields(w)))
        assert found == expected


class TestCheckTheoremC:
    def test_remmel_holds(self):
        report = check_theorem_c(builtin_pair("remmel_consecutive"), 24)
        assert report.holds
        assert not report.inconclusive
        assert report.subsets_explored > 1

    def test_remmel_first_two_unions_by_hand(self):
        # {2,4} u {4,6} = {2,4,6} and {1,1,2,2} u {2,2,3,3} = {1,1,2,2,3,3},
        # both of weight 12, despite the overlap at 4.
        from partition_sieve import FamilyIndex

        pair = builtin_pair("remmel_consecutive")
        union_f = pair.F.member(FamilyIndex(0, 1)).union(pair.F.member(FamilyIndex(0, 2)))
        union_g = pair.G.member(FamilyIndex(0, 1)).union(pair.G.member(FamilyIndex(0, 2)))
        assert union_f == Multiset({2: 1, 4: 1, 6: 1})
        assert union_g == Multiset({1: 2, 2: 2, 3: 2})
        assert union_f.weight == union_g.weight == 12

    def test_b_implies_c_on_builtins(self):
        for kwargs in [
            {"name": "euler"},
            {"name": "squares"},
            {"name": "mod6"},
            {"name": "glaisher", "d": 3},
            {"name": "andrews", "m1": list(range(1, 31)), "bound": 30},
        ]:
            name = kwargs.pop("name")
            pair = builtin_pair(name, **kwargs)
            assert check_theorem_b(pair, 20).holds
            assert check_theorem_c(pair, 20).holds

    def test_union_weight_violation_witness(self):
        pair = explicit_pair(
            "cviol",
            [{2: 1, 4: 1}, {4: 1, 6: 1}],
            [{1: 2, 4: 1}, {2: 1, 8: 1}],
        )
        report = check_theorem_c(pair, 20)
        assert not report.holds
        w = report.witness
        assert isinstance(w, UnionWeightWitness)
        assert len(w.positions) == 2
        assert (w.weight_f, w.weight_g) == (12, 16)
        assert w.union_f == Multiset({2: 1, 4: 1, 6: 1})
        assert w.union_g == Multiset({1: 2, 2: 1, 4: 1, 8: 1})

    def test_c_holds_implies_identical_distributions(self):
        for pair in (builtin_pair("remmel_consecutive"), builtin_pair("euler")):
            n_max = 14
            assert check_theorem_c(pair, n_max).holds
            x, y = pair_statistics(pair)
            assert compare(x, y, 1, n_max).identical_everywhere

    def test_cap_is_inconclusive(self):
        report = check_theorem_c(builtin_pair("remmel_consecutive"), 24, subset_cap=5)
        assert report.inconclusive
        assert report.holds  # no violation among the explored frontier
        assert report.witness is None

    def test_deep_family_is_inconclusive(self):
        report = check_theorem_c(DEEP_PAIR, 10, subset_cap=2000)
        assert report.inconclusive
        assert report.subsets_explored == 2001

    def test_witness_found_after_backtracking(self):
        # {0,1,2} is pruned at n_max=10, so the search backs out of {0,1}
        # and the first failing S is {0,2}.
        pair = explicit_pair("late", [{1: 1}, {4: 1}, {1: 1, 6: 1}], [{1: 1}, {4: 1}, {7: 1}])
        report = check_theorem_c(pair, 10)
        first, _, third = pair.F.relevant_indices(10)
        assert report.witness.positions == (first, third)
        assert (report.witness.weight_f, report.witness.weight_g) == (7, 8)
        assert report.subsets_explored == 4

    def test_singleton_weight_mismatch_caught(self):
        pair = explicit_pair("tilted", [{3: 1}], [{2: 1}])
        report = check_theorem_c(pair, 10)
        assert not report.holds
        assert report.witness.positions == (pair.F.relevant_indices(10)[0],)

    def test_validation(self):
        pair = builtin_pair("euler")
        with pytest.raises(ValueError):
            check_theorem_c(pair, 0)
        with pytest.raises(ValueError):
            check_theorem_c(pair, 10, subset_cap=0)


class TestWitnessRevalidation:
    """Negative reports must carry witnesses that survive independent
    recomputation; the checkers re-validate before returning, so a witness
    in hand is already certified. Here we recompute once more, from the
    reported data alone."""

    def test_disjointness_witness_checks_out(self):
        pair = builtin_pair("remmel_consecutive")
        w = check_theorem_b(pair, 30).witness
        fresh_a = pair.F.member(w.idx_a)
        fresh_b = pair.F.member(w.idx_b)
        assert w.element in set(fresh_a.sizes()) & set(fresh_b.sizes())

    def test_weight_witness_checks_out(self):
        pair = explicit_pair("w", [{5: 1}], [{4: 1}])
        w = check_theorem_b(pair, 10).witness
        assert pair.F.member(w.idx).weight == w.weight_f
        assert pair.G.member(w.idx).weight == w.weight_g
        assert w.weight_f != w.weight_g

    def test_union_witness_checks_out(self):
        pair = explicit_pair(
            "u", [{2: 1, 4: 1}, {4: 1, 6: 1}], [{1: 2, 4: 1}, {2: 1, 8: 1}]
        )
        w = check_theorem_c(pair, 20).witness
        union_f = Multiset()
        union_g = Multiset()
        for idx in w.positions:
            union_f = union_f.union(pair.F.member(idx))
            union_g = union_g.union(pair.G.member(idx))
        assert (union_f.weight, union_g.weight) == (w.weight_f, w.weight_g)
        assert union_f.weight != union_g.weight
