import json

import pytest

from partition_sieve import (
    FamilyError,
    FamilyIndex,
    FamilyPair,
    Multiset,
    MultisetFamily,
    Strand,
    StrandEntry,
    builtin_pair,
    parse_family_pair,
    render_family_pair,
)

EULER_DOC = {
    "name": "euler",
    "tmin": 1,
    "F": [{"entries": [{"size": [0, 2, 0], "mult": [0, 1]}]}],
    "G": [{"entries": [{"size": [0, 1, 0], "mult": [0, 2]}]}],
}


def catalog_pairs():
    return [
        ("euler", builtin_pair("euler")),
        ("squares", builtin_pair("squares")),
        ("mod6", builtin_pair("mod6")),
        ("glaisher3", builtin_pair("glaisher", d=3)),
        ("remmel", builtin_pair("remmel_consecutive")),
        ("andrews_all", builtin_pair("andrews", m1=list(range(1, 31)), bound=30)),
        ("andrews_pow2", builtin_pair("andrews", m1=[1, 2, 4, 8, 16], bound=30)),
    ]


class TestMember:
    def test_euler_members(self):
        pair = builtin_pair("euler")
        assert pair.F.member(FamilyIndex(0, 3)) == Multiset({6: 1})
        assert pair.G.member(FamilyIndex(0, 3)) == Multiset({3: 2})

    def test_squares_g_member(self):
        pair = builtin_pair("squares")
        assert pair.G.member(FamilyIndex(0, 4)) == Multiset({4: 4})
        assert pair.F.member(FamilyIndex(0, 4)) == Multiset({16: 1})

    def test_glaisher_members(self):
        pair = builtin_pair("glaisher", d=3)
        assert pair.F.member(FamilyIndex(0, 2)) == Multiset({6: 1})
        assert pair.G.member(FamilyIndex(0, 2)) == Multiset({2: 3})

    def test_remmel_members(self):
        pair = builtin_pair("remmel_consecutive")
        assert pair.F.member(FamilyIndex(0, 1)) == Multiset({2: 1, 4: 1})
        assert pair.G.member(FamilyIndex(0, 1)) == Multiset({1: 2, 2: 2})

    def test_invalid_index(self):
        pair = builtin_pair("euler")
        with pytest.raises(FamilyError):
            pair.F.member(FamilyIndex(1, 1))
        with pytest.raises(FamilyError):
            pair.F.member(FamilyIndex(0, 0))  # below tmin


class TestRelevantIndices:
    def test_euler_at_5(self):
        pair = builtin_pair("euler")
        f_members = [pair.F.member(i) for i in pair.F.relevant_indices(5)]
        assert f_members == [Multiset({2: 1}), Multiset({4: 1})]
        g_members = [pair.G.member(i) for i in pair.G.relevant_indices(5)]
        assert g_members == [Multiset({1: 2}), Multiset({2: 2})]

    @pytest.mark.parametrize("name,pair", catalog_pairs())
    def test_empty_at_zero(self, name, pair):
        assert pair.F.relevant_indices(0) == []
        assert pair.G.relevant_indices(0) == []

    @pytest.mark.parametrize("name,pair", catalog_pairs())
    @pytest.mark.parametrize("n", [0, 1, 7, 18, 30])
    def test_exactly_the_light_indices(self, name, pair, n):
        # Cross-check the cutoff by scanning 10 steps past the last accepted t.
        for fam in (pair.F, pair.G):
            got = set(fam.relevant_indices(n))
            for si, strand in enumerate(fam.strands):
                if strand.is_explicit():
                    expected = strand.weight_at(strand.tmin) <= n
                    assert (FamilyIndex(si, strand.tmin) in got) == expected
                    continue
                t = strand.tmin
                beyond = 0
                while beyond < 10:
                    idx = FamilyIndex(si, t)
                    weight = strand.weight_at(t)
                    assert (idx in got) == (weight <= n)
                    if weight > n:
                        beyond += 1
                    t += 1

    def test_sorted_by_weight(self):
        pair = builtin_pair("mod6")
        idxs = pair.F.relevant_indices(30)
        weights = [pair.F.member(i).weight for i in idxs]
        assert weights == sorted(weights)


class TestBuiltinCatalog:
    @pytest.mark.parametrize(
        "name,pair",
        catalog_pairs() + [(f"glaisher{d}", builtin_pair("glaisher", d=d)) for d in (2, 4, 5, 6)],
    )
    def test_aligned_weights_match(self, name, pair):
        # Weight equality per aligned index, templates out to t = 50.
        for si, (fs, gs) in enumerate(zip(pair.F.strands, pair.G.strands)):
            if fs.is_explicit():
                assert fs.weight_at(fs.tmin) == gs.weight_at(gs.tmin), (name, si)
            else:
                for t in range(fs.tmin, fs.tmin + 51):
                    assert fs.weight_at(t) == gs.weight_at(t), (name, si, t)

    def test_andrews_all_integers_reduces_to_euler(self):
        andrews = builtin_pair("andrews", m1=list(range(1, 31)), bound=30)
        euler = builtin_pair("euler")
        euler_f = [euler.F.member(i) for i in euler.F.relevant_indices(30)]
        euler_g = [euler.G.member(i) for i in euler.G.relevant_indices(30)]
        andrews_f = [andrews.F.member(i) for i in andrews.F.relevant_indices(30)]
        andrews_g = [andrews.G.member(i) for i in andrews.G.relevant_indices(30)]
        assert sorted(euler_f, key=lambda m: m.weight) == sorted(
            andrews_f, key=lambda m: m.weight
        )
        assert sorted(euler_g, key=lambda m: m.weight) == sorted(
            andrews_g, key=lambda m: m.weight
        )

    def test_andrews_rejects_unclosed_m1(self):
        with pytest.raises(FamilyError, match="doubling"):
            builtin_pair("andrews", m1=[1, 2, 3], bound=10)  # 6 missing

    @pytest.mark.parametrize("bound", [0, 1])
    def test_andrews_below_2_skips_doubling_check(self, bound):
        # No double of 1 fits below 2, so M1 = {1} is closed up to bound 0 or 1;
        # the family is still built to size 2.
        pair = builtin_pair("andrews", m1=[1], bound=bound)
        assert pair.name == "andrews(bound=2)"
        assert pair.F.relevant_indices(bound) == []

    def test_andrews_at_2_checks_doubling(self):
        with pytest.raises(FamilyError, match="doubling"):
            builtin_pair("andrews", m1=[1], bound=2)

    def test_andrews_requires_params(self):
        with pytest.raises(FamilyError):
            builtin_pair("andrews")

    def test_glaisher_rejects_small_d(self):
        with pytest.raises(FamilyError):
            builtin_pair("glaisher", d=1)

    def test_unknown_name(self):
        with pytest.raises(FamilyError, match="unknown pair"):
            builtin_pair("nope")

    def test_irrelevant_params_rejected(self):
        with pytest.raises(FamilyError):
            builtin_pair("euler", d=2)


class TestPairDocuments:
    def test_parse_euler_equals_builtin(self):
        assert parse_family_pair(EULER_DOC) == builtin_pair("euler")
        assert parse_family_pair(json.dumps(EULER_DOC)) == builtin_pair("euler")

    @pytest.mark.parametrize("name,pair", catalog_pairs())
    def test_round_trip(self, name, pair):
        assert parse_family_pair(render_family_pair(pair)) == pair

    def test_size_zero_at_tmin_rejected(self):
        doc = {
            "name": "bad",
            "F": [{"entries": [{"size": [0, 1, -1], "mult": [0, 1]}]}],  # size(1) = 0
            "G": [{"entries": [{"size": [0, 1, -1], "mult": [0, 1]}]}],
        }
        with pytest.raises(FamilyError, match="F strand 0"):
            parse_family_pair(doc)

    def test_mismatched_strand_counts_rejected(self):
        doc = dict(EULER_DOC, G=EULER_DOC["G"] + EULER_DOC["G"])
        with pytest.raises(FamilyError, match="strands"):
            parse_family_pair(doc)

    def test_invalid_json_reports_location(self):
        with pytest.raises(FamilyError, match="line"):
            parse_family_pair('{"name": "x", ')

    def test_unknown_keys_rejected(self):
        with pytest.raises(FamilyError, match="unknown top-level"):
            parse_family_pair(dict(EULER_DOC, extra=1))

    def test_missing_side_rejected(self):
        doc = {k: v for k, v in EULER_DOC.items() if k != "G"}
        with pytest.raises(FamilyError, match="'G'"):
            parse_family_pair(doc)

    def test_entry_shape_errors_are_located(self):
        doc = {
            "name": "bad",
            "F": [{"entries": [{"size": [0, 2], "mult": [0, 1]}]}],
            "G": [{"entries": [{"size": [0, 1, 0], "mult": [0, 2]}]}],
        }
        with pytest.raises(FamilyError, match="F strand 0 entry 0"):
            parse_family_pair(doc)

    def test_explicit_strands_parse(self):
        doc = {
            "name": "fixed",
            "F": [{"explicit": [[2, 1], [4, 1]]}],
            "G": [{"explicit": [[1, 2], [2, 2]]}],
        }
        pair = parse_family_pair(doc)
        assert pair.F.member(FamilyIndex(0, 1)) == Multiset({2: 1, 4: 1})
        assert parse_family_pair(render_family_pair(pair)) == pair

    def test_nonincreasing_weight_rejected(self):
        doc = {
            "name": "bad",
            "F": [{"entries": [{"size": [1, -10, 30], "mult": [0, 1]}]}],  # dips at small t
            "G": [{"entries": [{"size": [1, -10, 30], "mult": [0, 1]}]}],
        }
        with pytest.raises(FamilyError, match="decreases"):
            parse_family_pair(doc)


class TestStrandInvariants:
    def test_constant_weight_rejected(self):
        with pytest.raises(FamilyError, match="infinity"):
            Strand(entries=(StrandEntry((0, 0, 5), (0, 1)),))

    def test_explicit_needs_nonempty(self):
        with pytest.raises(FamilyError):
            Strand(explicit=Multiset())

    def test_one_of_template_or_explicit(self):
        with pytest.raises(FamilyError):
            Strand()

    def test_explicit_single_index(self):
        strand = Strand(explicit=Multiset({3: 2}))
        assert strand.multiset_at(1) == Multiset({3: 2})
        with pytest.raises(FamilyError):
            strand.multiset_at(2)

    def test_pair_domains_must_align(self):
        euler = builtin_pair("euler")
        shifted = Strand(entries=euler.G.strands[0].entries, tmin=2)
        with pytest.raises(FamilyError, match="domains"):
            FamilyPair("bad", euler.F, MultisetFamily("bad.G", (shifted,)))
