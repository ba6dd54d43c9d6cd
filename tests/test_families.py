import json
import re
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_member_patterns_in_index_order(self):
        family = builtin_pair("euler").G
        assert family.member_patterns(5) == (((1, 2),), ((2, 2),))
        assert family.member_patterns(0) == ()

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

    def test_weight_dip_past_the_first_indices_rejected(self):
        # size (t - 200)^2 + 1, multiplicity t: the weight rises to t = 66 and
        # falls from t = 67 to t = 200, where F = {1: 200} weighs only 200.
        doc = {
            "name": "dip",
            "F": [{"entries": [{"size": [1, -400, 40001], "mult": [1, 0]}]}],
            "G": [{"entries": [{"size": [1, -400, 40002], "mult": [1, 0]}]}],
        }
        with pytest.raises(FamilyError, match="F strand 0: strand weight decreases") as info:
            parse_family_pair(doc)
        t, w_t, t1, w_t1 = map(
            int, re.search(r"from t=(\d+) \((\d+)\) to t=(\d+) \((\d+)\)", str(info.value)).groups()
        )

        def weight(t):
            return t * ((t - 200) ** 2 + 1)

        assert t1 == t + 1
        assert (w_t, w_t1) == (weight(t), weight(t + 1))
        assert w_t1 < w_t


# Template strands drawn for the exact-decision property test.
SIZE_BOUND, MULT_BOUND, MAX_ENTRIES = 6, 3, 2


@st.composite
def template_strands(draw):
    size_coeff = st.integers(-SIZE_BOUND, SIZE_BOUND)
    mult_coeff = st.integers(-MULT_BOUND, MULT_BOUND)
    entries = draw(
        st.lists(
            st.tuples(
                st.tuples(size_coeff, size_coeff, size_coeff),
                st.tuples(mult_coeff, mult_coeff),
            ),
            min_size=1,
            max_size=MAX_ENTRIES,
        )
    )
    return entries, draw(st.integers(-3, 3))


def scan_accepts(entries, tmin):
    """Whether sizes and multiplicities are >= 1 and the weight never
    decreases and is not constant, by direct evaluation at every t up to a
    point past which no polynomial involved changes sign.

    Cauchy's bound: every real root of an integer polynomial lies within
    1 + max |a_i| of 0, because the leading coefficient is at least 1 in
    absolute value. Sizes and multiplicities have coefficients within
    SIZE_BOUND and MULT_BOUND. The weight w is a sum over <= MAX_ENTRIES
    entries of size * mult, whose coefficients are each a sum of at most
    two products, so |w_i| <= W = 2 * MAX_ENTRIES * SIZE_BOUND * MULT_BOUND;
    the coefficients of w(t+1) - w(t) = 3 w3 t^2 + (3 w3 + 2 w2) t +
    (w3 + w2 + w1) are then at most 5 W. Beyond 1 + 5 W each polynomial
    keeps the sign it has there, so a violation anywhere shows up at or
    before the point just past that bound.
    """
    bound = 1 + 5 * 2 * MAX_ENTRIES * SIZE_BOUND * MULT_BOUND
    last = max(tmin, bound + 1)

    def poly(coeffs, t):
        return sum(c * t**i for i, c in enumerate(reversed(coeffs)))

    def weight(t):
        return sum(poly(size, t) * poly(mult, t) for size, mult in entries)

    steps = []
    for t in range(tmin, last + 1):
        if any(poly(size, t) < 1 or poly(mult, t) < 1 for size, mult in entries):
            return False
        steps.append(weight(t + 1) - weight(t))
    return min(steps) >= 0 and max(steps) > 0


class TestStrandInvariants:
    @settings(max_examples=500, deadline=None)
    @given(template_strands())
    # Size (t - 2)^2 reaches 0 at t = 2; the second entry keeps the weight rising.
    @example(([((1, -4, 4), (0, 1)), ((0, 6, 1), (0, 3))], 1))
    # Size 3t^2 - 5t + 2 is least at t = 1, the integer just above its vertex 5/6.
    @example(([((3, -5, 2), (0, 1)), ((0, 6, 1), (0, 3))], 0))
    # Size (t - 2)^2 + 1 never falls below 1, so this strand is valid.
    @example(([((1, -4, 5), (0, 1)), ((0, 6, 1), (0, 3))], 0))
    # The weight t^2 - 2t + 2 falls by exactly 1, from t = 0 to t = 1.
    @example(([((1, -2, 2), (0, 1))], 0))
    # The weight (t^2 - 4t + 5)(t + 3) rises from t = -2, then falls from t = -1 to 1.
    @example(([((1, -4, 5), (1, 3))], -2))
    def test_decision_matches_a_scan_to_cauchys_bound(self, drawn):
        entries, tmin = drawn
        try:
            Strand(entries=tuple(StrandEntry(s, m) for s, m in entries), tmin=tmin)
            accepted = True
        except FamilyError:
            accepted = False
        assert accepted == scan_accepts(entries, tmin)

    def test_size_without_lower_bound_rejected(self):
        # The weight t^2 - t + 100 tends to infinity, but entry 1 does not stay >= 1.
        with pytest.raises(FamilyError, match="entry 1: size falls without bound"):
            Strand(entries=(StrandEntry((1, 0, 0), (0, 1)), StrandEntry((0, -1, 100), (0, 1))))

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


def strand_doc(f_strands, g_strands):
    return {"name": "located", "tmin": 1, "F": f_strands, "G": g_strands}


VALID_EXPLICIT = {"explicit": [[1, 1]]}
VALID_TEMPLATE = {"entries": [{"size": [0, 1, 0], "mult": [0, 1]}]}


class TestStrandErrorTexts:
    """The exact text of every strand-level FamilyError. Each bad strand is
    F strand 1, after a valid one, so the location is never a default."""

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([[1, 1]], "F strand 1: strand must be an object, got list"),
            ("explicit", "F strand 1: strand must be an object, got str"),
            (
                {"explicit": [[1, 1]], "entries": []},
                "F strand 1: strand must have exactly one of 'entries' or 'explicit'",
            ),
            ({}, "F strand 1: strand must have exactly one of 'entries' or 'explicit'"),
            ({"explicit": "11"}, "F strand 1: 'explicit' must be a nonempty array of [size, mult]"),
            ({"explicit": []}, "F strand 1: 'explicit' must be a nonempty array of [size, mult]"),
            ({"explicit": 11}, "F strand 1: 'explicit' must be a nonempty array of [size, mult]"),
            (
                {"explicit": {"1": 1}},
                "F strand 1: 'explicit' must be a nonempty array of [size, mult]",
            ),
            ({"explicit": [[1, 1], 3]}, "F strand 1 element 1: expected [size, mult]"),
            ({"explicit": [[1, 1], {"1": 1}]}, "F strand 1 element 1: expected [size, mult]"),
            ({"explicit": [[1, 1, 1]]}, "F strand 1 element 0: expected [size, mult]"),
            ({"explicit": [[1]]}, "F strand 1 element 0: expected [size, mult]"),
            ({"explicit": ["ab"]}, "F strand 1 element 0: expected [size, mult]"),
            (
                {"explicit": [[True, 1]]},
                "F strand 1 element 0 size: expected an integer, got True",
            ),
            ({"explicit": [[1, 1.0]]}, "F strand 1 element 0 mult: expected an integer, got 1.0"),
            ({"explicit": [[2, 1], [1, False]]}, "F strand 1 element 1 mult: expected an integer, got False"),
            ({"explicit": [[0, 1]]}, "F strand 1 element 0: size and mult must be >= 1"),
            ({"explicit": [[1, 0]]}, "F strand 1 element 0: size and mult must be >= 1"),
            ({"explicit": [[1, -2]]}, "F strand 1 element 0: size and mult must be >= 1"),
            ({"entries": []}, "F strand 1: 'entries' must be a nonempty array"),
            ({"entries": "ab"}, "F strand 1: 'entries' must be a nonempty array"),
            ({"entries": [[0, 1, 0]]}, "F strand 1 entry 0: expected keys 'size' and 'mult'"),
            (
                {"entries": [{"size": [0, 1, 0]}]},
                "F strand 1 entry 0: expected keys 'size' and 'mult'",
            ),
            (
                {"entries": [{"size": [0, 1, 0], "mult": [0, 1], "t": 1}]},
                "F strand 1 entry 0: expected keys 'size' and 'mult'",
            ),
            (
                {"entries": [{"size": [1, 0], "mult": [0, 1]}]},
                "F strand 1 entry 0: 'size' must be [c2, c1, c0]",
            ),
            ({"entries": [{"size": 5, "mult": [0, 1]}]}, "F strand 1 entry 0: 'size' must be [c2, c1, c0]"),
            (
                {"entries": [{"size": [0, 1, 0], "mult": [1]}]},
                "F strand 1 entry 0: 'mult' must be [m1, m0]",
            ),
            (
                {"entries": [VALID_TEMPLATE["entries"][0], {"size": [0, True, 0], "mult": [0, 1]}]},
                "F strand 1 entry 1 size: expected an integer, got True",
            ),
            (
                {"entries": [{"size": [0, 1, 0], "mult": [0, "1"]}]},
                "F strand 1 entry 0 mult: expected an integer, got '1'",
            ),
            (
                {"entries": [{"size": [0, 1, -1], "mult": [0, 1]}]},
                "F strand 1: entry 0: size 0 < 1 at t=1",
            ),
            (
                {"entries": [{"size": [0, 0, 3], "mult": [0, 1]}]},
                "F strand 1: strand weight must tend to infinity (needs a positive leading "
                "size or multiplicity coefficient), weight poly [0, 0, 0, 3]",
            ),
        ],
    )
    def test_message(self, bad, message):
        valid = VALID_TEMPLATE if "entries" in bad else VALID_EXPLICIT
        doc = strand_doc([valid, bad], [valid, valid])
        with pytest.raises(FamilyError) as info:
            parse_family_pair(doc)
        assert str(info.value) == message
        with pytest.raises(FamilyError) as info:
            parse_family_pair(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("bad_size", [True, 1.0, "1"])
    def test_bad_g_strand_after_an_identical_valid_f_strand(self, bad_size):
        # True == 1 and hash(True) == hash(1): a strand already built from
        # [[1, 1]] must not stand in for [[true, 1]].
        doc = strand_doc(
            [VALID_EXPLICIT] * 3, [VALID_EXPLICIT, VALID_EXPLICIT, {"explicit": [[bad_size, 1]]}]
        )
        with pytest.raises(FamilyError) as info:
            parse_family_pair(doc)
        assert str(info.value) == (
            f"G strand 2 element 0 size: expected an integer, got {bad_size!r}"
        )

    def test_bad_g_template_after_an_identical_valid_f_template(self):
        entry = {"size": [0, True, 0], "mult": [0, 1]}
        doc = strand_doc([VALID_TEMPLATE] * 2, [VALID_TEMPLATE, {"entries": [entry]}])
        with pytest.raises(FamilyError) as info:
            parse_family_pair(doc)
        assert str(info.value) == "G strand 1 entry 0 size: expected an integer, got True"


# Strand 0 starts at t = 0 and strand 1 at t = 1: a valid pair that no
# document, with its single top-level tmin, can describe.
MIXED_TMIN_STRANDS = (
    Strand(entries=(StrandEntry((0, 1, 1), (0, 1)),), tmin=0),
    Strand(entries=(StrandEntry((0, 1, 0), (0, 1)),), tmin=1),
)
MIXED_TMIN_PAIR = FamilyPair(
    "mixed",
    MultisetFamily("mixed.F", MIXED_TMIN_STRANDS),
    MultisetFamily("mixed.G", MIXED_TMIN_STRANDS),
)


class TestValidationErrorTexts:
    """The exact text of the document-level, family and catalog errors."""

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([], "pair document must be a JSON object"),
            (dict(EULER_DOC, name=""), "'name' must be a nonempty string"),
            (dict(EULER_DOC, name=3), "'name' must be a nonempty string"),
            (dict(EULER_DOC, F="ab"), "'F' must be an array of strands"),
            (dict(EULER_DOC, F=[]), "'F' must contain at least one strand"),
        ],
        ids=["not-an-object", "empty-name", "integer-name", "string-side", "empty-side"],
    )
    def test_document(self, doc, message):
        for form in (doc, json.dumps(doc)):
            with pytest.raises(FamilyError) as info:
                parse_family_pair(form)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(
                lambda: MultisetFamily("x", ()), "family 'x' has no strands", id="no-strands"
            ),
            pytest.param(
                lambda: builtin_pair("euler", m1=[1]),
                "pair 'euler' takes no m1/bound parameters",
                id="euler-m1",
            ),
            pytest.param(lambda: builtin_pair("glaisher"), "glaisher requires d", id="glaisher-no-d"),
            pytest.param(
                lambda: builtin_pair("andrews", m1=[1], bound=-1),
                "andrews requires an integer bound >= 0, got -1",
                id="andrews-bound",
            ),
            pytest.param(
                lambda: builtin_pair("andrews", m1=[0], bound=5),
                "M1 entries must be integers >= 1, got 0",
                id="andrews-m1-zero",
            ),
            pytest.param(
                lambda: builtin_pair("andrews", m1=[True], bound=5),
                "M1 entries must be integers >= 1, got True",
                id="andrews-m1-bool",
            ),
            pytest.param(
                lambda: builtin_pair("andrews", m1=[], bound=5),
                "M1 must be nonempty",
                id="andrews-m1-empty",
            ),
            pytest.param(
                lambda: StrandEntry((0, 1), (0, 1)),
                "size must be 3 integer coefficients, got (0, 1)",
                id="entry-coefficients",
            ),
            pytest.param(
                lambda: render_family_pair(MIXED_TMIN_PAIR),
                "only pairs with one uniform tmin can be rendered",
                id="render-mixed-tmin",
            ),
        ],
    )
    def test_construction(self, build, message):
        with pytest.raises(FamilyError) as info:
            build()
        assert str(info.value) == message

    def test_negative_n_has_no_relevant_indices(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            builtin_pair("euler").F.relevant_indices(-1)


class TestNonJsonDocuments:
    """A parsed document holds only what `json.loads` makes: dict, list,
    str, int. Other mappings and sequences are refused."""

    def test_read_only_mapping_and_tuple_are_refused(self):
        proxy = MappingProxyType(strand_doc([VALID_EXPLICIT], [VALID_EXPLICIT]))
        with pytest.raises(FamilyError, match="pair document must be a JSON object"):
            parse_family_pair(proxy)
        with pytest.raises(FamilyError, match="'F' must be an array of strands"):
            parse_family_pair(strand_doc((VALID_EXPLICIT,), [VALID_EXPLICIT]))
