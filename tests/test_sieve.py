import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    annotated_positions,
    count_distinct_parts_dp,
    count_odd_parts_dp,
    count_partitions_dp,
    sieve_dfs,
    theorem_b_scan,
    theorem_c_dfs,
)
import partition_sieve.sieve as sieve_module
from partition_sieve import (
    DEFAULT_SUBSET_CAP,
    DisjointnessWitness,
    FamilyIndex,
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
from partition_sieve.cli import main as cli_main


def single_entry_strand(size_poly, mult_poly):
    return Strand(entries=(StrandEntry(size_poly, mult_poly),))


def builtin_pairs():
    return [
        ("euler", builtin_pair("euler")),
        ("squares", builtin_pair("squares")),
        ("mod6", builtin_pair("mod6")),
        ("glaisher3", builtin_pair("glaisher", d=3)),
        ("remmel", builtin_pair("remmel_consecutive")),
        ("andrews_pow2", builtin_pair("andrews", m1=[1, 2, 4, 8, 16], bound=30)),
    ]


def builtin_sides():
    sides = []
    for name, pair in builtin_pairs():
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


# 1500 identical {1:1} members: every subset has union weight 1, so 2^1500
# subsets fit under any n >= 1 and only the subset cap stops the search.
DEEP_PAIR = explicit_pair("deep", [{1: 1}] * 1500, [{1: 1}] * 1500)

# A budget no search in these tests reaches.
UNCAPPED = 2**62

# Twelve distinct members all hold {1:1}. The late variant swaps G's last
# member for {2:1, 12:1}: same weight, but its union with G's first member
# weighs 15 where F's weighs 16. The walk meets {first, last} only after the
# other sets that hold the first member.
SHARED_MEMBERS = [{1: 1, i + 2: 1} for i in range(12)]
SHARED_PAIR = explicit_pair("shared", SHARED_MEMBERS, SHARED_MEMBERS)
SHARED_LATE_PAIR = explicit_pair("shared", SHARED_MEMBERS, SHARED_MEMBERS[:-1] + [{2: 1, 12: 1}])

# Members {i+1, 10000+i} and {10000+i, 20000+i} for i < 50 share their
# middle sizes, so up to three chosen members of the first kind stay in both
# frontiers: tens of thousands of states, each carrying two frontiers.
CHAINED_MEMBERS = [{i + 1: 1, 10_000 + i: 1} for i in range(50)] + [
    {10_000 + i: 1, 20_000 + i: 1} for i in range(50)
]
CHAINED_PAIR = explicit_pair("chained", CHAINED_MEMBERS, CHAINED_MEMBERS)

# euler plus one position of weight 97 on F and 99 on G, sizes no euler
# member uses. The first failing set is {2} | {97} against {1,1} | {99}: the
# walk reaches it only after every holding set that holds euler's first
# member, and meets many of their states again.
EULER = builtin_pair("euler")
EULER_LATE_PAIR = FamilyPair(
    "euler-late",
    MultisetFamily("euler-late.F", EULER.F.strands + (Strand(explicit=Multiset({97: 1})),)),
    MultisetFamily("euler-late.G", EULER.G.strands + (Strand(explicit=Multiset({99: 1})),)),
)


def bound_state_steps(monkeypatch, bound):
    """Fail once sieve._added_at, which every state-step calls once per
    side, runs more than bound times."""
    calls = 0
    added_at = sieve_module._added_at

    def counted(frontier, pattern, weight):
        nonlocal calls
        calls += 1
        assert calls <= bound, "calls grow with the sets, not the states"
        return added_at(frontier, pattern, weight)

    monkeypatch.setattr(sieve_module, "_added_at", counted)


def drawn_members(draw, k):
    """k members over sizes 1-6, sharing sizes, some repeated identically."""
    members = []
    for _ in range(k):
        if members and draw(st.integers(0, 3)) == 0:
            members.append(dict(draw(st.sampled_from(members))))
        else:
            members.append(
                draw(st.dictionaries(st.integers(1, 6), st.integers(1, 3), min_size=1, max_size=3))
            )
    return members


@st.composite
def theorem_c_pairs(draw):
    """Up to 10 explicit members per side. G either holds (a copy of F, or
    {s: 2m} against F's {2s: m}, whose unions differ but weigh the same) or
    mostly violates (F with one member redrawn, or drawn on its own)."""
    k = draw(st.integers(1, 10))
    f = drawn_members(draw, k)
    g_side = draw(st.sampled_from(["copy", "halved", "redrawn", "drawn"]))
    if g_side == "copy":
        g = [dict(m) for m in f]
    elif g_side == "halved":
        g = [{s: 2 * m for s, m in member.items()} for member in f]
        f = [{2 * s: m for s, m in member.items()} for member in f]
    elif g_side == "redrawn":
        g = [dict(m) for m in f]
        g[draw(st.integers(0, k - 1))] = drawn_members(draw, 1)[0]
    else:
        g = drawn_members(draw, k)
    return explicit_pair("drawn", f, g)


@st.composite
def weight_matched_pairs(draw):
    """Up to 8 explicit members per side, each G member drawn afresh over
    sizes 1-6 with the weight of its F member: every singleton agrees, so
    only sets of two or more members can tell the sides apart."""
    f = drawn_members(draw, draw(st.integers(1, 8)))
    g = []
    for member in f:
        rest = sum(s * m for s, m in member.items())
        drawn: dict[int, int] = {}
        while rest:
            s = draw(st.integers(1, min(6, rest)))
            drawn[s] = drawn.get(s, 0) + 1
            rest -= s
        g.append(drawn)
    return explicit_pair("matched", f, g), draw(st.integers(1, 60))


@st.composite
def template_c_pairs(draw):
    """One or two template strands per side whose neighbouring members share
    sizes. A G entry of size b*t + c and multiplicity k*m becomes the F entry
    of size k*(b*t + c) and multiplicity m: s -> k*s scales every weight by
    the factor it divides out of the multiplicity, so all union weights
    agree. Half the time one G entry's offset or multiplicity then gains 1,
    which breaks that equality along its strand. n_max lies at most 60 above
    the lightest member, so some position is always relevant."""
    k = draw(st.sampled_from([2, 3]))
    f_strands, g_strands = [], []
    for _ in range(draw(st.integers(1, 2))):
        b = draw(st.integers(1, 2))
        base = draw(st.integers(0, 1))
        steps = draw(st.lists(st.integers(0, 2), min_size=2, max_size=3, unique=True))
        f_entries, g_entries = [], []
        for j in sorted(steps):
            c = base + b * j
            m = draw(st.integers(1, 2))
            f_entries.append(StrandEntry((0, k * b, k * c), (0, m)))
            g_entries.append(StrandEntry((0, b, c), (0, k * m)))
        f_strands.append(Strand(entries=tuple(f_entries)))
        g_strands.append(Strand(entries=tuple(g_entries)))
    if draw(st.booleans()):
        s = draw(st.integers(0, len(g_strands) - 1))
        entries = list(g_strands[s].entries)
        e = draw(st.integers(0, len(entries) - 1))
        (_, b, c), (_, m) = entries[e].size, entries[e].mult
        if draw(st.booleans()):
            entries[e] = StrandEntry((0, b, c + 1), (0, m))
        else:
            entries[e] = StrandEntry((0, b, c), (0, m + 1))
        g_strands[s] = Strand(entries=tuple(entries))
    pair = FamilyPair(
        "template",
        MultisetFamily("template.F", tuple(f_strands)),
        MultisetFamily("template.G", tuple(g_strands)),
    )
    lightest = min(strand.weight_at(1) for strand in f_strands + g_strands)
    return pair, lightest + draw(st.integers(0, 60))


@st.composite
def growing_template(draw, tmin):
    """A template strand with nonnegative coefficients and constant terms
    >= 1, so sizes and multiplicities stay >= 1 and the weight never falls;
    its first entry grows with t."""
    entries = []
    for k in range(draw(st.integers(1, 2))):
        c2, c1 = draw(st.integers(0, 1)), draw(st.integers(0, 3))
        m1 = draw(st.integers(0, 1))
        if k == 0 and not (c2 or c1 or m1):
            c1 = 1
        size = (c2, c1, draw(st.integers(1, 4)))
        entries.append(StrandEntry(size, (m1, draw(st.integers(1, 2)))))
    return Strand(entries=tuple(entries), tmin=tmin)


@st.composite
def aligned_strand_pairs(draw):
    """Up to 6 aligned strands, explicit or template, at tmin 0 or 1, with
    F and G drawn apart, so their members' weights differ. n_max is some
    member's weight or one less: then at some position only one side's
    member is relevant."""
    tmin = draw(st.sampled_from([0, 1]))
    f_strands, g_strands = [], []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            f, g = drawn_members(draw, 2)
            f_strands.append(Strand(explicit=Multiset(f), tmin=tmin))
            g_strands.append(Strand(explicit=Multiset(g), tmin=tmin))
        else:
            f_strands.append(draw(growing_template(tmin)))
            g_strands.append(draw(growing_template(tmin)))
    pair = FamilyPair(
        "aligned",
        MultisetFamily("aligned.F", tuple(f_strands)),
        MultisetFamily("aligned.G", tuple(g_strands)),
    )
    weights = [
        strand.weight_at(t)
        for strand in f_strands + g_strands
        for t in range(tmin, tmin + (1 if strand.is_explicit() else 5))
    ]
    return pair, draw(st.sampled_from(weights)) - draw(st.integers(0, 1))


@st.composite
def overlapping_families(draw):
    """Up to 12 explicit members over sizes 1-6: shared supports, one size
    at several multiplicities, and repeated identical members."""
    members = drawn_members(draw, draw(st.integers(1, 12)))
    return MultisetFamily("drawn", tuple(Strand(explicit=Multiset(m)) for m in members))


@st.composite
def opening_template(draw, tmin):
    """A template strand whose one entry has a quadratic size and a linear
    multiplicity, or whose two entries' sizes coincide at some t from tmin
    (at every t when their size polynomials agree). Sizes grow with t: a
    strand of one size at growing multiplicities would fit every set of its
    members under n, too many for the walks."""
    a, b, m1 = draw(st.integers(0, 1)), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    if not (a or b):
        b = 1
    c = draw(st.integers(1, 4))
    entries = [StrandEntry((a, b, c), (m1, draw(st.integers(1, 2))))]
    if draw(st.booleans()):
        # The second size is the first plus d * (t - meet): they coincide at
        # t = meet, and both stay >= 1 from tmin on.
        d, meet = draw(st.integers(0, 2)), draw(st.integers(tmin, tmin + 2))
        c += d * (meet - tmin)
        entries = [
            StrandEntry((a, b, c), entries[0].mult),
            StrandEntry((a, b + d, c - d * meet), (0, draw(st.integers(1, 2)))),
        ]
    return Strand(entries=tuple(entries), tmin=tmin)


@st.composite
def interleaved_pairs(draw):
    """Explicit members over private sizes, which open no frontier, mixed in
    weight order with members over the shared sizes 1-3, which open one
    until the last member that shares their sizes: empty and non-empty
    frontiers alternate within one DP. G copies F or halves it, as in
    `theorem_c_pairs`, or copies it with one member redrawn. Up to two
    `opening_template` strands, at tmin 0-2, are shared by F and G."""
    g_members = []
    for private in range(10, 10 + draw(st.integers(1, 6))):
        if draw(st.booleans()):
            g_members.append({private: draw(st.integers(1, 2))})
        else:
            g_members.append(
                draw(st.dictionaries(st.integers(1, 3), st.integers(1, 2), min_size=1, max_size=2))
            )
    g_side = draw(st.sampled_from(["copy", "halved", "redrawn"]))
    if g_side == "halved":
        f_members = [{2 * s: m for s, m in member.items()} for member in g_members]
        g_members = [{s: 2 * m for s, m in member.items()} for member in g_members]
    else:
        f_members = [dict(member) for member in g_members]
    if g_side == "redrawn":
        g_members[draw(st.integers(0, len(g_members) - 1))] = drawn_members(draw, 1)[0]
    templates = tuple(
        draw(opening_template(draw(st.integers(0, 2)))) for _ in range(draw(st.integers(0, 2)))
    )
    f_strands = tuple(Strand(explicit=Multiset(m)) for m in f_members) + templates
    g_strands = tuple(Strand(explicit=Multiset(m)) for m in g_members) + templates
    return FamilyPair(
        "interleaved",
        MultisetFamily("interleaved.F", f_strands),
        MultisetFamily("interleaved.G", g_strands),
    )


def sieve_fields(family, n, cap):
    result = sieve_distribution(family, n, subset_cap=cap)
    return result.table.counts, result.subsets_explored, result.truncated


def dfs_fields(family, n, cap):
    return sieve_dfs(family.member_patterns(n), n, cap)


def c_fields(pair, n_max, cap):
    report = check_theorem_c(pair, n_max, subset_cap=cap)
    w = report.witness
    if w is not None:
        w = (w.positions, w.weight_f, w.weight_g, w.union_f.items(), w.union_g.items())
    return report.holds, report.inconclusive, report.subsets_explored, w


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

    def test_deep_family_stops_at_default_cap(self):
        # A walk would visit 5,000,000 subsets first; the count passes the
        # cap at the 23rd of the 1500 members (2^23 > 5,000,000).
        result = sieve_distribution(DEEP_PAIR.F, 10)
        assert result.truncated
        assert result.subsets_explored == DEFAULT_SUBSET_CAP + 1 == 5_000_001
        assert result.table.counts == {}

    @settings(max_examples=300, deadline=None)
    @given(overlapping_families(), st.integers(0, 40), st.integers(1, 4200))
    def test_matches_depth_first_walk(self, family, n, cap):
        assert sieve_fields(family, n, cap) == dfs_fields(family, n, cap)

    def test_frontier_states_stay_within_subset_count(self, monkeypatch):
        # Light {s:1}, s = 26..50, then heavier {s:1, 1:m} reusing each s: the
        # frontier could hold any of 2^25 unions of the light sizes, but at
        # most three fit under n = 100. Every state the DP steps from costs
        # one _added_at call and holds at least one counted subset, so the
        # calls stay within members x subsets_explored.
        members = [{s: 1} for s in range(26, 51)]
        members += [{s: 1, 1: m} for m, s in enumerate(range(26, 51), 1)]
        family = MultisetFamily("light", tuple(Strand(explicit=Multiset(m)) for m in members))
        expected = dfs_fields(family, 100, DEFAULT_SUBSET_CAP)
        bound = len(members) * expected[1]
        calls = 0
        added_at = sieve_module._added_at

        def counted(frontier, pattern, weight):
            nonlocal calls
            calls += 1
            assert calls <= bound, "more frontier states than counted subsets"
            return added_at(frontier, pattern, weight)

        monkeypatch.setattr(sieve_module, "_added_at", counted)
        assert sieve_fields(family, 100, DEFAULT_SUBSET_CAP) == expected
        assert expected[1] == 4746

    @pytest.mark.parametrize("label,family", builtin_sides())
    def test_builtins_match_depth_first_walk(self, label, family):
        # andrews is built to bound 30; past it the family is a truncation
        # whose walk alone takes seconds.
        for n in range(31 if label.startswith("andrews") else 61):
            assert sieve_fields(family, n, DEFAULT_SUBSET_CAP) == dfs_fields(
                family, n, DEFAULT_SUBSET_CAP
            ), (label, n)

    def test_euler_at_400(self):
        # Out of reach of a subset-by-subset walk: about 8e9 subsets per side.
        pair = builtin_pair("euler")
        x = sieve_distribution(pair.F, 400, subset_cap=10**12)
        y = sieve_distribution(pair.G, 400, subset_cap=10**12)
        assert x.table == y.table
        assert x.table.counts[0] == count_odd_parts_dp(400)
        assert y.table.counts[0] == count_distinct_parts_dp(400)
        assert x.table.total == count_partitions_dp(400)
        # F_t = {2t: 1} and G_t = {t: 2} both weigh 2t, so the subsets of
        # weight <= 400 are the partitions of m <= 200 into distinct parts.
        explored = sum(count_distinct_parts_dp(m) for m in range(201))
        assert explored == 7_994_637_527
        assert x.subsets_explored == y.subsets_explored == explored
        assert not x.truncated and not y.truncated

    def test_validation(self):
        family = builtin_pair("euler").F
        with pytest.raises(ValueError):
            sieve_distribution(family, -1)
        with pytest.raises(ValueError):
            sieve_distribution(family, 4, subset_cap=0)


EULER_X, EULER_Y = pair_statistics(EULER)
# An entry point, its arguments, and the non-integer ones of them.
BAD_INTEGER_CALLS = [
    (sieve_distribution, (EULER.F, 5.0), "n=5.0"),
    (sieve_distribution, (EULER.F, True), "n=True"),
    (sieve_distribution, (EULER.F, "5"), "n='5'"),
    (sieve_distribution, (EULER.F, 5, 2.5), "subset_cap=2.5"),
    (sieve_distribution, (EULER.F, 5, True), "subset_cap=True"),
    (check_theorem_c, (EULER, 5.0), "n_max=5.0"),
    (check_theorem_c, (EULER, True), "n_max=True"),
    (check_theorem_c, (EULER, 5, 2.5), "subset_cap=2.5"),
    (check_theorem_c, (EULER, 5, None), "subset_cap=None"),
    (check_theorem_b, (EULER, 5.0), "n_max=5.0"),
    (check_theorem_b, (EULER, True), "n_max=True"),
    (distribution_bruteforce, (EULER_X, 5.0), "n=5.0"),
    (distribution_bruteforce, (EULER_X, False), "n=False"),
    (compare, (EULER_X, EULER_Y, False, True), "n_from=False,n_to=True"),
    (compare, (EULER_X, EULER_Y, 1.0, 3), "n_from=1.0"),
    (compare, (EULER_X, EULER_Y, 0, 5.0), "n_to=5.0"),
]


@pytest.mark.parametrize(
    "entry,args",
    [call[:2] for call in BAD_INTEGER_CALLS],
    ids=[f"{entry.__name__}({bad})" for entry, _, bad in BAD_INTEGER_CALLS],
)
def test_entry_points_take_only_integers(entry, args):
    # A float or bool once reached the DP (TypeError, AttributeError) or
    # the report (verified_up_to=5.0, n_from=False).
    with pytest.raises(ValueError, match="integer"):
        entry(*args)


class TestPackedRows:
    """The sieve's rows pack one count per union weight in digits sized
    from the subset cap; no digit may carry, and the cap outcome must be
    that of a subset-by-subset walk at every cap."""

    def test_counts_past_64_bits_stay_exact(self):
        # Every one of the 2^70 subsets has union {1: 1}, so one digit holds
        # them all, at a cap that needs four 32-bit limbs per digit.
        family = MultisetFamily("ones", (Strand(explicit=Multiset({1: 1})),) * 70)
        at_1 = sieve_distribution(family, 1, subset_cap=10**30)
        assert at_1.table.counts == {70: 1}
        assert at_1.subsets_explored == 2**70
        assert not at_1.truncated
        at_3 = sieve_distribution(family, 3, subset_cap=10**30)
        assert at_3.table.counts == {0: 1, 70: 2}
        assert at_3.table == distribution_bruteforce(FamilyStatistic(family), 3)

    @pytest.mark.parametrize("pair_name", ["euler", "mod6"])
    def test_caps_around_the_count(self, pair_name):
        family = builtin_pair(pair_name).F
        count = sieve_distribution(family, 30, subset_cap=UNCAPPED).subsets_explored
        for cap in (count - 1, count, count + 1):
            assert sieve_fields(family, 30, cap) == dfs_fields(family, 30, cap), cap
        assert sieve_distribution(family, 30, subset_cap=count - 1).truncated
        assert not sieve_distribution(family, 30, subset_cap=count).truncated

    @settings(max_examples=150, deadline=None)
    @given(overlapping_families(), st.integers(0, 40))
    def test_caps_around_the_count_on_overlapping_families(self, family, n):
        count = sieve_distribution(family, n, subset_cap=UNCAPPED).subsets_explored
        for cap in (count - 1, count, count + 1):
            if cap > 0:
                assert sieve_fields(family, n, cap) == dfs_fields(family, n, cap), cap

    def test_stops_after_the_member_that_passes_the_cap(self, monkeypatch):
        # 1500 copies of {1: 1}: after member k there are 2^k subsets, so a
        # cap of 2000 is passed at member 11 (2^11 = 2048). Member 1 steps
        # from one state, every later one from two (frontier empty or {1: 1}),
        # and each state-step calls _added_at once.
        calls = 0
        added_at = sieve_module._added_at

        def counted(frontier, pattern, weight):
            nonlocal calls
            calls += 1
            return added_at(frontier, pattern, weight)

        monkeypatch.setattr(sieve_module, "_added_at", counted)
        assert sieve_fields(DEEP_PAIR.F, 10, 2000) == ({}, 2001, True)
        assert calls == 1 + 2 * 10

    def test_rows_start_at_their_lightest_set(self):
        # Members {1: 1, 10^6 + i: 1} share size 1, so every nonempty set
        # lands in one frontier state, whose rows hold weights from 10^6 on.
        # At most two members fit under n, and the 401st set comes with the
        # 28th member. Rows packed from weight 0 would hold 10^6 zero digits
        # below those sets, 4 MB a row.
        family = MultisetFamily(
            "far", tuple(Strand(explicit=Multiset({1: 1, 10**6 + i: 1})) for i in range(30))
        )
        tracemalloc.start()
        try:
            result = sieve_distribution(family, 2 * 10**6 + 100, subset_cap=400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.truncated, result.subsets_explored) == (True, 401)
        assert peak < 2**20

    def test_memory_stays_with_the_reachable_weights(self):
        # 24 members {2^i: 1} at n = 2^24: every subset has its own union
        # weight, and the count passes the cap of 200,000 at the 18th member,
        # when the rows reach weight 2^18 - 1. One row or mask as wide as n
        # would take 64 MiB. The dict-of-cells DP that the rows replaced
        # peaked at 37.0 MiB here (tracemalloc, Python 3.11); the bound is
        # 1.5 times that.
        family = MultisetFamily(
            "powers", tuple(Strand(explicit=Multiset({2**i: 1})) for i in range(24))
        )
        tracemalloc.start()
        try:
            result = sieve_distribution(family, 2**24, subset_cap=200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.truncated
        assert result.subsets_explored == 200_001
        assert peak <= 1.5 * 37.0 * 2**20


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
        found = None if w is None else (type(w).__name__, *(getattr(w, f) for f in w._fields))
        assert found == expected


class TestAnnotatedPositions:
    """The checkers' position table, worked out in one pass over the aligned
    strands' coefficients, against rows built by `member(idx)` over the set
    union of both sides' relevant indices."""

    @settings(max_examples=300, deadline=None)
    @given(aligned_strand_pairs())
    # Only G's member is relevant at n_max 3; only F's on the template strand.
    @example(
        (
            FamilyPair(
                "one-sided",
                MultisetFamily(
                    "one-sided.F",
                    (Strand(explicit=Multiset({5: 1})), single_entry_strand((0, 1, 0), (0, 1))),
                ),
                MultisetFamily(
                    "one-sided.G",
                    (Strand(explicit=Multiset({1: 1})), single_entry_strand((0, 3, 0), (0, 1))),
                ),
            ),
            3,
        )
    )
    def test_one_pass_equals_set_union(self, drawn):
        pair, n_max = drawn
        assert pair.positions(n_max) == annotated_positions(pair, n_max)

    @pytest.mark.parametrize("label,pair", builtin_pairs())
    @pytest.mark.parametrize("n_max", [1, 2, 7, 40])
    def test_builtins_equal_set_union(self, label, pair, n_max):
        assert pair.positions(n_max) == annotated_positions(pair, n_max)


class TestCheckTheoremC:
    def test_remmel_holds(self):
        report = check_theorem_c(builtin_pair("remmel_consecutive"), 24)
        assert report.holds
        assert not report.inconclusive
        assert report.subsets_explored > 1

    def test_remmel_first_two_unions_by_hand(self):
        # {2,4} u {4,6} = {2,4,6} and {1,1,2,2} u {2,2,3,3} = {1,1,2,2,3,3},
        # both of weight 12, despite the overlap at 4.
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

    def test_violation_never_reads_a_walked_count(self):
        # Position order is {2:1}, {2:2}|{1:2}, {3:1}. The set of the first two
        # holds with both unions weighing 4, and after it both frontiers are
        # empty. The second alone has the same F weight and frontiers, but its
        # G member {1:2} weighs 2: it is the witness, not a walked state.
        pair = explicit_pair("twin", [{2: 1}, {3: 1}, {2: 2}], [{2: 1}, {3: 1}, {1: 2}])
        assert c_fields(pair, 20, DEFAULT_SUBSET_CAP) == theorem_c_dfs(pair, 20, DEFAULT_SUBSET_CAP)
        report = check_theorem_c(pair, 20)
        assert report.witness.positions == (FamilyIndex(2, 1),)
        assert (report.witness.weight_f, report.witness.weight_g) == (4, 2)
        assert report.subsets_explored == 6

    def test_singleton_weight_mismatch_caught(self):
        pair = explicit_pair("tilted", [{3: 1}], [{2: 1}])
        report = check_theorem_c(pair, 10)
        assert not report.holds
        assert report.witness.positions == (pair.F.relevant_indices(10)[0],)

    @settings(max_examples=300, deadline=None)
    @given(theorem_c_pairs(), st.integers(1, 40), st.integers(1, 1100))
    def test_matches_depth_first_walk(self, pair, n_max, cap):
        # 1100 is above the 2^10 sets of 10 positions, so some runs finish.
        assert c_fields(pair, n_max, cap) == theorem_c_dfs(pair, n_max, cap)

    @pytest.mark.parametrize("label,pair", builtin_pairs())
    def test_builtins_match_depth_first_walk(self, label, pair):
        # andrews is built to bound 30, as in the sieve's sweep.
        for n_max in range(1, 31 if label.startswith("andrews") else 61):
            assert c_fields(pair, n_max, DEFAULT_SUBSET_CAP) == theorem_c_dfs(
                pair, n_max, DEFAULT_SUBSET_CAP
            ), (label, n_max)

    def test_euler_at_150(self):
        # Both unions weigh 2 * (sum of t in S), so the sets of weight <= 150
        # are the partitions of m <= 75 into distinct parts.
        report = check_theorem_c(builtin_pair("euler"), 150)
        explored = sum(count_distinct_parts_dp(m) for m in range(76))
        assert explored == 502_822
        assert (report.holds, report.inconclusive, report.subsets_explored) == (
            True,
            False,
            explored,
        )

    def test_reused_count_past_cap_reports_cap_plus_one(self):
        report = check_theorem_c(builtin_pair("euler"), 100, subset_cap=20_000)
        assert (report.holds, report.inconclusive, report.subsets_explored) == (True, True, 20_001)
        assert report.witness is None

    @settings(max_examples=200, deadline=None)
    @given(template_c_pairs(), st.one_of(st.integers(1, 40), st.integers(2000, 20_000)))
    def test_template_pairs_match_depth_first_walk(self, drawn, cap):
        # Overlapping template members keep the frontiers non-empty, so a
        # state's walk stops only once its frontiers cannot save enough.
        pair, n_max = drawn
        assert c_fields(pair, n_max, cap) == theorem_c_dfs(pair, n_max, cap)

    @pytest.mark.parametrize("cap", [2_000, 20_000])
    def test_no_state_repeats(self, cap):
        # Every set of {2^i: 1} members has its own union weight, so a walk
        # would meet no state twice. The pair holds, so the joint DP decides
        # it and counts the sets up to the cap.
        members = [{2**i: 1} for i in range(24)]
        pair = explicit_pair("powers", members, members)
        report = check_theorem_c(pair, 2**24, subset_cap=cap)
        expected = theorem_c_dfs(pair, 2**24, cap)
        assert expected[:3] == (True, True, cap + 1)
        assert (report.holds, report.inconclusive, report.subsets_explored) == expected[:3]

    def test_each_state_walked_once(self, monkeypatch):
        # euler's sides are support-disjoint, so both frontiers stay empty
        # and a walk state is (next position, union weight): at most
        # (positions + 1) x (n_max + 1) of them, at two _added_at calls
        # each, far fewer than the 502,822 sets a one-by-one walk would step
        # through. euler holds, so the joint DP answers without walking; the
        # late-violation test below walks.
        pair = builtin_pair("euler")
        positions = len(pair.F.relevant_indices(150))
        bound_state_steps(monkeypatch, 2 * (positions + 1) * 151)
        assert check_theorem_c(pair, 150).subsets_explored == 502_822

    def test_each_state_walked_once_before_a_late_violation(self, monkeypatch):
        # The walk reaches the late failing set, yet walks each state once.
        pair = EULER_LATE_PAIR
        expected = theorem_c_dfs(pair, 100, DEFAULT_SUBSET_CAP)
        assert expected[2] > 10_000
        positions = len(pair.positions(100))
        bound_state_steps(monkeypatch, 2 * (positions + 1) * 101)
        assert c_fields(pair, 100, DEFAULT_SUBSET_CAP) == expected
        assert expected[3][0] == (FamilyIndex(0, 1), FamilyIndex(1, 1))
        assert expected[3][1:3] == (99, 101)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(theorem_c_pairs(), st.integers(1, 40)),
            template_c_pairs(),
            theorem_b_pairs(),
            weight_matched_pairs(),
        )
    )
    # F disjoint, G not: the two members' G intersection {1:1} is all
    # that tells the sides apart.
    @example((explicit_pair("g-shares", [{1: 1}, {2: 1}], [{1: 1}, {1: 2}]), 3))
    # The two members' intersections weigh 1 on F and 0 on G, but their
    # unions weigh 14 and 15, past n_max: only the singletons count.
    @example((explicit_pair("past-n-max", [{1: 1, 6: 1}, {1: 1, 7: 1}], [{7: 1}, {1: 2, 6: 1}]), 10))
    # The pair's F union weighs 11, under n_max only because the second F
    # member reuses the first one's 5s: G's is 21, and its intersection 0.
    @example((explicit_pair("reused", [{5: 2}, {5: 2, 1: 1}], [{10: 1}, {2: 5, 1: 1}]), 15))
    # Found by a random search. Every set but the singletons and the first
    # two members lies past n_max, with unequal intersections; grown from
    # the wrong members, the G union of all three would seem to fit.
    @example(
        (
            explicit_pair(
                "three", [{4: 1, 1: 3}, {4: 2}, {3: 3}], [{2: 1, 3: 1, 1: 2}, {2: 3, 1: 2}, {4: 2, 1: 1}]
            ),
            14,
        )
    )
    # Three twins {1:1} form one class, which joins a set in 7 ways. The
    # last position weighs 2 on both sides, but its union with a twin
    # weighs 3 on F and 2 on G.
    @example(
        (explicit_pair("twins", [{1: 1}] * 3 + [{2: 1}], [{1: 1}] * 3 + [{1: 2}]), 5)
    )
    def test_joint_dp_agrees_iff_walk_finds_no_witness(self, drawn):
        pair, n_max = drawn
        table = pair.positions(n_max)
        expected = theorem_c_dfs(pair, n_max, UNCAPPED)
        explored = sieve_module._agreeing_sets(table, n_max, UNCAPPED)
        assert (explored is None) == (expected[3] is not None)
        assert c_fields(pair, n_max, UNCAPPED) == expected
        if explored is not None:
            assert explored == expected[2]
            # The sets the check covers are F's subsets within n_max.
            assert explored == sieve_distribution(pair.F, n_max, UNCAPPED).subsets_explored

    @pytest.mark.parametrize(
        "pair,n_max,cap,walks",
        [
            (SHARED_PAIR, 200, 20, False),
            (SHARED_LATE_PAIR, 200, 20, True),
            (SHARED_LATE_PAIR, 200, 5_000, True),
            (SHARED_PAIR, 200, 10**6, False),
            (CHAINED_PAIR, 40_000, 100, True),
            # The walk passes these caps on the count of a state met again.
            (EULER_LATE_PAIR, 100, 500, True),
            (EULER_LATE_PAIR, 100, 3_000, True),
            (EULER_LATE_PAIR, 100, 10_000, True),
        ],
        ids=[
            "holding-cap-20",
            "violating-cap-20",
            "violating-cap-5000",
            "holding-uncapped",
            "chained-cap-100",
            "late-reused-cap-500",
            "late-reused-cap-3000",
            "late-reused-cap-10000",
        ],
    )
    def test_search_past_its_budget_falls_back_to_the_walk(
        self, monkeypatch, pair, n_max, cap, walks
    ):
        # The joint DP decides a holding pair past the cap by one cell per
        # state, and walks on a difference or once it has examined more
        # than cap states past the cap.
        walked = 0
        walk_sets = sieve_module._walk_sets

        def spy(*args):
            nonlocal walked
            walked += 1
            return walk_sets(*args)

        monkeypatch.setattr(sieve_module, "_walk_sets", spy)
        assert c_fields(pair, n_max, cap) == theorem_c_dfs(pair, n_max, cap)
        assert walked == walks
        if pair is SHARED_PAIR:
            report = check_theorem_c(pair, n_max, subset_cap=cap)
            assert (report.inconclusive, report.subsets_explored) == (
                (True, cap + 1) if cap < 4096 else (False, 4096)
            )
        if pair is EULER_LATE_PAIR:
            assert c_fields(pair, n_max, cap) == (True, True, cap + 1, None)

    def test_shared_size_past_the_cap_is_decided_without_walking(self, monkeypatch):
        # 40 members {1:1, i+2:1} keep size 1 in both frontiers, so there
        # are at most two states per member: past the cap the DP keeps
        # their lightest cells and decides without walking.
        def refuse(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(sieve_module, "_walk_sets", refuse)
        members = [{1: 1, i + 2: 1} for i in range(40)]
        pair = explicit_pair("shared40", members, members)
        report = check_theorem_c(pair, 200, subset_cap=200_000)
        assert (report.holds, report.inconclusive, report.subsets_explored) == (
            True,
            True,
            200_001,
        )

    def test_deep_family_is_decided_without_walking(self, monkeypatch):
        # 1,500 twins are one class, which joins the empty set in 2^1500 - 1
        # ways: the joint DP passes the cap at its first step, as the walk
        # would.
        def refuse(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(sieve_module, "_walk_sets", refuse)
        report = check_theorem_c(DEEP_PAIR, 10, subset_cap=2000)
        assert (report.holds, report.inconclusive, report.subsets_explored) == (True, True, 2001)

    def test_walk_without_witness_within_the_cap_raises(self, monkeypatch):
        # The walk runs only on a difference or past the cap. Ending within
        # the cap without a witness contradicts the DP: an internal error,
        # never a holding report.
        monkeypatch.setattr(sieve_module, "_agreeing_sets", lambda *args: None)
        with pytest.raises(RuntimeError, match="walk ended within the cap without a witness"):
            check_theorem_c(builtin_pair("euler"), 30)

    def test_validation(self):
        pair = builtin_pair("euler")
        with pytest.raises(ValueError):
            check_theorem_c(pair, 0)
        with pytest.raises(ValueError):
            check_theorem_c(pair, 10, subset_cap=0)


class TestJointPackedRows:
    """The theorem C DP packs one count per union weight in digits sized
    from the subset cap and saturates a twin class's ways past the cap: no
    digit may carry, and the cap outcome must be that of a set-by-set walk
    at every cap. Past the cap it keeps no rows."""

    def test_counts_past_64_bits_stay_exact(self):
        # 70 twins {1: 1} form one class that joins the empty set in
        # 2^70 - 1 ways, at a cap whose digits need about 200 bits.
        ones = explicit_pair("ones", [{1: 1}] * 70, [{1: 1}] * 70)
        report = check_theorem_c(ones, 1, subset_cap=10**30)
        assert (report.holds, report.inconclusive, report.subsets_explored) == (True, False, 2**70)

    @pytest.mark.parametrize("pair_name", ["euler", "mod6", "remmel_consecutive"])
    def test_caps_around_the_count(self, pair_name):
        pair = builtin_pair(pair_name)
        count = check_theorem_c(pair, 30, subset_cap=UNCAPPED).subsets_explored
        for cap in (count - 1, count, count + 1):
            assert c_fields(pair, 30, cap) == theorem_c_dfs(pair, 30, cap), cap
        assert check_theorem_c(pair, 30, subset_cap=count - 1).inconclusive
        assert not check_theorem_c(pair, 30, subset_cap=count).inconclusive

    @settings(max_examples=150, deadline=None)
    @given(theorem_c_pairs(), st.integers(1, 40))
    def test_caps_around_the_count_on_overlapping_pairs(self, pair, n_max):
        count = check_theorem_c(pair, n_max, subset_cap=UNCAPPED).subsets_explored
        for cap in (count - 1, count, count + 1):
            if cap > 0:
                assert c_fields(pair, n_max, cap) == theorem_c_dfs(pair, n_max, cap), cap

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 14), st.integers(1, 4000))
    def test_twin_class_after_distinct_members(self, distinct, twins, cap):
        # The 2^distinct sets before the class each join it in up to
        # cap + 1 ways, so its digits reach about cap^2: narrower digits
        # would carry, and the count read from them would wrap.
        members = [{2**i: 1} for i in range(distinct)] + [{2**distinct: 1}] * twins
        pair = explicit_pair("twins", members, members)
        n_max = 2 ** (distinct + 1)
        assert c_fields(pair, n_max, cap) == theorem_c_dfs(pair, n_max, cap)

    @pytest.mark.parametrize("cap", [1, 2000, 10**30])
    def test_deep_family_saturates_its_ways(self, cap):
        # 1,500 twins join the empty set in 2^1500 - 1 ways, saturated at
        # cap + 1: one step passes the cap, as the set-by-set walk does.
        assert c_fields(DEEP_PAIR, 10, cap) == (True, True, cap + 1, None)

    def test_no_spread_past_the_cap(self):
        # 24 members {2^i: 1} at n_max 2^24: every set has its own union
        # weight, and the count passes the cap at the 16th member. Past it
        # the one state keeps its lightest set, not a row that each include
        # spreads across the member's weight. The dict-of-cells DP that
        # the rows replaced peaked at 6.3 MiB here (133 B per set,
        # tracemalloc, Python 3.11).
        members = [{2**i: 1} for i in range(24)]
        pair = explicit_pair("powers", members, members)
        tracemalloc.start()
        try:
            report = check_theorem_c(pair, 2**24, subset_cap=50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.holds, report.inconclusive, report.subsets_explored) == (True, True, 50_001)
        assert peak < 3 * 2**20


class TestEmptyAndOpenFrontiers:
    """The DPs and the walk add a member's weight, and grow to the sizes it
    opens, without weighing the frontier when it is empty; a non-empty one
    still goes through the frontier rule. Members are read from the strand
    coefficients, one-entry strands in closed form."""

    # A wrong frontier fails many checks at once; shrinking each kind of
    # failure apart takes minutes, and one shrunk example shows the fault.
    @settings(max_examples=200, deadline=None, report_multiple_bugs=False)
    @given(interleaved_pairs(), st.integers(0, 30))
    def test_match_the_walks_and_the_members(self, pair, n):
        # Each walk runs once, uncapped: below the count it reaches, a capped
        # walk stops past the cap, truncated or inconclusive.
        for family in (pair.F, pair.G):
            by_index = tuple(family.member(idx).items() for idx in family.relevant_indices(n))
            assert family.member_patterns(n) == by_index
            walked = sieve_dfs(by_index, n, UNCAPPED)
            for cap in range(max(walked[1] - 1, 1), walked[1] + 2):
                expected = walked if cap >= walked[1] else ({}, cap + 1, True)
                assert sieve_fields(family, n, cap) == expected, cap
        if n:
            assert pair.positions(n) == annotated_positions(pair, n)
            walked = theorem_c_dfs(pair, n, UNCAPPED)
            for cap in range(max(walked[2] - 1, 1), walked[2] + 2):
                expected = walked if cap >= walked[2] else (True, True, cap + 1, None)
                assert c_fields(pair, n, cap) == expected, cap


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


def corrupt_row(change):
    """Corruption: row 1 of the checkers' table becomes change(table)."""

    def install(monkeypatch):
        positions = FamilyPair.positions

        def corrupted(pair, n_max):
            table = positions(pair, n_max)
            table[1] = change(table)
            return table

        monkeypatch.setattr(FamilyPair, "positions", corrupted)

    return install


def skew_added_weight(monkeypatch):
    """Corruption: every added weight of an euler G member {t: 2} is one
    too high, so the walk weighs a set's G union wrong."""
    added = sieve_module._added_at

    def skewed(frontier, pattern, weight):
        return added(frontier, pattern, weight) + (pattern[0][1] == 2)

    monkeypatch.setattr(sieve_module, "_added_at", skewed)


# (theorem, corruption, the start of the RuntimeError's message). Each one
# makes a checker find a witness on euler, whose hypotheses hold, and the
# re-validation through `family.member` must refuse it.
CORRUPTIONS = [
    ("b", corrupt_row(lambda t: (t[1][0], t[0][1], *t[1][2:])), "disjointness witness"),
    ("b", corrupt_row(lambda t: (*t[1][:2], t[1][2] + 1, *t[1][3:])), "weight witness"),
    ("c", corrupt_row(lambda t: (*t[1][:3], t[0][3], t[1][4])), "union witness multisets"),
    ("c", skew_added_weight, "union witness weights"),
]
CORRUPTION_IDS = ["f-pattern-of-another-member", "wrong-weight", "g-pattern", "added-weight"]


class TestRevalidationFailures:
    """A fast path that goes wrong raises RuntimeError, never reports a
    divergence: the checkers re-validate every witness against the members
    that `family.member` builds, which none of these corruptions touch."""

    @pytest.mark.parametrize("theorem,corrupt,message", CORRUPTIONS, ids=CORRUPTION_IDS)
    def test_library_raises(self, monkeypatch, theorem, corrupt, message):
        corrupt(monkeypatch)
        check = check_theorem_b if theorem == "b" else check_theorem_c
        with pytest.raises(RuntimeError, match=f"^{message} failed re-validation: "):
            check(builtin_pair("euler"), 30)

    @pytest.mark.parametrize("theorem,corrupt,message", CORRUPTIONS, ids=CORRUPTION_IDS)
    def test_check_exits_4(self, monkeypatch, theorem, corrupt, message):
        # Exit 1 would claim a mathematical divergence.
        corrupt(monkeypatch)
        args = ["check", "--pair", "euler", "--theorem", theorem, "--n-max", "30"]
        result = CliRunner().invoke(cli_main, args)
        assert (result.exit_code, result.stdout) == (4, "")
        assert result.stderr.startswith(
            f"internal error: RuntimeError: {message} failed re-validation: "
        )
        assert result.stderr.count("\n") == 1
