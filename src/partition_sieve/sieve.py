"""Inclusion-exclusion computation of exact-j counts, and mechanical
checkers for the two hypotheses that imply identical distributions.

The sieve takes, for every finite index set S, the count of partitions of n
containing every selected member -- which is p(n - weight(union_S)) by the
removal bijection, with union_S the max-multiplicity union -- and turns the
level sums N_t = sum over |S|=t into the exactly-j counts

    e_j = sum_{t >= j} (-1)^(t-j) C(t,j) N_t.

Two property systems with the same sieve inputs therefore have the same
exactly-j outputs; that is what both checkers certify on a finite
truncation:

  theorem "B": members pairwise support-disjoint on each side and
      per-index equal weights (which forces equal sieve inputs), and
  theorem "C": equal union weights for every index set S directly.

"Pairwise disjoint" is read as disjoint supports: sharing a size even at
different multiplicities breaks the additivity that makes the sieve inputs
factor through the individual members.

Because only the union weights matter, the sieve never visits the sets S
one by one: a DP over the members, whose state is the union restricted to
the sizes that later members still use, counts them by (|S|, union weight)
in packed rows, one big integer per state and |S| with one digit per union
weight, which it reads against p(n - w) with no loop per digit.

Both checkers read one table of positions (`FamilyPair.positions`), each
member as its pattern and weight. The theorem C check runs the sieve's DP on
F and G at once, over twin classes (equal F and G patterns), with one packed
row per state of both frontiers, whose digits count the sets by the union
weight, the same on both sides for every set still agreeing. A state whose
lightest set takes a member within the truncation with unequal added
weights is a difference. Only then, or when the DP runs out of budget past
the subset cap, does the check walk the (member index, frontier) states
depth-first, each once, include before exclude, for the first failing S in
preorder, counting the sets below a state it meets again. The DPs and the
walk restrict a frontier with the same rule (`_restrict`).

A member's weight and the sizes it opens (the frontier that it grows an
empty one to) are worked out once per member, or twin class, not once per
state. A state whose frontier is empty, as on support-disjoint sides, adds
that weight and grows to those sizes; only a non-empty frontier is weighed
(`_added_weight`) and grown (`_grow`).
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from operator import mul
from typing import NamedTuple

from .families import FamilyIndex, FamilyPair, MultisetFamily, Pattern
from .partitions import Multiset, partition_counts_down
from .distribution import DistributionTable

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "DisjointnessWitness",
    "HypothesisReport",
    "SieveResult",
    "UnionWeightWitness",
    "WeightWitness",
    "check_theorem_b",
    "check_theorem_c",
    "sieve_distribution",
]

# Budget on the number of index subsets with union weight <= n (counted by
# the sieve, and by the theorem C check with `_agreeing_sets`, which walks
# them only for a witness or past the cap), and on the states the theorem C
# DP examines past it; exceeding it is a loud, flagged condition, never a
# silent approximation.
DEFAULT_SUBSET_CAP = 5_000_000


class SieveResult(NamedTuple):
    """An inclusion-exclusion run: exact table unless truncated.

    A truncated run (subset cap exceeded) carries an empty table; partial
    level sums have no meaningful exactly-j interpretation.
    """

    table: DistributionTable
    subsets_explored: int
    truncated: bool


class DisjointnessWitness(NamedTuple):
    """Two same-side members sharing a support element."""

    side: str  # "F" or "G"
    idx_a: FamilyIndex
    idx_b: FamilyIndex
    element: int
    multiset_a: Multiset
    multiset_b: Multiset


class WeightWitness(NamedTuple):
    """An aligned index whose two members have different weights."""

    idx: FamilyIndex
    weight_f: int
    weight_g: int
    multiset_f: Multiset
    multiset_g: Multiset


class UnionWeightWitness(NamedTuple):
    """An index set S whose two unions have different weights."""

    positions: tuple[FamilyIndex, ...]
    weight_f: int
    weight_g: int
    union_f: Multiset
    union_g: Multiset


Witness = DisjointnessWitness | WeightWitness | UnionWeightWitness


class HypothesisReport(NamedTuple):
    """Outcome of checking a hypothesis on the finite truncation for n_max.

    holds=False always comes with a witness that has been re-validated by
    direct recomputation. inconclusive=True means the subset budget ran out
    before the frontier was exhausted (no violation found so far).
    """

    theorem: str  # "B" or "C"
    verified_up_to: int
    holds: bool
    witness: Witness | None = None
    subsets_explored: int = 0
    inconclusive: bool = False


def _require_int(name: str, value: int, least: int) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _added_weight(pattern: Pattern, union: dict[int, int]) -> int:
    get = union.get
    return sum((m - get(s, 0)) * s for s, m in pattern if m > get(s, 0))


def _added_at(frontier: Pattern, pattern: Pattern, weight: int) -> int:
    """The weight that a member, `pattern` of weight `weight`, adds to a
    union with this frontier: all of it when the frontier is empty, with no
    `_added_weight` call. Each state-step weighs its member here, per side."""
    return _added_weight(pattern, dict(frontier)) if frontier else weight


def _weight(frontier: Iterable[tuple[int, int]]) -> int:
    return sum(s * m for s, m in frontier)


def _restrict(frontier: Iterable[tuple[int, int]], last: dict[int, int], i: int) -> Pattern:
    """The frontier restricted to the sizes that a member after i still uses."""
    return tuple(entry for entry in frontier if last[entry[0]] > i)


def _grow(frontier: Pattern, pattern: Pattern, last: dict[int, int], i: int) -> Pattern:
    """The non-empty frontier once member i joins the union: the union of
    frontier and pattern, restricted to the sizes that a member after i
    still uses. An empty one grows to the sizes the member opens,
    `_restrict(pattern, last, i)`, worked out once per member."""
    merged = dict(frontier)
    for s, m in pattern:
        if m > merged.get(s, 0):
            merged[s] = m
    return _restrict(sorted(merged.items()), last, i)


def _add_row(slot: tuple[int, int], base: int, row: int, b: int) -> tuple[int, int]:
    """Rows as (base, packed): digit d, in base 2^b, counts the sets of union
    weight base + d. The sum of two rows, on the lower base."""
    low, acc = slot
    if base >= low:
        return low, acc + (row << b * (base - low))
    return base, (acc << b * (low - base)) + row


def _count_subsets(
    patterns: Sequence[Pattern], n: int, subset_cap: int
) -> tuple[int, list[tuple[int, int]], int]:
    """The frontier DP of `sieve_distribution` over the members' patterns,
    in order: (limbs, rows, the number of subsets with union weight <= n),
    or (limbs, [], subset_cap + 1) once that number passes subset_cap.

    rows[t] = (base, packed): digit d of packed, in base 2^b with
    b = 32 * limbs, counts the subsets S with |S| = t and union weight
    base + d <= n. A row starts at its lightest set, so a state holding a
    few sets far apart holds no long run of zero digits below them. The
    count is the rows' digit sum, x % (2^b - 1), read whenever a bound on it
    (a member at most doubles it) passes subset_cap, so no digit or digit
    sum reaches 2 * subset_cap < 2^b - 1: none carries."""
    last = {size: i for i, pattern in enumerate(patterns) for size, _ in pattern}
    limbs = -(-(2 * subset_cap).bit_length() // 32)
    b = 32 * limbs
    empty = (n + 1, 0)  # above every base a row can have
    # Frontier union, as sorted (size, mult) pairs -> rows of the subsets S
    # of the members seen so far.
    states: dict[Pattern, list[tuple[int, int]]] = {(): [(0, 1)]}
    # The subsets counted, the sum of the rows not counted yet, a bound on both.
    explored = bound = 1
    fresh = 0
    for i, pattern in enumerate(patterns):
        # The member's weight, and the sizes it opens: the frontier that it
        # grows an empty one to.
        weight, opened = _weight(pattern), _restrict(pattern, last, i)
        grown_states: dict[Pattern, list[tuple[int, int]]] = {}
        for frontier, rows in states.items():
            # Excluding the member shares the rows, which a state met later,
            # or this one's include, adds to in place. An empty frontier, as
            # on support-disjoint sides, stays empty.
            target = grown_states.setdefault(frontier and _restrict(frontier, last, i), rows)
            if target is not rows:
                target.extend([empty] * (len(rows) - len(target)))
                for t, (base, row) in enumerate(rows):
                    target[t] = _add_row(target[t], base, row, b)
            added = _added_at(frontier, pattern, weight)
            target = None
            # Walked down, so that an include into these rows reads each first.
            for t in range(len(rows) - 1, -1, -1):
                base, row = rows[t]
                if base + added > n:  # not even the lightest set takes the member
                    continue
                keep = b * (n + 1 - base - added)  # the digits that stay <= n
                if row.bit_length() > keep:
                    row &= (1 << keep) - 1
                # The digit at base counts the lightest set, so the row holds
                # a set: no state is empty, never more states than sets.
                if target is None:
                    grown = _grow(frontier, pattern, last, i) if frontier else opened
                    target = grown_states.setdefault(grown, [])
                    target.extend([empty] * (t + 2 - len(target)))
                target[t + 1] = _add_row(target[t + 1], base + added, row, b)
                fresh += row
        bound *= 2
        if bound > subset_cap:
            explored += fresh % ((1 << b) - 1)
            if explored > subset_cap:
                return limbs, [], subset_cap + 1
            bound, fresh = explored, 0
        states = grown_states
    # After the last member no size is still to come, so one state is left.
    return limbs, states[()], explored + fresh % ((1 << b) - 1)


def sieve_distribution(
    family: MultisetFamily, n: int, subset_cap: int = DEFAULT_SUBSET_CAP
) -> SieveResult:
    """Distribution of the family-induced statistic on P(n), by sieve.

    Counts the index subsets S of the members relevant to n by (|S|, union
    weight) with one frontier DP over the members in order -- the
    coefficients of U(y,q) = sum_S y^|S| q^w(union_S) up to q^n, one packed
    row per |S| = t -- then reads N_t = sum_w [y^t q^w]U * p(n - w) off row
    t with no loop per digit (a memoryview unpacks it, and one
    sum(map(mul, ...)) per 32-bit limb weighs it) and applies the
    inclusion-exclusion transform. Before member i the state is the union
    restricted to the frontier, the sizes that some earlier member and some
    member from i on both use; every other size's weight is already
    committed. Including a member raises its rows' weights by its weight
    beyond the frontier union, and drops the digits past n (sound: union
    weight only grows when sets are added). For support-disjoint families
    the frontier is always empty and this is the subset-sum DP for
    prod_i (1 + y q^w_i).

    subsets_explored is the number of index subsets with union weight <= n:
    counted, not visited. It shares no DP with brute force, which sweeps the
    part sizes, only the counts p(m): it cross-checks the brute-force path.
    """
    _require_int("n", n, 0)
    _require_int("subset_cap", subset_cap, 1)
    limbs, rows, explored = _count_subsets(family.member_patterns(n), n, subset_cap)
    if explored > subset_cap:
        return SieveResult(DistributionTable(n, {}), explored, True)
    weighed = partition_counts_down(n)
    # e(x) = sum_t N_t (x - 1)^t, by Horner's rule from the top |S| down.
    e: list[int] = []
    for base, row in reversed(rows):
        # The row's 32-bit limbs, lowest first, as native unsigned ints.
        digits = memoryview(row.to_bytes(-(-row.bit_length() // 32) * 4, sys.byteorder)).cast("I")
        if sys.byteorder == "big":
            digits = digits[::-1]
        e = [high - low for high, low in zip([0, *e], [*e, 0])]
        for k in range(limbs):
            e[0] += sum(map(mul, digits[k::limbs], weighed[base : base + len(digits)])) << 32 * k
    counts = {j: e_j for j, e_j in enumerate(e) if e_j}
    return SieveResult(DistributionTable(n, counts), explored, False)


def _revalidate_disjointness(family: MultisetFamily, w: DisjointnessWitness) -> None:
    a = family.member(w.idx_a)
    b = family.member(w.idx_b)
    shared = set(a.sizes()) & set(b.sizes())
    if w.element not in shared or a != w.multiset_a or b != w.multiset_b:
        raise RuntimeError(f"disjointness witness failed re-validation: {w}")


def _revalidate_weights(pair: FamilyPair, w: WeightWitness) -> None:
    f = pair.F.member(w.idx)
    g = pair.G.member(w.idx)
    wf = sum(s * m for s, m in f.items())
    wg = sum(s * m for s, m in g.items())
    if wf == wg or (wf, wg) != (w.weight_f, w.weight_g):
        raise RuntimeError(f"weight witness failed re-validation: {w}")


def _revalidate_union_weights(pair: FamilyPair, w: UnionWeightWitness) -> None:
    union_f = Multiset()
    union_g = Multiset()
    for idx in w.positions:
        union_f = union_f.union(pair.F.member(idx))
        union_g = union_g.union(pair.G.member(idx))
    if union_f != w.union_f or union_g != w.union_g:
        raise RuntimeError(f"union witness multisets failed re-validation: {w}")
    if union_f.weight == union_g.weight or (union_f.weight, union_g.weight) != (
        w.weight_f,
        w.weight_g,
    ):
        raise RuntimeError(f"union witness weights failed re-validation: {w}")


def check_theorem_b(pair: FamilyPair, n_max: int) -> HypothesisReport:
    """Check the disjoint-family hypotheses on the truncation for n_max:
    F members pairwise support-disjoint, G members pairwise support-disjoint,
    and weight(F_i) = weight(G_i) at every aligned index. The checks run
    over every index relevant to n_max in either family; they certify the
    truncation, not the infinite lists.

    Witness order: F before G; on a side, the first clashing pair in
    (min weight, strand, t) position order wins, with the smallest size the
    two share as its element; then the first position whose weights differ.
    """
    _require_int("n_max", n_max, 1)
    table = pair.positions(n_max)
    for side, family, col in (("F", pair.F, 1), ("G", pair.G, 3)):
        # a is the first owner of every size it shares with b (an earlier
        # owner would clash with a first), so min() also gives the element.
        first_owner: dict[int, int] = {}
        clashes = []
        for pos, row in enumerate(table):
            for size, _ in row[col]:
                owner = first_owner.setdefault(size, pos)
                if owner != pos:
                    clashes.append((owner, pos, size))
        if clashes:
            a, b, element = min(clashes)
            ms_a, ms_b = Multiset(table[a][col]), Multiset(table[b][col])
            witness = DisjointnessWitness(side, table[a][0], table[b][0], element, ms_a, ms_b)
            _revalidate_disjointness(family, witness)
            return HypothesisReport("B", n_max, False, witness)
    for idx, pat_f, weight_f, pat_g, weight_g in table:
        if weight_f != weight_g:
            witness = WeightWitness(idx, weight_f, weight_g, Multiset(pat_f), Multiset(pat_g))
            _revalidate_weights(pair, witness)
            return HypothesisReport("B", n_max, False, witness)
    return HypothesisReport("B", n_max, True)


def _agreeing_sets(table: list[tuple], n_max: int, subset_cap: int) -> int | None:
    """The number of sets S of positions with min(w(union F_S), w(union
    G_S)) <= n_max, or subset_cap + 1 once it passes subset_cap, when every
    one of them has equal union weights. None on a difference, or once more
    than subset_cap states have been examined past the cap (undecided).

    The sieve's frontier DP on both sides at once, over twin classes (equal
    F and G patterns) in table order. A state is the pair of frontiers with
    one `_add_row` row: digit d counts the sets of union weight base + d,
    the same on both sides for every set still agreeing. A class of c twins
    joins a set in 2^c - 1 ways, saturated at subset_cap + 1. A difference
    is a state whose lightest set, at base, takes the class within n_max
    with unequal added weights. The count is read from the digit sums, as
    in `_count_subsets`, whenever a bound on it passes subset_cap: it is at
    most subset_cap before a class, so no digit or digit sum reaches
    (subset_cap + 1)(subset_cap + 2) < 2^b. Past the cap a state keeps only
    its lightest set, base: the extensions of any set in it add the same
    weights, so one fits within n_max, and differs, only if base's does."""
    # Keyed by (F pattern, F weight, G pattern, G weight): a row less its idx.
    classes = Counter(row[1:] for row in table)
    last_f = {size: i for i, key in enumerate(classes) for size, _ in key[0]}
    last_g = {size: i for i, key in enumerate(classes) for size, _ in key[2]}
    b = ((subset_cap + 1) * (subset_cap + 2)).bit_length()
    saturated = (subset_cap + 1).bit_length()  # 2^c - 1 > subset_cap from c on
    empty = (n_max + 1, 0)  # above every base a row can have
    # (F frontier, G frontier) -> (base, packed) row of the sets S.
    states: dict[tuple, tuple[int, int]] = {((), ()): (0, 1)}
    explored = bound = 1
    fresh = examined = 0
    for i, ((pat_f, weight_f, pat_g, weight_g), twins) in enumerate(classes.items()):
        if explored > subset_cap:
            examined += len(states)
            if examined > subset_cap:
                return None
        # The sizes the class opens: the frontiers it grows empty ones to.
        opened = (_restrict(pat_f, last_f, i), _restrict(pat_g, last_g, i))
        ways = min((1 << min(twins, saturated)) - 1, subset_cap + 1)
        grown_states: dict[tuple, tuple[int, int]] = {}
        for (front_f, front_g), (base, row) in states.items():
            # An empty frontier, as on support-disjoint sides, stays empty.
            kept = (front_f and _restrict(front_f, last_f, i),
                    front_g and _restrict(front_g, last_g, i))
            grown_states[kept] = _add_row(grown_states.get(kept, empty), base, row, b)
            added_f = _added_at(front_f, pat_f, weight_f)
            added_g = _added_at(front_g, pat_g, weight_g)
            if base + min(added_f, added_g) > n_max:
                continue
            if added_f != added_g:
                return None
            keep = b * (n_max + 1 - base - added_f)  # the digits that stay <= n_max
            if row.bit_length() > keep:
                row &= (1 << keep) - 1
            row *= ways
            fresh += row
            grown = (
                _grow(front_f, pat_f, last_f, i) if front_f else opened[0],
                _grow(front_g, pat_g, last_g, i) if front_g else opened[1],
            )
            grown_states[grown] = _add_row(grown_states.get(grown, empty), base + added_f, row, b)
        states = grown_states
        if explored <= subset_cap:
            bound *= ways + 1
            if bound > subset_cap:
                explored += fresh % ((1 << b) - 1)
                bound, fresh = explored, 0
                if explored > subset_cap:
                    states = {fronts: (base, 0) for fronts, (base, _) in states.items()}
    return min(explored + fresh % ((1 << b) - 1), subset_cap + 1)


def check_theorem_c(
    pair: FamilyPair, n_max: int, subset_cap: int = DEFAULT_SUBSET_CAP
) -> HypothesisReport:
    """Check equal union weights for every index set S on the truncation:
    weight(union of F_i, i in S) = weight(union of G_i, i in S).

    S ranges over the positions relevant to n_max in either family,
    restricted to min(weight_F(S), weight_G(S)) <= n_max -- exactly the
    sets that can influence either sieve for n <= n_max. These sets form a
    down-set D: union weights only grow. `_agreeing_sets` runs the sieve's
    DP on both sides at once; it decides whether every set in D agrees and
    counts D, up to subset_cap, in one pass. For a holding pair, whose sets
    weigh the same on both sides, D is the set of subsets of F's relevant
    members with union weight <= n_max, so subsets_explored and the cap
    outcome are those of `sieve_distribution(pair.F, n_max, subset_cap)`.

    Only on a difference, or when the DP examines more than subset_cap
    states past the cap, does `_walk_sets` walk the sets one state at a time
    for the witness (the first failing S in preorder) or the cap outcome. A
    difference is a failing set in D, and a DP that gives up has counted
    more than subset_cap sets, so the walk ends with a witness or past the
    cap; it raises RuntimeError if it ever ends otherwise.
    """
    _require_int("n_max", n_max, 1)
    _require_int("subset_cap", subset_cap, 1)
    table = pair.positions(n_max)
    explored = _agreeing_sets(table, n_max, subset_cap)
    if explored is None:
        return _walk_sets(pair, table, n_max, subset_cap)
    return HypothesisReport("C", n_max, True, None, explored, inconclusive=explored > subset_cap)


def _walk_sets(
    pair: FamilyPair, table: list[tuple], n_max: int, subset_cap: int
) -> HypothesisReport:
    """Theorem C by walking the sets S of `check_theorem_c` in preorder.

    The walk is depth-first over the sieve's states: the sets that extend a
    holding set by positions from i on depend only on (i, F frontier, G
    frontier, union weight). Each state has two moves, include position i (a
    new set, checked at once) and then exclude it, and each leads to a state
    at i + 1. A state met again adds the count of sets below it, recorded
    when its walk ended, instead of walking them again; that walk met no
    violation, since the first one ends the walk. So the preorder, the
    witness (the first failing S), subsets_explored and the cap outcome are
    those of a walk over every S one by one. A state has nothing below it
    once no position is left, or once even the lightest remaining member,
    less all a frontier could save, takes the union weight past n_max
    (positions are sorted by min weight).

    It runs only after `_agreeing_sets` found a failing set or counted more
    than subset_cap sets, so it never reports that the theorem holds: ending
    within the cap without a witness contradicts the DP and raises.
    """
    pats_f = [row[1] for row in table]
    pats_g = [row[3] for row in table]
    last_f = {size: i for i, pattern in enumerate(pats_f) for size, _ in pattern}
    last_g = {size: i for i, pattern in enumerate(pats_g) for size, _ in pattern}
    lightest = [min(row[2], row[4]) for row in table]
    # The sizes each member opens: the frontier it grows an empty one to.
    opened_f = [_restrict(pattern, last_f, i) for i, pattern in enumerate(pats_f)]
    opened_g = [_restrict(pattern, last_g, i) for i, pattern in enumerate(pats_g)]
    k = len(table)
    # Sets strictly below each state whose walk has ended.
    below: dict[tuple, int] = {}
    # One frame per state on the current path: [state, next move (0 include,
    # 1 exclude, 2 done), subsets explored when it was entered].
    path: list[list] = [[(0, (), (), 0), 0, 1]] if k else []
    explored = 1
    while path:
        frame = path[-1]
        state = frame[0]
        i, front_f, front_g, weight = state
        if frame[1] == 0:
            frame[1] = 1
            weight_f = weight + _added_at(front_f, pats_f[i], table[i][2])
            weight_g = weight + _added_at(front_g, pats_g[i], table[i][4])
            if min(weight_f, weight_g) > n_max:
                continue
            explored += 1
            if explored > subset_cap:
                break
            if weight_f != weight_g:
                # The frames between their include and exclude moves, this
                # one last, hold the positions of the failing set.
                chosen = [f[0][0] for f in path if f[1] == 1]
                union_f = union_g = Multiset()
                for p in chosen:
                    union_f = union_f.union(Multiset(pats_f[p]))
                    union_g = union_g.union(Multiset(pats_g[p]))
                found = UnionWeightWitness(
                    tuple(table[p][0] for p in chosen), weight_f, weight_g, union_f, union_g
                )
                _revalidate_union_weights(pair, found)
                return HypothesisReport("C", n_max, False, found, explored)
            front_f = _grow(front_f, pats_f[i], last_f, i) if front_f else opened_f[i]
            front_g = _grow(front_g, pats_g[i], last_g, i) if front_g else opened_g[i]
            weight = weight_f
        elif frame[1] == 1:
            frame[1] = 2
            # An empty frontier, as on support-disjoint sides, stays empty.
            front_f = front_f and _restrict(front_f, last_f, i)
            front_g = front_g and _restrict(front_g, last_g, i)
        else:
            below[state] = explored - frame[2]
            path.pop()
            continue
        i += 1
        if i == k:
            continue
        # The frontiers are weighed only when the lightest member overshoots.
        overshoot = weight + lightest[i] - n_max
        if overshoot > 0 and overshoot > max(_weight(front_f), _weight(front_g)):
            continue
        child = (i, front_f, front_g, weight)
        count = below.get(child)
        if count is None:
            path.append([child, 0, explored])
        else:
            explored += count
            if explored > subset_cap:
                break
    if explored <= subset_cap:
        raise RuntimeError(
            f"theorem C walk ended within the cap without a witness ({explored} sets)"
        )
    return HypothesisReport("C", n_max, True, None, subset_cap + 1, inconclusive=True)
