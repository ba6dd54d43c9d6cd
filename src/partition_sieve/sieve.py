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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .families import FamilyIndex, FamilyPair, MultisetFamily
from .partitions import Multiset, count_partitions
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

# Explored-subset budget; exceeding it is a loud, flagged condition, never a
# silent approximation.
DEFAULT_SUBSET_CAP = 5_000_000


@dataclass(frozen=True)
class SieveResult:
    """An inclusion-exclusion run: exact table unless truncated.

    A truncated run (subset cap exceeded) carries an empty table; partial
    level sums have no meaningful exactly-j interpretation.
    """

    table: DistributionTable
    subsets_explored: int
    truncated: bool


@dataclass(frozen=True)
class DisjointnessWitness:
    """Two same-side members sharing a support element."""

    side: str  # "F" or "G"
    idx_a: FamilyIndex
    idx_b: FamilyIndex
    element: int
    multiset_a: Multiset
    multiset_b: Multiset


@dataclass(frozen=True)
class WeightWitness:
    """An aligned index whose two members have different weights."""

    idx: FamilyIndex
    weight_f: int
    weight_g: int
    multiset_f: Multiset
    multiset_g: Multiset


@dataclass(frozen=True)
class UnionWeightWitness:
    """An index set S whose two unions have different weights."""

    positions: tuple[FamilyIndex, ...]
    weight_f: int
    weight_g: int
    union_f: Multiset
    union_g: Multiset


Witness = DisjointnessWitness | WeightWitness | UnionWeightWitness


@dataclass(frozen=True)
class HypothesisReport:
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


def _added_weight(pattern: tuple[tuple[int, int], ...], union: dict[int, int]) -> int:
    get = union.get
    return sum((m - get(s, 0)) * s for s, m in pattern if m > get(s, 0))


def _apply(pattern: tuple[tuple[int, int], ...], union: dict[int, int]) -> list[tuple[int, int]]:
    """Raise union multiplicities to cover pattern; return restore info."""
    saved = []
    for s, m in pattern:
        cur = union.get(s, 0)
        if m > cur:
            saved.append((s, cur))
            union[s] = m
    return saved

def _restore(union: dict[int, int], saved: list[tuple[int, int]]) -> None:
    for s, cur in saved:
        if cur:
            union[s] = cur
        else:
            del union[s]


def sieve_distribution(
    family: MultisetFamily, n: int, subset_cap: int = DEFAULT_SUBSET_CAP
) -> SieveResult:
    """Distribution of the family-induced statistic on P(n), by sieve.

    Enumerates index subsets S depth-first over the relevant indices in
    weight order, pruning any inclusion whose union weight would exceed n
    (sound: union weight only grows when sets are added), accumulates
    N_t = sum p(n - weight(union_S)) by level, and applies the
    inclusion-exclusion transform. Independent of partition enumeration,
    which is the whole point: it cross-checks the brute-force path.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if subset_cap <= 0:
        raise ValueError(f"subset_cap must be > 0, got {subset_cap}")
    patterns = [family.member(idx).items() for idx in family.relevant_indices(n)]
    levels = [0] * (len(patterns) + 1)
    union: dict[int, int] = {}
    # One frame per subset on the current path: [next candidate, union
    # weight, undo record of the inclusion that made it]. The root is S = {}.
    path: list[list] = [[0, 0, None]]
    levels[0] = count_partitions(n)
    explored = 1
    while path:
        frame = path[-1]
        weight = frame[1]
        for i in range(frame[0], len(patterns)):
            added = _added_weight(patterns[i], union)
            if weight + added <= n:
                break
        else:
            path.pop()
            if path:
                _restore(union, frame[2])
            continue
        frame[0] = i + 1
        explored += 1
        if explored > subset_cap:
            return SieveResult(DistributionTable(n, {}), explored, True)
        levels[len(path)] += count_partitions(n - weight - added)
        path.append([i + 1, weight + added, _apply(patterns[i], union)])

    counts: dict[int, int] = {}
    top = len(levels) - 1
    for j in range(top + 1):
        e = sum((-1) ** (t - j) * comb(t, j) * levels[t] for t in range(j, top + 1))
        if e:
            counts[j] = e
    return SieveResult(DistributionTable(n, counts), explored, False)


def _annotated_positions(
    pair: FamilyPair, n_max: int
) -> list[tuple[FamilyIndex, Multiset, Multiset]]:
    """Positions relevant to n_max on either side, with both members built
    once, sorted by (min weight, strand, t) for deterministic witnesses."""
    positions = set(pair.F.relevant_indices(n_max)) | set(pair.G.relevant_indices(n_max))
    table = [(idx, pair.F.member(idx), pair.G.member(idx)) for idx in positions]
    table.sort(key=lambda row: (min(row[1].weight, row[2].weight), row[0].strand, row[0].t))
    return table


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
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    table = _annotated_positions(pair, n_max)
    for side, family, col in (("F", pair.F, 1), ("G", pair.G, 2)):
        # a is the first owner of every size it shares with b (an earlier
        # owner would clash with a first), so min() also gives the element.
        first_owner: dict[int, int] = {}
        clashes = []
        for pos, row in enumerate(table):
            for size in row[col].sizes():
                owner = first_owner.setdefault(size, pos)
                if owner != pos:
                    clashes.append((owner, pos, size))
        if clashes:
            a, b, element = min(clashes)
            witness = DisjointnessWitness(
                side, table[a][0], table[b][0], element, table[a][col], table[b][col]
            )
            _revalidate_disjointness(family, witness)
            return HypothesisReport("B", n_max, False, witness)
    for idx, member_f, member_g in table:
        if member_f.weight != member_g.weight:
            witness = WeightWitness(idx, member_f.weight, member_g.weight, member_f, member_g)
            _revalidate_weights(pair, witness)
            return HypothesisReport("B", n_max, False, witness)
    return HypothesisReport("B", n_max, True)


def check_theorem_c(
    pair: FamilyPair, n_max: int, subset_cap: int = DEFAULT_SUBSET_CAP
) -> HypothesisReport:
    """Check equal union weights for every index set S on the truncation:
    weight(union of F_i, i in S) = weight(union of G_i, i in S).

    S ranges over the positions relevant to n_max in either family,
    restricted to min(weight_F(S), weight_G(S)) <= n_max -- exactly the
    sets that can influence either sieve for n <= n_max. Enumeration is
    depth-first with the same union-weight pruning as the sieve; the first
    failing S (in deterministic order) becomes the witness.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if subset_cap <= 0:
        raise ValueError(f"subset_cap must be > 0, got {subset_cap}")
    members = [
        (idx, member_f.items(), member_g.items())
        for idx, member_f, member_g in _annotated_positions(pair, n_max)
    ]
    union_f: dict[int, int] = {}
    union_g: dict[int, int] = {}
    chosen: list[FamilyIndex] = []
    # One frame per subset on the current path: [next candidate, F union
    # weight, G union weight, undo records of the inclusion that made it].
    path: list[list] = [[0, 0, 0, None, None]]
    explored = 1
    while path:
        frame = path[-1]
        weight_f, weight_g = frame[1], frame[2]
        for i in range(frame[0], len(members)):
            idx, pat_f, pat_g = members[i]
            added_f = _added_weight(pat_f, union_f)
            added_g = _added_weight(pat_g, union_g)
            if min(weight_f + added_f, weight_g + added_g) <= n_max:
                break
        else:
            path.pop()
            if path:
                chosen.pop()
                _restore(union_f, frame[3])
                _restore(union_g, frame[4])
            continue
        frame[0] = i + 1
        explored += 1
        if explored > subset_cap:
            return HypothesisReport("C", n_max, True, None, explored, inconclusive=True)
        weight_f += added_f
        weight_g += added_g
        chosen.append(idx)
        saved_f = _apply(pat_f, union_f)
        saved_g = _apply(pat_g, union_g)
        if weight_f != weight_g:
            found = UnionWeightWitness(
                tuple(chosen),
                weight_f,
                weight_g,
                Multiset(dict(union_f)),
                Multiset(dict(union_g)),
            )
            _revalidate_union_weights(pair, found)
            return HypothesisReport("C", n_max, False, found, explored)
        path.append([i + 1, weight_f, weight_g, saved_f, saved_g])
    return HypothesisReport("C", n_max, True, None, explored)
