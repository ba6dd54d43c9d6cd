"""Indexed families of multisets and the built-in catalog of statistic pairs.

An infinite list F_1, F_2, ... of multisets is presented finitely as a
collection of *strands*: either a polynomial template evaluated at
t = tmin, tmin+1, ... (sizes quadratic in t, multiplicities linear in t),
or a single explicit multiset. Quadratic sizes and linear multiplicities
cover every built-in pair (the squares pair needs t^2 sizes and
multiplicity t).

A template strand is valid for every t >= tmin or not at all: sizes and
multiplicities are at least 1 and the weight never decreases, decided
exactly from the coefficients when the strand is built. A family can
therefore be read only up to the members of weight <= n.

A FamilyPair holds two families with aligned strands; the alignment
realizes the per-index pairing F_i <-> G_i that the disjoint-family
hypothesis checker relies on.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

from .partitions import Multiset

__all__ = [
    "BUILTIN_PAIRS",
    "FamilyError",
    "FamilyIndex",
    "FamilyPair",
    "MultisetFamily",
    "Strand",
    "StrandEntry",
    "builtin_pair",
    "parse_family_pair",
    "render_family_pair",
]

class FamilyError(ValueError):
    """Schema or invariant violation in a family, strand, or pair document."""


def _poly_eval(coeffs: Sequence[int], t: int) -> int:
    value = 0
    for c in coeffs:
        value = value * t + c
    return value


def _least_value(coeffs: tuple[int, int, int], tmin: int) -> tuple[int, int] | None:
    """(value, t) of the least value of a*t^2 + b*t + c over integers
    t >= tmin, at the first t that takes it; None if it falls without bound."""
    a, b, _ = coeffs
    if a < 0 or (a == 0 and b < 0):
        return None
    candidates = {tmin}
    if a > 0:
        vertex = -b // (2 * a)  # a convex parabola's integer minimum is next to it
        candidates |= {max(tmin, vertex), max(tmin, vertex + 1)}
    return min((_poly_eval(coeffs, t), t) for t in candidates)


@dataclass(frozen=True)
class StrandEntry:
    """One template entry: size(t) = c2*t^2 + c1*t + c0, mult(t) = m1*t + m0."""

    size: tuple[int, int, int]
    mult: tuple[int, int]

    def __post_init__(self):
        for name, coeffs, arity in (("size", self.size, 3), ("mult", self.mult, 2)):
            if len(coeffs) != arity or not all(isinstance(c, int) for c in coeffs):
                raise FamilyError(
                    f"{name} must be {arity} integer coefficients, got {coeffs!r}"
                )

    def size_at(self, t: int) -> int:
        return _poly_eval(self.size, t)

    def mult_at(self, t: int) -> int:
        return _poly_eval(self.mult, t)

    def weight_poly(self) -> tuple[int, int, int, int]:
        """Coefficients (degree 3..0) of size(t) * mult(t)."""
        c2, c1, c0 = self.size
        m1, m0 = self.mult
        return (c2 * m1, c2 * m0 + c1 * m1, c1 * m0 + c0 * m1, c0 * m0)


@dataclass(frozen=True)
class Strand:
    """A strand of family members: a polynomial template over t >= tmin,
    or a single explicit multiset (whose only index is t = tmin)."""

    entries: tuple[StrandEntry, ...] = ()
    explicit: Multiset | None = None
    tmin: int = 1

    def __post_init__(self):
        if (self.explicit is None) == (not self.entries):
            raise FamilyError("strand needs either template entries or an explicit multiset")
        if self.explicit is not None:
            if not self.explicit:
                raise FamilyError("explicit strand multiset must be nonempty")
            return
        # Weight must grow without bound along the strand, otherwise the
        # finite-truncation contract (relevant indices <= n) breaks down.
        wpoly = [0, 0, 0, 0]
        for entry in self.entries:
            for i, c in enumerate(entry.weight_poly()):
                wpoly[i] += c
        degree = next((3 - i for i, c in enumerate(wpoly) if c != 0), -1)
        if degree < 1 or wpoly[3 - degree] < 0:
            raise FamilyError(
                "strand weight must tend to infinity (needs a positive leading "
                f"size or multiplicity coefficient), weight poly {wpoly}"
            )
        for k, entry in enumerate(self.entries):
            for name, coeffs in (("size", entry.size), ("multiplicity", (0, *entry.mult))):
                least = _least_value(coeffs, self.tmin)
                if least is None:
                    raise FamilyError(f"entry {k}: {name} falls without bound as t grows")
                if least[0] < 1:
                    raise FamilyError(f"entry {k}: {name} {least[0]} < 1 at t={least[1]}")
        # w(t+1) - w(t) for w = c3*t^3 + c2*t^2 + c1*t + c0. The weight tends
        # to infinity, so this difference has a least value.
        c3, c2, c1, _ = wpoly
        step, t = _least_value((3 * c3, 3 * c3 + 2 * c2, c3 + c2 + c1), self.tmin)
        if step < 0:
            raise FamilyError(
                f"strand weight decreases from t={t} ({self.weight_at(t)}) "
                f"to t={t + 1} ({self.weight_at(t + 1)})"
            )

    def is_explicit(self) -> bool:
        return self.explicit is not None

    def weight_at(self, t: int) -> int:
        if self.explicit is not None:
            return self.explicit.weight
        return sum(e.size_at(t) * e.mult_at(t) for e in self.entries)

    def multiset_at(self, t: int) -> Multiset:
        if t < self.tmin:
            raise FamilyError(f"t={t} below strand domain t >= {self.tmin}")
        if self.explicit is not None:
            if t != self.tmin:
                raise FamilyError(f"explicit strand has the single index t={self.tmin}")
            return self.explicit
        return Multiset((e.size_at(t), e.mult_at(t)) for e in self.entries)


class FamilyIndex(NamedTuple):
    """Position of one member: which strand, and the strand parameter t."""

    strand: int
    t: int


@dataclass(frozen=True)
class MultisetFamily:
    """An indexed family of nonempty multisets of positive integers."""

    name: str
    strands: tuple[Strand, ...]

    def __post_init__(self):
        if not self.strands:
            raise FamilyError(f"family {self.name!r} has no strands")

    def member(self, idx: FamilyIndex) -> Multiset:
        if not 0 <= idx.strand < len(self.strands):
            raise FamilyError(f"no strand {idx.strand} in family {self.name!r}")
        return self.strands[idx.strand].multiset_at(idx.t)

    def relevant_indices(self, n: int) -> list[FamilyIndex]:
        """All indices whose member weight is <= n, sorted by (weight, strand, t).

        Only these members can occur inside a partition of n. Each template
        strand is read until its weight first exceeds n; its weight never
        decreases (checked when the strand is built), so no later index
        can weigh <= n.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        found: list[tuple[int, int, int]] = []
        for si, strand in enumerate(self.strands):
            if strand.is_explicit():
                weight = strand.weight_at(strand.tmin)
                if weight <= n:
                    found.append((weight, si, strand.tmin))
                continue
            t = strand.tmin
            while (weight := strand.weight_at(t)) <= n:
                found.append((weight, si, t))
                t += 1
        found.sort()
        return [FamilyIndex(si, t) for _, si, t in found]

    def member_patterns(self, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The (size, multiplicity) items of every member of weight <= n,
        in `relevant_indices` order."""
        return tuple(self.member(idx).items() for idx in self.relevant_indices(n))


@dataclass(frozen=True)
class FamilyPair:
    """Two families with aligned strands (same count, same domains).

    The alignment pairs member F_(s,t) with G_(s,t); it is what the
    per-index weight-equality hypothesis is checked against. Union-weight
    checking uses the same shared index positions.
    """

    name: str
    F: MultisetFamily
    G: MultisetFamily

    def __post_init__(self):
        fs, gs = self.F.strands, self.G.strands
        if len(fs) != len(gs):
            raise FamilyError(
                f"pair {self.name!r}: F has {len(fs)} strands but G has {len(gs)}"
            )
        for si, (a, b) in enumerate(zip(fs, gs)):
            if a.is_explicit() != b.is_explicit() or a.tmin != b.tmin:
                raise FamilyError(
                    f"pair {self.name!r}: strand {si} domains differ between F and G"
                )


def _template_strand(
    entries: Iterable[tuple[tuple[int, int, int], tuple[int, int]]], tmin: int = 1
) -> Strand:
    return Strand(
        entries=tuple(StrandEntry(size, mult) for size, mult in entries), tmin=tmin
    )


def _single(size_poly: tuple[int, int, int], mult_poly: tuple[int, int], tmin: int = 1) -> Strand:
    return _template_strand([(size_poly, mult_poly)], tmin=tmin)


def _euler_pair() -> FamilyPair:
    return FamilyPair(
        "euler",
        MultisetFamily("euler.F", (_single((0, 2, 0), (0, 1)),)),  # {2t}
        MultisetFamily("euler.G", (_single((0, 1, 0), (0, 2)),)),  # {t,t}
    )


def _squares_pair() -> FamilyPair:
    return FamilyPair(
        "squares",
        MultisetFamily("squares.F", (_single((1, 0, 0), (0, 1)),)),  # {t^2}
        MultisetFamily("squares.G", (_single((0, 1, 0), (1, 0)),)),  # t copies of t
    )


def _mod6_pair() -> FamilyPair:
    # Weight-matched form: F lists the sizes = 2,3,4 (mod 6) as singletons;
    # G pairs them with {r,r} for r = 1 (mod 3), the odd multiples of 3 as
    # singletons, and {r,r} for r = 2 (mod 3). Weights match strandwise:
    # 6t+2 = 2(3t+1), 6t+3 = 6t+3, 6t+4 = 2(3t+2).
    F = MultisetFamily(
        "mod6.F",
        (
            _single((0, 6, 2), (0, 1), tmin=0),
            _single((0, 6, 3), (0, 1), tmin=0),
            _single((0, 6, 4), (0, 1), tmin=0),
        ),
    )
    G = MultisetFamily(
        "mod6.G",
        (
            _single((0, 3, 1), (0, 2), tmin=0),
            _single((0, 6, 3), (0, 1), tmin=0),
            _single((0, 3, 2), (0, 2), tmin=0),
        ),
    )
    return FamilyPair("mod6", F, G)


def mod6_prose_family() -> MultisetFamily:
    """The literal reading of mod6's Y as a family: every multiple of 3
    present, plus every repeated size not divisible by 3. Unlike mod6.G it
    also counts the even multiples of 3, so its distribution differs from
    mod6.X's, first at n=6 (`compare --prose-y`)."""
    return MultisetFamily(
        "mod6_Y_prose",
        (
            _single((0, 3, 3), (0, 1), tmin=0),  # {3t+3}
            _single((0, 3, 1), (0, 2), tmin=0),  # {3t+1, 3t+1}
            _single((0, 3, 2), (0, 2), tmin=0),  # {3t+2, 3t+2}
        ),
    )


def _glaisher_pair(d: int) -> FamilyPair:
    if not isinstance(d, int) or d <= 1:
        raise FamilyError(f"glaisher requires an integer d > 1, got {d!r}")
    return FamilyPair(
        f"glaisher(d={d})",
        MultisetFamily(f"glaisher(d={d}).F", (_single((0, d, 0), (0, 1)),)),  # {dt}
        MultisetFamily(f"glaisher(d={d}).G", (_single((0, 1, 0), (0, d)),)),  # d copies of t
    )


def _remmel_consecutive_pair() -> FamilyPair:
    F = MultisetFamily(
        "remmel_consecutive.F",
        (_template_strand([((0, 2, 0), (0, 1)), ((0, 2, 2), (0, 1))]),),  # {2t, 2t+2}
    )
    G = MultisetFamily(
        "remmel_consecutive.G",
        (_template_strand([((0, 1, 0), (0, 2)), ((0, 1, 1), (0, 2))]),),  # {t,t,t+1,t+1}
    )
    return FamilyPair("remmel_consecutive", F, G)


def doubling_complement(m1: Iterable[int]) -> set[int]:
    """M2 = M1 minus the doubles of M1 (members m with m odd or m//2 not in M1)."""
    m1set = set(m1)
    return {m for m in m1set if m % 2 == 1 or m // 2 not in m1set}


def _andrews_pair(m1: Sequence[int], bound: int) -> FamilyPair:
    if not isinstance(bound, int) or bound < 0:
        raise FamilyError(f"andrews requires an integer bound >= 0, got {bound!r}")
    m1set = set()
    for m in m1:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise FamilyError(f"M1 entries must be integers >= 1, got {m!r}")
        m1set.add(m)
    if not m1set:
        raise FamilyError("M1 must be nonempty")
    for m in sorted(m1set):
        if 2 * m <= bound and 2 * m not in m1set:
            raise FamilyError(
                f"M1 is not closed under doubling within the bound: {m} is in M1 "
                f"but {2 * m} <= {bound} is not"
            )
    # Size 1 or 2 always lies outside M2, so the family is never empty;
    # members heavier than the bound are never relevant to its tables.
    working = max(bound, 2)
    m2 = doubling_complement(m1set)
    f_strands: list[Strand] = []
    g_strands: list[Strand] = []
    for s in range(1, working + 1):
        if s in m2:
            continue
        f_strands.append(Strand(explicit=Multiset({s: 1})))
        if s in m1set:
            # s is a double of an M1 member; the partner swaps it for {s/2, s/2}.
            g_strands.append(Strand(explicit=Multiset({s // 2: 2})))
        else:
            g_strands.append(Strand(explicit=Multiset({s: 1})))
    name = f"andrews(bound={working})"
    return FamilyPair(
        name,
        MultisetFamily(name + ".F", tuple(f_strands)),
        MultisetFamily(name + ".G", tuple(g_strands)),
    )


# name -> (parameter summary, what the pair verifies)
BUILTIN_PAIRS: dict[str, tuple[str, str]] = {
    "euler": (
        "",
        "X: even part sizes present; Y: repeated part sizes. Identically "
        "distributed; j=0 recovers Euler's distinct-parts = odd-parts theorem.",
    ),
    "squares": (
        "",
        "X: part sizes that are perfect squares; Y: part sizes i with "
        "multiplicity >= i. Disjoint-family criterion (theorem B).",
    ),
    "mod6": (
        "",
        "X: part sizes = 2,3,4 (mod 6); Y: odd multiples of 3 present, plus "
        "repeated sizes not divisible by 3 (weight-matched form; use "
        "--prose-y on compare for the divergent 'any multiple of 3' reading).",
    ),
    "glaisher": (
        "--d D (D > 1)",
        "X: part sizes divisible by D; Y: part sizes with multiplicity >= D. "
        "Glaisher's theorem at j=0; disjoint-family criterion (theorem B).",
    ),
    "andrews": (
        "--m1-file FILE",
        "X: part sizes outside M2 = M1 - 2M1; Y: part sizes i with i not in "
        "M1, or i in M1 and repeated. Andrews' theorem at j=0; M1 must be "
        "doubling-closed within the working bound.",
    ),
    "remmel_consecutive": (
        "",
        "X: adjacent even sizes 2i,2i+2 both present; Y: adjacent sizes i,i+1 "
        "both repeated. Passes the union-weight criterion (theorem C) while "
        "failing theorem B's disjointness.",
    ),
}


def builtin_pair(
    name: str,
    *,
    d: int | None = None,
    m1: Sequence[int] | None = None,
    bound: int | None = None,
) -> FamilyPair:
    """Construct a catalog pair by name.

    glaisher requires d > 1; andrews requires m1 (the explicit M1 list) and
    bound (the largest working n, which caps the generated strands). Other
    pairs take no parameters.
    """
    if name not in BUILTIN_PAIRS:
        raise FamilyError(
            f"unknown pair {name!r}; known: {', '.join(sorted(BUILTIN_PAIRS))}"
        )
    if name != "glaisher" and d is not None:
        raise FamilyError(f"pair {name!r} takes no d parameter")
    if name != "andrews" and (m1 is not None or bound is not None):
        raise FamilyError(f"pair {name!r} takes no m1/bound parameters")
    if name == "euler":
        return _euler_pair()
    if name == "squares":
        return _squares_pair()
    if name == "mod6":
        return _mod6_pair()
    if name == "glaisher":
        if d is None:
            raise FamilyError("glaisher requires d")
        return _glaisher_pair(d)
    if name == "andrews":
        if m1 is None or bound is None:
            raise FamilyError("andrews requires m1 and bound")
        return _andrews_pair(m1, bound)
    return _remmel_consecutive_pair()


# --- pair-file documents ---------------------------------------------------
#
# {
#   "name": "euler",
#   "tmin": 1,
#   "F": [ {"entries": [{"size": [0,2,0], "mult": [0,1]}]} ],
#   "G": [ {"entries": [{"size": [0,1,0], "mult": [0,2]}]} ]
# }
#
# size [c2,c1,c0] means c2*t^2 + c1*t + c0; mult [m1,m0] means m1*t + m0.
# A strand may instead be {"explicit": [[size, mult], ...]}.


def _require_int(value: Any, where: str) -> int:
    if type(value) is not int:
        raise FamilyError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_strand(
    raw: Any, tmin: int, side: str, i: int, built: dict[tuple, Strand]
) -> Strand:
    """Validate and build the strand that error locations call
    "{side} strand {i}". `built` maps the key of each strand validated so
    far -- its (size, mult) pairs, or its entries' (size, mult)
    coefficients -- to the Strand made for it, so identical strands are
    built once. A key is made only from values that passed every check:
    True == 1 and their hashes match, so an unchecked key could stand for a
    bad strand."""
    if type(raw) is not dict:
        raise FamilyError(f"{side} strand {i}: strand must be an object, got {type(raw).__name__}")
    if len(raw) == 1 and "explicit" in raw:
        pairs = raw["explicit"]
        if type(pairs) is not list or not pairs:
            raise FamilyError(
                f"{side} strand {i}: 'explicit' must be a nonempty array of [size, mult]"
            )
        elements = []
        for k, pair in enumerate(pairs):
            if type(pair) is not list or len(pair) != 2:
                raise FamilyError(f"{side} strand {i} element {k}: expected [size, mult]")
            size = pair[0]
            mult = pair[1]
            # Tested here too, so a location string is built only to raise it.
            if type(size) is not int:
                _require_int(size, f"{side} strand {i} element {k} size")
            if type(mult) is not int:
                _require_int(mult, f"{side} strand {i} element {k} mult")
            if size < 1 or mult < 1:
                raise FamilyError(f"{side} strand {i} element {k}: size and mult must be >= 1")
            elements.append((size, mult))
        key = tuple(elements)
        strand = built.get(key)
        if strand is None:
            strand = built[key] = Strand(explicit=Multiset(key), tmin=tmin)
        return strand
    if len(raw) == 1 and "entries" in raw:
        entries = raw["entries"]
        if type(entries) is not list or not entries:
            raise FamilyError(f"{side} strand {i}: 'entries' must be a nonempty array")
        parsed = []
        for k, entry in enumerate(entries):
            if type(entry) is not dict or entry.keys() != {"size", "mult"}:
                raise FamilyError(f"{side} strand {i} entry {k}: expected keys 'size' and 'mult'")
            size = entry["size"]
            mult = entry["mult"]
            if type(size) is not list or len(size) != 3:
                raise FamilyError(f"{side} strand {i} entry {k}: 'size' must be [c2, c1, c0]")
            if type(mult) is not list or len(mult) != 2:
                raise FamilyError(f"{side} strand {i} entry {k}: 'mult' must be [m1, m0]")
            for name, coeffs in (("size", size), ("mult", mult)):
                for c in coeffs:
                    if type(c) is not int:
                        _require_int(c, f"{side} strand {i} entry {k} {name}")
            parsed.append((tuple(size), tuple(mult)))
        key = tuple(parsed)
        strand = built.get(key)
        if strand is None:
            try:
                strand = Strand(
                    entries=tuple(StrandEntry(size, mult) for size, mult in key), tmin=tmin
                )
            except FamilyError as exc:
                raise FamilyError(f"{side} strand {i}: {exc}") from None
            built[key] = strand
        return strand
    raise FamilyError(
        f"{side} strand {i}: strand must have exactly one of 'entries' or 'explicit'"
    )


def parse_family_pair(document: str | bytes | dict) -> FamilyPair:
    """Build a validated FamilyPair from a JSON document: its text, or the
    dict that `json.loads` makes of it.

    Violations are reported with their strand/entry location. A template
    strand is accepted only if, for every t >= tmin, its sizes and
    multiplicities are >= 1 and its weight does not decrease; this is
    decided exactly from the coefficients, so an invalid strand fails here
    and never later, whatever n a command asks for. Strands are validated
    in one pass, and identical strands (on either side) are built once and
    shared.
    """
    if isinstance(document, (str, bytes)):
        try:
            data = json.loads(document)
        except (ValueError, RecursionError) as exc:
            # ValueError covers syntax errors and integers over the digit limit;
            # RecursionError, nesting deeper than the decoder's stack.
            raise FamilyError(f"invalid JSON: {exc}") from None
    else:
        data = document
    if type(data) is not dict:
        raise FamilyError("pair document must be a JSON object")
    unknown = set(data) - {"name", "tmin", "F", "G"}
    if unknown:
        raise FamilyError(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    for key in ("name", "F", "G"):
        if key not in data:
            raise FamilyError(f"missing required key {key!r}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise FamilyError("'name' must be a nonempty string")
    tmin = _require_int(data.get("tmin", 1), "'tmin'")
    sides = {}
    built: dict[tuple, Strand] = {}
    for side in ("F", "G"):
        raw_strands = data[side]
        if type(raw_strands) is not list:
            raise FamilyError(f"'{side}' must be an array of strands")
        if not raw_strands:
            raise FamilyError(f"'{side}' must contain at least one strand")
        strands = tuple(
            [_parse_strand(raw, tmin, side, i, built) for i, raw in enumerate(raw_strands)]
        )
        sides[side] = MultisetFamily(f"{name}.{side}", strands)
    return FamilyPair(name, sides["F"], sides["G"])


def render_family_pair(pair: FamilyPair) -> dict[str, Any]:
    """The canonical pair document for a FamilyPair; inverse of parse."""
    tmins = {s.tmin for s in pair.F.strands} | {s.tmin for s in pair.G.strands}
    if len(tmins) != 1:
        raise FamilyError("only pairs with one uniform tmin can be rendered")
    doc: dict[str, Any] = {"name": pair.name, "tmin": tmins.pop()}
    for side, family in (("F", pair.F), ("G", pair.G)):
        rendered = []
        for strand in family.strands:
            if strand.explicit is not None:
                rendered.append({"explicit": [[s, m] for s, m in strand.explicit.items()]})
            else:
                rendered.append(
                    {
                        "entries": [
                            {"size": list(e.size), "mult": list(e.mult)}
                            for e in strand.entries
                        ]
                    }
                )
        doc[side] = rendered
    return doc
