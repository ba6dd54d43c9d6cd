"""Partition statistics: family-induced counts and native closed forms.

A family-induced statistic counts how many family members a partition
contains: X(pi) = |{i : F_i contained in pi}|. Brute force, the sieve and
the CLI tally only these. The native statistics apply the equivalent direct
rule (e.g. "number of even part sizes") to one {size: multiplicity} map;
they exist as independent oracles for the family-induced forms, so any
disagreement localizes a bug to one of two unrelated code paths.

All statistics are deterministic, total on partitions, and return
nonnegative integers. Instances are safe for concurrent use.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

from .families import FamilyPair, MultisetFamily, doubling_complement

__all__ = [
    "FamilyStatistic",
    "NativeStatistic",
    "native",
    "pair_statistics",
]

CountsRule = Callable[[Mapping[int, int]], int]


class FamilyStatistic:
    """X(pi) = number of family members contained in pi.

    Only members of weight <= n can occur in a partition of n.
    `family.member_patterns(n)` gives those members' items, which brute
    force tallies; `counts_evaluator(n)` gives a rule that counts them in
    one {size: multiplicity} map, the independent per-map form the tests
    check the tally against.
    """

    def __init__(self, family: MultisetFamily, label: str | None = None):
        self.family = family
        self.label = label if label is not None else family.name

    def counts_evaluator(self, n: int) -> CountsRule:
        patterns = self.family.member_patterns(n)

        def rule(counts: Mapping[int, int]) -> int:
            hits = 0
            get = counts.get
            for pattern in patterns:
                for size, mult in pattern:
                    if get(size, 0) < mult:
                        break
                else:
                    hits += 1
            return hits

        return rule

    def __repr__(self) -> str:
        return f"FamilyStatistic({self.label!r})"


class NativeStatistic:
    """A named closed-form rule on the {size: multiplicity} map."""

    def __init__(self, label: str, rule: CountsRule):
        self.label = label
        self._rule = rule

    def counts_evaluator(self, n: int) -> CountsRule:
        return self._rule

    def __repr__(self) -> str:
        return f"NativeStatistic({self.label!r})"


def _even_sizes(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if s % 2 == 0)


def _repeated_sizes(counts: Mapping[int, int]) -> int:
    return sum(1 for m in counts.values() if m >= 2)


def _square_sizes(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if math.isqrt(s) ** 2 == s)


def _mult_ge_size(counts: Mapping[int, int]) -> int:
    return sum(1 for s, m in counts.items() if m >= s)


def _mod6_x(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if s % 6 in (2, 3, 4))


def _mod6_y_prose(counts: Mapping[int, int]) -> int:
    # Literal reading: any multiple of 3 counts, repetition only matters for
    # the rest. Diverges from the weight-matched mod6 family at n=6.
    return sum(1 for s, m in counts.items() if s % 3 == 0 or m >= 2)


def _consecutive_even(counts: Mapping[int, int]) -> int:
    return sum(1 for s in counts if s % 2 == 0 and s + 2 in counts)


def _consecutive_repeated(counts: Mapping[int, int]) -> int:
    return sum(1 for s, m in counts.items() if m >= 2 and counts.get(s + 1, 0) >= 2)


_SIMPLE_NATIVES: dict[str, CountsRule] = {
    "even_sizes": _even_sizes,
    "repeated_sizes": _repeated_sizes,
    "square_sizes": _square_sizes,
    "mult_ge_size": _mult_ge_size,
    "mod6_X": _mod6_x,
    "mod6_Y_prose": _mod6_y_prose,
    "consecutive_even": _consecutive_even,
    "consecutive_repeated": _consecutive_repeated,
}

NATIVE_NAMES = tuple(sorted(_SIMPLE_NATIVES)) + ("andrews_Y", "mult_ge", "not_in_M2")


def native(
    name: str,
    *,
    d: int | None = None,
    m1: Iterable[int] | None = None,
) -> NativeStatistic:
    """Construct a native statistic by name.

    mult_ge requires d >= 1; not_in_M2 and andrews_Y require the explicit
    M1 list. The remaining names take no parameters: even_sizes,
    repeated_sizes, square_sizes, mult_ge_size, mod6_X, mod6_Y_prose,
    consecutive_even, consecutive_repeated.
    """
    if name == "mult_ge":
        if d is None or d < 1:
            raise ValueError(f"mult_ge requires an integer d >= 1, got {d!r}")
        return NativeStatistic(
            f"mult_ge({d})",
            lambda counts, _d=d: sum(1 for m in counts.values() if m >= _d),
        )
    if name in ("not_in_M2", "andrews_Y"):
        if m1 is None:
            raise ValueError(f"{name} requires the M1 list")
        m1set = frozenset(m1)
        if name == "not_in_M2":
            m2 = frozenset(doubling_complement(m1set))
            return NativeStatistic(
                "not_in_M2",
                lambda counts, _m2=m2: sum(1 for s in counts if s not in _m2),
            )
        return NativeStatistic(
            "andrews_Y",
            lambda counts, _m1=m1set: sum(
                1 for s, m in counts.items() if s not in _m1 or m >= 2
            ),
        )
    if d is not None or m1 is not None:
        raise ValueError(f"native {name!r} takes no parameters")
    try:
        rule = _SIMPLE_NATIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown native statistic {name!r}; known: {', '.join(NATIVE_NAMES)}"
        ) from None
    return NativeStatistic(name, rule)


def pair_statistics(pair: FamilyPair) -> tuple[FamilyStatistic, FamilyStatistic]:
    """The (X, Y) statistics induced by a pair's F and G families."""
    return (
        FamilyStatistic(pair.F, label=f"{pair.name}.X"),
        FamilyStatistic(pair.G, label=f"{pair.name}.Y"),
    )
