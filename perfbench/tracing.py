"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each program module from outside
the package. The modules bind these names at import time (``from .sieve
import sieve_distribution``), so each wrapper replaces the function under
every name that binds it, in every ``partition_sieve`` module.

Layer entry points (``cli`` commands, brute force, the sieve, the checkers,
pair-file parsing) record spans: name, start, end, parent span and job id.
Calls made once per partition or per subset (enumeration steps, the
statistic rule, ``count_partitions``, family member look-ups) would be
millions of spans, so they only add their count and time to their layer's
totals and to the enclosing span's child time. A span's self time is its
duration minus the time its child spans and calls cover. Each timed call
also carries the cost of its own two clock reads.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Counts that must repeat exactly for the same seed.
DETERMINISTIC = (
    "partitions.enum_items",
    "partitions.count_calls",
    "sieve.sieve_subsets",
    "sieve.check_c_subsets",
)


class Tracer:
    """In-memory spans and per-layer totals for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job id)
        self.job = None
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Zero the per-layer totals (spans are kept)."""
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._open.append([self._next_id, name, perf_counter(), 0.0])

    def end(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._open.pop()
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end, parent and parent[0], self.job))
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child

    def leaf(self, name: str, seconds: float, calls: int = 1) -> None:
        self.calls[name] += calls
        self.seconds[name] += seconds
        if self._open:
            self._open[-1][3] += seconds

    # --- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf(name, perf_counter() - start)

        return traced

    def _enumeration(self, fn):
        @functools.wraps(fn)
        def traced(n):
            inner = fn(n)
            items = 0
            busy = 0.0
            try:
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - start
                        return
                    busy += perf_counter() - start
                    items += 1
                    yield item
            finally:
                self.leaf("partitions.enum", busy, items)

        return traced

    def _evaluator(self, method):
        @functools.wraps(method)
        def traced(stat, n):
            rule = method(stat, n)
            leaf = self.leaf

            def timed_rule(counts):
                start = perf_counter()
                value = rule(counts)
                leaf("statistics.rule", perf_counter() - start)
                return value

            return timed_rule

        return traced

    def _sieve_result(self, result) -> None:
        self.counts["sieve.subsets"] += result.subsets_explored
        self.counts["sieve.truncated"] += result.truncated

    def _check_c_result(self, report) -> None:
        self.counts["sieve.check_c_subsets"] += report.subsets_explored
        self.counts["sieve.check_c_inconclusive"] += report.inconclusive

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the program's functions under every name that binds them."""
        from partition_sieve import distribution, families, partitions, sieve, statistics

        functions = [
            (partitions.count_partitions, self._leaf("partitions.count", partitions.count_partitions)),
            (partitions.descending_part_sequences, self._enumeration(partitions.descending_part_sequences)),
            (distribution.distribution_bruteforce,
             self._span("distribution.brute", distribution.distribution_bruteforce)),
            (distribution.compare, self._span("distribution.compare", distribution.compare)),
            (sieve.sieve_distribution,
             self._span("sieve.sieve", sieve.sieve_distribution, self._sieve_result)),
            (sieve.check_theorem_b, self._span("sieve.check_b", sieve.check_theorem_b)),
            (sieve.check_theorem_c,
             self._span("sieve.check_c", sieve.check_theorem_c, self._check_c_result)),
            (families.parse_family_pair, self._span("families.parse", families.parse_family_pair)),
        ]
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "partition_sieve" or name.startswith("partition_sieve.")
        ]
        for original, wrapper in functions:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        methods = [
            (families.MultisetFamily, "member", lambda fn: self._leaf("families.member", fn)),
            (families.MultisetFamily, "relevant_indices", lambda fn: self._leaf("families.relevant", fn)),
            (statistics.FamilyStatistic, "counts_evaluator", self._evaluator),
            (statistics.NativeStatistic, "counts_evaluator", self._evaluator),
        ]
        for cls, attr, wrap in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrap(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- metrics -------------------------------------------------------------

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics (named in BENCHMARK.json) from the totals since
        the last reset, with times multiplied by `scale`; trace.overhead_s
        is filled in by the caller."""
        calls, counts = self.calls, self.counts
        secs = {name: seconds * scale for name, seconds in self.seconds.items()}
        own = {name: seconds * scale for name, seconds in self.self_seconds.items()}
        secs, own = defaultdict(float, secs), defaultdict(float, own)

        def rate(work, seconds):
            return work / seconds if seconds else 0.0

        return {
            "partitions.enum_items": calls["partitions.enum"],
            "partitions.enum_s": secs["partitions.enum"],
            "partitions.count_calls": calls["partitions.count"],
            "partitions.count_s": secs["partitions.count"],
            "statistics.rule_calls": calls["statistics.rule"],
            "statistics.rule_s": secs["statistics.rule"],
            "distribution.brute_calls": calls["distribution.brute"],
            "distribution.brute_s": secs["distribution.brute"],
            "distribution.brute_self_s": own["distribution.brute"],
            "distribution.partitions_per_s": rate(calls["partitions.enum"], secs["distribution.brute"]),
            "sieve.sieve_calls": calls["sieve.sieve"],
            "sieve.sieve_s": secs["sieve.sieve"],
            "sieve.sieve_self_s": own["sieve.sieve"],
            "sieve.sieve_subsets": counts["sieve.subsets"],
            "sieve.sieve_subsets_per_s": rate(counts["sieve.subsets"], secs["sieve.sieve"]),
            "sieve.sieve_truncated": counts["sieve.truncated"],
            "sieve.check_b_calls": calls["sieve.check_b"],
            "sieve.check_b_s": secs["sieve.check_b"],
            "sieve.check_c_calls": calls["sieve.check_c"],
            "sieve.check_c_s": secs["sieve.check_c"],
            "sieve.check_c_subsets": counts["sieve.check_c_subsets"],
            "sieve.check_c_inconclusive": counts["sieve.check_c_inconclusive"],
            "families.parse_calls": calls["families.parse"],
            "families.parse_s": secs["families.parse"],
            "families.relevant_calls": calls["families.relevant"],
            "families.relevant_s": secs["families.relevant"],
            "families.member_calls": calls["families.member"],
            "families.member_s": secs["families.member"],
            "cli.cmd_calls": calls["cli.cmd"],
            "cli.cmd_s": secs["cli.cmd"],
            "cli.cmd_self_s": own["cli.cmd"],
            "cli.stdout_bytes": counts["cli.stdout_bytes"],
        }

    def shares(self, wall: float) -> dict[str, float]:
        """Share of traced wall time inside brute-force spans and inside
        sieve/checker spans, children included."""
        sieve_s = sum(self.seconds[k] for k in ("sieve.sieve", "sieve.check_b", "sieve.check_c"))
        return {"brute": self.seconds["distribution.brute"] / wall, "sieve": sieve_s / wall}
