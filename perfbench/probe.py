"""Program-side set-up of a workload, a probe that times it, and the
calibration kernel that measures the machine's speed.

Run as ``python3 perfbench/probe.py PLAN.json`` in a fresh interpreter, it
performs the set-up the plan names and prints two numbers: the seconds
from its first statement until the first job could start (``import
partition_sieve``, building the built-in pairs, parsing the workload's
pair files), then the median seconds of the calibration kernel in the same
interpreter. ``run.py`` imports ``setup`` and ``kernel_seconds`` from here.
"""

import sys
import time

START = time.perf_counter()

import json  # noqa: E402  (timed: the package imports it too)
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def build_pair(ps, key: str, m1: list[int]):
    """A built-in pair from its key: "euler", "glaisher:3", "andrews:600"."""
    name, _, arg = key.partition(":")
    if name == "glaisher":
        return ps.builtin_pair("glaisher", d=int(arg))
    if name == "andrews":
        return ps.builtin_pair("andrews", m1=m1, bound=int(arg))
    return ps.builtin_pair(name)


def setup(plan: dict):
    """Import the package, build the plan's pairs and parse its pair files.
    Returns the package and {key or pair-file path: FamilyPair}."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import partition_sieve as ps

    pairs = {key: build_pair(ps, key, plan["m1"]) for key in plan["builtin"]}
    for path in plan["pair_files"]:
        pairs[path] = ps.parse_family_pair(Path(path).read_text())
    return ps, pairs


def _descending(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _descending(n - part, part):
            yield (part, *rest)


def kernel_seconds() -> float:
    """Time one run of fixed pure-Python work of the kind the program's hot
    loops do: a generator of tuples, a Counter per item, a tally. It never
    calls the program, so only the machine's speed changes its time."""
    from collections import Counter

    start = time.perf_counter()
    tally = Counter()
    for parts in _descending(14, 14):
        counts = Counter(parts)
        tally[sum(1 for size in counts if size % 2 == 0)] += 1
    return time.perf_counter() - start


if __name__ == "__main__":
    setup(json.loads(Path(sys.argv[1]).read_text()))
    elapsed = time.perf_counter() - START
    kernel = sorted(kernel_seconds() for _ in range(21))[10]
    print(elapsed, kernel)
