"""Seeded job lists for the three benchmark workloads, and the references
the benchmark checks each job against.

Every input the program sees -- CLI argument lists, pair files, library
arguments -- is made here from the workload seed. The seed draws pairs,
sides, formats, strata assignments and job order; the spread of work is
fixed per workload, so different seeds carry comparable work:

* brute:   every stratum of n holds each built-in pair once (per-partition
           cost differs about 2x between pairs, so drawing pairs freely
           would let the seed move the total);
* sieve:   strata are levels of work (the number of index subsets with
           union weight <= n), and n is chosen per pair to reach the level;
* overlap: every pool file appears equally often, and the seed assigns
           the n strata and formats across the files.

Library references are computed here without the library's algorithms:
coin-change partition counts, a bounded-multiplicity count for e_0, and
theorem verdicts known by construction. CLI references are recorded once
(``run.py --record``) into references.json; see README.md.

The program-side set-up lives in probe.py, which times it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("brute", "sieve", "overlap")
FORMATS = ("table", "csv", "json")

# Andrews' M1: k * 2^b for k in {1, 3, 5}; closed under doubling up to 2048,
# so every bound used below is valid. M2 = M1 - 2*M1 = {1, 3, 5}.
M1 = tuple(sorted(k << b for k in (1, 3, 5) for b in range(12) if k << b <= 2048))
M2 = frozenset(m for m in M1 if m % 2 or m // 2 not in M1)

# --- brute: in-process CLI dist/compare, brute-force enumeration ------------
BRUTE_DIST_N = (23, 27, 31, 35, 39)
BRUTE_COMPARE_N = (21, 25, 29)  # each job compares n-1 and n
BRUTE_PAIRS = ("euler", "squares", "mod6", "glaisher", "remmel_consecutive", "andrews")
GLAISHER_D = (2, 3, 4)

# --- sieve: library sieve and checkers on support-disjoint pairs -----------
# Levels are subset counts (the DFS visits exactly the index subsets whose
# union weight is <= n); each pair gets the smallest n reaching the level.
SIEVE_LEVELS = (300, 420, 600, 850, 1200, 1700, 2400)
# Every pair once per level: two do "sieve" (F and G), two do "check_c".
SIEVE_PAIRS = ("euler", "mod6", "glaisher", "andrews")  # squares cannot reach the levels
CHECK_B_N = (50, 70, 90, 110)
CHECK_B_PAIRS = ("euler", "squares", "mod6", "glaisher")
ANDREWS_B_BOUNDS = (250, 300, 350, 400)  # theorem B's O(k^2) disjointness scan

# --- overlap: in-process CLI on generated pair files with overlapping members
HOLDING_FILES = 12
VIOLATING_FILES = 6
OVERLAP_B_N = (40, 90, 140)
OVERLAP_C_N = (40, 60, 80, 100, 120, 140)
OVERLAP_SIEVE_N = (18, 22, 26, 30)
ROBUST_STRANDS = (1200, 1500)
ROBUST_N = (10, 20)
ROBUST_CAP = 2000  # small, so an iterative search exits 3 quickly


@dataclass(frozen=True)
class Job:
    """One closed-loop job.

    A CLI job runs ``partition_sieve.cli.main`` on ``argv`` and is checked
    against the recorded reference named by ``key``. A library job calls
    ``kind`` ("sieve", "check_b" or "check_c") on the pair ``pair`` at ``n``
    and is checked against ``expect``. A robustness job (``robust``) must
    exit 3; it has no recorded reference.
    """

    key: str
    argv: tuple[str, ...] = ()
    kind: str = ""
    pair: str = ""
    n: int = 0
    expect: tuple[int, ...] = ()
    robust: bool = False


# --- independent references ------------------------------------------------


def partition_count(n: int) -> int:
    """p(n) by coin-change DP (the library uses the pentagonal recurrence)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for v in range(part, n + 1):
            ways[v] += ways[v - part]
    return ways[n]


def count_capped(n: int, cap: dict[int, int]) -> int:
    """Partitions of n in which each size s occurs fewer than cap[s] times
    (sizes absent from cap are unrestricted)."""
    ways = [1] + [0] * n
    for s in range(1, n + 1):
        c = cap.get(s)
        new = ways[:]
        for v in range(s, n + 1):
            new[v] += new[v - s]
            if c is not None and v >= c * s:
                new[v] -= ways[v - c * s]
        ways = new
    return ways[n]


def member_caps(pair: str, side: str, n: int) -> dict[int, int]:
    """The multiplicity caps that make a partition avoid every member of a
    built-in single-size family, read off the pair's definition: e_0 is the
    number of partitions of n under these caps."""
    name, _, arg = pair.partition(":")
    sizes = range(1, n + 1)
    if name == "euler":
        return {s: 1 for s in sizes if s % 2 == 0} if side == "F" else {s: 2 for s in sizes}
    if name == "glaisher":
        d = int(arg)
        return {s: 1 for s in sizes if s % d == 0} if side == "F" else {s: d for s in sizes}
    if name == "mod6":
        if side == "F":
            return {s: 1 for s in sizes if s % 6 in (2, 3, 4)}
        return {s: (1 if s % 6 == 3 else 2) for s in sizes if s % 6 != 0}
    if name == "andrews":
        bound = int(arg)
        members = [s for s in range(1, bound + 1) if s not in M2]
        if side == "F":
            return {s: 1 for s in members if s <= n}
        caps = {}
        for s in members:
            if s in M1:
                caps[s // 2] = 2
            else:
                caps[s] = 1
        return {s: c for s, c in caps.items() if s <= n}
    raise ValueError(f"no caps for pair {pair!r}")


def member_weights(pair: str, n: int) -> list[int]:
    """Member weights <= n of a support-disjoint built-in family (F side)."""
    name, _, arg = pair.partition(":")
    if name == "euler":
        return list(range(2, n + 1, 2))
    if name == "glaisher":
        return list(range(int(arg), n + 1, int(arg)))
    if name == "mod6":
        return [w for w in range(2, n + 1) if w % 6 in (2, 3, 4)]
    if name == "andrews":
        return [s for s in range(1, n + 1) if s not in M2]
    raise ValueError(f"no weights for pair {pair!r}")


def subsets_within(weights: list[int], n: int) -> int:
    """Number of subsets (including the empty one) with weight sum <= n."""
    ways = [1] + [0] * n
    for w in weights:
        for v in range(n, w - 1, -1):
            ways[v] += ways[v - w]
    return sum(ways)


def level_n(pair: str, target: int) -> int:
    """Smallest n at which the pair's disjoint family has `target` subsets.
    Andrews' family is built at bound n, so its key carries n."""
    for n in range(10, 400):
        key = f"andrews:{n}" if pair == "andrews" else pair
        if subsets_within(member_weights(key, n), n) >= target:
            return n
    raise ValueError(f"{pair} does not reach {target} subsets")


# --- overlap pool -----------------------------------------------------------


def holding_doc(rng: random.Random, name: str) -> dict:
    """A pair with overlapping members and equal union weights.

    Generalises remmel_consecutive by a relabelling: a G entry of size
    b*t + c and multiplicity k*m becomes the F entry of size k*(b*t + c) and
    multiplicity m. Size s -> k*s is injective and scales every weight by
    the same factor it divides out of the multiplicity, so it commutes with
    the max-union and preserves every union weight. All offsets of a strand
    share a residue mod b, so neighbouring members share sizes.
    """
    k = rng.choice((2, 3))
    f_side, g_side = [], []
    for _ in range(rng.choice((1, 1, 2))):
        b = rng.choice((1, 2))
        base = rng.randrange(2)
        steps = sorted(rng.sample(range(3), rng.choice((2, 3))))
        f_entries, g_entries = [], []
        for j in steps:
            c = base + b * j
            m = rng.choice((1, 1, 2))
            f_entries.append({"size": [0, k * b, k * c], "mult": [0, m]})
            g_entries.append({"size": [0, b, c], "mult": [0, k * m]})
        f_side.append({"entries": f_entries})
        g_side.append({"entries": g_entries})
    return {"name": name, "tmin": 1, "F": f_side, "G": g_side}


def strand_weight(strand: dict, t: int) -> int:
    return sum(
        (e["size"][1] * t + e["size"][2]) * (e["mult"][0] * t + e["mult"][1])
        for e in strand["entries"]
    )


def violating_doc(rng: random.Random, name: str) -> dict:
    """A holding pair with one G entry of its lightest strand perturbed
    (offset or multiplicity +1). That breaks union-weight equality at every
    index of the strand, and its first member weighs at most 40 on both
    sides, so the violation lies inside every truncation used here."""
    while True:
        doc = holding_doc(rng, name)
        strands = doc["G"]
        lightest = strands[min(range(len(strands)), key=lambda i: strand_weight(strands[i], 1))]
        entry = rng.choice(lightest["entries"])
        field = rng.choice(("size", "mult"))
        entry[field] = entry[field][:-1] + [entry[field][-1] + 1]
        if strand_weight(lightest, 1) <= 40:
            return doc


def robust_doc(strands: int) -> dict:
    """Valid but adversarial: many identical explicit {1:1} strands."""
    same = [{"explicit": [[1, 1]]}] * strands
    return {"name": f"R{strands}", "tmin": 1, "F": same, "G": same}


def overlap_files(workdir: Path) -> dict[str, tuple[Path, dict]]:
    """The fixed pool of overlap pair files: name -> (path, document)."""
    pool = {}
    for i in range(HOLDING_FILES):
        name = f"H{i:02d}"
        pool[name] = holding_doc(random.Random(f"overlap-pool-{name}"), name)
    for i in range(VIOLATING_FILES):
        name = f"V{i:02d}"
        pool[name] = violating_doc(random.Random(f"overlap-pool-{name}"), name)
    for strands in ROBUST_STRANDS:
        doc = robust_doc(strands)
        pool[doc["name"]] = doc
    return {name: (workdir / f"{name}.json", doc) for name, doc in pool.items()}


# --- job lists ---------------------------------------------------------------


def _cli_job(argv: list[str], robust: bool = False) -> Job:
    return Job(key=" ".join(argv), argv=tuple(argv), robust=robust)


def _pair_args(pair: str, d: int, m1_path: str) -> list[str]:
    if pair == "glaisher":
        return ["--pair", "glaisher", "--d", str(d)]
    if pair == "andrews":
        return ["--pair", "andrews", "--m1-file", m1_path]
    if pair == "mod6-prose":
        return ["--pair", "mod6", "--prose-y"]
    return ["--pair", pair]


def _dist(pair_args: list[str], side: str, n: int, fmt: str) -> list[str]:
    return ["dist", *pair_args, "--side", side, "--n", str(n), "--format", fmt]


def _compare(pair_args: list[str], n: int, fmt: str) -> list[str]:
    return ["compare", *pair_args, "--n-from", str(n - 1), "--n-max", str(n), "--format", fmt]


def brute_jobs(rng: random.Random | None, m1_path: str) -> list[Job]:
    """With rng None, the whole job universe (for recording references)."""
    jobs = []
    if rng is None:
        variants = [(p, d) for p in BRUTE_PAIRS for d in (GLAISHER_D if p == "glaisher" else (0,))]
        for pair, d in variants:
            args = _pair_args(pair, d, m1_path)
            for n in BRUTE_DIST_N:
                for side in "XY":
                    jobs += [_cli_job(_dist(args, side, n, fmt)) for fmt in FORMATS]
            for n in BRUTE_COMPARE_N:
                jobs += [_cli_job(_compare(args, n, fmt)) for fmt in FORMATS]
        for n in BRUTE_COMPARE_N:
            args = _pair_args("mod6-prose", 0, m1_path)
            jobs += [_cli_job(_compare(args, n, fmt)) for fmt in FORMATS]
        return jobs
    for n in BRUTE_DIST_N:
        for pair in BRUTE_PAIRS:
            args = _pair_args(pair, rng.choice(GLAISHER_D), m1_path)
            jobs.append(_cli_job(_dist(args, rng.choice("XY"), n, rng.choice(FORMATS))))
    for n in BRUTE_COMPARE_N:
        for pair in BRUTE_PAIRS + ("mod6-prose",):
            args = _pair_args(pair, rng.choice(GLAISHER_D), m1_path)
            jobs.append(_cli_job(_compare(args, n, rng.choice(FORMATS))))
    return jobs


def sieve_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for level in SIEVE_LEVELS:
        for slot, name in enumerate(rng.sample(SIEVE_PAIRS, len(SIEVE_PAIRS))):
            pair = f"glaisher:{rng.choice((2, 3))}" if name == "glaisher" else name
            n = level_n(pair, level)
            key = f"andrews:{n}" if pair == "andrews" else pair
            if slot % 2 == 0:
                p = partition_count(n)
                e0 = tuple(count_capped(n, member_caps(key, side, n)) for side in "FG")
                jobs.append(Job(key=f"sieve {key} {n}", kind="sieve", pair=key, n=n, expect=(p, *e0)))
            else:
                jobs.append(Job(key=f"check_c {key} {n}", kind="check_c", pair=key, n=n))
    for n, name in zip(CHECK_B_N, rng.sample(CHECK_B_PAIRS, len(CHECK_B_PAIRS))):
        pair = f"glaisher:{rng.choice(GLAISHER_D)}" if name == "glaisher" else name
        jobs.append(Job(key=f"check_b {pair} {n}", kind="check_b", pair=pair, n=n))
    for bound in ANDREWS_B_BOUNDS:
        pair = f"andrews:{bound}"
        jobs.append(Job(key=f"check_b {pair} {bound}", kind="check_b", pair=pair, n=bound))
    return jobs


def _check(path: str, theorem: str, n: int, fmt: str, cap: int | None = None) -> list[str]:
    argv = ["check", "--pair-file", path, "--theorem", theorem, "--n-max", str(n)]
    if cap is not None:
        argv += ["--subset-cap", str(cap)]
    return argv + ["--format", fmt]


def _sieve(path: str, side: str, n: int, fmt: str, cap: int | None = None) -> list[str]:
    argv = ["sieve", "--pair-file", path, "--side", side, "--n", str(n)]
    if cap is not None:
        argv += ["--subset-cap", str(cap)]
    return argv + ["--format", fmt]


def _spread(rng: random.Random, strata: tuple[int, ...], slots: int) -> list[int]:
    """`slots` values using every stratum equally often, in seeded order."""
    values = [strata[i % len(strata)] for i in range(slots)]
    rng.shuffle(values)
    return values


def overlap_jobs(rng: random.Random | None, files: dict[str, tuple[Path, dict]]) -> list[Job]:
    """With rng None, the whole recorded job universe (no robustness jobs)."""
    pool = {name: str(path) for name, (path, _) in files.items() if name[0] in "HV"}
    robust = [str(path) for name, (path, _) in files.items() if name[0] == "R"]
    if rng is None:
        jobs = []
        for path in pool.values():
            for fmt in FORMATS:
                jobs += [_cli_job(_check(path, "b", n, fmt)) for n in OVERLAP_B_N]
                jobs += [_cli_job(_check(path, "c", n, fmt)) for n in OVERLAP_C_N]
                for side in "XY":
                    jobs += [_cli_job(_sieve(path, side, n, fmt)) for n in OVERLAP_SIEVE_N]
        return jobs
    # Each file gets one low and one high n for each command, so the work
    # per file does not depend on the seed.
    paths = list(pool.values())
    half_c, half_s = len(OVERLAP_C_N) // 2, len(OVERLAP_SIEVE_N) // 2
    b_n = _spread(rng, OVERLAP_B_N, len(paths))
    c_n = [_spread(rng, OVERLAP_C_N[:half_c], len(paths)), _spread(rng, OVERLAP_C_N[half_c:], len(paths))]
    s_n = [_spread(rng, OVERLAP_SIEVE_N[:half_s], len(paths)), _spread(rng, OVERLAP_SIEVE_N[half_s:], len(paths))]
    jobs = []
    for i, path in enumerate(paths):
        jobs.append(_cli_job(_check(path, "b", b_n[i], rng.choice(FORMATS))))
        for level in c_n:
            jobs.append(_cli_job(_check(path, "c", level[i], rng.choice(FORMATS))))
        for level, side in zip(s_n, rng.sample("XY", 2)):
            jobs.append(_cli_job(_sieve(path, side, level[i], rng.choice(FORMATS))))
    jobs.append(_cli_job(
        _sieve(rng.choice(robust), rng.choice("XY"), rng.choice(ROBUST_N), rng.choice(FORMATS), ROBUST_CAP),
        robust=True))
    jobs.append(_cli_job(
        _check(rng.choice(robust), "c", rng.choice(ROBUST_N), rng.choice(FORMATS), ROBUST_CAP),
        robust=True))
    return jobs


def build(workload: str, seed: int | None, workdir: Path) -> tuple[list[Job], dict]:
    """Write the workload's input files under `workdir` and return its job
    list (in seeded order) and its set-up plan. seed None gives the whole
    recorded universe of CLI jobs, in a fixed order."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = None if seed is None else random.Random(f"{workload}-{seed}")
    if workload == "brute":
        m1_path = workdir / "m1.txt"
        m1_path.write_text("# M1 for the andrews pair\n" + "\n".join(map(str, M1)) + "\n")
        jobs = brute_jobs(rng, str(m1_path))
        builtin = [p for p in BRUTE_PAIRS if p not in ("glaisher", "andrews")]
        builtin += [f"glaisher:{d}" for d in GLAISHER_D] + [f"andrews:{max(BRUTE_DIST_N)}"]
        plan = {"builtin": builtin, "pair_files": []}
    elif workload == "sieve":
        if rng is None:
            raise ValueError("the sieve workload has no recorded references")
        jobs = sieve_jobs(rng)
        plan = {"builtin": sorted({job.pair for job in jobs}), "pair_files": []}
    elif workload == "overlap":
        files = overlap_files(workdir)
        for path, doc in files.values():
            path.write_text(json.dumps(doc, indent=1) + "\n")
        jobs = overlap_jobs(rng, files)
        plan = {"builtin": [], "pair_files": [str(path) for path, _ in files.values()]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if rng is not None:
        rng.shuffle(jobs)
    plan["m1"] = list(M1)
    return jobs, plan
