"""partition-sieve benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload brute|sieve|overlap|all --seed N
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record

Run from anywhere; paths are resolved against the repository root, which
must hold ``src/partition_sieve``. Each invocation is one fresh,
single-threaded interpreter. It writes the workload's inputs under
``.perfbench/``, times the set-up in fresh child interpreters, then runs the
workload's fixed job list in rounds until ``--seconds`` is spent: each job
starts only after the previous one has finished and been checked. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. ``--workload all`` runs the three
workloads in turn, each in its own process. ``--record`` records the CLI
references (references.json) and cross-validates them; run it only at a
commit whose outputs are trusted. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench")  # relative to ROOT, so generated argv are the same everywhere
REFERENCES = HERE / "references.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names, units and order
SETUP_PROBES = 11
# Times are scaled to a machine on which the calibration kernel takes 1 ms.
KERNEL_REFERENCE_S = 1e-3
THREADS_ENV_VAR = "PARTITION_SIEVE_THREADS"

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Search counters describe how an answer was found, not the answer; a
# faster algorithm may legitimately visit fewer subsets. They are masked
# before stdout is compared with its reference.
SEARCH_COUNTER = re.compile(r'(subsets[ _]explored"?: "?)\d+')


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def digest(stdout: str) -> str:
    return hashlib.sha256(SEARCH_COUNTER.sub(r"\1#", stdout).encode()).hexdigest()[:16]


def run_cli(cli_main, argv) -> tuple[int, str, str, str | None]:
    """Run the CLI in-process: (exit code, stdout, stderr, uncaught error)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli_main.main(args=list(argv), prog_name="partition-sieve")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # uncaught: the process would print a traceback and exit 1
            code, crash = 1, type(exc).__name__
    return code, out.getvalue(), err.getvalue(), crash


class Runner:
    """Executes and checks jobs against their references."""

    def __init__(self, ps, pairs, references, tracer=None):
        from partition_sieve import cli

        self.ps, self.pairs, self.references = ps, pairs, references
        self.cli_main = cli.main
        self.tracer = tracer
        self.traced = False

    def run(self, job) -> tuple[bool, bool]:
        """(passed, wrong): a job that fails without a wrong answer is a
        robustness job that crashed instead of exiting 3."""
        if job.argv:
            return self._cli(job)
        try:
            passed = self._library(job)
        except Exception as exc:  # a failed job, never a crash of the benchmark
            print(f"perfbench: {job.key}: {exc!r}", file=sys.stderr)
            passed = False
        return passed, not passed

    def _cli(self, job) -> tuple[bool, bool]:
        if self.traced:
            self.tracer.begin("cli.cmd")
        try:
            code, out, _, crash = run_cli(self.cli_main, job.argv)
        finally:
            if self.traced:
                self.tracer.end()
        if self.traced:
            self.tracer.counts["cli.stdout_bytes"] += len(out.encode())
        if job.robust:
            # Documented outcome: exit 3, budget exceeded. Exit 1 or 2 would
            # be a false divergence or usage verdict on a valid identical pair.
            passed = code == 3 and crash is None
            return passed, crash is None and code in (1, 2)
        passed = crash is None and [code, digest(out)] == self.references[job.key]
        if not passed:
            print(f"perfbench: {job.key}: exit {code}, {crash or 'stdout differs'}", file=sys.stderr)
        return passed, not passed

    def _library(self, job) -> bool:
        ps, pair = self.ps, self.pairs[job.pair]
        if job.kind == "sieve":
            p, e0_f, e0_g = job.expect
            x = ps.sieve_distribution(pair.F, job.n)
            y = ps.sieve_distribution(pair.G, job.n)
            return (
                not x.truncated
                and not y.truncated
                and x.table == y.table
                and x.table.total == p
                and x.table.marginal(0) == e0_f
                and y.table.marginal(0) == e0_g
            )
        check = ps.check_theorem_b if job.kind == "check_b" else ps.check_theorem_c
        report = check(pair, job.n)
        return (
            report.holds
            and not report.inconclusive
            and report.witness is None
            and report.verified_up_to == job.n
        )


def run_rounds(jobs, runner: Runner, seconds: float, tracer) -> list[dict]:
    """Run the job list in rounds until `seconds` is spent. With a tracer,
    rounds alternate untraced and traced, starting untraced.

    The calibration kernel runs before every job, outside the job's time.
    A round's `scale` is KERNEL_REFERENCE_S over the round's median kernel
    time; its times are reported multiplied by it, which removes the drift
    of the machine's speed between runs (see README.md)."""
    rounds: list[dict] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        runner.traced = traced
        times, kernel, passed, wrong = [], [], 0, 0
        for index, job in enumerate(jobs):
            kernel.append(probe.kernel_seconds())
            job_start = perf_counter()
            if traced:
                tracer.job = f"{len(rounds)}.{index}"
                tracer.begin("job")
            try:
                ok, bad = runner.run(job)
            finally:
                if traced:
                    tracer.end()
            times.append(perf_counter() - job_start)
            passed += ok
            wrong += bad
        scale = KERNEL_REFERENCE_S / statistics.median(kernel)
        raw_wall = sum(times)
        record = {
            "traced": traced, "raw_wall": raw_wall, "scale": scale, "wall": raw_wall * scale,
            "times": [t * scale for t in times], "passed": passed, "wrong": wrong,
        }
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.layer_metrics(scale)
            record["shares"] = tracer.shares(raw_wall)
        rounds.append(record)
        spent = perf_counter() - start
        if spent * (1 + 1 / len(rounds)) > seconds and (tracer is None or len(rounds) >= 2):
            return rounds


def probe_setup(plan_path: Path) -> list[tuple[float, float]]:
    """(set-up seconds, scale) from each of SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(plan_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, kernel = map(float, done.stdout.split()[-2:])
        samples.append((elapsed, KERNEL_REFERENCE_S / kernel))
    return samples


def environment() -> str:
    sources = sorted((ROOT / "src" / "partition_sieve").glob("*.py"))
    src = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:12]
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    python = ".".join(map(str, sys.version_info[:3]))
    return f"python={python} nproc={os.cpu_count()} commit={commit} src_sha256={src}"


def tail(values: list[float]) -> tuple[float, int]:
    """The highest order statistic with at least 10 values beyond it, and
    how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], len(ordered) - rank - 1


def end_to_end(rounds, setup_samples) -> tuple[dict, list[str]]:
    plain = [r for r in rounds if not r["traced"]]
    per_job = [statistics.median(ts) for ts in zip(*(r["times"] for r in plain))]
    tail_s, beyond = tail(per_job)
    values = {
        "wall_s": statistics.median(r["wall"] for r in plain),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(elapsed * scale for elapsed, scale in setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"times are scaled to the reference machine speed; unscaled wall_s "
        f"{statistics.median(r['raw_wall'] for r in plain):.4f} s, median scale "
        f"{statistics.median(r['scale'] for r in plain):.4f}",
        f"wall_s: median of {len(plain)} rounds of the job list",
        f"job_p50_s, job_tail_s: over per-job medians of {len(per_job)} jobs; "
        f"job_tail_s is p{100 * (len(per_job) - beyond) / len(per_job):.1f} ({beyond} jobs beyond it)",
        f"setup_s: median of {len(setup_samples)} fresh interpreters, unscaled: "
        + " ".join(f"{elapsed:.4f}" for elapsed, _ in setup_samples),
    ]
    return values, notes


def per_layer(rounds) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = {
        name: statistics.median_low(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median_low(r["wall"] for r in traced)
    values["trace.overhead_s"] = traced_wall - statistics.median(r["wall"] for r in plain)
    notes = [f"per-layer: medians over {len(traced)} traced rounds; "
             f"traced wall_s {traced_wall:.4f} s, overhead {values['trace.overhead_s']:+.4f} s"]
    for name in tracing.DETERMINISTIC:
        seen = {r["layers"][name] for r in traced}
        notes.append(f"{name}: {'repeats exactly' if len(seen) == 1 else 'DIFFERS: ' + str(sorted(seen))}")
    shares = {k: statistics.median(r["shares"][k] for r in traced) for k in ("brute", "sieve")}
    notes.append(f"share of traced wall time in brute-force spans {shares['brute']:.3f}, "
                 f"in sieve/checker spans {shares['sieve']:.3f}")
    return values, notes


def write_trace(tracer, path: Path, header: dict) -> None:
    fields = ("id", "name", "start", "end", "parent", "job")
    doc = {**header, "fields": fields, "spans": tracer.spans}
    path.write_text(json.dumps(doc) + "\n")


def run_workload(args) -> None:
    workdir = WORK / args.workload
    jobs, plan = workloads.build(args.workload, args.seed, workdir)
    references = json.loads(REFERENCES.read_text())["jobs"]
    missing = [job.key for job in jobs if job.argv and not job.robust and job.key not in references]
    if missing:
        fail(f"no recorded reference for {len(missing)} jobs, e.g. {missing[0]!r}; "
             "the job universe changed without --record")
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan) + "\n")
    ps, pairs = probe.setup(plan)
    setup_samples = probe_setup(plan_path)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(ps, pairs, references, tracer)
    rounds = run_rounds(jobs, runner, args.seconds, tracer)

    attempted = len(jobs) * len(rounds)
    passed = sum(r["passed"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    failed = attempted - passed
    robust = sum(job.robust for job in jobs)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} {environment()}")
    print(f"# {len(jobs)} jobs per round ({robust} robustness jobs), {len(rounds)} rounds, "
          f"one closed-loop client, no worker threads")
    print(f"fail_frac {failed / attempted:.6g} ratio (base: {failed} of {attempted} attempted failed; "
          f"{wrong} wrong answers, {failed - wrong} uncaught errors where exit 3 was due)")
    if args.trace:
        metrics, notes = per_layer(rounds)
        spans_path = workdir / f"trace-seed{args.seed}.json"
        write_trace(tracer, spans_path, {"workload": args.workload, "seed": args.seed})
        notes.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        metrics, notes = end_to_end(rounds, setup_samples)
    notes.append("round walls, scaled (T = traced): " + " ".join(
        f"{r['wall']:.4f}{'T' if r['traced'] else ''}" for r in rounds))
    for note in notes:
        print(f"# {note}")
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    for name, metric in reported.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))


def run_all(args) -> None:
    status = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or done.returncode
    sys.exit(status)


def record() -> None:
    """Record stdout digests and exit codes of every CLI job any seed can
    draw, cross-validating each: dist totals are p(n) by coin-change DP,
    compare is identical except for mod6 --prose-y, sieve crosschecks PASS,
    theorem C holds on holding pair files and fails on violating ones."""
    from partition_sieve import cli

    jobs_out = {}
    for workload in ("brute", "overlap"):
        jobs, _ = workloads.build(workload, None, WORK / workload)
        for job in jobs:
            code, out, err, crash = run_cli(cli.main, job.argv)
            problem = crash or validate(job.argv, code, out, err)
            if problem:
                fail(f"reference for {job.key!r} rejected: {problem}")
            jobs_out[job.key] = [code, digest(out)]
    header = {
        "about": "exit code and sha256[:16] of stdout (search counters masked) per CLI job",
        "environment": environment(),
    }
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(jobs_out.items())]
    body = json.dumps(header, indent=1)[:-2] + ',\n "jobs": {\n' + ",\n".join(lines) + "\n }\n}\n"
    REFERENCES.write_text(body)
    print(f"recorded {len(jobs_out)} references to {REFERENCES}")


def validate(argv, code: int, out: str, err: str) -> str | None:
    command, opts = argv[0], dict(zip(argv, argv[1:]))
    fmt = opts["--format"]
    if command == "dist":
        p = str(workloads.partition_count(int(opts["--n"])))
        if fmt == "json":
            ok = json.loads(out)["total"] == p
        elif fmt == "csv":
            ok = all(row.endswith("," + p) for row in out.split()[1:])
        else:
            ok = f"total={p}" in out.splitlines()[0]
        return None if code == 0 and ok else f"exit {code} or total is not p(n)={p}"
    if command == "compare":
        want = 1 if "--prose-y" in argv else 0
        return None if code == want else f"exit {code}, expected {want}"
    if command == "sieve":
        if fmt == "json":
            passed = json.loads(out)["crosscheck"] == "PASS"
        else:
            passed = "crosscheck: PASS" in (err if fmt == "csv" else out)
        return None if code == 0 and passed else f"exit {code}, crosscheck did not PASS"
    if opts["--theorem"] == "c":
        want = 1 if Path(opts["--pair-file"]).name.startswith("V") else 0
        return None if code == want else f"exit {code}, expected {want} by construction"
    return None if code in (0, 1) else f"exit {code}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="record references.json")
    args = parser.parse_args()
    if os.environ.get(THREADS_ENV_VAR) is not None:
        fail(f"{THREADS_ENV_VAR} is set; unset it so the measured program runs single-threaded")
    if not (ROOT / "src" / "partition_sieve" / "__init__.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    os.chdir(ROOT)
    sys.path.insert(0, str(probe.SRC))
    if args.record:
        record()
    elif args.workload == "all":
        run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        parser.error("give --workload or --record")


if __name__ == "__main__":
    main()
