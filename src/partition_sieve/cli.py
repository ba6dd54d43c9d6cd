"""Command-line front end.

Commands: catalog, dist, compare, sieve, check. Pairs come from the
built-in catalog (--pair, with --d / --m1-file where needed) or from a
JSON pair file (--pair-file). Exit codes are never conflated:

    0  success / verified
    1  mathematical divergence or hypothesis violation found
    2  usage or pair-specification error
    3  resource cap exceeded (subset budget)
    4  internal error (a bug, never a verdict)

Batch use is the point: tables and exit codes are the interface. Output in
csv/json is byte-stable across runs, with every numeric field a decimal
string.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .distribution import (
    ComparisonReport,
    compare as compare_distributions,
    distribution_bruteforce,
    render_table_csv,
    render_table_json,
    render_table_text,
)
from .families import BUILTIN_PAIRS, FamilyError, FamilyPair, builtin_pair, parse_family_pair
from .partitions import Multiset
from .sieve import (
    DEFAULT_SUBSET_CAP,
    DisjointnessWitness,
    HypothesisReport,
    UnionWeightWitness,
    WeightWitness,
    check_theorem_b,
    check_theorem_c,
    sieve_distribution,
)
from .statistics import FamilyStatistic, native, pair_statistics

FORMATS = click.Choice(["table", "csv", "json"])


def _read_m1_file(path: str) -> list[int]:
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise click.UsageError(
                f"{path}:{lineno}: expected one integer per line, got {line!r}"
            ) from None
    if not values:
        raise click.UsageError(f"{path}: no M1 entries found")
    return values


class _spec_errors_exit_2:
    """Map family specification errors raised mid-command to exit code 2,
    keeping it distinct from mathematical divergence (1) and caps (3)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and issubclass(exc_type, FamilyError):
            raise click.UsageError(str(exc)) from None
        return False


def _resolve_pair(
    pair: str | None,
    pair_file: str | None,
    d: int | None,
    m1_file: str | None,
    bound: int,
) -> FamilyPair:
    """Build the requested pair; any specification problem exits 2."""
    if (pair is None) == (pair_file is None):
        raise click.UsageError("specify exactly one of --pair or --pair-file")
    try:
        if pair_file is not None:
            if d is not None or m1_file is not None:
                raise click.UsageError("--d/--m1-file do not apply to --pair-file")
            try:
                text = Path(pair_file).read_text()
            except OSError as exc:
                raise click.UsageError(f"cannot read {pair_file}: {exc}") from None
            return parse_family_pair(text)
        if pair == "glaisher" and d is None:
            raise click.UsageError("glaisher requires --d")
        if pair == "andrews" and m1_file is None:
            raise click.UsageError("andrews requires --m1-file")
        m1 = _read_m1_file(m1_file) if m1_file is not None else None
        kwargs = {}
        if d is not None:
            kwargs["d"] = d
        if m1 is not None:
            kwargs["m1"] = m1
            kwargs["bound"] = bound
        return builtin_pair(pair, **kwargs)
    except FamilyError as exc:
        raise click.UsageError(str(exc)) from None


def _pair_options(command):
    for option in reversed(
        [
            click.option(
                "--pair",
                type=click.Choice(sorted(BUILTIN_PAIRS)),
                default=None,
                help="Built-in pair from the catalog.",
            ),
            click.option(
                "--pair-file",
                type=click.Path(),
                default=None,
                help="JSON pair document (see README for the schema).",
            ),
            click.option("--d", type=int, default=None, help="Divisor for --pair glaisher (d > 1)."),
            click.option(
                "--m1-file",
                type=click.Path(),
                default=None,
                help="M1 list for --pair andrews: one integer per line.",
            ),
        ]
    ):
        command = option(command)
    return command


def _fmt_multiset(ms: Multiset) -> str:
    parts = []
    for s, m in ms.items():
        parts.extend([str(s)] * m)
    return "{" + ",".join(parts) + "}"


def _fmt_index(idx) -> str:
    return f"(strand {idx.strand}, t={idx.t})"


def _witness_text(witness) -> str:
    if isinstance(witness, DisjointnessWitness):
        return (
            f"witness: {witness.side} members {_fmt_index(witness.idx_a)} "
            f"{_fmt_multiset(witness.multiset_a)} and {_fmt_index(witness.idx_b)} "
            f"{_fmt_multiset(witness.multiset_b)} share element {witness.element}"
        )
    if isinstance(witness, WeightWitness):
        return (
            f"witness: weights differ at {_fmt_index(witness.idx)}: "
            f"F {_fmt_multiset(witness.multiset_f)} weighs {witness.weight_f}, "
            f"G {_fmt_multiset(witness.multiset_g)} weighs {witness.weight_g}"
        )
    if isinstance(witness, UnionWeightWitness):
        s = ", ".join(_fmt_index(i) for i in witness.positions)
        return (
            f"witness: union weights differ for S = [{s}]: "
            f"F union {_fmt_multiset(witness.union_f)} weighs {witness.weight_f}, "
            f"G union {_fmt_multiset(witness.union_g)} weighs {witness.weight_g}"
        )
    raise TypeError(f"unknown witness type: {witness!r}")


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, DisjointnessWitness):
        return {
            "kind": "shared_support",
            "side": witness.side,
            "index_a": {"strand": str(witness.idx_a.strand), "t": str(witness.idx_a.t)},
            "index_b": {"strand": str(witness.idx_b.strand), "t": str(witness.idx_b.t)},
            "element": str(witness.element),
            "multiset_a": _fmt_multiset(witness.multiset_a),
            "multiset_b": _fmt_multiset(witness.multiset_b),
        }
    if isinstance(witness, WeightWitness):
        return {
            "kind": "weight_mismatch",
            "index": {"strand": str(witness.idx.strand), "t": str(witness.idx.t)},
            "weight_f": str(witness.weight_f),
            "weight_g": str(witness.weight_g),
            "multiset_f": _fmt_multiset(witness.multiset_f),
            "multiset_g": _fmt_multiset(witness.multiset_g),
        }
    return {
        "kind": "union_weight_mismatch",
        "positions": [
            {"strand": str(i.strand), "t": str(i.t)} for i in witness.positions
        ],
        "weight_f": str(witness.weight_f),
        "weight_g": str(witness.weight_g),
        "union_f": _fmt_multiset(witness.union_f),
        "union_g": _fmt_multiset(witness.union_g),
    }


class _InternalErrorsExit4(click.Group):
    """Map any exception that escapes a command, other than click's own, to
    exit code 4, so that a bug never reads as a divergence (1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)


@click.group(cls=_InternalErrorsExit4)
def main():
    """Exact verification of identically distributed partition statistics."""


@main.command()
@click.option("--format", "fmt", type=FORMATS, default="table", help="Output format.")
def catalog(fmt: str):
    """List the built-in statistic pairs."""
    if fmt == "json":
        doc = [
            {"name": name, "params": params, "description": desc}
            for name, (params, desc) in sorted(BUILTIN_PAIRS.items())
        ]
        click.echo(json.dumps(doc, indent=2))
        return
    if fmt == "csv":
        click.echo("name,params,description")
        for name, (params, desc) in sorted(BUILTIN_PAIRS.items()):
            click.echo(f'{name},{params},"{desc}"')
        return
    for name, (params, desc) in sorted(BUILTIN_PAIRS.items()):
        header = name if not params else f"{name}  [{params}]"
        click.echo(header)
        click.echo(f"    {desc}")


@main.command()
@_pair_options
@click.option("--side", type=click.Choice(["X", "Y"]), required=True, help="Which statistic.")
@click.option("--n", type=int, required=True, help="Partition weight (n >= 0).")
@click.option("--format", "fmt", type=FORMATS, default="table", help="Output format.")
def dist(pair, pair_file, d, m1_file, side, n, fmt):
    """Exact distribution table of one side's statistic at a single n."""
    if n < 0:
        raise click.UsageError("--n must be >= 0")
    resolved = _resolve_pair(pair, pair_file, d, m1_file, bound=n)
    stat_x, stat_y = pair_statistics(resolved)
    stat = stat_x if side == "X" else stat_y
    with _spec_errors_exit_2():
        table = distribution_bruteforce(stat, n)
    if fmt == "csv":
        click.echo(render_table_csv(table))
    elif fmt == "json":
        click.echo(render_table_json(table, label=stat.label))
    else:
        click.echo(render_table_text(table, label=stat.label))


def _compare_text(report: ComparisonReport, pair_name: str) -> str:
    lines = [f"pair: {pair_name}", f"X: {report.label_x}  Y: {report.label_y}"]
    for v in report.verdicts:
        if v.identical:
            lines.append(f"n={v.n}  identical")
        else:
            lines.append(
                f"n={v.n}  divergent at j={v.j}: X count {v.count_x}, Y count {v.count_y}"
            )
    if report.identical_everywhere:
        lines.append(f"result: identical for all n in [{report.n_from}, {report.n_to}]")
    else:
        first = report.first_divergence()
        lines.append(f"result: divergent, first at n={first.n}")
    return "\n".join(lines)


def _compare_csv(report: ComparisonReport) -> str:
    lines = ["n,verdict,j,count_x,count_y"]
    for v in report.verdicts:
        if v.identical:
            lines.append(f"{v.n},identical,,,")
        else:
            lines.append(f"{v.n},divergent,{v.j},{v.count_x},{v.count_y}")
    return "\n".join(lines)


def _compare_json(report: ComparisonReport, pair_name: str) -> str:
    results = []
    for v in report.verdicts:
        if v.identical:
            results.append({"n": str(v.n), "verdict": "identical"})
        else:
            results.append(
                {
                    "n": str(v.n),
                    "verdict": "divergent",
                    "j": str(v.j),
                    "count_x": str(v.count_x),
                    "count_y": str(v.count_y),
                }
            )
    doc = {
        "pair": pair_name,
        "x": report.label_x,
        "y": report.label_y,
        "n_from": str(report.n_from),
        "n_to": str(report.n_to),
        "identical_everywhere": report.identical_everywhere,
        "results": results,
    }
    return json.dumps(doc, indent=2)


@main.command()
@_pair_options
@click.option("--n-from", type=int, default=1, show_default=True, help="First n to compare.")
@click.option("--n-max", type=int, default=30, show_default=True, help="Last n to compare.")
@click.option(
    "--prose-y",
    is_flag=True,
    help="mod6 only: compare against the literal 'any multiple of 3' reading "
    "of Y instead of the weight-matched family form.",
)
@click.option("--format", "fmt", type=FORMATS, default="table", help="Output format.")
def compare(pair, pair_file, d, m1_file, n_from, n_max, prose_y, fmt):
    """Verify identical distributions of X and Y for every n in a range.

    Exits 0 when the exact count maps match at every n, 1 on the first
    divergence (reported with the smallest differing j).
    """
    if not 0 <= n_from <= n_max:
        raise click.UsageError("need 0 <= --n-from <= --n-max")
    resolved = _resolve_pair(pair, pair_file, d, m1_file, bound=n_max)
    stat_x, stat_y = pair_statistics(resolved)
    if prose_y:
        if pair != "mod6":
            raise click.UsageError("--prose-y applies only to --pair mod6")
        stat_y = native("mod6_Y_prose")
    with _spec_errors_exit_2():
        report = compare_distributions(stat_x, stat_y, n_from, n_max)
    if fmt == "csv":
        click.echo(_compare_csv(report))
    elif fmt == "json":
        click.echo(_compare_json(report, resolved.name))
    else:
        click.echo(_compare_text(report, resolved.name))
    sys.exit(0 if report.identical_everywhere else 1)


@main.command()
@_pair_options
@click.option("--side", type=click.Choice(["X", "Y"]), required=True, help="Which family.")
@click.option("--n", type=int, required=True, help="Partition weight (n >= 0).")
@click.option(
    "--subset-cap",
    type=int,
    default=DEFAULT_SUBSET_CAP,
    show_default=True,
    help="Budget of explored index subsets.",
)
@click.option("--format", "fmt", type=FORMATS, default="table", help="Output format.")
def sieve(pair, pair_file, d, m1_file, side, n, subset_cap, fmt):
    """Inclusion-exclusion table for one side, cross-checked against brute force.

    Prints the sieve's exact-j table plus a `crosscheck: PASS|FAIL` line
    comparing it with the enumeration-based distribution. Exits 0 on PASS,
    1 on FAIL, 3 if the subset budget was exceeded (truncated result).
    """
    if n < 0:
        raise click.UsageError("--n must be >= 0")
    if subset_cap <= 0:
        raise click.UsageError("--subset-cap must be > 0")
    resolved = _resolve_pair(pair, pair_file, d, m1_file, bound=n)
    family = resolved.F if side == "X" else resolved.G
    label = f"{resolved.name}.{side} (sieve)"
    with _spec_errors_exit_2():
        result = sieve_distribution(family, n, subset_cap)
    if result.truncated:
        if fmt == "json":
            doc = {
                "statistic": label,
                "n": str(n),
                "truncated": True,
                "subsets_explored": str(result.subsets_explored),
            }
            click.echo(json.dumps(doc, indent=2))
        else:
            click.echo(
                f"truncated: subset cap exceeded after {result.subsets_explored} subsets",
                err=(fmt == "csv"),
            )
        sys.exit(3)
    with _spec_errors_exit_2():
        brute = distribution_bruteforce(FamilyStatistic(family), n)
    verdict = "PASS" if result.table == brute else "FAIL"
    if fmt == "csv":
        click.echo(render_table_csv(result.table))
        click.echo(f"crosscheck: {verdict}", err=True)
    elif fmt == "json":
        doc = json.loads(render_table_json(result.table, label=label))
        doc["subsets_explored"] = str(result.subsets_explored)
        doc["truncated"] = False
        doc["crosscheck"] = verdict
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(render_table_text(result.table, label=label))
        click.echo(f"subsets explored: {result.subsets_explored}")
        click.echo(f"crosscheck: {verdict}")
    sys.exit(0 if verdict == "PASS" else 1)


def _report_text(report: HypothesisReport, pair_name: str) -> str:
    lines = [
        f"pair: {pair_name}",
        f"theorem: {report.theorem}",
        f"verified_up_to: {report.verified_up_to}",
    ]
    if report.theorem == "C":
        lines.append(f"subsets explored: {report.subsets_explored}")
    if report.inconclusive:
        lines.append("inconclusive: subset cap exceeded before the frontier was exhausted")
    else:
        lines.append(f"holds: {'true' if report.holds else 'false'}")
    if report.witness is not None:
        lines.append(_witness_text(report.witness))
    return "\n".join(lines)


@main.command()
@_pair_options
@click.option(
    "--theorem",
    type=click.Choice(["b", "c"]),
    required=True,
    help="b: pairwise disjoint supports + per-index weights; c: union weights for every S.",
)
@click.option("--n-max", type=int, default=30, show_default=True, help="Truncation bound.")
@click.option(
    "--subset-cap",
    type=int,
    default=DEFAULT_SUBSET_CAP,
    show_default=True,
    help="Budget of explored index subsets (theorem c).",
)
@click.option("--format", "fmt", type=FORMATS, default="table", help="Output format.")
def check(pair, pair_file, d, m1_file, theorem, n_max, subset_cap, fmt):
    """Mechanically check a pair's hypotheses on the truncation for n_max.

    Exits 0 when the hypotheses hold, 1 on a violation (with a re-validated
    witness), 3 when the subset budget ran out first.
    """
    if n_max < 1:
        raise click.UsageError("--n-max must be >= 1")
    if subset_cap <= 0:
        raise click.UsageError("--subset-cap must be > 0")
    resolved = _resolve_pair(pair, pair_file, d, m1_file, bound=n_max)
    with _spec_errors_exit_2():
        if theorem == "b":
            report = check_theorem_b(resolved, n_max)
        else:
            report = check_theorem_c(resolved, n_max, subset_cap)
    if fmt == "json":
        doc = {
            "pair": resolved.name,
            "theorem": report.theorem,
            "verified_up_to": str(report.verified_up_to),
            "holds": report.holds,
            "inconclusive": report.inconclusive,
            "subsets_explored": str(report.subsets_explored),
            "witness": _witness_json(report.witness),
        }
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(_report_text(report, resolved.name))
    if report.inconclusive:
        sys.exit(3)
    sys.exit(0 if report.holds else 1)


if __name__ == "__main__":
    main()
