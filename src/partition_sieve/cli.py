"""Command-line front end.

Commands: catalog, dist, compare, sieve, check. Pairs come from the
built-in catalog (--pair, with --d / --m1-file where needed) or from a
JSON pair file (--pair-file). Exit codes are never conflated:

    0  success / verified
    1  mathematical divergence or hypothesis violation found
    2  usage or pair-specification error
    3  resource cap exceeded (subset budget or partition cap)
    4  internal error (a bug, never a verdict)

Batch use is the point: tables and exit codes are the interface. Each
command builds one document, a JSON-ready dict with every number a decimal
string: --format json prints it as is, and the table and csv renderers here
read it. Output is byte-stable across runs.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable

import click

from .distribution import (
    ComparisonReport,
    DistributionTable,
    compare as compare_distributions,
    distribution_bruteforce,
)
from .families import (
    BUILTIN_PAIRS,
    FamilyError,
    FamilyPair,
    builtin_pair,
    mod6_prose_family,
    parse_family_pair,
)
from .partitions import Multiset, count_partitions
from .sieve import (
    DEFAULT_SUBSET_CAP,
    DisjointnessWitness,
    WeightWitness,
    check_theorem_b,
    check_theorem_c,
    sieve_distribution,
)
from .statistics import FamilyStatistic, pair_statistics

FORMATS = click.Choice(["table", "csv", "json"])

# The largest p(n) that brute force may tally: a round number between
# p(94) = 92,669,720 and p(95) = 104,651,419, so every n <= 94 is allowed.
DEFAULT_PARTITION_CAP = 100_000_000


@lru_cache(maxsize=None)
def _largest_n_within(cap: int) -> int:
    """The largest n with p(n) <= cap (cap >= 1). p never falls as n grows,
    so p(n) > cap iff n is larger, and p is never computed past that n."""
    n = 0
    while count_partitions(n + 1) <= cap:
        n += 1
    return n


def _over_partition_cap(n: int) -> bool:
    return n > _largest_n_within(DEFAULT_PARTITION_CAP)


def _exit_over_partition_cap(n: int) -> None:
    """Exit 3 with one stderr line, before any enumeration, if p(n) is over
    the partition cap."""
    if _over_partition_cap(n):
        click.echo(
            f"partition cap exceeded: p({n}) is over {DEFAULT_PARTITION_CAP}", file=sys.stderr
        )
        sys.exit(3)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from None


def _read_m1_file(path: str) -> list[int]:
    values = []
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
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


def _resolve_pair(
    pair: str | None,
    pair_file: str | None,
    d: int | None,
    m1_file: str | None,
) -> Callable[[int], FamilyPair]:
    """Check the pair options and read their files, exiting 2 on any
    specification problem, and return the pair as a function of the bound
    n. andrews, one strand per size up to n, is built only when called."""
    if (pair is None) == (pair_file is None):
        raise click.UsageError("specify exactly one of --pair or --pair-file")
    if pair_file is not None:
        if d is not None or m1_file is not None:
            raise click.UsageError("--d/--m1-file do not apply to --pair-file")
        parsed = parse_family_pair(_read_text(pair_file))
        return lambda bound: parsed
    if pair == "glaisher" and d is None:
        raise click.UsageError("glaisher requires --d")
    if pair == "andrews" and m1_file is None:
        raise click.UsageError("andrews requires --m1-file")
    m1 = None if m1_file is None else _read_m1_file(m1_file)
    if pair == "andrews":
        return lambda bound: builtin_pair(pair, d=d, m1=m1, bound=bound)
    built = builtin_pair(pair, d=d, m1=m1)
    return lambda bound: built


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


def _index_doc(idx) -> dict:
    return {"strand": str(idx.strand), "t": str(idx.t)}


def _witness_doc(witness) -> dict | None:
    if witness is None:
        return None
    if isinstance(witness, DisjointnessWitness):
        return {
            "kind": "shared_support",
            "side": witness.side,
            "index_a": _index_doc(witness.idx_a),
            "index_b": _index_doc(witness.idx_b),
            "element": str(witness.element),
            "multiset_a": _fmt_multiset(witness.multiset_a),
            "multiset_b": _fmt_multiset(witness.multiset_b),
        }
    if isinstance(witness, WeightWitness):
        return {
            "kind": "weight_mismatch",
            "index": _index_doc(witness.idx),
            "weight_f": str(witness.weight_f),
            "weight_g": str(witness.weight_g),
            "multiset_f": _fmt_multiset(witness.multiset_f),
            "multiset_g": _fmt_multiset(witness.multiset_g),
        }
    return {
        "kind": "union_weight_mismatch",
        "positions": [_index_doc(i) for i in witness.positions],
        "weight_f": str(witness.weight_f),
        "weight_g": str(witness.weight_g),
        "union_f": _fmt_multiset(witness.union_f),
        "union_g": _fmt_multiset(witness.union_g),
    }


# One text line per witness kind, filled from the witness document.
_WITNESS_TEXT = {
    "shared_support": "{side} members {index_a} {multiset_a} and {index_b} {multiset_b} "
    "share element {element}",
    "weight_mismatch": "weights differ at {index}: "
    "F {multiset_f} weighs {weight_f}, G {multiset_g} weighs {weight_g}",
    "union_weight_mismatch": "union weights differ for S = [{positions}]: "
    "F union {union_f} weighs {weight_f}, G union {union_g} weighs {weight_g}",
}


def _witness_field_text(value) -> str:
    if isinstance(value, list):
        return ", ".join(map(_witness_field_text, value))
    if isinstance(value, dict):
        return f"(strand {value['strand']}, t={value['t']})"
    return value


def _witness_text(doc: dict) -> str:
    fields = {key: _witness_field_text(value) for key, value in doc.items()}
    return "witness: " + _WITNESS_TEXT[doc["kind"]].format(**fields)


def _emit(fmt: str, doc, text, csv=None) -> None:
    """Print a command's document: as itself for json, else through the
    renderer for the format (csv falls back to text).

    Every echo in this module names its stream: without ``file=``, click
    caches each new sys.stdout/sys.stderr in a table whose value is the
    stream itself, so a stream given to an in-process run is never freed."""
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2), file=sys.stdout)
    else:
        click.echo((csv if fmt == "csv" and csv else text)(doc), file=sys.stdout)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """click's own --help callback, with its stream named (see `_emit`)."""
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), file=sys.stdout, color=ctx.color)
        ctx.exit()


class _HelpStreamNamed:
    """Print --help through `_show_help` instead of click's default callback."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _ExitCodeCommand(_HelpStreamNamed, click.Command):
    """Map any exception that escapes a command to its exit code, so codes are
    never conflated: a pair specification error is a usage error (2), click's
    own exceptions keep theirs, and anything else is a bug (4), never a
    divergence (1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FamilyError as exc:
            # With the command's ctx, stderr keeps its "Usage:" and "Try" lines.
            raise click.UsageError(str(exc), ctx) from None
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            ctx.exit(4)


class _Group(_HelpStreamNamed, click.Group):
    command_class = _ExitCodeCommand

    def parse_args(self, ctx, args):
        # click's own no-arguments help (exit 2) echoes to an unnamed stream.
        if not args and self.no_args_is_help and not ctx.resilient_parsing:
            click.echo(ctx.get_help(), file=sys.stderr, color=ctx.color)
            ctx.exit(2)
        return super().parse_args(ctx, args)


@click.group(cls=_Group)
def main():
    """Exact verification of identically distributed partition statistics."""


def _catalog_text(doc: list) -> str:
    lines = []
    for entry in doc:
        params = entry["params"]
        lines.append(f"{entry['name']}  [{params}]" if params else entry["name"])
        lines.append(f"    {entry['description']}")
    return "\n".join(lines)


def _catalog_csv(doc: list) -> str:
    lines = ["name,params,description"]
    for entry in doc:
        lines.append(f'{entry["name"]},{entry["params"]},"{entry["description"]}"')
    return "\n".join(lines)


@main.command()
@click.option("--format", "fmt", type=FORMATS, default="table", help="Output format.")
def catalog(fmt: str):
    """List the built-in statistic pairs."""
    doc = [
        {"name": name, "params": params, "description": desc}
        for name, (params, desc) in sorted(BUILTIN_PAIRS.items())
    ]
    _emit(fmt, doc, _catalog_text, _catalog_csv)


def _table_doc(table: DistributionTable, label: str) -> dict:
    """Rows in ascending j; every number a decimal string."""
    return {
        "statistic": label,
        "n": str(table.n),
        "counts": {str(j): str(c) for j, c in sorted(table.counts.items())},
        "total": str(table.total),
    }


def _table_text(doc: dict) -> str:
    counts = doc["counts"]
    width = max([len("count"), *map(len, counts.values())])
    jwidth = max([len("j"), *map(len, counts)])
    lines = [
        f"{doc['statistic']}  n={doc['n']}  total={doc['total']}",
        f"{'j':>{jwidth}}  {'count':>{width}}",
    ]
    for j, c in counts.items():
        lines.append(f"{j:>{jwidth}}  {c:>{width}}")
    return "\n".join(lines)


def _table_csv(doc: dict) -> str:
    lines = ["n,j,count,total"]
    for j, c in doc["counts"].items():
        lines.append(f"{doc['n']},{j},{c},{doc['total']}")
    return "\n".join(lines)


@main.command()
@_pair_options
@click.option("--side", type=click.Choice(["X", "Y"]), required=True, help="Which statistic.")
@click.option("--n", type=int, required=True, help="Partition weight (n >= 0).")
@click.option("--format", "fmt", type=FORMATS, default="table", help="Output format.")
def dist(pair, pair_file, d, m1_file, side, n, fmt):
    """Exact distribution table of one side's statistic at a single n.

    Exits 3, printing nothing on stdout, when p(n) is over the partition cap
    (100,000,000, first passed at n = 95).
    """
    if n < 0:
        raise click.UsageError("--n must be >= 0")
    build = _resolve_pair(pair, pair_file, d, m1_file)
    _exit_over_partition_cap(n)
    stat_x, stat_y = pair_statistics(build(n))
    stat = stat_x if side == "X" else stat_y
    doc = _table_doc(distribution_bruteforce(stat, n), stat.label)
    _emit(fmt, doc, _table_text, _table_csv)


def _compare_doc(report: ComparisonReport, pair_name: str) -> dict:
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
    return {
        "pair": pair_name,
        "x": report.label_x,
        "y": report.label_y,
        "n_from": str(report.n_from),
        "n_to": str(report.n_to),
        "identical_everywhere": report.identical_everywhere,
        "results": results,
    }


def _compare_text(doc: dict) -> str:
    lines = [f"pair: {doc['pair']}", f"X: {doc['x']}  Y: {doc['y']}"]
    for r in doc["results"]:
        if r["verdict"] == "identical":
            lines.append(f"n={r['n']}  identical")
        else:
            lines.append(
                f"n={r['n']}  divergent at j={r['j']}: "
                f"X count {r['count_x']}, Y count {r['count_y']}"
            )
    if doc["identical_everywhere"]:
        lines.append(f"result: identical for all n in [{doc['n_from']}, {doc['n_to']}]")
    else:
        first = next(r for r in doc["results"] if r["verdict"] == "divergent")
        lines.append(f"result: divergent, first at n={first['n']}")
    return "\n".join(lines)


def _compare_csv(doc: dict) -> str:
    lines = ["n,verdict,j,count_x,count_y"]
    for r in doc["results"]:
        lines.append(
            f"{r['n']},{r['verdict']},{r.get('j', '')},"
            f"{r.get('count_x', '')},{r.get('count_y', '')}"
        )
    return "\n".join(lines)


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
    divergence (reported with the smallest differing j), and 3, printing
    nothing on stdout, when p(n_max) is over the partition cap.
    """
    if not 0 <= n_from <= n_max:
        raise click.UsageError("need 0 <= --n-from <= --n-max")
    build = _resolve_pair(pair, pair_file, d, m1_file)
    if prose_y and pair != "mod6":
        raise click.UsageError("--prose-y applies only to --pair mod6")
    _exit_over_partition_cap(n_max)
    resolved = build(n_max)
    stat_x, stat_y = pair_statistics(resolved)
    if prose_y:
        stat_y = FamilyStatistic(mod6_prose_family())
    report = compare_distributions(stat_x, stat_y, n_from, n_max)
    _emit(fmt, _compare_doc(report, resolved.name), _compare_text, _compare_csv)
    sys.exit(0 if report.identical_everywhere else 1)


def _sieve_status(doc: dict) -> str:
    if doc["truncated"]:
        return f"truncated: subset cap exceeded after {doc['subsets_explored']} subsets"
    if doc["crosscheck"] == "skipped":
        return f"crosscheck: skipped: p(n) is over {DEFAULT_PARTITION_CAP}"
    return f"crosscheck: {doc['crosscheck']}"


def _sieve_text(doc: dict) -> str:
    if doc["truncated"]:
        return _sieve_status(doc)
    return "\n".join(
        [_table_text(doc), f"subsets explored: {doc['subsets_explored']}", _sieve_status(doc)]
    )


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
    1 on FAIL, 3 if the subset budget was exceeded (truncated result) or if
    p(n) is over the partition cap (`crosscheck: skipped`, table still exact).
    """
    if n < 0:
        raise click.UsageError("--n must be >= 0")
    if subset_cap <= 0:
        raise click.UsageError("--subset-cap must be > 0")
    resolved = _resolve_pair(pair, pair_file, d, m1_file)(n)
    family = resolved.F if side == "X" else resolved.G
    label = f"{resolved.name}.{side} (sieve)"
    result = sieve_distribution(family, n, subset_cap)
    explored = str(result.subsets_explored)
    over_cap = _over_partition_cap(n)
    if result.truncated:
        doc = {"statistic": label, "n": str(n), "truncated": True, "subsets_explored": explored}
    else:
        doc = {**_table_doc(result.table, label), "subsets_explored": explored, "truncated": False}
        if over_cap:
            doc["crosscheck"] = "skipped"
        else:
            brute = distribution_bruteforce(FamilyStatistic(family), n)
            doc["crosscheck"] = "PASS" if result.table == brute else "FAIL"
    if fmt == "csv":
        # The csv stream on stdout holds table rows only; the verdict goes to stderr.
        if not result.truncated:
            click.echo(_table_csv(doc), file=sys.stdout)
        click.echo(_sieve_status(doc), file=sys.stderr)
    else:
        _emit(fmt, doc, _sieve_text)
    if result.truncated or over_cap:
        sys.exit(3)
    sys.exit(0 if doc["crosscheck"] == "PASS" else 1)


def _check_text(doc: dict) -> str:
    lines = [
        f"pair: {doc['pair']}",
        f"theorem: {doc['theorem']}",
        f"verified_up_to: {doc['verified_up_to']}",
    ]
    if doc["theorem"] == "C":
        lines.append(f"subsets explored: {doc['subsets_explored']}")
    if doc["inconclusive"]:
        lines.append("inconclusive: subset cap exceeded before the frontier was exhausted")
    else:
        lines.append(f"holds: {'true' if doc['holds'] else 'false'}")
    if doc["witness"] is not None:
        lines.append(_witness_text(doc["witness"]))
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
    resolved = _resolve_pair(pair, pair_file, d, m1_file)(n_max)
    if theorem == "b":
        report = check_theorem_b(resolved, n_max)
    else:
        report = check_theorem_c(resolved, n_max, subset_cap)
    doc = {
        "pair": resolved.name,
        "theorem": report.theorem,
        "verified_up_to": str(report.verified_up_to),
        "holds": report.holds,
        "inconclusive": report.inconclusive,
        "subsets_explored": str(report.subsets_explored),
        "witness": _witness_doc(report.witness),
    }
    _emit(fmt, doc, _check_text)
    if report.inconclusive:
        sys.exit(3)
    sys.exit(0 if report.holds else 1)


if __name__ == "__main__":
    main()
