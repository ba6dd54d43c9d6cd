"""Acceptance suite: the eight exit criteria, one test (and one printed
PASS/FAIL line) each. Every check is exact arithmetic with zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from partition_sieve import (
    FamilyStatistic,
    Multiset,
    builtin_pair,
    check_theorem_b,
    check_theorem_c,
    compare,
    count_partitions,
    distribution_bruteforce,
    pair_statistics,
    sieve_distribution,
)
from partition_sieve.cli import main as cli_main
from partition_sieve.families import mod6_prose_family
from partition_sieve.partitions import descending_part_sequences

from oracles import count_distinct_parts_dp, count_odd_parts_dp


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def cli(args):
    return CliRunner().invoke(cli_main, args, catch_exceptions=False)


def test_criterion_1_euler_identical_to_40():
    with criterion(1, "euler pair identically distributed for all n <= 40"):
        started = time.monotonic()
        result = cli(["compare", "--pair", "euler", "--n-max", "40"])
        elapsed = time.monotonic() - started
        assert result.exit_code == 0
        assert "identical for all n in [1, 40]" in result.output
        assert "divergent" not in result.output
        assert elapsed < 60.0


def test_criterion_2_euler_j0_marginals_to_40():
    with criterion(2, "j=0 marginals equal independent distinct/odd-part counts, n <= 40"):
        evens, repeated = pair_statistics(builtin_pair("euler"))
        for n in range(41):
            assert distribution_bruteforce(repeated, n).marginal(0) == count_distinct_parts_dp(n)
            assert distribution_bruteforce(evens, n).marginal(0) == count_odd_parts_dp(n)
        assert distribution_bruteforce(repeated, 5).marginal(0) == 3
        assert distribution_bruteforce(evens, 5).marginal(0) == 3


def test_criterion_3_squares_glaisher_andrews_to_30(tmp_path):
    with criterion(3, "squares, glaisher d=2..5, andrews (all<=30, pow2<=30) identical, n <= 30"):
        pairs = [builtin_pair("squares")]
        pairs += [builtin_pair("glaisher", d=d) for d in (2, 3, 4, 5)]
        andrews_all = builtin_pair("andrews", m1=list(range(1, 31)), bound=30)
        andrews_pow2 = builtin_pair("andrews", m1=[1, 2, 4, 8, 16], bound=30)
        pairs += [andrews_all, andrews_pow2]
        for pair in pairs:
            x, y = pair_statistics(pair)
            assert compare(x, y, 1, 30).identical_everywhere, pair.name

        # andrews over all integers <= 30 must reduce to the euler pair.
        euler = builtin_pair("euler")
        euler_x, _ = pair_statistics(euler)
        andrews_x, _ = pair_statistics(andrews_all)
        for n in range(31):
            assert distribution_bruteforce(andrews_x, n) == distribution_bruteforce(euler_x, n)
        members = lambda fam, n: sorted(
            (fam.member(i) for i in fam.relevant_indices(n)), key=lambda m: m.items()
        )
        assert members(andrews_all.F, 30) == members(euler.F, 30)
        assert members(andrews_all.G, 30) == members(euler.G, 30)

        # and the CLI path exits 0 on those same verifications
        m1 = tmp_path / "pow2.txt"
        m1.write_text("1\n2\n4\n8\n16\n")
        assert cli(["compare", "--pair", "squares", "--n-max", "30"]).exit_code == 0
        assert (
            cli(["compare", "--pair", "glaisher", "--d", "3", "--n-max", "30"]).exit_code == 0
        )
        assert (
            cli(
                ["compare", "--pair", "andrews", "--m1-file", str(m1), "--n-max", "30"]
            ).exit_code
            == 0
        )


def test_criterion_4_remmel_consecutive():
    with criterion(4, "remmel pair: identical n <= 30; theorem C holds; theorem B violated"):
        result = cli(["compare", "--pair", "remmel_consecutive", "--n-max", "30"])
        assert result.exit_code == 0

        result = cli(["check", "--pair", "remmel_consecutive", "--theorem", "c", "--n-max", "24"])
        assert result.exit_code == 0
        assert "holds: true" in result.output

        result = cli(["check", "--pair", "remmel_consecutive", "--theorem", "b", "--n-max", "30"])
        assert result.exit_code == 1
        assert "share element 4" in result.output
        # the witness members are the first two F multisets
        report = check_theorem_b(builtin_pair("remmel_consecutive"), 30)
        assert not report.holds
        assert report.witness.element == 4
        assert report.witness.multiset_a == Multiset({2: 1, 4: 1})
        assert report.witness.multiset_b == Multiset({4: 1, 6: 1})


def test_criterion_5_sieve_oracle_equivalence_to_25():
    with criterion(5, "sieve equals brute force for every built-in family side, n <= 25"):
        result = sieve_distribution(builtin_pair("euler").F, 4)
        assert result.table.counts == {0: 2, 1: 3}  # hand-verifiable e0, e1

        pairs = [
            builtin_pair("euler"),
            builtin_pair("squares"),
            builtin_pair("mod6"),
            *(builtin_pair("glaisher", d=d) for d in (2, 3, 4, 5)),
            builtin_pair("andrews", m1=list(range(1, 31)), bound=30),
            builtin_pair("andrews", m1=[1, 2, 4, 8, 16], bound=30),
            builtin_pair("remmel_consecutive"),
        ]
        for pair in pairs:
            for family in (pair.F, pair.G):
                stat = FamilyStatistic(family)
                for n in range(26):
                    sieved = sieve_distribution(family, n)
                    assert not sieved.truncated
                    brute = distribution_bruteforce(stat, n)
                    assert sieved.table == brute, (family.name, n)


def test_criterion_6_mod6_family_and_prose():
    with criterion(6, "mod6 family form identical n <= 30; prose Y diverges at n=6"):
        x, y = pair_statistics(builtin_pair("mod6"))
        assert compare(x, y, 1, 30).identical_everywhere

        prose = FamilyStatistic(mod6_prose_family())
        report = compare(x, prose, 1, 6)
        first = report.first_divergence()
        assert first.n == 6
        assert distribution_bruteforce(x, 6).counts == {0: 3, 1: 6, 2: 2}
        assert distribution_bruteforce(prose, 6).counts == {0: 2, 1: 7, 2: 2}

        result = cli(["compare", "--pair", "mod6", "--prose-y", "--n-max", "6"])
        assert result.exit_code == 1
        assert "n=6  divergent" in result.output


def test_criterion_7_counting_backbone():
    with criterion(7, "count_partitions matches enumeration n <= 30; p(6)=11; p(100)=190569292"):
        for n in range(31):
            assert count_partitions(n) == sum(1 for _ in descending_part_sequences(n))
        assert count_partitions(6) == 11
        assert count_partitions(100) == 190569292


def test_criterion_8_checker_soundness(tmp_path):
    with criterion(8, "violations carry re-validating witnesses; corrupted pairs exit 1"):
        # weight corruption at one index (strand 1: F weighs 4, G weighs 6)
        weight_doc = {
            "name": "corrupt_weight",
            "F": [{"explicit": [[2, 1]]}, {"explicit": [[4, 1]]}],
            "G": [{"explicit": [[1, 2]]}, {"explicit": [[3, 2]]}],
        }
        # injected shared support element (F strands share size 2)
        support_doc = {
            "name": "corrupt_support",
            "F": [{"explicit": [[2, 1]]}, {"explicit": [[2, 1], [4, 1]]}],
            "G": [{"explicit": [[1, 2]]}, {"explicit": [[3, 2]]}],
        }
        for doc, fragment in ((weight_doc, "weights differ"), (support_doc, "share element 2")):
            path = tmp_path / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            result = cli(["check", "--pair-file", str(path), "--theorem", "b"])
            assert result.exit_code == 1
            assert fragment in result.output

        # library-level: every holds=false witness re-validates from scratch
        from partition_sieve import parse_family_pair

        weight_pair = parse_family_pair(weight_doc)
        report = check_theorem_b(weight_pair, 30)
        w = report.witness
        assert weight_pair.F.member(w.idx).weight != weight_pair.G.member(w.idx).weight

        support_pair = parse_family_pair(support_doc)
        report = check_theorem_b(support_pair, 30)
        w = report.witness
        fresh = set(support_pair.F.member(w.idx_a).sizes()) & set(
            support_pair.F.member(w.idx_b).sizes()
        )
        assert w.element in fresh

        union_doc = {
            "name": "corrupt_union",
            "F": [{"explicit": [[2, 1], [4, 1]]}, {"explicit": [[4, 1], [6, 1]]}],
            "G": [{"explicit": [[1, 2], [4, 1]]}, {"explicit": [[2, 1], [8, 1]]}],
        }
        union_pair = parse_family_pair(union_doc)
        report = check_theorem_c(union_pair, 20)
        assert not report.holds
        w = report.witness
        union_f = Multiset()
        union_g = Multiset()
        for idx in w.positions:
            union_f = union_f.union(union_pair.F.member(idx))
            union_g = union_g.union(union_pair.G.member(idx))
        assert (union_f.weight, union_g.weight) == (w.weight_f, w.weight_g) == (12, 16)
        path = tmp_path / "corrupt_union.json"
        path.write_text(json.dumps(union_doc))
        result = cli(["check", "--pair-file", str(path), "--theorem", "c", "--n-max", "20"])
        assert result.exit_code == 1
        assert "union weights differ" in result.output
