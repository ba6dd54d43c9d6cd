import gc
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner

from partition_sieve import (
    builtin_pair,
    cli,
    distribution,
    families,
    parse_family_pair,
    render_family_pair,
)
from partition_sieve.cli import main
from partition_sieve.partitions import count_partitions

EULER_DOC = json.dumps(render_family_pair(builtin_pair("euler")))

POW2_M1 = "1\n2\n4\n8\n16\n"

# Valid but adversarial: 1500 identical {1:1} strands make every index subset
# a candidate, and each search path as deep as the family is long.
DEEP_DOC = json.dumps(
    {"name": "deep", "F": [{"explicit": [[1, 1]]}] * 1500, "G": [{"explicit": [[1, 1]]}] * 1500}
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestCatalog:
    def test_lists_pairs(self, runner):
        result = invoke(runner, ["catalog"])
        assert result.exit_code == 0
        assert "euler" in result.output
        assert "remmel_consecutive" in result.output
        assert "theorem C" in result.output

    def test_json(self, runner):
        result = invoke(runner, ["catalog", "--format", "json"])
        doc = json.loads(result.output)
        assert {entry["name"] for entry in doc} == {
            "euler",
            "squares",
            "mod6",
            "glaisher",
            "andrews",
            "remmel_consecutive",
        }


class TestDist:
    def test_euler_x_n4(self, runner):
        result = invoke(runner, ["dist", "--pair", "euler", "--side", "X", "--n", "4"])
        assert result.exit_code == 0
        assert "n=4  total=5" in result.output
        lines = result.output.strip().splitlines()
        assert lines[-2].split() == ["0", "2"]
        assert lines[-1].split() == ["1", "3"]

    def test_euler_y_n0(self, runner):
        result = invoke(runner, ["dist", "--pair", "euler", "--side", "Y", "--n", "0"])
        assert result.exit_code == 0
        assert "total=1" in result.output

    def test_glaisher_csv_matches_x_side(self, runner):
        args = ["dist", "--pair", "glaisher", "--d", "2", "--n", "4", "--format", "csv"]
        y = invoke(runner, args + ["--side", "Y"])
        x = invoke(runner, args + ["--side", "X"])
        assert y.output.splitlines()[0] == "n,j,count,total"
        assert y.output == x.output  # identical tables, per the disjoint-family criterion

    def test_unknown_pair_exits_2(self, runner):
        result = runner.invoke(
            main, ["dist", "--pair", "nope", "--side", "X", "--n", "4"]
        )
        assert result.exit_code == 2

    def test_glaisher_needs_d(self, runner):
        result = runner.invoke(main, ["dist", "--pair", "glaisher", "--side", "X", "--n", "4"])
        assert result.exit_code == 2
        assert "--d" in result.output

    def test_json_format(self, runner):
        result = invoke(
            runner, ["dist", "--pair", "euler", "--side", "X", "--n", "4", "--format", "json"]
        )
        doc = json.loads(result.output)
        assert doc["counts"] == {"0": "2", "1": "3"}
        assert doc["total"] == "5"


class TestCompare:
    def test_euler_identical(self, runner):
        result = invoke(runner, ["compare", "--pair", "euler", "--n-max", "20"])
        assert result.exit_code == 0
        assert "identical for all n in [1, 20]" in result.output

    def test_mod6_prose_divergence(self, runner):
        result = invoke(
            runner, ["compare", "--pair", "mod6", "--prose-y", "--n-max", "6"]
        )
        assert result.exit_code == 1
        assert "n=6  divergent" in result.output
        assert "n=5  identical" in result.output

    def test_remmel_identical(self, runner):
        result = invoke(
            runner, ["compare", "--pair", "remmel_consecutive", "--n-max", "20"]
        )
        assert result.exit_code == 0

    def test_prose_y_requires_mod6(self, runner):
        result = runner.invoke(main, ["compare", "--pair", "euler", "--prose-y"])
        assert result.exit_code == 2

    def test_csv_format(self, runner):
        result = invoke(
            runner,
            ["compare", "--pair", "mod6", "--prose-y", "--n-max", "6", "--format", "csv"],
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,verdict,j,count_x,count_y"
        assert lines[-1] == "6,divergent,0,3,2"

    def test_json_format(self, runner):
        result = invoke(
            runner, ["compare", "--pair", "euler", "--n-max", "5", "--format", "json"]
        )
        doc = json.loads(result.output)
        assert doc["identical_everywhere"] is True
        assert doc["results"][0] == {"n": "1", "verdict": "identical"}


class TestSieve:
    def test_euler_n4(self, runner):
        result = invoke(runner, ["sieve", "--pair", "euler", "--side", "X", "--n", "4"])
        assert result.exit_code == 0
        assert "crosscheck: PASS" in result.output
        lines = [l.split() for l in result.output.splitlines()]
        assert ["0", "2"] in lines and ["1", "3"] in lines

    def test_n0(self, runner):
        result = invoke(runner, ["sieve", "--pair", "euler", "--side", "X", "--n", "0"])
        assert result.exit_code == 0
        assert "total=1" in result.output
        assert "crosscheck: PASS" in result.output

    def test_cap_exceeded_exits_3(self, runner):
        result = invoke(
            runner,
            ["sieve", "--pair", "euler", "--side", "Y", "--n", "20", "--subset-cap", "3"],
        )
        assert result.exit_code == 3
        assert "truncated" in result.output

    def test_json_carries_crosscheck(self, runner):
        result = invoke(
            runner,
            ["sieve", "--pair", "squares", "--side", "Y", "--n", "9", "--format", "json"],
        )
        doc = json.loads(result.output)
        assert doc["crosscheck"] == "PASS"
        assert doc["truncated"] is False


class TestPartitionCap:
    """p(n) is known before brute force starts: dist and compare exit 3
    over the cap with one stderr line, and sieve keeps its exact table but
    skips the brute-force crosscheck."""

    P100 = "partition cap exceeded: p(100) is over 100000000\n"
    SKIPPED = "crosscheck: skipped: p(n) is over 100000000"

    @pytest.fixture
    def no_walk(self, monkeypatch):
        monkeypatch.setattr(distribution, "_tally_sweep", _boom)

    @pytest.mark.parametrize(
        "args",
        [
            ["dist", "--pair", "euler", "--side", "X", "--n", "100"],
            ["compare", "--pair", "euler", "--n-max", "100"],
            ["compare", "--pair", "mod6", "--prose-y", "--n-from", "99", "--n-max", "100"],
        ],
        ids=["dist", "compare", "compare-prose-y"],
    )
    def test_default_cap_n100_exits_3(self, runner, no_walk, args):
        result = invoke(runner, args)
        assert (result.exit_code, result.stdout, result.stderr) == (3, "", self.P100)

    @pytest.mark.parametrize(
        "args",
        [
            ["dist", "--pair", "euler", "--side", "X", "--n", "1000000"],
            ["compare", "--pair", "euler", "--n-max", "1000000"],
        ],
        ids=["dist", "compare"],
    )
    def test_huge_n_never_counts_its_partitions(self, runner, no_walk, monkeypatch, args):
        # The check steps p up to the cap, never out to p(1000000).
        def bounded(m):
            assert m <= 100, f"p({m}) computed for the cap check"
            return count_partitions(m)

        monkeypatch.setattr(cli, "count_partitions", bounded)
        cli._largest_n_within.cache_clear()
        result = invoke(runner, args)
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "partition cap exceeded: p(1000000) is over 100000000\n"

    @pytest.mark.parametrize(
        "args",
        [["dist", "--side", "X", "--n", "1000000"], ["compare", "--n-max", "1000000"]],
        ids=["dist", "compare"],
    )
    def test_andrews_strands_never_built_over_the_cap(
        self, runner, no_walk, monkeypatch, tmp_path, args
    ):
        # 2^0 ... 2^24 is closed under doubling past 10^6, so the pair would
        # hold one strand per size up to 10^6.
        path = tmp_path / "m1.txt"
        path.write_text("".join(f"{2**k}\n" for k in range(25)))
        monkeypatch.setattr(families, "_andrews_pair", _boom)
        result = invoke(runner, args + ["--pair", "andrews", "--m1-file", str(path)])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "partition cap exceeded: p(1000000) is over 100000000\n"

    @pytest.mark.parametrize("command", [["dist", "--side", "X", "--n"], ["compare", "--n-max"]])
    @pytest.mark.parametrize(
        "args, error",
        [
            (["--pair", "andrews"], "andrews requires --m1-file"),
            (["--pair", "glaisher"], "glaisher requires --d"),
            ([], "specify exactly one of --pair or --pair-file"),
            (["--pair", "euler", "--pair-file", "LIST_FILE"], "specify exactly one of"),
            (["--pair", "andrews", "--m1-file", "MISSING"], "cannot read"),
            (["--pair-file", "MISSING"], "cannot read"),
            (["--pair-file", "LIST_FILE"], "pair document must be a JSON object"),
        ],
        ids=[
            "andrews-without-m1",
            "glaisher-without-d",
            "no-pair",
            "both-pair-flags",
            "unreadable-m1-file",
            "unreadable-pair-file",
            "bad-pair-document",
        ],
    )
    def test_specification_errors_exit_2_over_the_cap(
        self, runner, no_walk, tmp_path, command, args, error
    ):
        paths = {"LIST_FILE": tmp_path / "list.json", "MISSING": tmp_path / "missing.txt"}
        paths["LIST_FILE"].write_text("[]")
        argv = command + ["1000000"] + [str(paths[a]) if a in paths else a for a in args]
        result = runner.invoke(main, argv)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.splitlines()[-1].startswith("Error: " + error)

    def test_cap_passed_first_at_95(self, runner, no_walk):
        # p(94) = 92,669,720 and p(95) = 104,651,419.
        assert count_partitions(94) == 92_669_720
        assert cli._largest_n_within(cli.DEFAULT_PARTITION_CAP) == 94
        result = invoke(runner, ["dist", "--pair", "euler", "--side", "X", "--n", "95"])
        assert (result.exit_code, result.stdout) == (3, "")

    def test_sieve_n100_keeps_exact_table(self, runner, no_walk):
        result = invoke(runner, ["sieve", "--pair", "euler", "--side", "X", "--n", "100"])
        assert result.exit_code == 3
        lines = result.stdout.splitlines()
        assert lines[0] == "euler.X (sieve)  n=100  total=190569292"
        assert lines[-1] == self.SKIPPED
        assert result.stderr == ""

    def test_sieve_n100_json_and_csv(self, runner, no_walk):
        args = ["sieve", "--pair", "euler", "--side", "X", "--n", "100", "--format"]
        doc = json.loads(invoke(runner, args + ["json"]).stdout)
        assert (doc["crosscheck"], doc["total"]) == ("skipped", "190569292")
        result = invoke(runner, args + ["csv"])
        assert result.exit_code == 3
        assert result.stdout.startswith("n,j,count,total\n100,0,444793,190569292\n")
        assert result.stderr == self.SKIPPED + "\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["dist", "--pair", "euler", "--side", "Y", "--n", "10"],
            ["compare", "--pair", "euler", "--n-max", "10"],
        ],
        ids=["dist", "compare"],
    )
    def test_small_cap(self, runner, monkeypatch, args):
        # p(10) = 42: a cap of 42 still walks, 41 does not.
        monkeypatch.setattr(cli, "DEFAULT_PARTITION_CAP", 42)
        assert invoke(runner, args).exit_code == 0
        monkeypatch.setattr(cli, "DEFAULT_PARTITION_CAP", 41)
        result = invoke(runner, args)
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "partition cap exceeded: p(10) is over 41\n"

    def test_sieve_small_cap(self, runner, monkeypatch):
        args = ["sieve", "--pair", "remmel_consecutive", "--side", "Y", "--n", "10"]
        monkeypatch.setattr(cli, "DEFAULT_PARTITION_CAP", 42)
        checked = invoke(runner, args)
        monkeypatch.setattr(cli, "DEFAULT_PARTITION_CAP", 41)
        skipped = invoke(runner, args)
        assert (checked.exit_code, skipped.exit_code) == (0, 3)
        table = checked.stdout.splitlines()[:-1]
        skipped_line = "crosscheck: skipped: p(n) is over 41"
        assert skipped.stdout.splitlines() == table + [skipped_line]


class TestCheck:
    def test_squares_b_holds(self, runner):
        result = invoke(runner, ["check", "--pair", "squares", "--theorem", "b", "--n-max", "30"])
        assert result.exit_code == 0
        assert "holds: true" in result.output

    def test_remmel_b_violation(self, runner):
        result = invoke(
            runner,
            ["check", "--pair", "remmel_consecutive", "--theorem", "b", "--n-max", "30"],
        )
        assert result.exit_code == 1
        assert "share element 4" in result.output
        assert "{2,4}" in result.output and "{4,6}" in result.output

    def test_remmel_c_holds(self, runner):
        result = invoke(
            runner,
            ["check", "--pair", "remmel_consecutive", "--theorem", "c", "--n-max", "24"],
        )
        assert result.exit_code == 0
        assert "holds: true" in result.output

    def test_c_cap_exits_3(self, runner):
        result = invoke(
            runner,
            [
                "check",
                "--pair",
                "remmel_consecutive",
                "--theorem",
                "c",
                "--n-max",
                "24",
                "--subset-cap",
                "2",
            ],
        )
        assert result.exit_code == 3
        assert "inconclusive" in result.output

    def test_json_witness(self, runner):
        result = invoke(
            runner,
            [
                "check",
                "--pair",
                "remmel_consecutive",
                "--theorem",
                "b",
                "--format",
                "json",
            ],
        )
        doc = json.loads(result.output)
        assert doc["holds"] is False
        assert doc["witness"]["kind"] == "shared_support"
        assert doc["witness"]["element"] == "4"


class TestDeepFamilies:
    @pytest.mark.parametrize(
        "args",
        [
            ["sieve", "--side", "X", "--n", "10", "--subset-cap", "2000"],
            ["check", "--theorem", "c", "--n-max", "10", "--subset-cap", "2000"],
        ],
    )
    def test_cap_exits_3_without_recursion_error(self, runner, tmp_path, args):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOC)
        result = invoke(runner, args + ["--pair-file", str(path)])
        assert result.exit_code == 3

    def test_identical_strands_are_built_once(self, runner, tmp_path):
        pair = parse_family_pair(DEEP_DOC)
        strands = pair.F.strands + pair.G.strands
        assert len(strands) == 3000
        assert all(strand is strands[0] for strand in strands)
        doc = render_family_pair(pair)
        assert doc["F"] == doc["G"] == [{"explicit": [[1, 1]]}] * 1500
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOC)
        result = invoke(
            runner,
            ["check", "--theorem", "c", "--n-max", "20", "--subset-cap", "2000", "--pair-file", str(path)],
        )
        assert result.exit_code == 3


class TestInternalErrors:
    def test_unexpected_exception_exits_4(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("witness failed re-validation")

        monkeypatch.setattr("partition_sieve.cli.check_theorem_c", broken)
        result = runner.invoke(
            main, ["check", "--pair", "euler", "--theorem", "c", "--n-max", "10"]
        )
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == (
            "internal error: RuntimeError: witness failed re-validation\n"
        )

    def test_walk_without_witness_within_the_cap_exits_4(self, runner, monkeypatch):
        # A theorem C walk that contradicts the DP is a bug, never "holds".
        monkeypatch.setattr("partition_sieve.sieve._agreeing_sets", lambda *args: None)
        result = runner.invoke(
            main, ["check", "--pair", "euler", "--theorem", "c", "--n-max", "30"]
        )
        assert (result.exit_code, result.stdout) == (4, "")
        assert result.stderr.startswith("internal error: RuntimeError: ")
        assert result.stderr.count("\n") == 1


class TestUsageChecks:
    """Each command's own argument checks exit 2 before any work, with
    nothing on stdout. PAIR_FILE is the euler document, M1_FILE an M1 list
    of comments and blank lines only, and LIST_FILE the document []."""

    @pytest.mark.parametrize(
        "args,last_line",
        [
            (
                ["dist", "--pair", "euler", "--side", "X", "--n", "-1"],
                "Error: --n must be >= 0",
            ),
            (
                ["compare", "--pair", "euler", "--n-from", "5", "--n-max", "4"],
                "Error: need 0 <= --n-from <= --n-max",
            ),
            (
                ["sieve", "--pair", "euler", "--side", "X", "--n", "-1"],
                "Error: --n must be >= 0",
            ),
            (
                ["sieve", "--pair", "euler", "--side", "X", "--n", "5", "--subset-cap", "0"],
                "Error: --subset-cap must be > 0",
            ),
            (
                ["check", "--pair", "euler", "--theorem", "c", "--n-max", "0"],
                "Error: --n-max must be >= 1",
            ),
            (
                ["check", "--pair", "euler", "--theorem", "c", "--subset-cap", "0"],
                "Error: --subset-cap must be > 0",
            ),
            (
                ["compare", "--pair-file", "PAIR_FILE", "--d", "2"],
                "Error: --d/--m1-file do not apply to --pair-file",
            ),
            (["compare", "--pair", "andrews"], "Error: andrews requires --m1-file"),
            (
                ["compare", "--pair", "andrews", "--m1-file", "M1_FILE"],
                "Error: M1_FILE: no M1 entries found",
            ),
            (["compare", "--pair-file", "LIST_FILE"], "Error: pair document must be a JSON object"),
        ],
        ids=[
            "dist-negative-n",
            "compare-empty-range",
            "sieve-negative-n",
            "sieve-zero-cap",
            "check-zero-n-max",
            "check-zero-cap",
            "pair-file-with-d",
            "andrews-without-m1",
            "m1-file-without-entries",
            "pair-file-not-an-object",
        ],
    )
    def test_exits_2(self, runner, tmp_path, args, last_line):
        paths = {
            "PAIR_FILE": (tmp_path / "euler.json", EULER_DOC),
            "M1_FILE": (tmp_path / "m1.txt", "# no entries\n\n   \n# still none\n"),
            "LIST_FILE": (tmp_path / "list.json", "[]"),
        }
        for path, text in paths.values():
            path.write_text(text)
        argv = [str(paths[a][0]) if a in paths else a for a in args]
        last_line = last_line.replace("M1_FILE", str(paths["M1_FILE"][0]))
        result = runner.invoke(main, argv)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.splitlines()[-1] == last_line

    def test_m1_comments_and_blank_lines_between_values(self, runner, tmp_path):
        path = tmp_path / "m1.txt"
        path.write_text("# powers of two\n1\n\n2  # doubles 1\n   \n4\n# 8 next\n8\n16\n")
        plain = tmp_path / "plain.txt"
        plain.write_text(POW2_M1)
        args = ["compare", "--pair", "andrews", "--n-max", "12", "--m1-file"]
        result = invoke(runner, args + [str(path)])
        assert result.exit_code == 0
        assert result.output == invoke(runner, args + [str(plain)]).output


class TestPairFiles:
    def test_euler_file_compares_identically(self, runner, tmp_path):
        path = tmp_path / "euler.json"
        path.write_text(EULER_DOC)
        result = invoke(runner, ["compare", "--pair-file", str(path), "--n-max", "15"])
        assert result.exit_code == 0

    def test_malformed_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "F": [')
        result = runner.invoke(main, ["compare", "--pair-file", str(path)])
        assert result.exit_code == 2
        assert "line" in result.output  # location diagnostics

    def test_invariant_violation_names_strand(self, runner, tmp_path):
        doc = {
            "name": "bad",
            "F": [{"entries": [{"size": [0, 1, -1], "mult": [0, 1]}]}],
            "G": [{"entries": [{"size": [0, 1, -1], "mult": [0, 1]}]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["dist", "--pair-file", str(path), "--side", "X", "--n", "4"])
        assert result.exit_code == 2
        assert "F strand 0" in result.output

    def test_pair_and_pair_file_conflict(self, runner, tmp_path):
        path = tmp_path / "euler.json"
        path.write_text(EULER_DOC)
        result = runner.invoke(
            main, ["compare", "--pair", "euler", "--pair-file", str(path)]
        )
        assert result.exit_code == 2

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["compare", "--pair-file", "/no/such/file.json"])
        assert result.exit_code == 2


    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"name": "x", "tmin": ' + "1" * 5000 + ', "F": [], "G": []}'],
        ids=["nesting_past_recursion_limit", "integer_past_digit_limit"],
    )
    def test_undecodable_json_exits_2(self, runner, tmp_path, text):
        path = tmp_path / "pair.json"
        path.write_text(text)
        result = runner.invoke(main, ["compare", "--pair-file", str(path)])
        assert result.exit_code == 2
        assert "Error: invalid JSON: " in result.stderr


class TestUnreadableInputs:
    @pytest.mark.parametrize("option", ["--m1-file", "--pair-file"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_exits_2(self, runner, tmp_path, option, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"\xff\xfe1\n")
        source = ["--pair", "andrews"] if option == "--m1-file" else []
        result = runner.invoke(main, ["compare", *source, option, str(path)])
        assert result.exit_code == 2
        assert f"Error: cannot read {path}: " in result.stderr


class TestLateSpecErrorsAtParse:
    # Entry 0 has size (t - 70)^2, which is 0 only at t = 70. Strands are
    # validated for every t when the pair file is parsed, so every command
    # exits 2 before it starts, whatever its n.
    STRAND = {
        "entries": [
            {"size": [1, -140, 4900], "mult": [0, 1]},
            {"size": [0, 200, 0], "mult": [0, 1]},
        ]
    }

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--theorem", "b", "--n-max", "14000"],
            ["sieve", "--side", "X", "--n", "14000"],
            ["dist", "--side", "X", "--n", "5"],
        ],
    )
    def test_exits_2(self, runner, tmp_path, args):
        path = tmp_path / "late.json"
        path.write_text(json.dumps({"name": "late", "F": [self.STRAND], "G": [self.STRAND]}))
        result = runner.invoke(main, args + ["--pair-file", str(path)])
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: F strand 0: entry 0: size 0 < 1 at t=70\n")


class TestDecreasingWeightAtParse:
    # F has size (t - 200)^2 + 1 and multiplicity t: every size and
    # multiplicity is >= 1, but the weight falls from t = 67 to t = 200, so
    # F = {1: 200} (weight 200) sits far past the first index above n = 300.
    DOC = json.dumps(
        {
            "name": "dip",
            "F": [{"entries": [{"size": [1, -400, 40001], "mult": [1, 0]}]}],
            "G": [{"entries": [{"size": [1, -400, 40002], "mult": [1, 0]}]}],
        }
    )

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--theorem", "b", "--n-max", "300"],
            ["sieve", "--side", "X", "--n", "200"],
        ],
    )
    def test_exits_2(self, runner, tmp_path, args):
        path = tmp_path / "dip.json"
        path.write_text(self.DOC)
        result = runner.invoke(main, args + ["--pair-file", str(path)])
        assert result.exit_code == 2
        assert "Error: F strand 0: strand weight decreases from t=" in result.stderr
        assert result.stdout == ""


class TestAndrewsInputs:
    def test_m1_file(self, runner, tmp_path):
        path = tmp_path / "m1.txt"
        path.write_text(POW2_M1)
        result = invoke(
            runner,
            ["compare", "--pair", "andrews", "--m1-file", str(path), "--n-max", "12"],
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "m1_text, args, expected",
        [
            pytest.param(m1_text, args, expected, id=case_id + suffix)
            # M1 = {1} is closed under doubling up to n = 1 but not up to 2.
            for m1_text, suffix in [(POW2_M1, ""), ("1\n", "-m1-only-1")]
            for case_id, args, expected in [
                ("dist-0", ["dist", "--side", "X", "--n", "0"], {"counts": {"0": "1"}}),
                ("dist-1", ["dist", "--side", "Y", "--n", "1"], {"counts": {"0": "1"}}),
                (
                    "compare",
                    ["compare", "--n-from", "0", "--n-max", "1"],
                    {"identical_everywhere": True},
                ),
                (
                    "sieve",
                    ["sieve", "--side", "X", "--n", "1"],
                    {"counts": {"0": "1"}, "crosscheck": "PASS"},
                ),
                ("check-b", ["check", "--theorem", "b", "--n-max", "1"], {"holds": True}),
                ("check-c", ["check", "--theorem", "c", "--n-max", "1"], {"holds": True}),
            ]
        ],
    )
    def test_small_n_exits_0(self, runner, tmp_path, m1_text, args, expected):
        # No member of the family fits below n = 2, so every table is {0: p(n)}.
        path = tmp_path / "m1.txt"
        path.write_text(m1_text)
        result = invoke(
            runner,
            args + ["--pair", "andrews", "--m1-file", str(path), "--format", "json"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert {key: doc[key] for key in expected} == expected

    def test_unclosed_m1_exits_2(self, runner, tmp_path):
        path = tmp_path / "m1.txt"
        path.write_text("1\n2\n3\n")  # 6 = 2*3 missing below any n-max >= 6
        result = runner.invoke(
            main,
            ["compare", "--pair", "andrews", "--m1-file", str(path), "--n-max", "12"],
        )
        assert result.exit_code == 2
        assert "doubling" in result.output

    def test_non_integer_line_exits_2(self, runner, tmp_path):
        path = tmp_path / "m1.txt"
        path.write_text("1\ntwo\n")
        result = runner.invoke(
            main,
            ["compare", "--pair", "andrews", "--m1-file", str(path), "--n-max", "12"],
        )
        assert result.exit_code == 2


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_byte_stable_across_runs(self, runner, fmt):
        args = ["compare", "--pair", "mod6", "--n-max", "12", "--format", fmt]
        runs = [invoke(runner, args).output for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_dist_byte_stable(self, runner):
        args = ["dist", "--pair", "squares", "--side", "Y", "--n", "15", "--format", "csv"]
        first = invoke(runner, args).output
        second = invoke(runner, args).output
        assert first == second


CHECK_REMMEL = ["check", "--pair", "remmel_consecutive", "--n-max", "12", "--theorem"]


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


class TestInProcessStreams:
    """An in-process run must not keep the stdout and stderr it was given:
    click caches the default streams it writes to, for good, when no file is
    named."""

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param([*argv, "--format", fmt], id=f"{name}-{fmt}")
            for name, argv in {
                "catalog": ["catalog"],
                "dist": ["dist", "--pair", "euler", "--side", "X", "--n", "6"],
                "compare": ["compare", "--pair", "mod6", "--prose-y", "--n-max", "7"],
                "sieve": ["sieve", "--pair", "euler", "--side", "X", "--n", "8"],
                "check_b": [*CHECK_REMMEL, "b"],
                "check_c": [*CHECK_REMMEL, "c"],
            }.items()
            for fmt in ("table", "csv", "json")
        ],
    )
    def test_streams_released(self, args):
        code, _ = self.assert_streams_released(args)
        assert code in (0, 1)

    @pytest.mark.parametrize(
        "args,want",
        [
            pytest.param(["--help"], 0, id="main-help"),
            pytest.param(["dist", "--help"], 0, id="dist-help"),
            pytest.param([], 2, id="no-arguments"),
        ],
    )
    def test_help_streams_released(self, args, want):
        code, err_text = self.assert_streams_released(args)
        assert code == want
        # Help goes to stdout, except click's no-arguments help (stderr).
        assert ("Usage: partition-sieve" in err_text) == (want == 2)

    def test_internal_error_stream_released(self, monkeypatch):
        monkeypatch.setattr(cli, "distribution_bruteforce", _boom)
        code, err_text = self.assert_streams_released(
            ["dist", "--pair", "euler", "--side", "X", "--n", "4"]
        )
        assert code == 4
        assert err_text.startswith("internal error: RuntimeError: boom")

    @staticmethod
    def assert_streams_released(args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main.main(args=args, prog_name="partition-sieve")
                code = 0
            except SystemExit as exc:
                code = exc.code
        assert out.getvalue() or err.getvalue()
        err_text = err.getvalue()
        refs = [weakref.ref(out), weakref.ref(err)]
        del out, err
        gc.collect()
        assert [ref() is None for ref in refs] == [True, True]
        return code, err_text
