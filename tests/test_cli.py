import json

import pytest
from click.testing import CliRunner

from partition_sieve import builtin_pair, render_family_pair
from partition_sieve.cli import main

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


class TestSpecErrorsMidCommand:
    # Entry 0 has size (t - 70)^2: it passes parse-time validation, which looks
    # only at the first indices, and is 0 at t = 70, which the relevant-index
    # scan reaches only for n >= 13,801.
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
        ],
    )
    def test_exits_2(self, runner, tmp_path, args):
        path = tmp_path / "late.json"
        path.write_text(json.dumps({"name": "late", "F": [self.STRAND], "G": [self.STRAND]}))
        result = runner.invoke(main, args + ["--pair-file", str(path)])
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: entry 0: size 0 < 1 at t=70\n")


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
