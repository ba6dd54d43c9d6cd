"""README's examples run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from partition_sieve.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(heading, language):
    """The first fenced block of the language after the heading."""
    section = README[README.index(f"\n{heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_block_runs():
    exec(compile(code_block("## Library", "python"), "README.md", "exec"), {})


def test_cli_block_exit_codes():
    lines = code_block("## CLI", "sh").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    assert all(argv[0] == "partition-sieve" for argv in argvs)
    runner = CliRunner()
    codes = [runner.invoke(main, argv[1:], catch_exceptions=False).exit_code for argv in argvs]
    # README: remmel_consecutive's F members overlap, so theorem B fails.
    assert codes == [0, 0, 0, 0, 1]
