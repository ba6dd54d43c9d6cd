"""The benchmark's tracer patches program names by attribute.

`perfbench/tracing.py` wraps functions and methods of `partition_sieve` by
name, so renaming or deleting one of them breaks only the traced benchmark
run. This test installs the tracer on a short CLI run, so such a change fails
here instead.
"""

import inspect
import sys
import types
from pathlib import Path

from click.testing import CliRunner

from partition_sieve.cli import main as cli_main
from partition_sieve.families import MultisetFamily
from partition_sieve.statistics import FamilyStatistic, NativeStatistic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
ARGV = ["dist", "--pair", "euler", "--side", "X", "--n", "6"]


def load_tracing():
    # Compiled from the source text, so nothing is written beside it.
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def snapshot():
    """Every function bound in a package module, and every function-valued
    attribute of the classes whose methods the tracer wraps."""
    bound = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "partition_sieve" or name.startswith("partition_sieve.")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }
    for cls in (MultisetFamily, FamilyStatistic, NativeStatistic):
        for attr, value in vars(cls).items():
            if inspect.isfunction(value):
                bound[(cls.__qualname__, attr)] = value
    return bound


def test_tracer_wraps_a_cli_run_and_restores_every_name():
    expected = CliRunner().invoke(cli_main, ARGV)
    before = snapshot()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        result = CliRunner().invoke(cli_main, ARGV)
    finally:
        tracer.uninstall()
    assert (result.exit_code, result.stdout) == (0, expected.stdout)
    assert tracer.calls["distribution.brute"] == 1
    after = snapshot()
    assert {key for key in before if after.get(key) is not before[key]} == set()
