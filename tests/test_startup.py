"""Start-up cost: numpy is loaded by the oracle's first query, not by
``import bmtl``.  Each test runs in a fresh interpreter, because the
suite's own process has numpy loaded already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# run in the child before the test's own lines
PRELUDE = """\
import sys
def numpy_loaded():
    return "numpy" in sys.modules
"""


def run_fresh(code: str, *args: str) -> str:
    """Run PRELUDE + code in a new interpreter with src on its path; return stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_does_not_load_numpy():
    assert run_fresh("import bmtl\nprint(numpy_loaded())") == "False\n"


def test_commands_other_than_check_do_not_load_numpy(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("horizon [0,10]\np @ [1,2]\nq @ [3,4]\n")
    code = """\
import contextlib, io
from bmtl.cli import main
commands = [
    ["parse", "bplus[1,3] (p & q)"],
    ["rewrite", "--mode", "mitl", "bplus[1,2] p"],
    ["census", "(p U[1,2] q)"],
    ["eval", "--trace", sys.argv[1], "(p U[1,2] q)"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(argv)
    print(argv[0], exit_code, numpy_loaded())
"""
    out = run_fresh(code, str(trace))
    assert out.splitlines() == [
        "parse 0 False",
        "rewrite 0 False",
        "census 0 False",
        "eval 0 False",
    ]


def test_check_loads_numpy_at_its_first_oracle_query():
    code = """\
import contextlib, io
from bmtl.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = main(["check", "--mode", "punctual", "--seed", "1", "--trials", "2"])
print(exit_code, numpy_loaded())
"""
    assert run_fresh(code) == "0 True\n"


def test_check_without_numpy_exits_2_and_names_numpy():
    code = """\
import contextlib, io
sys.modules["numpy"] = None  # makes `import numpy` fail
from bmtl.cli import main
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    exit_code = main(["check", "--mode", "punctual", "--trials", "2"])
print(exit_code, "numpy" in err.getvalue())
"""
    assert run_fresh(code) == "2 True\n"


@pytest.mark.parametrize(
    "first_call, expected",
    [
        (
            "xs = _sample_grid(tr.horizon.lo, tr.horizon.hi, 4)\nprint(len(xs), int(xs[0]))",
            "17 -8\n",
        ),
        (
            "t = _TruthTable(tr, list(range(-8, 9)), 4)\nprint(t.n, int(t.horizon_mask.sum()))",
            "17 17\n",
        ),
    ],
    ids=["sample_grid", "truth_table"],
)
def test_oracle_entry_works_as_first_call(first_call, expected):
    code = """\
from fractions import Fraction
from bmtl.intervals import Interval
from bmtl.oracle import _TruthTable, _sample_grid
from bmtl.traces import Trace
tr = Trace(Interval(Fraction(-2), Fraction(2)), ())
assert not numpy_loaded()
"""
    assert run_fresh(code + first_call) == expected
