"""bmtl runs without numpy: the oracle's truth arrays are int bitsets.
The test blocks `import numpy` in a fresh interpreter, so it proves its
point on machines where numpy is installed too.  It cannot block it in
the suite's own process: there `sys.modules["numpy"] = None` makes
Hypothesis's `st.just` raise AttributeError at collection, since
Hypothesis reads `ndarray` off any numpy entry in sys.modules."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str, *args: str) -> str:
    """Run code in a new interpreter with src on its path; return stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_command_runs_where_numpy_cannot_be_imported(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("horizon [0,10]\np @ [1,2]\nq @ [3,4]\n")
    code = """\
import contextlib, io, sys
sys.modules["numpy"] = None  # makes `import numpy` fail
import bmtl
from bmtl.cli import main
commands = [
    ["parse", "bplus[1,3] (p & q)"],
    ["rewrite", "--mode", "mitl", "bplus[1,2] p"],
    ["census", "(p U[1,2] q)"],
    ["eval", "--trace", sys.argv[1], "(p U[1,2] q)"],
    ["check", "--mode", "punctual", "--seed", "1", "--trials", "2"],
    ["check", "--mode", "mitl", "--seed", "1", "--trials", "2"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(argv)
    print(argv[0], exit_code)
"""
    out = run_fresh(code, str(trace))
    assert out.splitlines() == [
        "parse 0",
        "rewrite 0",
        "census 0",
        "eval 0",
        "check 0",
        "check 0",
    ]
