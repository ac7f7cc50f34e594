"""Golden CLI outputs: stdout and exit code of a fixed list of commands.

The expected outputs live in golden_cli.json next to this file.  Campaign
JSON is compared with its wall_time_s value masked, since that is the
only part of a seeded report that varies between runs.  After an
intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import bmtl.cli as cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

TRACE = """\
horizon [-10,20]
p @ [-8,-3]
p @ [0,5/2]
p @ [4,9]
p @ [27/2,31/2]
q @ [-2,1]
q @ [3,3]
q @ [7/3,8]
q @ [12,19]
r @ [-10,-1/2]
r @ [6,14]
"""

FORMULAS = (
    "p",
    "true",
    "!p",
    "(p & q)",
    "(p & !q & r)",
    "bplus[1,3] p",
    "bminus[1/2,5/2] (p & q)",
    "dplus[0,2] q",
    "dminus[1,1] p",
    "(p S[0,2] q)",
    "(p U[1/3,7/3] !q)",
    "bplus[2,4] dminus[1,2] (p U[0,1] q)",
    "bminus[2,5] bplus[3,4] p",
    "!bplus[1,2] (p & dplus[0,1] q)",
    "dminus[1,3] bminus[2,3] (p S[1,2] bplus[3,6] r)",
    "(bplus[0,0] p & bminus[2,2] q)",
    "bplus[1,4] p",
    "(true U[0,1] bminus[3/2,4] (q S[1/2,1] true))",
    # rejected inputs
    "p &",
    "bplus[3,2] p",
    "(p U[1,2] q",
)


def commands() -> list[list[str]]:
    out: list[list[str]] = []
    for f in FORMULAS:
        for json_flag in ([], ["--json"]):
            out.append(["parse", *json_flag, f])
            out.append(["census", *json_flag, f])
            out.append(["eval", *json_flag, "--trace", "TRACE", f])
            for mode in ("punctual", "mitl"):
                out.append(["rewrite", "--mode", mode, "--report", *json_flag, f])
    for f in ("bplus[2,4] p", "bminus[3,5] dplus[1,2] q"):
        out.append(["rewrite", "--mode", "mitl", "--kappa", "1/2", "--lambda", "1/3",
                    "--report", f])
    for seed in ("42", "7"):
        for mode in ("punctual", "mitl"):
            out.append(["check", "--mode", mode, "--seed", seed, "--trials", "50", "--json"])
    return out


_WALL_TIME = re.compile(r'"wall_time_s": [0-9.e+-]+')


def run(argv: list[str], trace_path: str) -> tuple[int, str]:
    argv = [trace_path if a == "TRACE" else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, _WALL_TIME.sub('"wall_time_s": null', buf.getvalue())


def test_cli_outputs_match_golden(tmp_path):
    trace = tmp_path / "golden.trace"
    trace.write_text(TRACE)
    expected = json.loads(GOLDEN.read_text())
    cases = commands()
    assert [case["argv"] for case in expected] == cases
    for case in expected:
        code, stdout = run(case["argv"], str(trace))
        assert (code, stdout) == (case["exit"], case["stdout"]), case["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.trace"
        path.write_text(TRACE)
        rows = []
        for argv in commands():
            code, stdout = run(argv, str(path))
            rows.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} cases to {GOLDEN}", file=sys.stderr)
