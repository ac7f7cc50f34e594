"""Growth in trace size, counted rather than timed.

Each case runs at n, 2n and 4n disjoint facts per predicate and counts
the Python line events in frames of bmtl's own source files, with
``sys.settrace``, after one warm-up call at the smallest size.  A
linear clause at most doubles its count when the trace doubles; a
quadratic one, such as a since/until sweep whose witness cursor
restarts at the first witness part for every part, reads close to 4.
The counts are the same on every run, so the bound of 2.1 per doubling
cannot flake on a loaded machine as a timing would.

What is not counted: work done in C, such as ``sorted``, slicing, list
concatenation, ``re`` matching and ``int`` parsing, and the lines of
anything outside ``bmtl``.  A clause that turned quadratic inside such a
call would not show here; CI's timed large-trace smoke covers that.
"""

import os
import sys

import pytest

import bmtl
from bmtl.evaluate import eval_truth_set
from bmtl.parser import parse_formula
from bmtl.traces import parse_trace

N = 400
SIZES = (N, 2 * N, 4 * N)
MAX_PER_DOUBLING = 2.1
_SOURCE = os.path.dirname(bmtl.__file__) + os.sep


def trace_text(n: int) -> str:
    """p and q alternate, disjoint, each q starting where its p ends."""
    lines = [f"horizon [0,{4 * n}]"]
    for i in range(n):
        lines += [f"p @ [{4 * i},{4 * i + 1}]", f"q @ [{4 * i + 1},{4 * i + 2}]"]
    return "\n".join(lines) + "\n"


def line_events(call) -> int:
    """The line events call() runs in frames of bmtl's source."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(_SOURCE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def assert_linear(make_call):
    """make_call(n) -> a call on an input of size n; warm up, count each
    size, and check each doubling."""
    calls = [make_call(n) for n in SIZES]
    calls[0]()
    counts = [line_events(call) for call in calls]
    # every fact costs at least one counted line: the count is the work
    assert counts[0] > N, counts
    for small, large in zip(counts, counts[1:]):
        assert large / small <= MAX_PER_DOUBLING, counts


FAMILIES = {
    "window": "bplus[1/2,1] dminus[0,1] p",
    "since": "(p S[0,1] q)",
    "until": "(p U[0,1] q)",
    "not": "!p",
    "and": "(p & q)",
}


@pytest.mark.parametrize("formula", FAMILIES.values(), ids=FAMILIES.keys())
def test_clause_is_linear_in_trace_size(formula):
    f = parse_formula(formula)

    def make_call(n):
        tr = parse_trace(trace_text(n))
        return lambda: eval_truth_set(f, tr)

    assert_linear(make_call)


@pytest.mark.parametrize("spelling", ["canonical", "respelled"])
def test_parse_trace_is_linear_in_trace_size(spelling):
    # format_trace's spelling goes through the one-scan tokenizer; a
    # comment line and double spaces send the text line by line
    def make_call(n):
        text = trace_text(n)
        if spelling == "respelled":
            text = "# header\n" + text.replace(" @ ", "  @  ")
        return lambda: parse_trace(text)

    assert_linear(make_call)
