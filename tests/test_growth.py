"""Growth in trace size and in formula size, counted rather than timed.

Each case runs at n, 2n and 4n disjoint facts per predicate, or at
formula depths d, 2d and 4d, and counts the Python line events in
frames of bmtl's own source files, with ``sys.settrace``, after one
warm-up call at the smallest size.  A linear clause at most doubles its
count when the trace doubles; a quadratic one, such as a since/until
sweep whose witness cursor restarts at the first witness part for every
part, reads close to 4.  The counts are the same on every run, so the
bound of 2.1 per doubling cannot flake on a loaded machine as a timing
would.

What is not counted: work done in C, such as ``sorted``, slicing, list
concatenation, ``re`` matching and ``int`` parsing, and the lines of
anything outside ``bmtl``.  A clause that turned quadratic inside such a
call would not show here; CI's timed large-trace smoke covers that.
"""

import itertools
import os
import sys
from fractions import Fraction as F

import pytest

import bmtl
from bmtl.errors import ParseError
from bmtl.evaluate import eval_truth_set
from bmtl.parser import parse_formula
from bmtl.rewrite import Punctual, SingletonFree, normalize
from bmtl.syntax import (
    And,
    Bound,
    BoxMinus,
    BoxPlus,
    DiaMinus,
    DiaPlus,
    Formula,
    Pred,
    census,
    print_formula,
    scope,
)
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


def assert_linear(make_call, sizes=SIZES):
    """make_call(n) -> a call on a new input of size n; warm up on one
    input of the smallest size, count each size, and check each
    doubling."""
    make_call(sizes[0])()
    counts = [line_events(make_call(n)) for n in sizes]
    # every fact or node costs at least one counted line: the count is the work
    assert counts[0] > sizes[0], counts
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


def test_printing_a_truth_set_is_linear_in_its_parts():
    f = parse_formula("dminus[1/3,1/2] p")

    def make_call(n):
        truth = eval_truth_set(f, parse_trace(trace_text(n)))
        return lambda: str(truth)

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


DEPTHS = (250, 500, 1_000)
BOX = Bound(F(1), F(2))  # lo < hi <= 3*lo: both modes rewrite it
_LEAVES = itertools.count()


def box_chain(depth: int) -> BoxPlus:
    """`depth` boxes bplus[1,2] over a predicate no other chain has.
    scope keeps its result in every node it reaches, so chains over one
    leaf would share that work between the sizes."""
    node = Pred(f"p{next(_LEAVES)}")
    for _ in range(depth):
        node = BoxPlus(BOX, node)
    return node


FORMULA_CASES = {
    "normalize-punctual": lambda f: normalize(f, Punctual()),
    "normalize-mitl": lambda f: normalize(f, SingletonFree()),
    "scope": scope,
    "census": census,
}


@pytest.mark.parametrize("work", FORMULA_CASES.values(), ids=FORMULA_CASES.keys())
def test_chain_analysis_is_linear_in_depth(work):
    def make_call(n):
        f = box_chain(n)
        return lambda: work(f)

    assert_linear(make_call, DEPTHS)


def alternating_chain(depth: int) -> Formula:
    """`depth` boxes, bplus[1,2] and bminus[1,2] in turn, each over the
    conjunction of the level below with q."""
    node, q = Pred(f"p{next(_LEAVES)}"), Pred("q")
    for i in range(depth):
        node = (BoxPlus, BoxMinus)[i % 2](BOX, And(node, q))
    return node


def box_conjunction(width: int) -> Formula:
    """A balanced conjunction of `width` boxes bplus[1,2], each over a
    predicate of its own."""
    nodes = [BoxPlus(BOX, Pred(f"p{next(_LEAVES)}")) for _ in range(width)]
    while len(nodes) > 1:
        pairs = [And(a, b) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = pairs + nodes[2 * len(pairs):]
    return nodes[0]


@pytest.mark.parametrize("shape", [alternating_chain, box_conjunction])
@pytest.mark.parametrize("mode", [Punctual(), SingletonFree()], ids=["punctual", "mitl"])
def test_normalize_is_linear_in_size(mode, shape):
    def make_call(n):
        f = shape(n)
        return lambda: normalize(f, mode)

    assert_linear(make_call, DEPTHS)


@pytest.mark.parametrize("ending", ["", " &\n"], ids=["well-formed", "cut-short"])
def test_parse_formula_is_linear_in_width(ending):
    # a flat conjunction p0 & p1 & ...; cut short, it ends in one
    # ParseError whose position is computed once
    def make_call(n):
        leaf = next(_LEAVES)
        text = " & ".join(f"p{leaf}_{i}" for i in range(n)) + ending
        if ending:
            return lambda: pytest.raises(ParseError, parse_formula, text)
        return lambda: parse_formula(text)

    assert_linear(make_call, DEPTHS)


def test_parse_formula_is_linear_in_depth():
    def make_call(n):
        text = print_formula(box_chain(n))
        return lambda: parse_formula(text)

    assert_linear(make_call, DEPTHS)


def test_diamond_chain_evaluation_is_linear_in_depth():
    # alternating dplus[0,1] and dminus[0,1] over one fact: each level
    # widens a single part by one on one side
    def make_call(n):
        node = leaf = Pred(f"p{next(_LEAVES)}")
        for i in range(n):
            node = (DiaPlus, DiaMinus)[i % 2](Bound(F(0), F(1)), node)
        tr = parse_trace(f"horizon [0,{2 * n}]\n{leaf.name} @ [{n},{n + 1}]\n")
        return lambda: eval_truth_set(node, tr)

    assert_linear(make_call, DEPTHS)


@pytest.mark.parametrize("mode", [Punctual(), SingletonFree()], ids=["punctual", "mitl"])
def test_renormalizing_a_mitl_output_is_linear_in_depth(mode):
    # each singleton-free box puts its body into both conjuncts, so the
    # output spells out 2**depth paths over its shared nodes; the walk
    # must pass over a node it has already finished
    def make_call(n):
        out = normalize(box_chain(n), SingletonFree()).output
        return lambda: normalize(out, mode)

    assert_linear(make_call, (4, 8, 16))
