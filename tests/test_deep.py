"""Formulas nested far beyond the interpreter's recursion limit.

The chains are built through the API, bottom-up, and never compared with
== or hashed: dataclass equality itself recurses.
"""

from fractions import Fraction as F

import pytest

from bmtl.evaluate import eval_truth_set
from bmtl.oracle import oracle_eval_many
from bmtl.rewrite import Punctual, SingletonFree, normalize
from bmtl.syntax import (
    KINDS_BY_NAME,
    Bound,
    Not,
    Pred,
    Top,
    census,
    print_formula,
    s_expression,
    temporal_nesting,
    temporal_reach,
)
from bmtl.traces import parse_trace

DEPTH = 10_000
ZERO = Bound(F(0), F(0))
OPERATORS = ("not", "and", "bplus", "bminus", "dplus", "dminus", "since", "until")
CORE_OPS = {"pred", "top", "and", "since", "until"}


def chain(operators, box_bound=ZERO, side=(Pred("q"), Top())):
    """DEPTH operators, cycling through `operators` from the bottom up,
    over the predicate p; binary operators take a `side` leaf (in turn)
    as their left operand.  Bounds are [0,0] except on boxes."""
    node = Pred("p")
    for i in range(DEPTH):
        kind = KINDS_BY_NAME[operators[i % len(operators)]]
        bound = box_bound if kind.name in ("bplus", "bminus") else ZERO
        node = kind.make((side[i % len(side)], node)[2 - len(kind.children) :], bound)
    return node


def per_kind(operators, name):
    """How many of the chain's operators are of kind `name`."""
    return sum(operators[i % len(operators)] == name for i in range(DEPTH))


def test_printers_and_analyses():
    f = chain(OPERATORS)
    binary = sum(per_kind(OPERATORS, k) for k in ("and", "since", "until"))
    c = census(f)
    assert c.max_depth == DEPTH
    assert c.size == DEPTH + 1 + binary
    assert set(c.counts) == {"pred", "top"} | set(OPERATORS)
    assert c.has_singleton_bound
    text = print_formula(f)
    assert text.count("(") == text.count(")") == binary
    assert text.startswith(
        "(true U[0,0] (q S[0,0] dminus[0,0] dplus[0,0] bminus[0,0] bplus[0,0] (true & !(true U"
    )
    assert s_expression(f).count("(") == c.size
    assert temporal_reach(f) == (F(0), F(0))
    temporal = sum(per_kind(OPERATORS, k) for k in OPERATORS if k not in ("not", "and"))
    assert temporal_nesting(f) == temporal


def test_evaluator_agrees_with_oracle():
    f = chain(OPERATORS)
    tr = parse_trace("horizon [0,10]\np @ [1,3]\nq @ [2,7]\np @ [9,10]\n")
    truth = eval_truth_set(f, tr)
    points = [F(n, 2) for n in range(21)]
    assert oracle_eval_many(f, tr, points) == [truth.contains_point(p) for p in points]


@pytest.mark.parametrize(
    "mode,box_bound,rules_per_box",
    [
        (Punctual(), ZERO, 2),
        # the singleton-free box rule needs lo < hi <= 3*lo
        (SingletonFree(), Bound(F(1), F(2)), 3),
    ],
)
def test_normalize(mode, box_bound, rules_per_box):
    # negation is a side operand here: normalize leaves negated subtrees alone
    operators = tuple(k for k in OPERATORS if k != "not")
    f = chain(operators, box_bound, side=(Pred("q"), Top(), Not(Pred("r"))))
    report = normalize(f, mode)
    boxes = per_kind(operators, "bplus") + per_kind(operators, "bminus")
    diamonds = per_kind(operators, "dplus") + per_kind(operators, "dminus")
    assert len(report.applied) == rules_per_box * boxes + diamonds
    assert max(len(app.path) for app in report.applied) > DEPTH - len(operators)
    assert census(report.output).operators() <= CORE_OPS | {"not"}
