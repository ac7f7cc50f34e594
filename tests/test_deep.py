"""Formulas nested far beyond the interpreter's recursion limit.

The chains are built through the API, bottom-up.  Nodes are interned,
so == and hash are identity and work at any depth.  Rule logs compare
too: a RuleApplication compares by its path, spelled out flat.
"""

import copy
import gc
import pickle
import sys
import time
import tracemalloc
from fractions import Fraction as F
from functools import reduce

import pytest

import bmtl.syntax as syntax_module
from bmtl.errors import OutputTooLargeError
from bmtl.evaluate import eval_truth_set
from bmtl.oracle import oracle_eval_many
from bmtl.parser import parse_formula
from bmtl.rewrite import Punctual, SingletonFree, apply_rule_at, normalize
from bmtl.syntax import (
    KINDS_BY_NAME,
    Bound,
    Not,
    Pred,
    Scope,
    Top,
    census,
    print_formula,
    s_expression,
    scope,
)
from bmtl.traces import parse_trace
from conftest import temporal_nesting

DEPTH = 10_000
ZERO = Bound(F(0), F(0))
OPERATORS = ("not", "and", "bplus", "bminus", "dplus", "dminus", "since", "until")
CORE_OPS = {"pred", "top", "and", "since", "until"}


def chain(operators, box_bound=ZERO, side=(Pred("q"), Top()), depth=DEPTH):
    """`depth` operators, cycling through `operators` from the bottom up,
    over the predicate p; binary operators take a `side` leaf (in turn)
    as their left operand.  Bounds are [0,0] except on boxes."""
    node = Pred("p")
    for i in range(depth):
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
    assert sum(c.counts.values()) == DEPTH + 1 + binary
    assert set(c.counts) == {"pred", "top"} | set(OPERATORS)
    assert c.has_singleton_bound
    text = print_formula(f)
    assert text.count("(") == text.count(")") == binary
    assert text.startswith(
        "(true U[0,0] (q S[0,0] dminus[0,0] dplus[0,0] bminus[0,0] bplus[0,0] (true & !(true U"
    )
    assert s_expression(f).count("(") == sum(c.counts.values())
    assert scope(f) == Scope(F(0), F(0), 1)
    temporal = sum(per_kind(OPERATORS, k) for k in OPERATORS if k not in ("not", "and"))
    assert temporal_nesting(f) == temporal


def test_scope_of_a_deep_chain_is_kept_in_its_root(monkeypatch):
    f = chain(("bplus",), Bound(F(1), F(2)))
    want = Scope(F(0), F(2 * DEPTH), 1)
    assert scope(f) == want

    def no_fold(*args):
        raise AssertionError("scope folded a node it had already reached")

    monkeypatch.setattr(syntax_module, "fold", no_fold)
    assert scope(f) == want
    assert scope(f.body.body) == Scope(F(0), F(2 * DEPTH - 4), 1)


def test_interned_at_any_depth():
    f, g = chain(OPERATORS), chain(OPERATORS)
    assert f is g
    assert f == g
    assert hash(f) == hash(g) == hash(chain(OPERATORS))
    assert f != chain(OPERATORS, depth=DEPTH - 1)


def test_copies_and_pickles_are_the_interned_node():
    f = chain(OPERATORS, depth=20)
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin is f


def test_evaluator_agrees_with_oracle():
    f = chain(OPERATORS)
    tr = parse_trace("horizon [0,10]\np @ [1,3]\nq @ [2,7]\np @ [9,10]\n")
    truth = eval_truth_set(f, tr)
    points = [F(n, 2) for n in range(21)]
    assert oracle_eval_many(f, tr, points) == [truth.contains_point(p) for p in points]


# Per mode: the mode, the box bound its chain uses and the rules each
# box takes.
MODES = [
    (Punctual(), ZERO, 2),
    # the singleton-free box rule needs lo < hi <= 3*lo
    (SingletonFree(), Bound(F(1), F(2)), 3),
]
# negation is a side operand here: normalize leaves negated subtrees alone
REWRITE_OPERATORS = tuple(k for k in OPERATORS if k != "not")
REWRITE_SIDE = (Pred("q"), Top(), Not(Pred("r")))


@pytest.mark.parametrize("mode,box_bound,rules_per_box", MODES)
def test_normalize(mode, box_bound, rules_per_box):
    f = chain(REWRITE_OPERATORS, box_bound, REWRITE_SIDE)
    report = normalize(f, mode)
    boxes = per_kind(REWRITE_OPERATORS, "bplus") + per_kind(REWRITE_OPERATORS, "bminus")
    diamonds = per_kind(REWRITE_OPERATORS, "dplus") + per_kind(REWRITE_OPERATORS, "dminus")
    assert len(report.applied) == rules_per_box * boxes + diamonds
    assert max(len(app.path) for app in report.applied) > DEPTH - len(REWRITE_OPERATORS)
    assert set(census(report.output).counts) <= CORE_OPS | {"not"}


@pytest.mark.parametrize("mode,box_bound,rules_per_box", MODES)
def test_normalize_memory_is_linear_in_depth(mode, box_bound, rules_per_box):
    # Each logged application links to its parent's link, so the log
    # shares path prefixes; one flat path per application would need
    # hundreds of MiB here.
    f = chain(REWRITE_OPERATORS, box_bound, REWRITE_SIDE)
    tracemalloc.start()
    try:
        normalize(f, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_dropped_chains_leave_the_unique_table(monkeypatch):
    # a key holds its node's operands: each entry goes as its node dies,
    # which frees the operands in turn, down the whole chain
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    before = len(syntax_module._UNIQUE)
    f = chain(("bplus",), Bound(F(1), F(2)))
    punctual, mitl = normalize(f, Punctual()), normalize(f, SingletonFree())
    assert len(syntax_module._UNIQUE) > before + 3 * DEPTH
    del f, punctual, mitl
    assert len(syntax_module._UNIQUE) == before
    assert unraisable == []


def test_deep_log_compares_hashes_and_prints():
    # equality, hash and repr spell each path out, never recursing into
    # the nested links
    f = chain(REWRITE_OPERATORS, side=REWRITE_SIDE, depth=5_000)
    first, second = (normalize(f, Punctual()).applied for _ in range(2))
    assert first == second
    assert hash(first) == hash(second)
    assert len(set(first)) == len(first)
    deepest = max(first, key=lambda app: len(app.path))
    assert len(deepest.path) > 5_000 - len(REWRITE_OPERATORS)
    assert repr(deepest) == (
        f"RuleApplication(rule={deepest.rule!r}, path={deepest.path!r}, kappa=None, lam=None)"
    )
    assert repr(first).count("RuleApplication(") == len(first)


@pytest.mark.parametrize("mode,box_bound,rules_per_box", MODES)
def test_deep_application_pickles_and_copies(mode, box_bound, rules_per_box):
    # both would recurse through the nested link; they go by the path
    f = chain(REWRITE_OPERATORS, box_bound, REWRITE_SIDE, depth=2_100)
    deepest = max(normalize(f, mode).applied, key=lambda app: len(app.path))
    assert len(deepest.path) >= 2_000
    for twin in (pickle.loads(pickle.dumps(deepest)), copy.deepcopy(deepest)):
        assert twin == deepest
        assert twin.path == deepest.path


def test_replay_of_a_deep_log():
    for mode, box_bound, _ in MODES:
        f = chain(REWRITE_OPERATORS, box_bound, REWRITE_SIDE, depth=300)
        report = normalize(f, mode)
        assert max(len(app.path) for app in report.applied) > 300 - len(REWRITE_OPERATORS)
        assert reduce(apply_rule_at, report.applied, f) is report.output


def test_printed_rewrite_parses_back_to_the_same_node():
    # 100 levels keep the printed parentheses within the parser's cap
    out = normalize(chain(REWRITE_OPERATORS, side=REWRITE_SIDE, depth=100), Punctual()).output
    assert parse_formula(print_formula(out)) is out


def test_oversized_mitl_text_is_refused_quickly():
    # each singleton-free box puts its body into both conjuncts: 30 boxes
    # share 152 distinct nodes but would print billions of characters
    out = normalize(chain(("bplus",), Bound(F(1), F(2)), depth=30), SingletonFree()).output
    started = time.monotonic()
    with pytest.raises(OutputTooLargeError):
        print_formula(out)
    with pytest.raises(OutputTooLargeError):
        s_expression(out)
    assert time.monotonic() - started < 1


def test_repr_of_a_deep_chain_and_its_rewrite_report():
    # repr renders through the printers' walk, so depth costs no stack
    box = "BoxPlus(bound=Bound(lo=Fraction(1, 1), hi=Fraction(2, 1)), body="
    f = parse_formula("bplus[1,2] " * DEPTH + "p")
    assert repr(f) == box * DEPTH + "Pred(name='p')" + ")" * DEPTH
    report = normalize(chain(REWRITE_OPERATORS, side=REWRITE_SIDE, depth=300), Punctual())
    text = repr(report)
    assert text.startswith(f"RewriteReport(input={report.input!r}, output={report.output!r}")
    assert text.count("RuleApplication(") == len(report.applied)


@pytest.mark.parametrize("mode", [Punctual(), SingletonFree()], ids=["punctual", "mitl"])
def test_renormalizing_a_mitl_output_is_quick(mode):
    # the output's 2**30 paths share 152 nodes: the walk finishes each once
    out = normalize(chain(("bplus",), Bound(F(1), F(2)), depth=30), SingletonFree()).output
    started = time.monotonic()
    report = normalize(out, mode)
    assert time.monotonic() - started < 1
    assert report.output is out
    assert report.applied == ()


def test_oversized_mitl_repr_is_refused_quickly():
    # the shared box bodies would spell out 2**30 paths
    out = normalize(chain(("bplus",), Bound(F(1), F(2)), depth=30), SingletonFree()).output
    started = time.monotonic()
    with pytest.raises(OutputTooLargeError):
        repr(out)
    assert time.monotonic() - started < 1
