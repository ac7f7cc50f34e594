"""Shared strategies and fixtures.

Hypothesis runs derandomized so the suite is reproducible; property
counts are chosen per test, with the interval-algebra properties at 200
or more examples each.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import bmtl.rewrite as rewrite_module
from bmtl.intervals import (
    Interval,
    IntervalSet,
    coalesce,
    complement_codes,
    decode,
    encode,
    intersect_codes,
    scaled_value,
    shift_codes,
)
from bmtl.syntax import (
    KINDS,
    And,
    Bound,
    BoxMinus,
    BoxPlus,
    DiaMinus,
    DiaPlus,
    Not,
    Pred,
    Since,
    Top,
    Until,
    children,
    fold,
)
from bmtl.traces import Fact, Trace

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

_DENOMS = (1, 2, 3, 4, 8)


def fractions_st(lo: int = -10, hi: int = 10, denoms=_DENOMS):
    return st.builds(
        Fraction,
        st.integers(min_value=lo, max_value=hi),
        st.sampled_from(denoms),
    )


def nonneg_fractions_st(hi: int = 8, denoms=_DENOMS):
    return st.builds(
        Fraction,
        st.integers(min_value=0, max_value=hi),
        st.sampled_from(denoms),
    )


# built once: a strategy is validated on its first draw, so a fresh one
# per interval would be validated again for every interval drawn
_ENDPOINTS = fractions_st()


@st.composite
def intervals_st(draw):
    a = draw(_ENDPOINTS)
    b = draw(_ENDPOINTS)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return Interval(lo, hi, True, True)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def interval_sets_st(max_parts: int = 5):
    return st.lists(intervals_st(), min_size=0, max_size=max_parts).map(coalesce)


def shifted(s: IntervalSet, d_lo, d_hi) -> IntervalSet:
    """Every part [lo, hi] of s moved to [lo + d_lo, hi + d_hi], by the
    kernel the evaluator runs: encode at the lcm of every denominator,
    `shift_codes`, decode.

    The window operators of a bound [lo, hi], with the window that a
    point t of the result meets (dilate) or fills (erode):
      dminus, dilate [t - hi, t - lo]          shifted(s, lo, hi)
      dplus, dilate [t + lo, t + hi]           shifted(s, -hi, -lo)
      bminus, erode past [t - hi, t - lo]      shifted(s, hi, lo)
      bplus, erode future [t + lo, t + hi]     shifted(s, -lo, -hi)
    """
    scale = math.lcm(
        *(x.denominator for p in s.parts for x in (p.lo, p.hi)), d_lo.denominator, d_hi.denominator
    )
    codes = shift_codes(
        encode(s.parts, scale), 2 * scaled_value(d_lo, scale), 2 * scaled_value(d_hi, scale)
    )
    return decode(codes, scale)


# The set algebra for tests, by the kernel the evaluator runs, each
# operation at the lcm of its own operands' denominators.


def _lcm(parts) -> int:
    return math.lcm(*(x.denominator for p in parts for x in (p.lo, p.hi)))


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    scale = _lcm(a.parts + b.parts)
    return decode(intersect_codes(encode(a.parts, scale), encode(b.parts, scale)), scale)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return coalesce(a.parts + b.parts)


def complement(s: IntervalSet, universe: Interval) -> IntervalSet:
    """The points of universe outside s; s may reach beyond universe."""
    scale = _lcm(s.parts + (universe,))
    return decode(complement_codes(encode(s.parts, scale), *encode((universe,), scale)), scale)


@st.composite
def bounds_st(draw, singleton_free: bool = False):
    a = draw(nonneg_fractions_st())
    b = draw(nonneg_fractions_st())
    lo, hi = min(a, b), max(a, b)
    if singleton_free and lo == hi:
        hi = lo + Fraction(1, 2)
    return Bound(lo, hi)


@st.composite
def mitl_box_bounds_st(draw):
    """Bounds with 0 < lo < hi <= 3*lo (hi/lo drawn from (1, 3])."""
    lo = draw(
        st.builds(Fraction, st.integers(min_value=1, max_value=8), st.sampled_from(_DENOMS))
    )
    ratio = Fraction(draw(st.integers(min_value=9, max_value=24)), 8)
    return Bound(lo, lo * ratio)


_PREDS = ("p", "q", "r")


def formulas_st(
    max_depth: int = 3, allow_not: bool = False, singleton_free: bool = False, bounds=None
):
    """Formulas over p, q, r; bounds from ``bounds`` when given, else bounds_st."""
    leaves = st.one_of(
        st.builds(Pred, st.sampled_from(_PREDS)),
        st.just(Top()),
    )

    def extend(children):
        bound = bounds if bounds is not None else bounds_st(singleton_free=singleton_free)
        options = [
            st.builds(And, children, children),
            st.builds(BoxPlus, bound, children),
            st.builds(BoxMinus, bound, children),
            st.builds(DiaPlus, bound, children),
            st.builds(DiaMinus, bound, children),
            st.builds(Since, children, bound, children),
            st.builds(Until, children, bound, children),
        ]
        if allow_not:
            options.append(st.builds(Not, children))
        return st.one_of(options)

    return st.recursive(leaves, extend, max_leaves=2**max_depth)


def preorder_bounds(f) -> list[Bound]:
    """Every temporal bound in the tree, in preorder: one per occurrence,
    so a shared subtree's bounds count once for each parent."""
    out: list[Bound] = []
    todo = [f]
    while todo:
        node = todo.pop()
        if KINDS[type(node)].bounded:
            out.append(node.bound)
        todo.extend(reversed(children(node)))
    return out


def bound_lcm(f) -> int:
    """The lcm of the denominators of every bound endpoint in f (1 for
    none), read from preorder_bounds."""
    return math.lcm(*(x.denominator for b in preorder_bounds(f) for x in (b.lo, b.hi)))


_PAST_KINDS = {"dminus", "bminus", "since"}
_FUTURE_KINDS = {"dplus", "bplus", "until"}


def reference_reach(f) -> tuple[Fraction, Fraction]:
    """(past, future) by plain recursion on Fractions: on each side, the
    largest sum of bound upper ends along any root-to-leaf path, over the
    operators that look toward that side.  Every path is walked, so keep
    f small when it shares subtrees."""
    past = future = Fraction(0)
    for k in children(f):
        p, q = reference_reach(k)
        past, future = max(past, p), max(future, q)
    name = KINDS[type(f)].name
    if name in _PAST_KINDS:
        past += f.bound.hi
    elif name in _FUTURE_KINDS:
        future += f.bound.hi
    return past, future


def temporal_nesting(f) -> int:
    """Most temporal operators on any root-to-leaf path, by one fold."""
    return fold(f, lambda node, kids: KINDS[type(node)].bounded + max(kids, default=0))


@st.composite
def traces_st(draw, max_facts: int = 5, horizon_max: int = 12):
    a = draw(st.integers(min_value=-horizon_max, max_value=0))
    b = draw(st.integers(min_value=1, max_value=horizon_max))
    horizon = Interval(Fraction(a), Fraction(b))
    n = draw(st.integers(min_value=0, max_value=max_facts))
    facts = []
    for _ in range(n):
        name = draw(st.sampled_from(_PREDS))
        x = draw(fractions_st(lo=4 * a, hi=4 * b, denoms=(1, 2, 4)))
        y = draw(fractions_st(lo=4 * a, hi=4 * b, denoms=(1, 2, 4)))
        lo, hi = min(x, y), max(x, y)
        if facts and draw(st.booleans()):
            # start where an earlier fact ends: two facts then meet in
            # one point, and their intersection is one atom wide
            lo = draw(st.sampled_from(facts)).span.hi
            hi = max(hi, lo)
        lo = max(lo, horizon.lo)
        hi = min(hi, horizon.hi)
        if lo > hi:
            lo = hi = horizon.lo
        facts.append(Fact(name, Interval(lo, hi)))
    return Trace(horizon, tuple(facts))


@pytest.fixture
def simple_trace() -> Trace:
    return Trace(
        Interval(Fraction(-5), Fraction(15)),
        (
            Fact("p", Interval(Fraction(0), Fraction(4))),
            Fact("q", Interval(Fraction(3), Fraction(6))),
        ),
    )


def corrupted_future_box(f, app):
    """R-BOXF-P pinned at the window's end instead of its start: unsound
    whenever lo < hi, so a working campaign must catch it."""
    lo, hi = f.bound.lo, f.bound.hi
    return DiaPlus(Bound(hi, hi), Until(f.body, Bound(hi - lo, hi - lo), Top()))


def corrupt_punctual_box(monkeypatch):
    """Fire corrupted_future_box for R-BOXF-P until monkeypatch undoes it."""
    rule = rewrite_module.RULES["R-BOXF-P"]
    monkeypatch.setitem(
        rewrite_module.RULES, "R-BOXF-P", rule._replace(rewrite=corrupted_future_box)
    )
