"""Metamorphic relations of the evaluator: two exact evaluations that
must agree, with no oracle and so no grid limit.

  translation   moving the horizon and every fact by d moves the truth
                set by d; d = k/37 brings a denominator no strategy
                draws, so the evaluator's scale changes too
  monotonicity  for a negation-free formula, adding facts inside the
                horizon never removes a point from the truth set (the
                premise the paper's reduction rests on)
  scaling       multiplying every time and every bound by c > 0
                multiplies the truth set by c; c in {2, 3/2, 5/7, 37/3}
                changes the scale, and with it the width of an atom
"""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from bmtl.evaluate import eval_truth_set
from bmtl.intervals import Interval, IntervalSet
from bmtl.syntax import KINDS, And, Bound, Not, Pred, fold, replace_children
from bmtl.traces import Fact, Trace
from conftest import formulas_st, intersect, shifted, traces_st

_37THS = st.integers(min_value=-150, max_value=150).map(lambda k: F(k, 37))


def _moved(tr: Trace, d: F) -> Trace:
    horizon = Interval(tr.horizon.lo + d, tr.horizon.hi + d)
    facts = [Fact(f.predicate, Interval(f.span.lo + d, f.span.hi + d)) for f in tr.facts]
    return Trace(horizon, tuple(facts))


def _times(p: Interval, c: F) -> Interval:
    return Interval(p.lo * c, p.hi * c, p.lo_closed, p.hi_closed)


def _stretched(tr: Trace, c: F) -> Trace:
    facts = [Fact(f.predicate, _times(f.span, c)) for f in tr.facts]
    return Trace(_times(tr.horizon, c), tuple(facts))


def _stretched_bounds(f, c: F):
    """f with every bound end times c."""
    def step(node, kids):
        bound = getattr(node, "bound", None)
        if bound is None:
            return replace_children(node, tuple(kids))
        return KINDS[type(node)].make(kids, Bound(bound.lo * c, bound.hi * c))

    return fold(f, step)


@st.composite
def _facts_inside(draw, horizon: Interval):
    """Up to four closed facts within the horizon, ends on a 1/8 grid."""
    steps = int(horizon.width * 8)
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        a = draw(st.integers(min_value=0, max_value=steps))
        b = draw(st.integers(min_value=a, max_value=steps))
        span = Interval(horizon.lo + F(a, 8), horizon.lo + F(b, 8))
        out.append(Fact(draw(st.sampled_from(("p", "q", "r"))), span))
    return out


@settings(max_examples=150)
@given(formulas_st(max_depth=3, allow_not=True), traces_st(), _37THS)
def test_translation_moves_the_truth_set(f, tr, d):
    assert eval_truth_set(f, _moved(tr, d)) == shifted(eval_truth_set(f, tr), d, d)


@settings(max_examples=200)
@given(formulas_st(max_depth=3, allow_not=True), traces_st(),
       st.sampled_from((F(2), F(3, 2), F(5, 7), F(37, 3))))
# p & !q is the gap (0,1), one atom at scale 1 and many once stretched
@example(And(Pred("p"), Not(Pred("q"))),
         Trace(Interval(0, 2), (Fact("p", Interval(0, 1)), Fact("q", Interval(0, 0)),
                                Fact("q", Interval(1, 1)))),
         F(3, 2))
def test_scaling_time_scales_the_truth_set(f, tr, c):
    got = eval_truth_set(_stretched_bounds(f, c), _stretched(tr, c))
    assert got == IntervalSet(tuple(_times(p, c) for p in eval_truth_set(f, tr)))


@settings(max_examples=150)
@given(formulas_st(max_depth=3), traces_st(), st.data())
def test_adding_facts_keeps_every_point_of_a_negation_free_formula(f, tr, data):
    extra = data.draw(_facts_inside(tr.horizon))
    s = eval_truth_set(f, tr)
    s2 = eval_truth_set(f, Trace(tr.horizon, tr.facts + tuple(extra)))
    assert intersect(s, s2) == s
