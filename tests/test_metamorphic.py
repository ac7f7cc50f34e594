"""Metamorphic relations of the evaluator: two exact evaluations that
must agree, with no oracle and so no grid limit.

  translation   moving the horizon and every fact by d moves the truth
                set by d; d = k/37 brings a denominator no strategy
                draws, so the evaluator's scale changes too
  monotonicity  for a negation-free formula, adding facts inside the
                horizon never removes a point from the truth set (the
                premise the paper's reduction rests on)
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from bmtl.evaluate import eval_truth_set
from bmtl.intervals import Interval
from bmtl.traces import Fact, Trace
from conftest import formulas_st, intersect, shifted, traces_st

_37THS = st.integers(min_value=-150, max_value=150).map(lambda k: F(k, 37))


def _moved(tr: Trace, d: F) -> Trace:
    horizon = Interval(tr.horizon.lo + d, tr.horizon.hi + d)
    facts = [Fact(f.predicate, Interval(f.span.lo + d, f.span.hi + d)) for f in tr.facts]
    return Trace(horizon, tuple(facts))


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


@settings(max_examples=150)
@given(formulas_st(max_depth=3), traces_st(), st.data())
def test_adding_facts_keeps_every_point_of_a_negation_free_formula(f, tr, data):
    extra = data.draw(_facts_inside(tr.horizon))
    s = eval_truth_set(f, tr)
    s2 = eval_truth_set(f, Trace(tr.horizon, tr.facts + tuple(extra)))
    assert intersect(s, s2) == s
