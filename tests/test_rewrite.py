"""Box/diamond elimination: frozen shapes, preconditions, replay, guarantees."""

from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmtl.errors import (
    DegenerateBoundError,
    MitlPreconditionError,
    NonpositiveSlackError,
    NotApplicableError,
)
from bmtl.evaluate import eval_truth_set, reliable_region
from bmtl.parser import parse_formula
from bmtl.rewrite import (
    Punctual,
    RuleApplication,
    SingletonFree,
    apply_rule_at,
    normalize,
    rewrite_box_punctual,
    rewrite_box_singleton_free,
    rewrite_diamond,
)
from bmtl.syntax import (
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
    census,
    print_formula,
)
from conftest import bounds_st, formulas_st, mitl_box_bounds_st

CORE_OPS = {"pred", "top", "and", "since", "until"}


def mitl_formulas_st(max_depth: int = 3):
    """Negation-free formulas whose every box bound satisfies
    0 < lo < hi <= 3*lo and whose other bounds are non-singleton."""
    bound = bounds_st(singleton_free=True)
    leaves = st.one_of(
        st.builds(Pred, st.sampled_from(("p", "q", "r"))),
        st.just(Top()),
    )

    def extend(children):
        return st.one_of(
            st.builds(And, children, children),
            st.builds(BoxPlus, mitl_box_bounds_st(), children),
            st.builds(BoxMinus, mitl_box_bounds_st(), children),
            st.builds(DiaPlus, bound, children),
            st.builds(DiaMinus, bound, children),
            st.builds(Since, children, bound, children),
            st.builds(Until, children, bound, children),
        )

    return st.recursive(leaves, extend, max_leaves=2**max_depth)


class TestFrozenShapes:
    def test_punctual_future_box(self):
        report = normalize(parse_formula("bplus[1,3] p"), Punctual())
        assert print_formula(report.output) == "(true U[1,1] (p U[2,2] true))"
        assert [a.rule for a in report.applied] == ["R-BOXF-P", "R-DIA-F"]

    def test_punctual_past_box(self):
        report = normalize(parse_formula("bminus[1,3] p"), Punctual())
        assert print_formula(report.output) == "(true S[1,1] (p S[2,2] true))"

    def test_singleton_free_future_box(self):
        report = normalize(parse_formula("bplus[2,4] p"), SingletonFree(F(1), F(1)))
        assert (
            print_formula(report.output)
            == "((true U[1,2] (p U[2,3] true)) & (true U[4,5] (p S[2,3] true)))"
        )
        assert [a.rule for a in report.applied] == ["R-BOXF-M", "R-DIA-F", "R-DIA-F"]

    def test_singleton_free_default_slack_is_half_width(self):
        explicit = normalize(parse_formula("bplus[2,4] p"), SingletonFree(F(1), F(1)))
        defaulted = normalize(parse_formula("bplus[2,4] p"), SingletonFree())
        assert defaulted.output == explicit.output
        assert defaulted.applied[0].kappa == F(1)
        assert defaulted.applied[0].lam == F(1)

    def test_nested_punctual(self):
        report = normalize(parse_formula("dminus[1,2] bminus[1,3] p"), Punctual())
        assert (
            print_formula(report.output)
            == "(true S[1,2] (true S[1,1] (p S[2,2] true)))"
        )
        assert [(a.rule, a.path) for a in report.applied] == [
            ("R-BOXP-P", (0,)),
            ("R-DIA-P", (0,)),
            ("R-DIA-P", ()),
        ]

    def test_diamond_rule_shapes(self):
        assert rewrite_diamond(DiaPlus(Bound(F(1), F(2)), Pred("p"))) == Until(
            Top(), Bound(F(1), F(2)), Pred("p")
        )
        assert rewrite_diamond(DiaMinus(Bound(F(1), F(2)), Pred("p"))) == Since(
            Top(), Bound(F(1), F(2)), Pred("p")
        )

    def test_punctual_box_shapes(self):
        got = rewrite_box_punctual(BoxPlus(Bound(F(1), F(3)), Pred("p")))
        assert got == DiaPlus(
            Bound(F(1), F(1)), Until(Pred("p"), Bound(F(2), F(2)), Top())
        )
        got = rewrite_box_punctual(BoxMinus(Bound(F(1), F(3)), Pred("p")))
        assert got == DiaMinus(
            Bound(F(1), F(1)), Since(Pred("p"), Bound(F(2), F(2)), Top())
        )

    def test_singleton_free_past_box_shape(self):
        got = rewrite_box_singleton_free(
            BoxMinus(Bound(F(2), F(4)), Pred("p")), F(1), F(1)
        )
        assert got == And(
            DiaMinus(Bound(F(1), F(2)), Since(Pred("p"), Bound(F(2), F(3)), Top())),
            DiaMinus(Bound(F(4), F(5)), Until(Pred("p"), Bound(F(2), F(3)), Top())),
        )


class TestPreconditions:
    def test_diamond_rule_rejects_other_roots(self):
        with pytest.raises(NotApplicableError):
            rewrite_diamond(Pred("p"))
        with pytest.raises(NotApplicableError):
            rewrite_diamond(BoxPlus(Bound(F(1), F(2)), Pred("p")))

    def test_punctual_box_rejects_other_roots(self):
        with pytest.raises(NotApplicableError):
            rewrite_box_punctual(DiaPlus(Bound(F(1), F(2)), Pred("p")))

    def test_degenerate_bound(self):
        with pytest.raises(DegenerateBoundError):
            rewrite_box_singleton_free(BoxPlus(Bound(F(2), F(2)), Pred("p")), F(1), F(1))

    def test_window_too_wide(self):
        with pytest.raises(MitlPreconditionError):
            rewrite_box_singleton_free(BoxPlus(Bound(F(1), F(4)), Pred("p")), F(1), F(1))

    def test_nonpositive_slack(self):
        box = BoxPlus(Bound(F(2), F(4)), Pred("p"))
        with pytest.raises(NonpositiveSlackError):
            rewrite_box_singleton_free(box, F(0), F(1))
        with pytest.raises(NonpositiveSlackError):
            rewrite_box_singleton_free(box, F(1), F(-1))

    def test_mode_validates_slack(self):
        with pytest.raises(NonpositiveSlackError):
            SingletonFree(F(0), F(1))

    def test_punctual_box_accepts_singleton_window(self):
        got = rewrite_box_punctual(BoxPlus(Bound(F(2), F(2)), Pred("p")))
        assert got == DiaPlus(
            Bound(F(2), F(2)), Until(Pred("p"), Bound(F(0), F(0)), Top())
        )


class TestNormalize:
    @given(formulas_st(max_depth=3))
    def test_punctual_output_uses_core_operators_only(self, f):
        out = normalize(f, Punctual()).output
        assert set(census(out).counts) <= CORE_OPS

    @given(mitl_formulas_st())
    def test_singleton_free_output_uses_core_operators_only(self, f):
        out = normalize(f, SingletonFree()).output
        assert set(census(out).counts) <= CORE_OPS

    @given(mitl_formulas_st())
    def test_singleton_free_output_has_no_singleton_bounds(self, f):
        assert not census(f).has_singleton_bound
        out = normalize(f, SingletonFree()).output
        assert not census(out).has_singleton_bound

    @given(formulas_st(max_depth=3))
    def test_punctual_normalize_is_idempotent(self, f):
        first = normalize(f, Punctual())
        second = normalize(first.output, Punctual())
        assert second.output == first.output
        assert second.applied == ()

    @given(mitl_formulas_st())
    def test_singleton_free_normalize_is_idempotent(self, f):
        first = normalize(f, SingletonFree())
        second = normalize(first.output, SingletonFree())
        assert second.output == first.output
        assert second.applied == ()

    def test_negated_subtrees_pass_through(self):
        inner = Not(BoxPlus(Bound(F(1), F(2)), Pred("p")))
        f = And(BoxMinus(Bound(F(0), F(1)), Pred("q")), inner)
        out = normalize(f, Punctual()).output
        assert out.right == inner
        assert set(census(out.left).counts) <= CORE_OPS

    @given(formulas_st(max_depth=3))
    def test_replay_reproduces_punctual_output(self, f):
        report = normalize(f, Punctual())
        replayed = reduce(apply_rule_at, report.applied, f)
        assert replayed == report.output

    @given(mitl_formulas_st())
    def test_replay_reproduces_singleton_free_output(self, f):
        report = normalize(f, SingletonFree(F(1, 2), F(1, 3)))
        replayed = reduce(apply_rule_at, report.applied, f)
        assert replayed == report.output
        for app in report.applied:
            if app.rule in ("R-BOXF-M", "R-BOXP-M"):
                assert app.kappa == F(1, 2)
                assert app.lam == F(1, 3)

    def test_replay_rejects_stale_log(self):
        with pytest.raises(NotApplicableError):
            apply_rule_at(Pred("p"), RuleApplication("R-DIA-F", ()))


class TestSemanticEquivalence:
    """Spot checks; the randomized campaigns cover this at scale."""

    @pytest.mark.parametrize(
        "text,mode",
        [
            ("bplus[1,3] p", Punctual()),
            ("bminus[1,3] p", Punctual()),
            ("dminus[1,2] bminus[1,3] p", Punctual()),
            ("bplus[2,4] p", SingletonFree(F(1), F(1))),
            ("bminus[2,4] p", SingletonFree(F(1, 2), F(2))),
        ],
    )
    def test_frozen_pairs_agree_inside_reliable_region(self, text, mode, simple_trace):
        f = parse_formula(text)
        g = normalize(f, mode).output
        region = reliable_region(And(f, g), simple_trace)
        assert region is not None
        assert eval_truth_set(f, simple_trace, region) == eval_truth_set(g, simple_trace, region)
