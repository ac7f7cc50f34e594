"""Formula AST: bounds, printing, parsing round-trips, census, scope."""

import gc
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import bmtl.syntax as syntax_module
from bmtl.errors import InvertedBoundError, NegativeBoundError, ParseError
from bmtl.parser import MAX_PAREN_DEPTH, parse_formula
from bmtl.rewrite import SingletonFree, normalize
from bmtl.syntax import (
    And,
    Bound,
    BoxMinus,
    BoxPlus,
    DiaMinus,
    DiaPlus,
    Not,
    Pred,
    Scope,
    Since,
    Top,
    Until,
    census,
    children,
    is_negation_free,
    print_formula,
    replace_children,
    s_expression,
    scope,
    temporal_nesting,
)
from conftest import bound_lcm, formulas_st, mitl_box_bounds_st, preorder_bounds, reference_reach


class TestBound:
    def test_negative_rejected(self):
        with pytest.raises(NegativeBoundError):
            Bound(F(-1), F(2))

    def test_inverted_rejected(self):
        with pytest.raises(InvertedBoundError):
            Bound(F(3), F(2))

    def test_singleton_flag(self):
        assert Bound(F(2), F(2)).singleton
        assert not Bound(F(2), F(3)).singleton


class TestPrinting:
    def test_s_expression_box(self):
        f = BoxPlus(Bound(F(1), F(3)), Pred("p"))
        assert s_expression(f) == "(bplus [1,3] (pred p))"

    def test_s_expression_until(self):
        f = Until(Pred("p"), Bound(F(1), F(2)), Pred("q"))
        assert s_expression(f) == "(until (pred p) [1,2] (pred q))"

    def test_s_expression_top(self):
        assert s_expression(Top()) == "(top)"

    def test_print_binary_parenthesized(self):
        f = And(Pred("p"), Pred("q"))
        assert print_formula(f) == "(p & q)"
        g = Until(Pred("p"), Bound(F(1), F(2)), Pred("q"))
        assert print_formula(g) == "(p U[1,2] q)"

    def test_print_unary_prefix(self):
        f = BoxPlus(Bound(F(1), F(3)), Pred("p"))
        assert print_formula(f) == "bplus[1,3] p"

    def test_print_fractional_bounds(self):
        f = DiaMinus(Bound(F(1, 2), F(7, 3)), Pred("p"))
        assert print_formula(f) == "dminus[1/2,7/3] p"


class TestRoundTrip:
    @given(formulas_st(max_depth=4, allow_not=True))
    def test_parse_inverts_print(self, f):
        assert parse_formula(print_formula(f)) == f

    def test_whitespace_and_comments_ignored(self):
        text = "bplus[1,3]  # window\n  (p & q)"
        assert parse_formula(text) == BoxPlus(
            Bound(F(1), F(3)), And(Pred("p"), Pred("q"))
        )

    def test_and_is_left_associative(self):
        assert parse_formula("(p & q & r)") == And(
            And(Pred("p"), Pred("q")), Pred("r")
        )


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "p &",
            "bplus[1,3]",
            "dplus[1/0,2] p",
            "p q",
            "(p & q",
            "unknownop[1,2] p",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p &\n& q")
        assert exc.value.line == 2

    def test_inverted_bound_keeps_precise_type(self):
        with pytest.raises(InvertedBoundError) as exc:
            parse_formula("dplus[3,2] p")
        assert "line 1" in str(exc.value)

    def test_negative_bound_keeps_precise_type(self):
        with pytest.raises(NegativeBoundError):
            parse_formula("bplus[-1,3] p")

    def test_long_prefix_chains_parse(self):
        assert census(parse_formula("!" * 3000 + "p")).counts == {"not": 3000, "pred": 1}
        f = parse_formula("bplus[0,1] !" * 1500 + "p")
        assert census(f).counts == {"bplus": 1500, "not": 1500, "pred": 1}

    def test_parentheses_nest_up_to_the_cap(self):
        n = MAX_PAREN_DEPTH
        assert parse_formula("(" * n + "p" + ")" * n) == Pred("p")

    def test_deeper_parentheses_rejected_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("(" * 3000 + "p" + ")" * 3000)
        assert (exc.value.line, exc.value.column) == (1, MAX_PAREN_DEPTH + 1)

    @pytest.mark.parametrize("bound,column", [("[{n},{n}]", 7), ("[1,1/{n}]", 11)])
    def test_number_past_the_int_conversion_limit_is_a_parse_error(self, bound, column):
        limit = sys.get_int_max_str_digits()
        n = "1" * (limit + 1)
        with pytest.raises(ParseError, match=f"number longer than {limit} digits") as exc:
            parse_formula("bplus" + bound.format(n=n) + " p")
        assert (exc.value.line, exc.value.column) == (1, column)


class TestStructure:
    @given(formulas_st(max_depth=4, allow_not=True))
    def test_replace_children_identity(self, f):
        assert replace_children(f, children(f)) is f

    @given(formulas_st(max_depth=3))
    def test_generated_formulas_negation_free(self, f):
        assert is_negation_free(f)

    def test_negation_detected(self):
        assert not is_negation_free(And(Pred("p"), Not(Pred("q"))))

    @given(
        st.one_of(
            formulas_st(max_depth=4, allow_not=True),
            # the mitl box rule shares the box body between two conjuncts
            formulas_st(max_depth=3, bounds=mitl_box_bounds_st()).map(
                lambda f: normalize(f, SingletonFree(F(1, 2), F(1))).output),
        ),
        st.randoms(use_true_random=False),
    )
    def test_scope_matches_references(self, f, rng):
        # ask for the root and every distinct subterm in a drawn order: the
        # first ask folds and fills the slots below, later asks read them
        subterms, todo = {}, [f]
        while todo:
            node = todo.pop()
            if id(node) not in subterms:
                subterms[id(node)] = node
                todo.extend(children(node))
        asked = list(subterms.values())
        rng.shuffle(asked)
        for node in asked:
            assert scope(node) == Scope(*reference_reach(node), bound_lcm(node))

    def test_scope_reads_a_shared_subtree_once(self):
        # every level uses the level below twice: 2**60 root-to-leaf paths
        node = Pred("p")
        for i in range(1, 61):
            node = And(DiaPlus(Bound(F(0), F(1, i)), node), node)
        s = scope(node)
        assert s.scale == math.lcm(*range(1, 61))
        # the longest path runs through every diamond
        assert (s.past, s.future) == (F(0), sum(F(1, i) for i in range(1, 61)))


class TestInterning:
    def test_equal_nodes_are_one_object(self):
        built = Since(Pred("p"), Bound(F(1, 2), F(1)), Top())
        assert Since(Pred("p"), Bound(F(2, 4), 1), Top()) is built
        assert parse_formula("(p S[2/4,1] true)") is built
        assert Since(Pred("p"), Bound(F(1, 2), F(2)), Top()) is not built
        assert Until(Pred("p"), Bound(F(1, 2), F(1)), Top()) is not built

    def test_rebuilding_a_node_with_a_new_operand(self):
        f = And(Pred("p"), Pred("q"))
        assert replace_children(f, (Pred("p"), Pred("r"))) is And(Pred("p"), Pred("r"))

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            Pred("p").name = "q"

    def test_arity_is_checked(self):
        with pytest.raises(TypeError):
            Not(Pred("p"), Pred("q"))

    def test_repr_names_the_fields(self):
        assert repr(Not(Pred("p"))) == "Not(body=Pred(name='p'))"


class TestCensus:
    def test_shared_leaf_counts_per_occurrence(self):
        f = parse_formula("(p & p)")
        assert f.left is f.right
        assert census(f).counts == {"and": 1, "pred": 2}

    def test_counts_and_depth(self):
        f = BoxPlus(Bound(F(1), F(3)), And(Pred("p"), Pred("q")))
        c = census(f)
        assert c.counts == {"bplus": 1, "and": 1, "pred": 2}
        assert c.max_depth == 2
        assert c.size == 4
        assert c.operators() == {"bplus", "and", "pred"}

    def test_singleton_bound_flagged(self):
        f = DiaPlus(Bound(F(2), F(2)), Pred("p"))
        assert census(f).has_singleton_bound
        g = DiaPlus(Bound(F(2), F(3)), Pred("p"))
        assert not census(g).has_singleton_bound

    @given(formulas_st(max_depth=4))
    def test_singleton_flag_matches_bounds(self, f):
        assert census(f).has_singleton_bound == any(b.singleton for b in preorder_bounds(f))

    @given(formulas_st(max_depth=4))
    def test_size_counts_every_node(self, f):
        def count(node):
            return 1 + sum(count(c) for c in children(node))

        assert census(f).size == count(f)


class TestScope:
    def test_leaf_has_no_reach(self):
        assert scope(Pred("p")) == Scope(F(0), F(0), 1)

    def test_past_and_future_accumulate(self):
        f = DiaMinus(Bound(F(1), F(2)), DiaPlus(Bound(F(0), F(3)), Pred("p")))
        assert scope(f) == Scope(F(2), F(3), 1)

    def test_and_takes_componentwise_max(self):
        f = And(
            DiaMinus(Bound(F(0), F(5)), Pred("p")),
            DiaPlus(Bound(F(0), F(2)), Pred("q")),
        )
        assert scope(f) == Scope(F(5), F(2), 1)

    def test_operands_at_different_scales_meet_at_their_lcm(self):
        f = Since(
            DiaMinus(Bound(F(1, 4), F(1, 2)), Pred("p")),
            Bound(F(1, 3), F(2, 3)),
            DiaPlus(Bound(F(0), F(5, 6)), Not(Pred("q"))),
        )
        assert scope(f) == Scope(F(7, 6), F(5, 6), 12)

    def test_a_node_interned_again_is_folded_afresh(self, monkeypatch):
        def build(hi):
            return DiaPlus(Bound(F(1, 3), hi), Since(Pred("fresh"), Bound(F(0), F(5)), Pred("q")))

        assert scope(build(F(2, 3))) == Scope(F(5), F(2, 3), 3)
        gc.collect()  # that node is gone, and its slot with it
        folds = []
        real = syntax_module.fold
        monkeypatch.setattr(syntax_module, "fold", lambda f, step: folds.append(f) or real(f, step))
        again = build(F(2, 3))
        assert scope(again) == Scope(F(5), F(2, 3), 3)
        assert folds == [again]
        # other shapes, built while the dead node's memory is free for reuse
        others = {k: build(F(k, 3)) for k in range(3, 300)}
        for k, node in others.items():
            assert scope(node) == Scope(F(5), F(k, 3), 3)

    @given(formulas_st(max_depth=4, allow_not=True))
    def test_reach_nonnegative_and_bounded_by_sum(self, f):
        s = scope(f)
        past, future = s.past, s.future
        total = sum((b.hi for b in preorder_bounds(f)), F(0))
        assert F(0) <= past <= total
        assert F(0) <= future <= total

    @given(formulas_st(max_depth=4))
    def test_nesting_bounded_by_operator_count(self, f):
        temporal = {"bplus", "bminus", "dplus", "dminus", "since", "until"}
        c = census(f)
        n_temporal = sum(c.counts.get(k, 0) for k in temporal)
        assert 0 <= temporal_nesting(f) <= n_temporal
        assert (temporal_nesting(f) > 0) == (n_temporal > 0)
