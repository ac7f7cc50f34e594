"""Trace model and text format."""

from fractions import Fraction as F

import pytest
from hypothesis import given

from bmtl.errors import (
    FactOutsideHorizonError,
    MissingHorizonError,
    ParseError,
)
from bmtl.intervals import Interval, coalesce
from bmtl.traces import Fact, Trace, format_trace, parse_trace
from conftest import traces_st


class TestModel:
    def test_truth_base_coalesces_overlapping_facts(self):
        tr = Trace(
            Interval(F(0), F(10)),
            (
                Fact("p", Interval(F(1), F(3))),
                Fact("p", Interval(F(2), F(5))),
                Fact("q", Interval(F(4), F(6))),
            ),
        )
        assert tr.truth_base("p") == coalesce([Interval(F(1), F(5))])
        assert tr.truth_base("q") == coalesce([Interval(F(4), F(6))])

    def test_unknown_predicate_is_empty(self):
        tr = Trace(Interval(F(0), F(10)), ())
        assert tr.truth_base("nope").parts == ()

    def test_fact_outside_horizon_rejected(self):
        with pytest.raises(FactOutsideHorizonError):
            Trace(Interval(F(0), F(10)), (Fact("p", Interval(F(5), F(12))),))

    def test_first_outside_fact_in_fact_order_is_named(self):
        # q's base is checked first, but p @ [9,12] comes first among the facts
        facts = (
            Fact("q", Interval(F(1), F(2))),
            Fact("p", Interval(F(9), F(12))),
            Fact("q", Interval(F(-1), F(1))),
        )
        with pytest.raises(FactOutsideHorizonError, match=r"fact p @ \[9,12\]"):
            Trace(Interval(F(0), F(10)), facts)

    def test_zero_width_horizon_rejected(self):
        with pytest.raises(ValueError):
            Trace(Interval(F(3), F(3)), ())


class TestTextFormat:
    def test_parse_basic(self):
        tr = parse_trace("horizon [-5,15]\np @ [0,4]\nq @ [3,6]\n")
        assert tr.horizon == Interval(F(-5), F(15))
        assert tr.truth_base("p") == coalesce([Interval(F(0), F(4))])

    def test_comments_and_blank_lines(self):
        tr = parse_trace("# header\nhorizon [0,10]\n\np @ [1,2]  # fact\n")
        assert tr.truth_base("p") == coalesce([Interval(F(1), F(2))])

    def test_fractional_endpoints(self):
        tr = parse_trace("horizon [0,10]\np @ [1/2,7/3]\n")
        assert tr.truth_base("p") == coalesce([Interval(F(1, 2), F(7, 3))])

    def test_missing_horizon(self):
        with pytest.raises(MissingHorizonError):
            parse_trace("p @ [0,1]\n")

    def test_duplicate_horizon(self):
        with pytest.raises(ParseError):
            parse_trace("horizon [0,10]\nhorizon [0,5]\n")

    def test_inverted_fact_span(self):
        with pytest.raises(ParseError):
            parse_trace("horizon [0,10]\np @ [4,2]\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("horizon [0,10]\np @@ [1,2]\n")
        assert exc.value.line == 2

    def test_fact_outside_horizon_rejected(self):
        with pytest.raises(FactOutsideHorizonError):
            parse_trace("horizon [0,10]\np @ [8,11]\n")

    def test_fact_outside_horizon_reported_before_a_later_malformed_line(self):
        with pytest.raises(FactOutsideHorizonError) as exc:
            parse_trace("horizon [0,10]\np @ [8,11]\np @@ x")
        assert exc.value.line == 2

    def test_one_containment_check_per_fact(self, monkeypatch):
        n, predicates = 300, ("p", "q", "r")
        lines = ["horizon [0,2000]"] + [
            f"{predicates[i % 3]} @ [{2 * i},{6 * i + 1}/3]" for i in range(n)
        ]
        calls = 0
        original = Interval.contains_interval

        def counted(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(Interval, "contains_interval", counted)
        tr = parse_trace("\n".join(lines))
        assert len(tr.facts) == n
        assert calls <= n + 2 * len(predicates), calls

    def test_parsed_endpoints_are_fractions(self):
        tr = parse_trace("horizon [-3,10]\np @ [1/2,7]\np @ [-3,-04/6]\n")
        spans = [tr.horizon] + [f.span for f in tr.facts] + list(tr.truth_base("p"))
        assert all(type(x) is F for s in spans for x in (s.lo, s.hi))
        assert tr.facts[1].span == Interval(F(-3), F(-2, 3))

    @pytest.mark.parametrize(
        "text,line", [("horizon [0,1/0]\n", 1), ("horizon [0,10]\np @ [0,1/0]\n", 2)]
    )
    def test_zero_denominator_reports_line(self, text, line):
        with pytest.raises(ParseError, match="zero denominator in '1/0'") as exc:
            parse_trace(text)
        assert exc.value.line == line

    @given(traces_st())
    def test_round_trip(self, tr):
        back = parse_trace(format_trace(tr))
        assert back.horizon == tr.horizon
        for name in ("p", "q", "r"):
            assert back.truth_base(name) == tr.truth_base(name)
