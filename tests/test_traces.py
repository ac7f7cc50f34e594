"""Trace model and text format."""

import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmtl.errors import (
    BmtlError,
    FactOutsideHorizonError,
    MissingHorizonError,
    ParseError,
)
from bmtl.evaluate import eval_truth_set
from bmtl.intervals import Interval, coalesce
from bmtl.traces import Fact, Trace, format_trace, parse_trace
from conftest import bounds_st, formulas_st, traces_st


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

    def test_malformed_horizon_is_not_a_missing_one(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("horizon [0,1e1]\np @ [0,1]\n")
        assert type(exc.value) is ParseError
        assert exc.value.code == "SYNTAX_ERROR" and exc.value.line == 1
        assert "malformed horizon line: 'horizon [0,1e1]'" in str(exc.value)
        # a fact of a predicate named horizon declares no horizon
        with pytest.raises(MissingHorizonError):
            parse_trace("horizon @ [0,1]\n")

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

    @pytest.mark.parametrize("text,line", [
        ("horizon [0,{n}]\n", 1),
        ("horizon [0,10]\np @ [1,{n}]\n", 2),
        ("horizon [0,10]\np @ [1/{n},2]\n", 2),
    ])
    def test_number_past_the_int_conversion_limit_reports_line(self, text, line):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match=f"number longer than {limit} digits") as exc:
            parse_trace(text.format(n="9" * (limit + 1)))
        assert exc.value.line == line

    @given(traces_st())
    def test_round_trip(self, tr):
        back = parse_trace(format_trace(tr))
        assert back.horizon == tr.horizon
        for name in ("p", "q", "r"):
            assert back.truth_base(name) == tr.truth_base(name)


# ------------------------------------------------------- reference ingest

_RAT = r"(-?\d+)(?:/(\d+))?"
_REF_HORIZON_RE = re.compile(rf"^horizon\s*\[\s*{_RAT}\s*,\s*{_RAT}\s*\]$")
_REF_FACT_RE = re.compile(rf"^([A-Za-z][A-Za-z0-9_]*)\s*@\s*\[\s*{_RAT}\s*,\s*{_RAT}\s*\]$")


def _reference_rat(num, den, lineno):
    if den is None:
        return F(int(num))
    try:
        return F(int(num), int(den))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {num + '/' + den!r}", lineno) from None


def _reference_parse_trace(text):
    """The Fraction ingest as it was before traces moved to integer time:
    every endpoint a Fraction, every check a Fraction comparison.  Returns
    (horizon, facts, {predicate: coalesced truth base})."""
    horizon = None
    facts = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_content = True
        if horizon is None:
            m = _REF_HORIZON_RE.match(line)
            if m is None:
                if re.match(r"horizon\b", line) and not _REF_FACT_RE.match(line):
                    raise ParseError(f"malformed horizon line: {line!r}", lineno)
                raise MissingHorizonError(
                    "first line must declare the horizon, e.g. 'horizon [-5,10]'", lineno
                )
            lo, hi = _reference_rat(*m.group(1, 2), lineno), _reference_rat(*m.group(3, 4), lineno)
            if lo >= hi:
                raise ParseError(f"horizon [{lo},{hi}] must have positive width", lineno)
            horizon = Interval(lo, hi)
            continue
        if _REF_HORIZON_RE.match(line):
            raise ParseError("duplicate horizon line", lineno)
        m = _REF_FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed trace line: {line!r}", lineno)
        name = m.group(1)
        lo, hi = _reference_rat(*m.group(2, 3), lineno), _reference_rat(*m.group(4, 5), lineno)
        if lo > hi:
            raise ParseError(f"inverted fact span [{lo},{hi}]", lineno)
        span = Interval(lo, hi)
        if not horizon.contains_interval(span):
            raise FactOutsideHorizonError(
                f"fact {name} @ {span} lies outside horizon {horizon}", lineno
            )
        facts.append(Fact(name, span))
    if not saw_content or horizon is None:
        raise MissingHorizonError("trace declares no horizon")
    spans = {}
    for fact in facts:
        spans.setdefault(fact.predicate, []).append(fact.span)
    return horizon, tuple(facts), {name: coalesce(pieces) for name, pieces in spans.items()}


_VALUES = st.builds(F, st.integers(-40, 40), st.integers(1, 13))


@st.composite
def _rational_texts(draw, value):
    """value as a trace file may spell it: unreduced, with leading zeros,
    with or without a denominator of 1."""
    k = draw(st.integers(1, 3))
    num, den = value.numerator * k, value.denominator * k
    digits = "0" * draw(st.integers(0, 2)) + str(abs(num))
    text = ("-" if num < 0 else "") + digits
    if den == 1 and draw(st.booleans()):
        return text
    return f"{text}/{'0' * draw(st.integers(0, 1))}{den}"


@st.composite
def _spaced(draw, *tokens):
    """tokens joined with optional blanks, as the format allows."""
    return "".join(tok + draw(st.sampled_from(("", " ", "  "))) for tok in tokens).rstrip()


@st.composite
def _fact_lines(draw, name, lo, hi):
    lo_text, hi_text = draw(_rational_texts(lo)), draw(_rational_texts(hi))
    line = draw(_spaced(name, "@", "[", lo_text, ",", hi_text, "]"))
    return line + draw(st.sampled_from(("", "  # note")))


@st.composite
def _horizon_lines(draw, lo, hi):
    lo_text, hi_text = draw(_rational_texts(lo)), draw(_rational_texts(hi))
    return draw(_spaced("horizon", "[", lo_text, ",", hi_text, "]"))


@st.composite
def _valid_trace_texts(draw):
    """Horizon and fact lines with denominators 1-13 and negative ends;
    spans overlap, touch (one starts where the last one ended) or repeat
    an earlier span."""
    a, b = sorted(draw(st.lists(_VALUES, min_size=2, max_size=2, unique=True)))
    lines = ["# header", draw(_horizon_lines(a, b))]
    spans = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(("fresh", "touch", "repeat")))
        if shape == "repeat" and spans:
            lo, hi = draw(st.sampled_from(spans))
        else:
            x = draw(_VALUES) if shape == "fresh" or not spans else spans[-1][1]
            y = draw(_VALUES)
            lo, hi = sorted((min(max(x, a), b), min(max(y, a), b)))
        spans.append((lo, hi))
        lines.append(draw(_fact_lines(draw(st.sampled_from("pqr")), lo, hi)))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


_BROKEN_LINES = (
    "p @ [1/0,2]",
    "p @ [1,3/00]",
    "p @ [1/0,3/00]",
    "p @ [5,2]",
    "p @ [-04/6,-5/6]",
    "q @ [-1000,-999]",
    "q @ [0,1000]",
    "horizon [0,1]",
    "p @@ [1,2]",
    "p @ [1,2] extra",
)


_BROKEN_HORIZONS = (
    "horizon [0,1/0]",
    "horizon [2/0,3]",
    "horizon [1/0,2/00]",
    "horizon [3,3]",
    "horizon [4,-04/6]",
    "p @ [0,1]",
    "horizon",
    "horizon [0,1e1]",
    "horizon @ [0,1]",
    "# nothing",
)


@st.composite
def _outside_fact_lines(draw, text):
    """A fact of the trace's predicates that reaches past one end of its
    horizon by 1/k, k up to 13."""
    horizon, _, _ = _reference_parse_trace(text)
    past = F(1, draw(st.integers(1, 13)))
    if draw(st.booleans()):
        lo, hi = horizon.lo - past, horizon.lo
    else:
        lo, hi = horizon.hi, horizon.hi + past
    return draw(_fact_lines(draw(st.sampled_from("pqr")), lo, hi))


@st.composite
def _broken_trace_texts(draw):
    """A valid trace with one defective line put in, and sometimes a
    malformed line after it, so the first error must win."""
    text = draw(_valid_trace_texts())
    lines = text.splitlines()
    kind = draw(st.sampled_from(("line", "outside", "horizon", "missing")))
    if kind == "horizon":
        # a zero denominator, an empty or inverted horizon, or no horizon line
        lines[1] = draw(st.sampled_from(_BROKEN_HORIZONS))
    elif kind == "missing":
        lines = draw(st.sampled_from(([], ["", "# only a comment"], ["  "])))
    else:
        at = draw(st.integers(2, len(lines)))
        if kind == "outside":
            lines.insert(at, draw(_outside_fact_lines(text)))
        else:
            lines.insert(at, draw(st.sampled_from(_BROKEN_LINES)))
        if draw(st.booleans()):
            lines.insert(at + 1, "p @ [oops]")
    return "\n".join(lines)


def _outcome(parse, text):
    """What parse makes of text: the error's class, message and line, or
    None when it parses."""
    try:
        parse(text)
    except BmtlError as e:
        return type(e), str(e), getattr(e, "line", None)
    return None


class TestAgainstReferenceIngest:
    @settings(max_examples=300)
    @given(_valid_trace_texts())
    @example("horizon [-3,10]\np @ [1/2,7]\np @ [-3,-04/6]\np @ [-04/6,1/2]\n")
    @example("horizon [-13/12, 1/11]\nq @ [-13/12,-13/12]\nq @ [-1/7,1/11]\nq @ [-1/7,0]\n")
    @example("horizon [0,3/3]\np @ [2/4,6/8]\nq @ [-0/9,10/15]\n")
    def test_valid_traces_agree(self, text):
        horizon, facts, bases = _reference_parse_trace(text)
        tr = parse_trace(text)
        assert tr.horizon == horizon
        assert tr.facts == facts
        for name in ("p", "q", "r", "other"):
            assert tr.truth_base(name) == bases.get(name, coalesce([]))
        assert tr == Trace(horizon, facts)
        # the scale is the lcm of the reduced denominators, however written
        assert tr.scale == Trace(horizon, facts).scale

    @settings(max_examples=300)
    @given(_broken_trace_texts())
    @example("horizon [0,1/0]\n")
    @example("horizon [0,10]\np @ [0,1/0]\n")
    @example("horizon [0,10]\np @ [1/0,3/00]\n")
    @example("horizon [0,10]\np @ [4,2]\n")
    @example("horizon [0,10]\np @ [8,11]\np @@ x")
    @example("horizon [0,10]\nhorizon [0,5]\n")
    @example("p @ [0,1]\n")
    @example("# nothing\n\n")
    def test_broken_traces_fail_alike(self, text):
        want = _outcome(_reference_parse_trace, text)
        assert want is not None
        assert _outcome(parse_trace, text) == want


class TestIntegerIngest:
    def test_parsing_builds_no_fraction_per_fact(self, monkeypatch):
        n = 300
        lines = ["horizon [-1,2000]"] + [
            f"{'pqr'[i % 3]} @ [{2 * i}/3,{6 * i + 1}/3]" for i in range(n)
        ]
        built = 0
        original = F.__new__

        def counted(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        tr = parse_trace("\n".join(lines))
        at_ingest = built
        # the horizon's two ends, and nothing per fact
        assert at_ingest <= 4, at_ingest
        assert len(tr.facts) == n
        assert built >= at_ingest + 2 * n

    @settings(max_examples=150)
    @given(traces_st(max_facts=8), formulas_st(max_depth=3, allow_not=True, bounds=bounds_st()))
    def test_parsed_and_fact_built_traces_evaluate_alike(self, tr, f):
        parsed = parse_trace(format_trace(tr))
        built = Trace(parsed.horizon, parsed.facts)
        assert parsed == built == tr
        assert hash(parsed) == hash(built)
        assert eval_truth_set(f, parsed) == eval_truth_set(f, built) == eval_truth_set(f, tr)
