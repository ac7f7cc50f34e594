"""Trace model and text format."""

import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmtl import traces
from bmtl.errors import (
    BmtlError,
    FactOutsideHorizonError,
    MissingHorizonError,
    ParseError,
)
from bmtl.evaluate import eval_truth_set
from bmtl.intervals import Interval, coalesce
from bmtl.parser import parse_formula
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

_RAT = r"(-?[0-9]+)(?:/([0-9]+))?"
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
def _fact_lines(draw, name, lo, hi, tidy=False):
    """A fact line; tidy ones are spaced as format_trace spaces them."""
    lo_text, hi_text = draw(_rational_texts(lo)), draw(_rational_texts(hi))
    if tidy:
        return f"{name} @ [{lo_text},{hi_text}]"
    line = draw(_spaced(name, "@", "[", lo_text, ",", hi_text, "]"))
    return line + draw(st.sampled_from(("", "  # note")))


@st.composite
def _horizon_lines(draw, lo, hi, tidy=False):
    lo_text, hi_text = draw(_rational_texts(lo)), draw(_rational_texts(hi))
    if tidy:
        return f"horizon [{lo_text},{hi_text}]"
    return draw(_spaced("horizon", "[", lo_text, ",", hi_text, "]"))


@st.composite
def _valid_trace_texts(draw):
    """Horizon and fact lines with denominators 1-13 and negative ends;
    spans overlap, touch (one starts where the last one ended) or repeat
    an earlier span.  Half the texts are tidy, spaced as format_trace
    spaces its lines, with no comment and no blank line, so that
    parse_trace reads them in one scan; the others may start with a
    comment line."""
    a, b = sorted(draw(st.lists(_VALUES, min_size=2, max_size=2, unique=True)))
    tidy = draw(st.booleans())
    header = [] if tidy or draw(st.booleans()) else ["# header"]
    lines = header + [draw(_horizon_lines(a, b, tidy))]
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
        lines.append(draw(_fact_lines(draw(st.sampled_from("pqr")), lo, hi, tidy)))
        if not tidy and draw(st.integers(0, 5)) == 0:
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
    return draw(_fact_lines(draw(st.sampled_from("pqr")), lo, hi, draw(st.booleans())))


@st.composite
def _broken_trace_texts(draw):
    """A valid trace with one defective line put in, and sometimes a
    malformed line after it, so the first error must win."""
    text = draw(_valid_trace_texts())
    lines = text.splitlines()
    first = 0 if lines[0].startswith("horizon") else 1
    kind = draw(st.sampled_from(("line", "outside", "horizon", "missing")))
    if kind == "horizon":
        # a zero denominator, an empty or inverted horizon, or no horizon line
        lines[first] = draw(st.sampled_from(_BROKEN_HORIZONS))
    elif kind == "missing":
        lines = draw(st.sampled_from(([], ["", "# only a comment"], ["  "])))
    else:
        at = draw(st.integers(first + 1, len(lines)))
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


_TOO_LONG = "9" * (sys.get_int_max_str_digits() + 1)


@st.composite
def _odd_lines(draw, a, b):
    """A line for a trace on the horizon [a, b]: one in format_trace's
    spelling that some check refuses, a malformed one, or a valid one in
    another spelling."""
    past = F(1, draw(st.integers(1, 13)))
    digits = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                         "\u0665\u0666\u0667\u0668\u0669")
    return draw(st.sampled_from((
        # refused in format_trace's spelling
        "p @ [1/0,2]", "q @ [1,2/00]", f"p @ [{b},{a}]", "horizon [0,1]",
        f"horizon [{b},{a}]", f"horizon [{a},{a}]", "horizon [0,1/0]",
        f"q @ [{a - past},{a}]", f"r @ [{b},{b + past}]",
        f"p @ [0,{_TOO_LONG}]", f"p @ [1/{_TOO_LONG},{b}]", f"horizon [{a},{_TOO_LONG}]",
        # malformed
        "p @ [1,2] x", "p @@ [1,2]", "p @ [1,]", "p @ [1, 2]", " p @ [1,2]",
        f"p @ [{str(a).translate(digits)},{str(b).translate(digits)}]",
        # other spellings of valid lines
        "", "# note", f"p @ [{a},{b}]  # note", f"p\t@ [{a},{b}]", f"p @ [{a},{b}]\r",
        f"p @ [{a},{a}]\x0cq @ [{b},{b}]", f"p @ [{a},{a}]\u2028q @ [{b},{b}]",
        f"p\xa0@ [{a},{b}]",
    )))


@st.composite
def _scan_texts(draw):
    """A trace text in format_trace's spelling, ends unreduced or with
    leading zeros at times, with up to three odd lines put in anywhere."""
    a, b = sorted(draw(st.lists(_VALUES, min_size=2, max_size=2, unique=True)))
    lines = [draw(_horizon_lines(a, b, tidy=True))]
    for _ in range(draw(st.integers(0, 12))):
        lo, hi = sorted(min(max(draw(_VALUES), a), b) for _ in range(2))
        name = draw(st.sampled_from(("p", "q", "r", "x_1", "horizon")))
        lines.append(draw(_fact_lines(name, lo, hi, tidy=True)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_odd_lines(a, b)))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


def _reference_parse_lines(text):
    """The per-line reader as it was before it became a tokenizer: it
    converts and checks each line as it reads it, so an error is the
    first in the text by construction."""
    horizon = None
    # each fact in fact order: predicate, ends as (p, q, r, s) for [p/q, r/s]
    names, p_col, q_col, r_col, s_col = [], [], [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue
        if horizon is None:
            m = _REF_HORIZON_RE.match(line)
            if m is None:
                if re.match(r"horizon\b", line) and not _REF_FACT_RE.match(line):
                    raise ParseError(f"malformed horizon line: {line!r}", lineno)
                raise MissingHorizonError(
                    "first line must declare the horizon, e.g. 'horizon [-5,10]'", lineno
                )
            p, q, r, s = traces._ends(*m.groups(), lineno)
            lo, hi = F(p, q), F(r, s)
            if lo >= hi:
                raise ParseError(f"horizon [{lo},{hi}] must have positive width", lineno)
            horizon = Interval(lo, hi)
            h_lo, h_lo_den = lo.numerator, lo.denominator
            h_hi, h_hi_den = hi.numerator, hi.denominator
            continue
        m = _REF_FACT_RE.match(line)
        if m is None:
            if _REF_HORIZON_RE.match(line):
                raise ParseError("duplicate horizon line", lineno)
            raise ParseError(f"malformed trace line: {line!r}", lineno)
        name, a, b, c, d = m.groups()
        p, q, r, s = traces._ends(a, b, c, d, lineno)
        # the denominators are positive, so both checks cross-multiply
        if p * s > r * q:
            raise ParseError(f"inverted fact span [{F(p, q)},{F(r, s)}]", lineno)
        if p * h_lo_den < h_lo * q or r * h_hi_den > h_hi * s:
            span = Interval(F(p, q), F(r, s))
            raise FactOutsideHorizonError(
                f"fact {name} @ {span} lies outside horizon {horizon}", lineno
            )
        names.append(name)
        p_col.append(p)
        q_col.append(q)
        r_col.append(r)
        s_col.append(s)
    if horizon is None:
        raise MissingHorizonError("trace declares no horizon")
    tr = Trace.__new__(Trace)
    tr._build(horizon, names, p_col, q_col, r_col, s_col)
    return tr


def _result(parse, text):
    """What parse makes of text: the trace, its hash and scale, or the
    error's class, message and line."""
    try:
        tr = parse(text)
    except BmtlError as e:
        return type(e), str(e), getattr(e, "line", None)
    return tr, hash(tr), tr.scale


class TestScan:
    @settings(max_examples=400)
    @given(_scan_texts())
    @example("horizon [0,10]")
    @example("horizon [0,10]\n")
    @example("horizon [0,10]\n\n")
    @example("horizon [0,10]\np @ [1,2]")
    @example("horizon [0,10]\np @ [1,2]\r\nq @ [3,4]\r\n")
    @example("horizon\x0c[0,10]\np @ [1,2]\n")
    @example("horizon [0,10]\np @ [1,2]\n\x0c\n")
    @example("horizon [0,3/3]\np @ [2/4,6/8]\nq @ [-0/9,10/15]\n")
    @example("horizon [3,3]\np @ [3,3]\n")
    @example(f"horizon [0,10]\np @ [0,{_TOO_LONG}]\np @@ x\n")
    def test_scan_and_loop_agree(self, text):
        assert _result(parse_trace, text) == _result(_reference_parse_lines, text)

    def test_format_trace_spelling_is_read_in_one_scan(self, monkeypatch):
        n = 300
        tr = Trace(Interval(F(-1), F(2000)),
                   [Fact("pqr"[i % 3], Interval(F(2 * i, 3), F(6 * i + 1, 3))) for i in range(n)])
        text = format_trace(tr)
        # the per-line reader matches fact lines with _FACT_RE
        monkeypatch.setattr(traces, "_FACT_RE", re.compile(r"(?!)"))
        assert parse_trace(text) == tr
        with pytest.raises(ParseError, match="malformed trace line"):
            parse_trace(text.replace(" @ ", "  @ ", 1))

    @pytest.mark.parametrize("text,error,message,line", [
        ("horizon [0,10]\np @ [1,2]\np @ [8,11]\n", FactOutsideHorizonError,
         "fact p @ [8,11] lies outside horizon [0,10]", 3),
        ("horizon [0,10]\np @ [1/0,2]\n", ParseError, "zero denominator in '1/0'", 2),
        ("horizon [0,10]\np @ [4,2]\n", ParseError, "inverted fact span [4,2]", 2),
        (f"horizon [0,10]\np @ [1,{_TOO_LONG}]\n", ParseError,
         f"number longer than {sys.get_int_max_str_digits()} digits", 2),
    ], ids=("outside", "zero-denominator", "inverted", "too-long"))
    def test_format_trace_spelling_reports_its_own_errors(self, monkeypatch, text, error,
                                                          message, line):
        # with the per-line reader's fact pattern broken, each error must
        # still be its own, at its own line, not a malformed line
        monkeypatch.setattr(traces, "_FACT_RE", re.compile(r"(?!)"))
        with pytest.raises(ParseError) as exc:
            parse_trace(text)
        assert type(exc.value) is error
        assert str(exc.value) == f"{message} at line {line}" and exc.value.line == line

    def test_each_of_many_predicates_keeps_its_spans(self):
        n = 2000
        text = "horizon [0,10]\n" + "".join(f"p{i} @ [0,1]\np{i} @ [2,3]\n" for i in range(n))
        tr = parse_trace(text)
        assert tr.spans("p1999") == ([0, 2], [1, 3])
        assert format_trace(tr) == text


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

    def test_evaluating_and_printing_build_no_fraction_per_part(self, monkeypatch):
        n = 300
        lines = ["horizon [-1,2000]"] + [
            f"{'pq'[i % 2]} @ [{4 * i}/3,{4 * i + 1}/3]" for i in range(n)
        ]
        tr = parse_trace("\n".join(lines))
        f = parse_formula("(dminus[1/5,1] p & !q)")
        built = 0
        original = F.__new__

        def counted(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        truth = eval_truth_set(f, tr)
        text = str(truth)
        at_print = built
        assert at_print <= 4, at_print
        # reading the parts builds their ends
        parts = truth.parts
        assert len(parts) == n // 2 and text == "{" + ", ".join(map(str, parts)) + "}"
        assert built >= at_print + 2 * len(parts)

    def test_equality_and_hash_build_no_fact_and_no_fraction(self, monkeypatch):
        n = 2000
        lines = ["horizon [-1,5000]"] + [
            f"{'pqr'[i % 3]} @ [{2 * i}/3,{6 * i + 1}/3]" for i in range(n)
        ]
        text = "\n".join(lines)
        a, b = parse_trace(text), parse_trace(text)
        moved = parse_trace(text.replace("p @ [0/3,", "p @ [1/3,", 1))
        built = []
        original = F.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        monkeypatch.setattr(Fact, "__post_init__", lambda fact: built.append(fact))
        assert a == b and hash(a) == hash(b)
        assert a != moved
        assert built == []

    @settings(max_examples=150)
    @given(traces_st(max_facts=8), formulas_st(max_depth=3, allow_not=True, bounds=bounds_st()))
    def test_parsed_and_fact_built_traces_evaluate_alike(self, tr, f):
        parsed = parse_trace(format_trace(tr))
        built = Trace(parsed.horizon, parsed.facts)
        assert parsed == built == tr
        assert hash(parsed) == hash(built)
        assert eval_truth_set(f, parsed) == eval_truth_set(f, built) == eval_truth_set(f, tr)


# ------------------------------------------------------- equality and text


def _reference_format_trace(tr):
    """format_trace as it was, rendering each Fact's Fraction ends."""
    lines = [f"horizon [{tr.horizon.lo},{tr.horizon.hi}]"]
    lines += [f"{f.predicate} @ [{f.span.lo},{f.span.hi}]" for f in tr.facts]
    return "\n".join(lines) + "\n"


def _unreduced_text(tr, k):
    """tr's text with every end n/d written as (k n)/(k d)."""
    def spell(lo, hi):
        return ",".join(f"{x.numerator * k}/{x.denominator * k}" for x in (lo, hi))

    lines = [f"horizon [{spell(tr.horizon.lo, tr.horizon.hi)}]"]
    lines += [f"{f.predicate} @ [{spell(f.span.lo, f.span.hi)}]" for f in tr.facts]
    return "\n".join(lines) + "\n"


class TestEquality:
    @settings(max_examples=300)
    @given(traces_st(max_facts=6), traces_st(max_facts=6), st.data())
    def test_equal_exactly_when_horizon_and_facts_in_order_are(self, a, b, data):
        # b is an independent draw, a's facts rebuilt, or a's facts reordered
        how = data.draw(st.sampled_from(("drawn", "rebuilt", "reordered")))
        if how == "rebuilt":
            b = Trace(a.horizon, a.facts)
        elif how == "reordered":
            b = Trace(a.horizon, data.draw(st.permutations(a.facts)))
            if b.facts != a.facts:
                assert a != b
        assert (a == b) == (a.horizon == b.horizon and a.facts == b.facts)
        if a == b:
            assert hash(a) == hash(b)
        # the ingest divides out the factor that unreduced ends such as 2/4 leave
        unreduced = parse_trace(_unreduced_text(a, data.draw(st.integers(2, 6))))
        assert unreduced == a and hash(unreduced) == hash(a)
        assert format_trace(a) == _reference_format_trace(a)
        assert format_trace(unreduced) == format_trace(a)
