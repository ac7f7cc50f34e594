"""Finite interval traces: a closed horizon plus closed predicate spans.

File format, one item per line, ``#`` comments allowed:

    horizon [-5,10]
    p @ [0,4]
    p @ [6,13/2]
    q @ [2,2]

The horizon line must come first: a first line that begins with the
word ``horizon`` but does not parse is a malformed horizon, not a
missing one.  Fact order is irrelevant; spans for
the same predicate may overlap and are coalesced into a canonical truth
base.  Predicates never mentioned have an empty base (closed-world).

Traces live in integer time, in one form: the horizon as a Fraction
interval, a ``scale`` (the lcm of the denominators of the horizon and
the facts), each predicate's fact ends times scale as ints, and the
predicate of each fact in fact order.  Every other module takes those
ends through :meth:`Trace.spans`, unfused and uncopied: the evaluator
fuses them into atom codes at its own scale, a multiple of this one
(see :mod:`bmtl.evaluate`), and the oracle samples them on its grid.
Equality and hash read the spans too, and build no Fact and no
Fraction: ``_build`` reduces scale to the lcm of the reduced
denominators, so equal facts in equal order give equal ints.
``format_trace`` renders from the spans as well.  The other views are
computed on each read and nothing is cached: :meth:`Trace.truth_base`
coalesces the spans as Fractions, and ``facts`` builds them in fact
order.

One core, ``Trace._build``, turns the facts into that form.  It takes
them in fact order as columns: the names, and the ints p, q, r, s of
each span [p/q, r/s].  It makes one factor per denominator, scales each
column with ``map``, divides out the gcd of the surplus that unreduced
ends such as 2/4 leave in scale, and groups the ends by predicate in
one pass.  It checks nothing; each way in checks its own input.

``parse_trace`` reads a text in one scan when the text is ASCII, its
first line is a horizon line, and every later line is spelled exactly as
``format_trace`` writes it, ``NAME @ [R,R]``: one regex ``findall`` must
match each of those lines, and the columns are converted with ``map(int,
...)``, each distinct denominator once.  The whole batch is then checked
with no Fraction per fact: zero denominators, a number past the int
conversion limit, inverted spans and facts outside the horizon, the last
two on the scaled ints.  Any other text, and any text that fails a
check, is read again from the start by the per-line loop, the only
reader that reports errors: blank lines, comments, other spacing, other
line breaks (``\\r``, ``\\x0c``, ``\\u2028``), NBSP and non-ASCII
digits all take it, with the same result the loop always gave.  The loop
reads each endpoint as a pair of ints and makes its per-line checks,
inverted span and containment in the horizon, by cross-multiplication,
so an outside fact is reported at its own line even when a later line
is malformed.  It builds Fractions only for an error message, which
names the normalized values (``-04/6`` reads as ``-2/3``).
``Trace(horizon, facts)`` checks that the horizon is closed and wide,
then each fact's containment in fact order, naming the first offender.
``harness.gen_trace`` hands its int draws straight to the core, after
checking them in ints as well.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import gt, mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import FactOutsideHorizonError, MissingHorizonError, ParseError
from .intervals import Interval, IntervalSet, coalesce

# The rational grammar of trace endpoints and of the CLI's rational
# options: n or n/d, as two groups (numerator, then denominator or None).
RATIONAL = r"(-?\d+)(?:/(\d+))?"
# The grammar of predicate names, in traces and in formulas.
NAME = r"[A-Za-z][A-Za-z0-9_]*"
_HORIZON_RE = re.compile(rf"^horizon\s*\[\s*{RATIONAL}\s*,\s*{RATIONAL}\s*\]$")
_FACT_RE = re.compile(
    rf"^({NAME})\s*@\s*\[\s*{RATIONAL}\s*,\s*{RATIONAL}\s*\]$")
# A fact line exactly as format_trace writes it, one match per line.
_SCAN_RE = re.compile(rf"^({NAME}) @ \[{RATIONAL},{RATIONAL}\]$", re.M | re.A)


@dataclass(frozen=True)
class Fact:
    predicate: str
    span: Interval

    def __post_init__(self):
        if not (self.span.lo_closed and self.span.hi_closed):
            raise ValueError("fact spans must be closed intervals")


class Trace:
    """A closed horizon and closed facts, kept in integer time.

    Equal traces have equal horizons and equal facts in the same order.
    """

    __slots__ = ("horizon", "scale", "_spans", "_order")

    def __init__(self, horizon: Interval, facts: Iterable[Fact]):
        if not (horizon.lo_closed and horizon.hi_closed):
            raise ValueError("horizon must be a closed interval")
        if horizon.lo >= horizon.hi:
            raise ValueError("horizon must have positive width")
        names, p, q, r, s = [], [], [], [], []
        for fact in facts:
            if not horizon.contains_interval(fact.span):
                raise FactOutsideHorizonError(
                    f"fact {fact.predicate} @ {fact.span} lies outside horizon {horizon}"
                )
            lo, hi = fact.span.lo, fact.span.hi
            names.append(fact.predicate)
            p.append(lo.numerator)
            q.append(lo.denominator)
            r.append(hi.numerator)
            s.append(hi.denominator)
        self._build(horizon, names, p, q, r, s)

    def _build(self, horizon: Interval, names: list[str], p: Sequence[int],
               q: Sequence[int], r: Sequence[int], s: Sequence[int]) -> None:
        """The one core: the facts in fact order as columns, each fact
        names[i] @ [p[i]/q[i], r[i]/s[i]], checked, q and s positive."""
        h = math.lcm(horizon.lo.denominator, horizon.hi.denominator)
        dens = {*q, *s}
        scale = math.lcm(h, *dens)
        factor = {den: scale // den for den in dens}
        los = list(map(mul, p, map(factor.__getitem__, q)))
        his = list(map(mul, r, map(factor.__getitem__, s)))
        # unreduced ends such as 2/4 leave a common factor in scale: divide it out
        surplus = math.gcd(scale // h, *los, *his)
        if surplus > 1:
            scale //= surplus
            los = [v // surplus for v in los]
            his = [v // surplus for v in his]
        spans = {name: ([], []) for name in dict.fromkeys(names)}
        for name, lo, hi in zip(names, los, his):
            name_los, name_his = spans[name]
            name_los.append(lo)
            name_his.append(hi)
        self.horizon, self.scale, self._spans, self._order = horizon, scale, spans, names

    def _in_order(self) -> Iterator[tuple[str, int, int]]:
        """Each fact's predicate and ends times scale, in fact order."""
        ends = {name: zip(los, his) for name, (los, his) in self._spans.items()}
        for name in self._order:
            yield (name, *next(ends[name]))

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The facts in order, as Fractions, built anew on each read."""
        scale = self.scale
        return tuple(Fact(name, Interval(Fraction(lo, scale), Fraction(hi, scale)))
                     for name, lo, hi in self._in_order())

    def truth_base(self, predicate: str) -> IntervalSet:
        """Coalesced set of times at which the predicate is true."""
        scale = self.scale
        return coalesce(Interval(Fraction(lo, scale), Fraction(hi, scale))
                        for lo, hi in zip(*self.spans(predicate)))

    def spans(self, predicate: str) -> tuple[Sequence[int], Sequence[int]]:
        """The ends of predicate's facts times scale, as the lists (los,
        his) in fact order, both empty when it has no facts; callers must
        not mutate them.  Nothing is fused or built."""
        return self._spans.get(predicate, ((), ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.horizon == other.horizon and self.scale == other.scale
                and self._order == other._order and self._spans == other._spans)

    def __hash__(self) -> int:
        # equal orders put the predicates in _spans in the same order
        return hash((self.horizon, self.scale, tuple(self._order),
                     *(tuple(ends) for pair in self._spans.values() for ends in pair)))

    def __repr__(self) -> str:
        return f"Trace(horizon={self.horizon!r}, facts={self.facts!r})"


def _ends(a: str, b: Optional[str], c: str, d: Optional[str], lineno: int):
    """The matched span [a/b, c/d] as ints (p, q, r, s), q and s positive."""
    try:
        p, r = int(a), int(c)
        q = 1 if b is None else int(b)
        s = 1 if d is None else int(d)
    except ValueError:  # only a number past the int conversion limit gets here
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number longer than {limit} digits", lineno) from None
    if not (q and s):
        bad = a + "/" + b if not q else c + "/" + d
        raise ParseError(f"zero denominator in {bad!r}", lineno)
    return p, q, r, s


def parse_trace(text: str) -> Trace:
    """The trace text spells: read in one scan when it is in
    format_trace's spelling and passes every check, else line by line."""
    tr = _scan(text)
    return tr if tr is not None else _parse_lines(text)


def _scan(text: str) -> Optional[Trace]:
    """text read in one scan if it is in format_trace's spelling and
    passes every check, else None."""
    head, _, body = text.partition("\n")
    m = _HORIZON_RE.match(head)
    # the \s of _HORIZON_RE also takes \r and \x0c, where splitlines splits
    if m is None or not text.isascii() or len(head.splitlines()) != 1:
        return None
    rows = _SCAN_RE.findall(body)
    # one match per line, a last line without its newline included
    if len(rows) != body.count("\n") + (body[-1:] not in ("", "\n")):
        return None
    names, a, b, c, d = zip(*rows) if rows else ((),) * 5
    try:
        lo_num, lo_den, hi_num, hi_den = map(int, m.groups(default="1"))
        den = {t: int(t or "1") for t in {*b, *d}}
        p, r = list(map(int, a)), list(map(int, c))
    except ValueError:  # a number past the int conversion limit
        return None
    if not (lo_den and hi_den and all(den.values())):
        return None
    lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
    if lo >= hi:
        return None
    tr = Trace.__new__(Trace)
    tr._build(Interval(lo, hi), list(names), p, list(map(den.__getitem__, b)),
              r, list(map(den.__getitem__, d)))
    # every span upright and inside the horizon, read in ints
    first = lo.numerator * (tr.scale // lo.denominator)
    last = hi.numerator * (tr.scale // hi.denominator)
    for los, his in tr._spans.values():
        if min(los) < first or max(his) > last or any(map(gt, los, his)):
            return None
    return tr


def _parse_lines(text: str) -> Trace:
    """text read line by line: the only reader that reports errors."""
    horizon: Optional[Interval] = None
    # each fact in fact order: predicate, ends as (p, q, r, s) for [p/q, r/s]
    names: list[str] = []
    p_col: list[int] = []
    q_col: list[int] = []
    r_col: list[int] = []
    s_col: list[int] = []
    fact_match = _FACT_RE.match
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue
        if horizon is None:
            m = _HORIZON_RE.match(line)
            if m is None:
                if re.match(r"horizon\b", line) and not fact_match(line):
                    raise ParseError(f"malformed horizon line: {line!r}", lineno)
                raise MissingHorizonError(
                    "first line must declare the horizon, e.g. 'horizon [-5,10]'", lineno
                )
            p, q, r, s = _ends(*m.groups(), lineno)
            lo, hi = Fraction(p, q), Fraction(r, s)
            if lo >= hi:
                raise ParseError(f"horizon [{lo},{hi}] must have positive width", lineno)
            horizon = Interval(lo, hi)
            h_lo, h_lo_den = lo.numerator, lo.denominator
            h_hi, h_hi_den = hi.numerator, hi.denominator
            continue
        m = fact_match(line)
        if m is None:
            if _HORIZON_RE.match(line):
                raise ParseError("duplicate horizon line", lineno)
            raise ParseError(f"malformed trace line: {line!r}", lineno)
        name, a, b, c, d = m.groups()
        p, q, r, s = _ends(a, b, c, d, lineno)
        # the denominators are positive, so both checks cross-multiply
        if p * s > r * q:
            raise ParseError(f"inverted fact span [{Fraction(p, q)},{Fraction(r, s)}]", lineno)
        if p * h_lo_den < h_lo * q or r * h_hi_den > h_hi * s:
            span = Interval(Fraction(p, q), Fraction(r, s))
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


def _ratio_text(v: int, scale: int) -> str:
    """v / scale as str(Fraction(v, scale)) spells it, with no Fraction built."""
    g = math.gcd(v, scale)
    return str(v // g) if g == scale else f"{v // g}/{scale // g}"


def format_trace(tr: Trace) -> str:
    """The trace's text, its facts in order, read from the spans."""
    scale = tr.scale
    lines = [f"horizon [{tr.horizon.lo},{tr.horizon.hi}]"]
    lines += [f"{name} @ [{_ratio_text(lo, scale)},{_ratio_text(hi, scale)}]"
              for name, lo, hi in tr._in_order()]
    return "\n".join(lines) + "\n"
