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

One core, ``Trace._build``, turns the facts into that form, and it is
the one check of a fact's span.  It takes them in fact order as columns:
the names, and the ints p, q, r, s of each span [p/q, r/s].  It makes one
factor per denominator, scales each column with ``map``, divides out the
gcd of the surplus that unreduced ends such as 2/4 leave in scale, and
groups the ends by predicate in one pass.  On the scaled ints, over the
whole batch, it refuses the first fact in fact order that is inverted
(``ParseError``) or outside the horizon (``FactOutsideHorizonError``), at
that fact's line when the caller gives the lines; a Fraction is built
only for the message.  ``Trace(horizon, facts)``, which checks that the
horizon is closed and wide, ``parse_trace`` and ``harness.gen_trace`` all
hand it columns and check no span themselves.

``parse_trace`` reads a text in two steps.  A tokenizer cuts it up and
reads no number: it gives the horizon's line and text, the facts' text
columns and lines, and the first line refused for its spelling (malformed,
or a second horizon).  ``_scan`` is one findall over a text in
``format_trace``'s spelling: ASCII, a horizon line first, and every later
line exactly ``NAME @ [R,R]``.  Any other text goes to ``_read_lines``,
which cuts it up line by line, takes blank lines, comments, other spacing,
other line breaks (``\\r``, ``\\x0c``, ``\\u2028``) and NBSP, and raises a
missing or malformed horizon line itself.  Numbers are ASCII digits in
either.  The rest is done once, the same for both: the horizon is read,
the columns are converted with ``map(int, ...)``, each distinct
denominator once, the facts before the refused line are built, and then
that line is raised.
A zero denominator or a number past the int conversion limit fails the
bulk conversion; ``_ends`` then converts fact by fact to name the first
such fact, after the facts before it.  So each error is the first in the
text, at its own line, whichever tokenizer cut it up.
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
from .intervals import Interval, IntervalSet, coalesce, ratio_text

# The rational grammar of trace endpoints and of the CLI's rational
# options: n or n/d in ASCII digits, as two groups (numerator, then
# denominator or None).
RATIONAL = r"(-?[0-9]+)(?:/([0-9]+))?"
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
            lo, hi = fact.span.lo, fact.span.hi
            names.append(fact.predicate)
            p.append(lo.numerator)
            q.append(lo.denominator)
            r.append(hi.numerator)
            s.append(hi.denominator)
        self._build(horizon, names, p, q, r, s)

    def _build(self, horizon: Interval, names: list[str], p: Sequence[int],
               q: Sequence[int], r: Sequence[int], s: Sequence[int],
               lines: Optional[Sequence[int]] = None) -> None:
        """The one core, and the one check of a fact's span: the facts in
        fact order as columns, each fact names[i] @ [p[i]/q[i], r[i]/s[i]]
        with q and s positive.  It refuses the first fact in fact order that
        is inverted (ParseError) or outside the horizon
        (FactOutsideHorizonError), at lines[i] when lines are given."""
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
        first = horizon.lo.numerator * (scale // horizon.lo.denominator)
        last = horizon.hi.numerator * (scale // horizon.hi.denominator)
        if los and (min(los) < first or max(his) > last or any(map(gt, los, his))):
            i = next(i for i, (lo, hi) in enumerate(zip(los, his))
                     if not first <= lo <= hi <= last)
            lo, hi = Fraction(los[i], scale), Fraction(his[i], scale)
            line = None if lines is None else lines[i]
            if lo > hi:
                raise ParseError(f"inverted fact span [{lo},{hi}]", line)
            raise FactOutsideHorizonError(
                f"fact {names[i]} @ {Interval(lo, hi)} lies outside horizon {horizon}", line)
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


def _ends(a: str, b: str, c: str, d: str, lineno: int):
    """The matched span [a/b, c/d] as ints (p, q, r, s), q and s positive;
    b or d is "" where the text leaves the denominator out."""
    try:
        p, r = int(a), int(c)
        q, s = int(b or "1"), int(d or "1")
    except ValueError:  # only a number past the int conversion limit gets here
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number longer than {limit} digits", lineno) from None
    if not (q and s):
        bad = a + "/" + b if not q else c + "/" + d
        raise ParseError(f"zero denominator in {bad!r}", lineno)
    return p, q, r, s


def parse_trace(text: str) -> Trace:
    """The trace text spells.  Either tokenizer cuts it up; the horizon,
    the conversion to ints and the facts are read here, the same for
    both, and the first error in the text is raised at its line."""
    hline, hends, names, a, b, c, d, lines, refused = _scan(text) or _read_lines(text)
    p, q, r, s = _ends(*hends, hline)
    lo, hi = Fraction(p, q), Fraction(r, s)
    if lo >= hi:
        raise ParseError(f"horizon [{lo},{hi}] must have positive width", hline)
    try:
        den = {t: int(t or "1") for t in {*b, *d}}
        cols = (list(map(int, a)), list(map(den.__getitem__, b)),
                list(map(int, c)), list(map(den.__getitem__, d)))
        converted = 0 not in den.values()
    except ValueError:  # a number past the int conversion limit
        converted = False
    if not converted:
        # fact by fact: _ends names the first that does not convert, and
        # the facts before it are built first, so a fault among them wins
        cols = ([], [], [], [])
        try:
            for row in zip(a, b, c, d, lines):
                for col, v in zip(cols, _ends(*row)):
                    col.append(v)
        except ParseError as e:
            refused = e
        names, lines = names[:len(cols[0])], lines[:len(cols[0])]
    tr = Trace.__new__(Trace)
    tr._build(Interval(lo, hi), names, *cols, lines)
    if refused is not None:
        raise refused
    return tr


def _scan(text: str):
    """text cut up in one findall, as _read_lines cuts it up, when it is
    in format_trace's spelling, else None."""
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
    return 1, m.groups(""), list(names), a, b, c, d, range(2, len(rows) + 2), None


def _read_lines(text: str):
    """text cut up line by line, in any spelling: the horizon's line and
    its texts, the facts' text columns (names, then a, b, c, d of each span
    [a/b, c/d]) and lines, and the ParseError of the first line refused for
    its spelling, or None.  A missing or malformed horizon line raises."""
    head = refused = None
    names, a, b, c, d, lines = [], [], [], [], [], []
    fact_match = _FACT_RE.match
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue
        if head is None:
            m = _HORIZON_RE.match(line)
            if m is None:
                if re.match(r"horizon\b", line) and not fact_match(line):
                    raise ParseError(f"malformed horizon line: {line!r}", lineno)
                raise MissingHorizonError(
                    "first line must declare the horizon, e.g. 'horizon [-5,10]'", lineno
                )
            head = lineno, m.groups("")
            continue
        m = fact_match(line)
        if m is None:
            refused = ParseError("duplicate horizon line" if _HORIZON_RE.match(line)
                                 else f"malformed trace line: {line!r}", lineno)
            break
        name, lo_num, lo_den, hi_num, hi_den = m.groups("")
        names.append(name)
        a.append(lo_num)
        b.append(lo_den)
        c.append(hi_num)
        d.append(hi_den)
        lines.append(lineno)
    if head is None:
        raise MissingHorizonError("trace declares no horizon")
    return *head, names, a, b, c, d, lines, refused


def format_trace(tr: Trace) -> str:
    """The trace's text, its facts in order, read from the spans."""
    scale = tr.scale
    lines = [f"horizon [{tr.horizon.lo},{tr.horizon.hi}]"]
    lines += [f"{name} @ [{ratio_text(lo, scale)},{ratio_text(hi, scale)}]"
              for name, lo, hi in tr._in_order()]
    return "\n".join(lines) + "\n"
