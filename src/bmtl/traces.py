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
predicate of each fact in fact order.  Every reader takes those ends
through :meth:`Trace.spans`, unfused and uncopied: the evaluator fuses
them into atom codes at its own scale, a multiple of this one (see
:mod:`bmtl.evaluate`), and the oracle samples them on its grid.  The
other views are computed on each read and nothing is cached:
:meth:`Trace.truth_base` coalesces the spans as Fractions, and
``facts`` builds them in fact order.

One core, ``Trace._build``, turns ends given as (p, q, r, s) for
[p/q, r/s] into that form: the lcm, one factor per denominator, and the
gcd of the surplus that unreduced ends such as 2/4 leave in scale.  It
checks nothing; each way in checks its own input.  ``parse_trace`` reads
each endpoint as a pair of ints and makes its per-line checks, inverted
span and containment in the horizon, by cross-multiplication, so an
outside fact is reported at its own line even when a later line is
malformed.  It builds Fractions only for an error message, which names
the normalized values (``-04/6`` reads as ``-2/3``).
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
from typing import Iterable, Optional, Sequence

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
        ends: dict[str, list[tuple[int, int, int, int]]] = {}
        order = []
        for fact in facts:
            if not horizon.contains_interval(fact.span):
                raise FactOutsideHorizonError(
                    f"fact {fact.predicate} @ {fact.span} lies outside horizon {horizon}"
                )
            lo, hi = fact.span.lo, fact.span.hi
            ends.setdefault(fact.predicate, []).append(
                (lo.numerator, lo.denominator, hi.numerator, hi.denominator))
            order.append(fact.predicate)
        self._build(horizon, ends, order)

    def _build(self, horizon: Interval, ends, order: list[str]) -> None:
        """The one core: ends maps each predicate to its facts' checked
        (p, q, r, s), q and s positive; order is each fact's predicate."""
        h = math.lcm(horizon.lo.denominator, horizon.hi.denominator)
        dens = {d for group in ends.values() for _, q, _, s in group for d in (q, s)}
        scale = math.lcm(h, *dens)
        factor = {den: scale // den for den in dens}
        spans = {
            name: ([p * factor[q] for p, q, _, _ in group], [r * factor[s] for _, _, r, s in group])
            for name, group in ends.items()
        }
        # unreduced ends such as 2/4 leave a common factor in scale: divide it out
        lists = [e for pair in spans.values() for e in pair]
        surplus = math.gcd(scale // h, *(math.gcd(*e) for e in lists))
        if surplus > 1:
            scale //= surplus
            for e in lists:
                e[:] = [v // surplus for v in e]
        self.horizon, self.scale, self._spans, self._order = horizon, scale, spans, order

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The facts in order, as Fractions, built anew on each read."""
        scale = self.scale
        ends = {name: zip(los, his) for name, (los, his) in self._spans.items()}
        facts = []
        for name in self._order:
            lo, hi = next(ends[name])
            facts.append(Fact(name, Interval(Fraction(lo, scale), Fraction(hi, scale))))
        return tuple(facts)

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
        return self.horizon == other.horizon and self.facts == other.facts

    def __hash__(self) -> int:
        return hash((self.horizon, self.facts))

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
    horizon: Optional[Interval] = None
    # per predicate, each fact's ends as (p, q, r, s) for [p/q, r/s]
    raw: dict[str, list[tuple[int, int, int, int]]] = {}
    order: list[str] = []
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
        group = raw.get(name)
        if group is None:
            group = raw[name] = []
        group.append((p, q, r, s))
        order.append(name)
    if horizon is None:
        raise MissingHorizonError("trace declares no horizon")
    tr = Trace.__new__(Trace)
    tr._build(horizon, raw, order)
    return tr


def format_trace(tr: Trace) -> str:
    lines = [f"horizon [{tr.horizon.lo},{tr.horizon.hi}]"]
    lines += [f"{f.predicate} @ [{f.span.lo},{f.span.hi}]" for f in tr.facts]
    return "\n".join(lines) + "\n"
