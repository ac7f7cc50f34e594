"""Finite interval traces: a closed horizon plus closed predicate spans.

File format, one item per line, ``#`` comments allowed:

    horizon [-5,10]
    p @ [0,4]
    p @ [6,13/2]
    q @ [2,2]

The horizon line must come first.  Fact order is irrelevant; spans for
the same predicate may overlap and are coalesced into a canonical truth
base.  Predicates never mentioned have an empty base (closed-world).

Ingest does one horizon-containment check per fact: ``parse_trace``
checks each fact as it reads its line, so an outside fact is reported
at its own line even when a later line is malformed.  ``Trace`` then
checks only the hull of each coalesced base, its first and last part
(facts are closed, so every part lies between those two), and scans the
facts in order only when that check fails, to name the first offender.
Rationals are built from the matched digits as ``Fraction(int, int)``,
and coalescing sorts on an exact integer key (see
:func:`bmtl.intervals.coalesce`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FactOutsideHorizonError, MissingHorizonError, ParseError
from .intervals import EMPTY, Interval, IntervalSet, coalesce

# a rational as two groups: numerator, then denominator or None
_RAT = r"(-?\d+)(?:/(\d+))?"
_HORIZON_RE = re.compile(rf"^horizon\s*\[\s*{_RAT}\s*,\s*{_RAT}\s*\]$")
_FACT_RE = re.compile(rf"^([A-Za-z][A-Za-z0-9_]*)\s*@\s*\[\s*{_RAT}\s*,\s*{_RAT}\s*\]$")


@dataclass(frozen=True)
class Fact:
    predicate: str
    span: Interval

    def __post_init__(self):
        if not (self.span.lo_closed and self.span.hi_closed):
            raise ValueError("fact spans must be closed intervals")


@dataclass(frozen=True)
class Trace:
    horizon: Interval
    facts: tuple[Fact, ...]
    _bases: dict[str, IntervalSet] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not (self.horizon.lo_closed and self.horizon.hi_closed):
            raise ValueError("horizon must be a closed interval")
        if self.horizon.lo >= self.horizon.hi:
            raise ValueError("horizon must have positive width")
        spans: dict[str, list[Interval]] = {}
        for fact in self.facts:
            spans.setdefault(fact.predicate, []).append(fact.span)
        inside = self.horizon.contains_interval
        for name, pieces in spans.items():
            base = self._bases[name] = coalesce(pieces)
            if not (inside(base.parts[0]) and inside(base.parts[-1])):
                self._reject_first_outside_fact()

    def _reject_first_outside_fact(self):
        for fact in self.facts:
            if not self.horizon.contains_interval(fact.span):
                raise FactOutsideHorizonError(
                    f"fact {fact.predicate} @ {fact.span} lies outside horizon {self.horizon}"
                )

    def truth_base(self, predicate: str) -> IntervalSet:
        """Coalesced set of times at which the predicate is true."""
        return self._bases.get(predicate, EMPTY)

    def predicates(self) -> set[str]:
        return set(self._bases)


def _rat(num: str, den: str | None, lineno: int) -> Fraction:
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {num + '/' + den!r}", lineno) from None


def parse_trace(text: str) -> Trace:
    horizon: Interval | None = None
    facts: list[Fact] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_content = True
        if horizon is None:
            m = _HORIZON_RE.match(line)
            if m is None:
                raise MissingHorizonError(
                    "first line must declare the horizon, e.g. 'horizon [-5,10]'", lineno
                )
            lo, hi = _rat(*m.group(1, 2), lineno), _rat(*m.group(3, 4), lineno)
            if lo >= hi:
                raise ParseError(f"horizon [{lo},{hi}] must have positive width", lineno)
            horizon = Interval(lo, hi)
            continue
        if _HORIZON_RE.match(line):
            raise ParseError("duplicate horizon line", lineno)
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed trace line: {line!r}", lineno)
        name, lo, hi = m.group(1), _rat(*m.group(2, 3), lineno), _rat(*m.group(4, 5), lineno)
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
    return Trace(horizon, tuple(facts))


def format_trace(tr: Trace) -> str:
    lines = [f"horizon [{tr.horizon.lo},{tr.horizon.hi}]"]
    lines += [f"{f.predicate} @ [{f.span.lo},{f.span.hi}]" for f in tr.facts]
    return "\n".join(lines) + "\n"
