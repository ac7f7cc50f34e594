"""Finite interval traces: a closed horizon plus closed predicate spans.

File format, one item per line, ``#`` comments allowed:

    horizon [-5,10]
    p @ [0,4]
    p @ [6,13/2]
    q @ [2,2]

The horizon line must come first.  Fact order is irrelevant; spans for
the same predicate may overlap and are coalesced into a canonical truth
base.  Predicates never mentioned have an empty base (closed-world).

Traces live in integer time.  A trace's ``scale`` is the lcm of the
denominators of its horizon and facts; it keeps each fact's ends times
scale as ints, and when a predicate is first read fuses its spans into
its truth base as atom codes at that scale (:meth:`Trace.codes`; atom
codes are described in :mod:`bmtl.intervals`).  The evaluator scales
time by a multiple of the same lcm, so it takes these codes as they are,
or times an integer factor when the formula's bounds add denominators
(see :mod:`bmtl.evaluate`).  :meth:`Trace.spans` hands out the unfused
int ends themselves; the oracle reads the trace through it.  The
Fraction forms, ``facts`` and :meth:`Trace.truth_base`, are built from
the ints on first read and cached; the horizon stays a Fraction
interval.

``parse_trace`` reads each endpoint as a (numerator, denominator) pair
of ints and makes its per-line checks, inverted span and containment in
the horizon, by cross-multiplication, so an outside fact is still
reported at its own line even when a later line is malformed.  It builds
Fractions only for an error message, which therefore names the same
normalized values as before (``-04/6`` reads as ``-2/3``).
``Trace(horizon, facts)`` scales its facts into the same int form, and
both then run one core, which checks each predicate's hull, its least
start and greatest end, against the horizon, and scans the facts in
order only when that check fails, to name the first offender.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import FactOutsideHorizonError, MissingHorizonError, ParseError
from .intervals import Interval, IntervalSet, decode, fuse_runs, scaled_value

# The rational grammar of trace endpoints and of the CLI's rational
# options: n or n/d, as two groups (numerator, then denominator or None).
RATIONAL = r"(-?\d+)(?:/(\d+))?"
_HORIZON_RE = re.compile(rf"^horizon\s*\[\s*{RATIONAL}\s*,\s*{RATIONAL}\s*\]$")
_FACT_RE = re.compile(
    rf"^([A-Za-z][A-Za-z0-9_]*)\s*@\s*\[\s*{RATIONAL}\s*,\s*{RATIONAL}\s*\]$")


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

    __slots__ = ("horizon", "scale", "_spans", "_order", "_facts", "_codes", "_bases")

    def __init__(self, horizon: Interval, facts: Iterable[Fact]):
        facts = tuple(facts)
        scale = math.lcm(
            horizon.lo.denominator,
            horizon.hi.denominator,
            *{x.denominator for fact in facts for x in (fact.span.lo, fact.span.hi)},
        )
        spans: dict[str, tuple[list[int], list[int]]] = {}
        for fact in facts:
            los, his = spans.setdefault(fact.predicate, ([], []))
            los.append(scaled_value(fact.span.lo, scale))
            his.append(scaled_value(fact.span.hi, scale))
        self._build(horizon, scale, spans, None, facts)

    def _build(self, horizon, scale, spans, order, facts) -> None:
        """The one core: spans maps each predicate to the lists of its
        facts' ends times scale; order is the predicate of each fact in
        fact order, when facts (the Fraction form) is not given."""
        if not (horizon.lo_closed and horizon.hi_closed):
            raise ValueError("horizon must be a closed interval")
        if horizon.lo >= horizon.hi:
            raise ValueError("horizon must have positive width")
        self.horizon, self.scale = horizon, scale
        self._spans, self._order, self._facts = spans, order, facts
        self._codes: dict[str, list[int]] = {}
        self._bases: dict[str, IntervalSet] = {}
        # facts are closed, so checking each predicate's least start and
        # greatest end checks every fact
        first, last = scaled_value(horizon.lo, scale), scaled_value(horizon.hi, scale)
        for los, his in spans.values():
            if min(los) < first or max(his) > last:
                self._reject_first_outside_fact()

    def _reject_first_outside_fact(self) -> None:
        for fact in self.facts:
            if not self.horizon.contains_interval(fact.span):
                raise FactOutsideHorizonError(
                    f"fact {fact.predicate} @ {fact.span} lies outside horizon {self.horizon}"
                )

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The facts in order, as Fractions (built on first read)."""
        if self._facts is None:
            scale = self.scale
            ends = {name: zip(los, his) for name, (los, his) in self._spans.items()}
            facts = []
            for name in self._order:
                lo, hi = next(ends[name])
                facts.append(Fact(name, Interval(Fraction(lo, scale), Fraction(hi, scale))))
            self._facts, self._order = tuple(facts), None
        return self._facts

    def truth_base(self, predicate: str) -> IntervalSet:
        """Coalesced set of times at which the predicate is true."""
        base = self._bases.get(predicate)
        if base is None:
            base = self._bases[predicate] = decode(self.codes(predicate), self.scale)
        return base

    def codes(self, predicate: str) -> list[int]:
        """truth_base(predicate) as atom codes at scale, fused on first
        read; callers must not mutate the list.  Every span is closed, so
        every code is even: the span [lo, hi] is the run [2lo, 2hi]."""
        codes = self._codes.get(predicate)
        if codes is None:
            if predicate not in self._spans:
                return []
            los, his = self._spans[predicate]
            codes = self._codes[predicate] = fuse_runs(
                sorted(zip([2 * lo for lo in los], [2 * hi for hi in his])))
        return codes

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
    q = 1 if b is None else int(b)
    s = 1 if d is None else int(d)
    if not (q and s):
        bad = a + "/" + b if not q else c + "/" + d
        raise ParseError(f"zero denominator in {bad!r}", lineno)
    return int(a), q, int(c), s


def parse_trace(text: str) -> Trace:
    horizon: Optional[Interval] = None
    # per predicate, each fact's ends as (p, q, r, s) for [p/q, r/s]
    raw: dict[str, list[tuple[int, int, int, int]]] = {}
    order: list[str] = []
    dens: set[int] = set()
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
        dens.add(q)
        dens.add(s)
    if horizon is None:
        raise MissingHorizonError("trace declares no horizon")
    scale = math.lcm(h_lo_den, h_hi_den, *dens)
    factor = {den: scale // den for den in dens}
    spans = {
        name: ([p * factor[q] for p, q, _, _ in group], [r * factor[s] for _, _, r, s in group])
        for name, group in raw.items()
    }
    # unreduced ends such as 2/4 leave a common factor in scale: divide it out
    ends = [e for pair in spans.values() for e in pair]
    surplus = math.gcd(scale // math.lcm(h_lo_den, h_hi_den), *(math.gcd(*e) for e in ends))
    if surplus > 1:
        scale //= surplus
        for e in ends:
            e[:] = [v // surplus for v in e]
    tr = Trace.__new__(Trace)
    tr._build(horizon, scale, spans, order, None)
    return tr


def format_trace(tr: Trace) -> str:
    lines = [f"horizon [{tr.horizon.lo},{tr.horizon.hi}]"]
    lines += [f"{f.predicate} @ [{f.span.lo},{f.span.hi}]" for f in tr.facts]
    return "\n".join(lines) + "\n"
