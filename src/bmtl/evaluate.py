"""Exact truth-set evaluation of formulas over interval traces.

Each clause is a set-algebra image of the dense semantics:

  pred      -> the predicate's coalesced truth base
  true      -> the horizon
  !A        -> horizon minus truth(A)
  A & B     -> intersection
  dminus    -> dilate truth(A) forward by the bound
  dplus     -> dilate truth(A) backward by the bound
  bminus    -> erode truth(A), past-facing window
  bplus     -> erode truth(A), future-facing window
  A1 S A2   -> per maximal part J of truth(A1): witnesses J * truth(A2)
               dilated forward, clipped back to J
  A1 U A2   -> same with the dilation reversed

The since/until clause leans on canonical form: a closed stretch of
time lies inside truth(A1) exactly when its two ends fall in the same
maximal part, so the "A1 holds throughout" condition reduces to
clipping against one part at a time.  Both part lists are sorted, so
one sweep serves every part: for each J the witness parts meeting J
form one contiguous run, found by a cursor that only moves forward and
never past a witness part that reaches beyond J (it may meet the next
part too).  The run is dilated, clipped to J and appended; the clipped
pieces of successive parts are already in canonical order.  The
clause costs O(n + m) interval operations for n parts of truth(A1) and
m parts of truth(A2).

Evaluation runs in integer time, on the scale the trace already uses.
A trace holds its truth bases multiplied by its own scale, the lcm of
its horizon's and facts' denominators (see :mod:`bmtl.traces`).  At
entry, L is the lcm of that scale and of the denominators of the
formula's bounds; the bases the formula reads are taken from the trace
as they are, or times the integer L / scale when the bounds add a
denominator, and the horizon and each bound are multiplied by L once,
so every endpoint is an int and no Fraction is touched between ingest
and exit.  The clauses then run unchanged on int endpoints, where
compare and add cost a fraction of their Fraction counterparts, and the
result is divided by L once at exit, so every endpoint handed out is a
Fraction again.  This is exact: each clause only compares endpoints and
adds bound endpoints to them, so it commutes with multiplying all of
time by L > 0, and sums and differences of ints stay ints, so no
rounding and no float enters.  The rescaled copies live only for the
one call.

Truth sets may extend beyond the horizon (dilation pushes them out);
only the true/negation clauses consult the horizon.  Within the
reliable region, where no window reaches past the ends of the horizon,
the result agrees with evaluation over any extension of the trace.
"""

from __future__ import annotations

import math
from typing import Optional

from .intervals import (
    Interval,
    IntervalSet,
    from_interval,
    from_scaled,
    scaled_value,
    to_scaled,
)
from .syntax import (
    And,
    BoxMinus,
    BoxPlus,
    DiaMinus,
    DiaPlus,
    Formula,
    Not,
    Pred,
    Since,
    Top,
    Until,
    bound_denominators,
    fold,
    temporal_reach,
)
from .traces import Trace

# node class -> clause(node, operand truth sets, the trace in integer time)
_CLAUSES = {
    Pred: lambda n, k, t: t.base(n.name),
    Top: lambda n, k, t: t.horizon_set,
    # clip first: dilated subsets may poke beyond the horizon
    Not: lambda n, k, t: k[0].intersect(t.horizon_set).complement_within(t.horizon),
    And: lambda n, k, t: k[0].intersect(k[1]),
    DiaMinus: lambda n, k, t: k[0].dilate(t.of(n.bound.lo), t.of(n.bound.hi)),
    DiaPlus: lambda n, k, t: k[0].dilate(-t.of(n.bound.hi), -t.of(n.bound.lo)),
    BoxMinus: lambda n, k, t: k[0].erode(t.of(n.bound.lo), t.of(n.bound.hi), "past"),
    BoxPlus: lambda n, k, t: k[0].erode(t.of(n.bound.lo), t.of(n.bound.hi), "future"),
    Since: lambda n, k, t: _binary_clause(k[0], k[1], t.of(n.bound.lo), t.of(n.bound.hi)),
    Until: lambda n, k, t: _binary_clause(k[0], k[1], -t.of(n.bound.hi), -t.of(n.bound.lo)),
}


def eval_truth_set(f: Formula, tr: Trace) -> IntervalSet:
    t = _IntegerTime(f, tr)
    truth = fold(f, lambda node, kids: _CLAUSES[type(node)](node, kids, t))
    return from_scaled(truth, t.scale)


class _IntegerTime:
    """The horizon and the truth bases f reads, scaled to integer time.

    scale is the lcm of the trace's scale and of the denominators of f's
    bounds, so a multiple of the trace's scale: a base the trace already
    holds in integer time is taken as it is when the two scales agree,
    and times their integer ratio otherwise.  ``of`` scales a bound
    endpoint.  A per-call temporary: nothing it rescales outlives the
    evaluation.
    """

    def __init__(self, f: Formula, tr: Trace):
        self.tr = tr
        self.scale = math.lcm(tr.scale, *bound_denominators(f))
        self.factor = self.scale // tr.scale
        self.horizon_set = to_scaled(from_interval(tr.horizon), self.scale)
        self.horizon = self.horizon_set.parts[0]
        self._bases: dict[str, IntervalSet] = {}

    def base(self, name: str) -> IntervalSet:
        base = self._bases.get(name)
        if base is None:
            base = self.tr.scaled_base(name)
            if self.factor != 1:
                base = to_scaled(base, self.factor)
            self._bases[name] = base
        return base

    def of(self, x) -> int:
        return scaled_value(x, self.scale)


def _binary_clause(holds: IntervalSet, witness: IntervalSet, shift_lo, shift_hi) -> IntervalSet:
    w = witness.parts
    out: list[Interval] = []
    i = 0
    for part in holds.parts:
        while i < len(w) and _wholly_before(w[i], part):
            i += 1
        run = []
        k = i
        while k < len(w) and not _wholly_before(part, w[k]):
            run.append(w[k].intersect(part))
            k += 1
        if run:
            j = from_interval(part)
            out.extend(IntervalSet(tuple(run)).dilate(shift_lo, shift_hi).intersect(j).parts)
    return IntervalSet(tuple(out))


def _wholly_before(a: Interval, b: Interval) -> bool:
    """Every point of a precedes every point of b."""
    return a.hi < b.lo or (a.hi == b.lo and not (a.hi_closed and b.lo_closed))


def reliable_region(f: Formula, tr: Trace) -> Optional[Interval]:
    """Sub-interval of the horizon where no window of f reaches outside.

    None when the combined reach meets or exceeds the horizon's width.
    """
    return combined_reliable_region(tr, f)


def combined_reliable_region(tr: Trace, *formulas: Formula) -> Optional[Interval]:
    reaches = [temporal_reach(f) for f in formulas]
    past = max(r[0] for r in reaches)
    future = max(r[1] for r in reaches)
    if past + future >= tr.horizon.width:
        return None
    return Interval(tr.horizon.lo + past, tr.horizon.hi - future)
