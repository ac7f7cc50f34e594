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
part too).  The run is clipped to J, dilated, clipped to J again and
appended; the pieces of successive parts are already in canonical
order.  The clause costs O(n + m) for n parts of truth(A1) and m parts
of truth(A2).

Evaluation runs on atom codes in integer time (see
:mod:`bmtl.intervals`): each truth set is a flat list of ints, the
first and last atoms of each of its parts.  A trace keeps its facts'
ends as ints at its own scale, the lcm of its horizon's and facts'
denominators (see :mod:`bmtl.traces`).  At entry, L is the lcm of that
scale, of the formula's bound scale (see syntax.scope) and of the
denominators of the region ``within`` when a caller gives one, so a
multiple of the trace's scale.  A predicate's base is fused from its
spans on each read, each end times the integer 2L / scale in the same
pass, and nothing is cached: the formula is hash-consed, so each
predicate is one node and the fold reads its base once.  The horizon
and each bound are coded at L once.  Every clause is then a kernel
sweep over ints: shifting time by a bound endpoint b adds 2bL to a
code, so no endpoint flag, Fraction or object is touched.  The result,
intersected with ``within``'s codes if given, is wrapped at exit as an
IntervalSet over those codes and L: it prints from the ints, and
builds Fraction ends only when its parts are read.  This is exact: each
clause only compares codes and adds shifts to them, so it commutes
with scaling all of time by L > 0, and no rounding and no float enters.

Truth sets may extend beyond the horizon (dilation pushes them out);
only the true/negation clauses consult the horizon.  Within the
reliable region, where no window reaches past the ends of the horizon,
the result agrees with evaluation over any extension of the trace, so
a comparison passes that region as ``within``.
"""

from __future__ import annotations

import math
from typing import Optional

from .intervals import (
    Interval,
    IntervalSet,
    complement_codes,
    decode,
    encode,
    fuse_runs,
    intersect_codes,
    scaled_value,
    shift_codes,
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
    fold,
    scope,
)
from .traces import Trace

# node class -> clause(node, operand code lists, the trace in integer time)
_CLAUSES = {
    Pred: lambda n, k, t: t.base(n.name),
    Top: lambda n, k, t: t.horizon,
    # the gaps within the horizon: dilated sets may poke beyond it
    Not: lambda n, k, t: complement_codes(k[0], *t.horizon),
    And: lambda n, k, t: intersect_codes(k[0], k[1]),
    DiaMinus: lambda n, k, t: shift_codes(k[0], t.of(n.bound.lo), t.of(n.bound.hi)),
    DiaPlus: lambda n, k, t: shift_codes(k[0], -t.of(n.bound.hi), -t.of(n.bound.lo)),
    BoxMinus: lambda n, k, t: shift_codes(k[0], t.of(n.bound.hi), t.of(n.bound.lo)),
    BoxPlus: lambda n, k, t: shift_codes(k[0], -t.of(n.bound.lo), -t.of(n.bound.hi)),
    Since: lambda n, k, t: _binary_clause(k[0], k[1], t.of(n.bound.lo), t.of(n.bound.hi)),
    Until: lambda n, k, t: _binary_clause(k[0], k[1], -t.of(n.bound.hi), -t.of(n.bound.lo)),
}


def eval_truth_set(f: Formula, tr: Trace, within: Optional[Interval] = None) -> IntervalSet:
    """The truth set of f on tr, or its points in within when given."""
    t = _IntegerTime(f, tr, within)
    codes = fold(f, lambda node, kids: _CLAUSES[type(node)](node, kids, t))
    if within is not None:
        codes = intersect_codes(codes, encode((within,), t.scale))
    return decode(codes, t.scale)


class _IntegerTime:
    """The horizon and the truth bases f reads, as codes in integer time.

    scale is the lcm of the trace's scale, of f's bound scale (see
    ``scope``) and of the denominators of within's ends, if any, so a
    multiple of the trace's scale: ``base`` fuses a predicate's spans,
    times that multiple, into codes on each read.  ``of`` codes a shift
    by a bound endpoint.
    """

    def __init__(self, f: Formula, tr: Trace, within: Optional[Interval]):
        self.tr = tr
        self.scale = math.lcm(tr.scale, scope(f).scale)
        if within is not None:
            self.scale = math.lcm(self.scale, within.lo.denominator, within.hi.denominator)
        # every span is closed, so [lo, hi] at the trace's scale is the run
        # of atoms [k lo, k hi] at this one
        self.k = 2 * (self.scale // tr.scale)
        self.horizon = [self.of(tr.horizon.lo), self.of(tr.horizon.hi)]

    def base(self, name: str) -> list[int]:
        los, his = self.tr.spans(name)
        k = self.k
        return fuse_runs(sorted(zip([k * lo for lo in los], [k * hi for hi in his])))

    def of(self, x) -> int:
        return 2 * scaled_value(x, self.scale)


def _binary_clause(holds: list[int], witness: list[int], d_lo: int, d_hi: int) -> list[int]:
    """Since (shift [d_lo, d_hi] forward) or until (backward) on codes."""
    w, n = witness, len(witness)
    out: list[int] = []
    i = 0
    it = iter(holds)
    for lo, hi in zip(it, it):
        while i < n and w[i + 1] < lo:
            i += 2
        k = i
        while k < n and w[k] <= hi:
            k += 2
        if k > i:
            run = w[i:k]
            if run[0] < lo:
                run[0] = lo
            if run[-1] > hi:
                run[-1] = hi
            out += intersect_codes(shift_codes(run, d_lo, d_hi), (lo, hi))
    return out


def reliable_region(f: Formula, tr: Trace) -> Optional[Interval]:
    """Sub-interval of the horizon where no window of f reaches outside.

    None when the reach meets or exceeds the horizon's width.  The region
    two formulas share is that of their conjunction, whose reach is the
    larger of theirs on each side.
    """
    past, future, _ = scope(f)
    if past + future >= tr.horizon.width:
        return None
    return Interval(tr.horizon.lo + past, tr.horizon.hi - future)
