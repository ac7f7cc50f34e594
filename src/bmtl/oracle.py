"""Pointwise witness oracle, independent of the interval-set evaluator.

Truth at a query point is decided by descending the formula and
resolving every dense quantifier ("somewhere / everywhere in a window")
by scanning a finite sample grid: the complete uniform lattice of step
1 / (2L), with L the lcm of every denominator in sight (the trace's
scale, the formula's bound scale, and those of the query points or of
the region and truth ends being compared).  oracle_eval_many builds the
grid over the horizon, oracle_first_difference over the region it
compares; either span is padded by the formula's reach on each side,
and one syntax.scope per query gives both reach and bound scale.  The
same grid answers for a whole region at once: oracle_first_difference
compares an interval set with the formula's truth at every grid point
of it.

Why this is exact.  At scale L time splits into atoms, as in
bmtl.intervals: the points x/L and the open gaps between them.  Every
subformula's dense truth set is a union of atoms, because its ends are
fact and horizon ends combined with sums of bound ends, all on the 1/L
lattice.  The 2L grid holds every point atom and the midpoint of every
gap.  A quantifier window anchored at a grid point is closed, with ends
on the 2L grid, so a gap that meets it has its midpoint in it: either
the gap lies inside the window, or a window end is the gap's midpoint.
The window thus holds a grid point of every atom it meets, and "some"
and "every" over its grid points agree with their dense versions.  A
since/until witness inside a gap can move to the gap's midpoint: the
left operand is constant on the gap, so it still holds from the moved
witness to the query point.  By induction, grid evaluation agrees with
the dense semantics at every grid point whose dependence interval lies
in the grid.  Truth at t depends only on [t - past, t + future], with
past and future the formula's reach, so the span padded by the reach
bounds every point the recursion consults for a point of the span;
windows anchored nearer the grid's ends are clipped, and their values
are never consulted.  (On the 1/L grid the argument fails: open
gaps hold no grid point.)

All arithmetic is exact: values are scaled by 2L, making every grid
point an integer.  The grid is the run of consecutive integers from the
scaled lower end lo, so grid index i is the scaled value lo + i, and
indices are ints relative to lo, whatever the magnitude of the times.
Predicate masks are filled from the trace's own int fact ends
(Trace.spans); the oracle builds no Fact and uses none of the
evaluator's atom-code kernel.

Truth arrays are bitsets.  A node's truth on the n-point grid is one
Python int whose bit i is grid index i, so every bit lies below n, and
each kernel is a few big-int shifts, ands, ors and complements (the
shift-and-or idea of Baeza-Yates and Gonnet's text search, CACM 1992).
Clipping gives the answers of index windows cropped to the grid, since
a point off the grid is never true.  A predicate or the horizon sets
one run of bits per span, cropped to [0, n).  "Some bit in [i + first,
i + last]" is read from the operand shifted up by n, so indices below 0
fall on the zero bits at its bottom and indices from n up on the zero
bits above it.  A box is "no false bit in the window", so a window
cropped to nothing holds, and a cropped one is judged on its grid
points alone.  Since shifts its operands up and until down, moving in
zero bits for the points off the grid, and every shifted operand is
ANDed with an unshifted one, so no bit a shift moves past n survives:
the witness and the run of left-operand truth between it and the query
point must lie on the grid.  The values that clipping changes, at
points within the reach of the grid's ends, are never consulted (see
above).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import lshift, rshift
from typing import Iterable, Optional, Sequence

from .errors import OracleGridError, PointOutsideHorizonError
from .intervals import Interval, IntervalSet, rat, scaled_value
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


def oracle_eval_many(f: Formula, tr: Trace, points: Sequence) -> list[bool]:
    """Truth of f at each point; the sample grid is built once."""
    pts = [rat(p) for p in points]
    for p in pts:
        if not tr.horizon.contains(p):
            raise PointOutsideHorizonError(
                f"query point {p} outside horizon {tr.horizon}"
            )
    if not pts:
        return []
    table, root = _truth_arrays(f, tr, pts, tr.horizon)
    return [bool((root >> table.index(p)) & 1) for p in pts]


def oracle_first_difference(
    f: Formula, tr: Trace, truth: IntervalSet, region: Interval
) -> Optional[Fraction]:
    """The first point of the closed region where f's truth differs from
    truth, or None when the two agree on the whole region.

    The grid's denominators include the ends of region and of truth's
    parts, so the difference is a union of atoms, each holding a grid
    point: agreement on the grid's points in region is agreement on all
    of region.  The grid spans only region padded by f's reach.
    """
    if not tr.horizon.contains_interval(region):
        raise PointOutsideHorizonError(f"region {region} outside horizon {tr.horizon}")
    parts = truth.parts
    ends = [region.lo, region.hi, *(x for p in parts for x in (p.lo, p.hi))]
    table, root = _truth_arrays(f, tr, ends, region)
    expected = 0
    for p in parts:
        # an open end moves one grid index inward
        expected |= table.run(table.index(p.lo) + (not p.lo_closed),
                              table.index(p.hi) - (not p.hi_closed))
    differ = (root ^ expected) & table.run(table.index(region.lo), table.index(region.hi))
    if not differ:
        return None
    # differ & -differ keeps the lowest set bit
    return Fraction(table.lo + (differ & -differ).bit_length() - 1, table.scale)


def _truth_arrays(f: Formula, tr: Trace, pts: Iterable[Fraction], span: Interval):
    """The truth table of f on the grid fine enough for pts, over span
    padded by f's reach, and f's truth bits on it, exact at every grid
    point of span."""
    s = scope(f)
    scale = 2 * math.lcm(tr.scale, s.scale, *(p.denominator for p in pts))
    xs = _sample_grid(span.lo - s.past, span.hi + s.future, scale)
    table = _TruthTable(tr, xs, scale)
    return table, fold(f, lambda node, kids: _ARRAYS[type(node)](table, node, kids))


def _sample_grid(start: Fraction, stop: Fraction, scale: int) -> range:
    """The grid over [start, stop], as the int values scaled by scale.

    Point atoms and gap midpoints at scale / 2 are all on it (the module
    docstring has the argument).
    """
    lo, hi = scaled_value(start, scale), scaled_value(stop, scale)
    if hi - lo > 50_000_000:
        raise OracleGridError(
            f"oracle sample grid has {hi - lo + 1} points, limit 50000001: the padded "
            f"span [{start},{stop}] is {stop - start} time units wide, at {scale} "
            "points per time unit"
        )
    return range(lo, hi + 1)


class _TruthTable:
    """Truth bitsets over the sample grid, one node at a time from its
    operands' bits; fold supplies the operands bottom-up.  The grid index
    of a scaled value v is v - lo, and full has a bit for every index."""

    def __init__(self, tr: Trace, xs: Sequence[int], scale: int):
        self.tr = tr
        self.n = len(xs)
        self.lo = int(xs[0])
        self.scale = scale
        self.full = (1 << self.n) - 1
        self.horizon_mask = self.run(self.index(tr.horizon.lo), self.index(tr.horizon.hi))

    def index(self, x: Fraction) -> int:
        """The grid index of the value x."""
        return scaled_value(x, self.scale) - self.lo

    def run(self, first: int, last: int) -> int:
        """The bits of the grid indices first..last, cropped to the grid."""
        first, last = max(first, 0), min(last, self.n - 1)
        return ((1 << (last - first + 1)) - 1) << first if first <= last else 0

    def predicate(self, node: Pred, kids) -> int:
        factor = self.scale // self.tr.scale
        bits = 0
        for lo, hi in zip(*self.tr.spans(node.name)):
            bits |= self.run(lo * factor - self.lo, hi * factor - self.lo)
        return bits

    def _grid_bound(self, bound) -> tuple[int, int]:
        return scaled_value(bound.lo, self.scale), scaled_value(bound.hi, self.scale)

    def window_quantifier(self, node, kids, past: bool, universal: bool) -> int:
        b1, b2 = self._grid_bound(node.bound)
        first, last = (-b2, -b1) if past else (b1, b2)
        if universal:
            # no grid point of the window falsifies the body
            return self.full & ~self._some(self.full & ~kids[0], first, last)
        return self._some(kids[0], first, last)

    def _some(self, bits: int, first: int, last: int) -> int:
        """Bit i is set when bits has a set bit among the grid indices
        i + first .. i + last; first <= last.  Offsets past -n or n
        reach off the grid from every index, so they clamp there."""
        n = self.n
        first, last = min(max(first, -n), n), min(max(last, -n), n)
        width = last - first + 1
        # bit k of spread: some bit of bits << n among k .. k + covered - 1
        spread, covered = bits << n, 1
        while covered < width:
            step = min(covered, width - covered)
            spread |= spread >> step
            covered += step
        return (spread >> (n + first)) & self.full

    def witness_scan(self, node, kids, past: bool) -> int:
        """Since/until: a witness in the window with the left operand
        true at every grid point between the witness and the query
        point, both ends included.

        up(x, k) moves bit i - k (since) or i + k (until) to bit i.
        Each step ANDs a shifted operand with an unshifted one, so bits
        a since shift moves past the grid never survive."""
        holds, witness = kids
        b1, b2 = self._grid_bound(node.bound)
        if b1 >= self.n:
            return 0
        up = lshift if past else rshift
        width = min(b2, self.n - 1) - b1 + 1
        # near[i]: a witness at distance d < p from i, with holds from
        # it to i; held[i]: holds at the p points from i towards the past
        # (since) or the future (until)
        near, held, p = witness & holds, holds, 1
        while 2 * p <= width:
            near |= up(near, p) & held
            held &= up(held, p)
            p *= 2
        if p < width:
            near |= up(near, width - p) & self._held(holds, width - p, up)
        return up(near, b1) & self._held(holds, b1, up)

    def _held(self, holds: int, k: int, up) -> int:
        """Bit i is set when holds is true at the k grid points that end
        (since) or start (until) at i; every bit for k = 0."""
        if k == 0:
            return self.full
        held, p = holds, 1
        while 2 * p <= k:
            held &= up(held, p)
            p *= 2
        if p < k:
            # p < k < 2p: the two runs of p overlap
            held &= up(held, k - p)
        return held


# node class -> bits(table, node, operand bits)
_ARRAYS = {
    Pred: _TruthTable.predicate,
    Top: lambda t, n, k: t.horizon_mask,
    Not: lambda t, n, k: t.horizon_mask & ~k[0],
    And: lambda t, n, k: k[0] & k[1],
    DiaMinus: partial(_TruthTable.window_quantifier, past=True, universal=False),
    DiaPlus: partial(_TruthTable.window_quantifier, past=False, universal=False),
    BoxMinus: partial(_TruthTable.window_quantifier, past=True, universal=True),
    BoxPlus: partial(_TruthTable.window_quantifier, past=False, universal=True),
    Since: partial(_TruthTable.witness_scan, past=True),
    Until: partial(_TruthTable.witness_scan, past=False),
}
