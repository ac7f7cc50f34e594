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
point an integer, and the per-node work runs on numpy arrays of int64
(the scaled magnitudes here stay far below the 64-bit range; anything
larger is rejected loudly rather than silently wrapped).  The grid is
the run of consecutive integers from the scaled lower end lo, so grid
index i is the scaled value lo + i, and every kernel is a linear scan
over index arrays.  Predicate masks are filled from the trace's own int
fact ends (Trace.spans); the oracle builds no Fact and uses none of the
evaluator's atom-code kernel.

numpy is bound at the first call that builds an array, in _sample_grid
or _TruthTable.__init__, which every query goes through; importing this
module does not load it, so the rest of bmtl runs without numpy, and a
query without it raises NumpyMissingError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Iterable, Optional, Sequence

from .errors import (
    NumpyMissingError,
    OracleGridError,
    OracleGridRangeError,
    PointOutsideHorizonError,
)
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

_INT64_LIMIT = 1 << 62

np = None  # numpy, once _bind_numpy has run


def _bind_numpy() -> None:
    """Import numpy on the first call and bind it to the module's np."""
    global np
    if np is None:
        try:
            import numpy
        except ImportError as e:
            raise NumpyMissingError(
                "bmtl check needs numpy for its oracle, and numpy cannot be imported"
            ) from e
        np = numpy


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
    return [bool(root[table.index(p)]) for p in pts]


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
    ends = [region.lo, region.hi, *(x for p in truth.parts for x in (p.lo, p.hi))]
    table, root = _truth_arrays(f, tr, ends, region)
    first, last = table.index(region.lo), table.index(region.hi) + 1
    expected = np.zeros(last - first, dtype=bool)
    for p in truth.parts:
        # an open end moves one grid index inward
        left = table.index(p.lo) + (not p.lo_closed) - first
        right = table.index(p.hi) + p.hi_closed - first
        expected[max(left, 0):max(right, 0)] = True
    differ = np.flatnonzero(root[first:last] != expected)
    if not differ.size:
        return None
    return Fraction(table.lo + first + int(differ[0]), table.scale)


def _truth_arrays(f: Formula, tr: Trace, pts: Iterable[Fraction], span: Interval):
    """The truth table of f on the grid fine enough for pts, over span
    padded by f's reach, and f's truth array on it, exact at every grid
    point of span."""
    s = scope(f)
    scale = 2 * math.lcm(tr.scale, s.scale, *(p.denominator for p in pts))
    xs = _sample_grid(span.lo - s.past, span.hi + s.future, scale)
    table = _TruthTable(tr, xs, scale)
    return table, fold(f, lambda node, kids: _ARRAYS[type(node)](table, node, kids))


def _sample_grid(start: Fraction, stop: Fraction, scale: int):
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
    if max(abs(lo), abs(hi)) >= _INT64_LIMIT:
        raise OracleGridRangeError(
            f"oracle sample grid ends {lo} and {hi} (scaled by {scale}) exceed the "
            "exact 64-bit range; times too far from 0"
        )
    _bind_numpy()
    return np.arange(lo, hi + 1, dtype=np.int64)


class _TruthTable:
    """Truth arrays over the sample grid, one node at a time from its
    operands' arrays; fold supplies the operands bottom-up.  The grid
    index of a scaled value v is v - lo."""

    def __init__(self, tr: Trace, xs, scale: int):
        self.tr = tr
        n = self.n = len(xs)
        self.lo = int(xs[0])
        self.scale = scale
        _bind_numpy()
        self.idx = np.arange(n, dtype=np.int64)
        self.horizon_mask = np.zeros(n, dtype=bool)
        self._fill_span(self.horizon_mask, scaled_value(tr.horizon.lo, scale),
                        scaled_value(tr.horizon.hi, scale))

    def index(self, x: Fraction) -> int:
        """The grid index of the value x."""
        return scaled_value(x, self.scale) - self.lo

    def _fill_span(self, mask: np.ndarray, lo: int, hi: int) -> None:
        """Set the grid points of the closed span [lo, hi] of scaled
        values.  The grid may crop the span on either side, and a
        negative slice start would wrap around, so both ends clamp at 0."""
        mask[max(lo - self.lo, 0):max(hi + 1 - self.lo, 0)] = True

    def predicate(self, node: Pred, kids) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        factor = self.scale // self.tr.scale
        los, his = self.tr.spans(node.name)
        for lo, hi in zip(los, his):
            self._fill_span(mask, lo * factor, hi * factor)
        return mask

    def _shifted_index(self, offset: int) -> np.ndarray:
        """clip(i + offset, 0, n) for every grid index i (two in-place
        ufuncs: np.clip costs more in call overhead on these sizes)."""
        out = self.idx + offset
        np.maximum(out, 0, out=out)
        return np.minimum(out, self.n, out=out)

    def _window_edges(self, bound, past: bool):
        """Per grid index i, the half-open index range [left, right) of
        the grid points inside i's window, clipped to the grid."""
        b1 = scaled_value(bound.lo, self.scale)
        b2 = scaled_value(bound.hi, self.scale)
        first, last = (-b2, -b1) if past else (b1, b2)
        return self._shifted_index(first), self._shifted_index(last + 1)

    def window_quantifier(self, node, kids, past: bool, universal: bool) -> np.ndarray:
        left, right = self._window_edges(node.bound, past)
        prefix = _prefix_counts(kids[0])
        if universal:
            # every grid point in the window satisfies the body
            return prefix[right] - prefix[left] == right - left
        return prefix[right] > prefix[left]

    def witness_scan(self, node, kids, past: bool) -> np.ndarray:
        """Since/until: a witness in the window with the left operand
        true at every grid point between the witness and the query
        point, both ends included."""
        holds, witness = kids
        wit_prefix = _prefix_counts(witness)
        left, right = self._window_edges(node.bound, past)
        if past:
            # smallest index j such that holds[j..i] is all true: one past
            # the last false index at or before i (i + 1 if holds[i] is false)
            reach_back = np.maximum.accumulate(np.where(holds, -1, self.idx)) + 1
            start = np.maximum(left, reach_back)
            # prefix counts never fall, so a witness implies right > start
            return wit_prefix[right] > wit_prefix[start]
        # one past the largest index j such that holds[i..j] is all true:
        # the first false index at or after i (n if there is none)
        next_false = np.where(holds, self.n, self.idx)
        reach_fwd = np.minimum.accumulate(next_false[::-1])[::-1]
        end = np.minimum(right, reach_fwd)
        return wit_prefix[end] > wit_prefix[left]


def _prefix_counts(mask: np.ndarray) -> np.ndarray:
    """prefix[k] is the number of true entries in mask[:k]."""
    prefix = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(mask, out=prefix[1:])
    return prefix


# node class -> array(table, node, operand arrays)
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
