"""Pointwise witness oracle, independent of the interval-set evaluator.

Truth at a query point is decided by descending the formula and
resolving every dense quantifier ("somewhere / everywhere in a window")
by scanning a finite sample grid: the complete uniform lattice of step
1 / (4 * lcm of every denominator in sight), covering the horizon
padded by the formula's temporal reach on each side.

Why this is exact: every subformula's dense truth set has endpoints on
the 1/lcm lattice (fact and horizon endpoints combined with sums of
bound endpoints), every quantifier window is closed with endpoints on
the 1/(4*lcm) lattice, and anything nonempty that such pieces carve out
of a closed window is wide enough to contain a grid point, or contains
one of its own closed endpoints, which is itself a grid point.  So a
witness (or a violation) exists densely iff one exists on the grid, and
by induction grid evaluation agrees with the dense semantics at every
grid point.

All arithmetic is exact: values are scaled by 4 * lcm, making every
grid point an integer, and the per-node work runs on numpy arrays of
int64 (the scaled magnitudes here stay far below the 64-bit range;
anything larger is rejected loudly rather than silently wrapped).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .errors import PointOutsideHorizonError
from .intervals import rat
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
    all_bounds,
    fold,
    temporal_reach,
)
from .traces import Trace

_INT64_LIMIT = 1 << 62


def oracle_eval_at(f: Formula, tr: Trace, t) -> bool:
    """Truth of f at a single point of the horizon."""
    return oracle_eval_many(f, tr, [t])[0]


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

    scale = 4 * _common_denominator(f, tr, pts)
    xs = _sample_grid(f, tr, scale)
    table = _TruthTable(tr, xs, scale)
    root = fold(f, lambda node, kids: _ARRAYS[type(node)](table, node, kids))
    out = []
    for p in pts:
        idx = int(np.searchsorted(xs, _scaled(p, scale)))
        out.append(bool(root[idx]))
    return out


def _scaled(x: Fraction, scale: int) -> int:
    v = x * scale
    assert v.denominator == 1
    return v.numerator


def _common_denominator(f: Formula, tr: Trace, pts: Iterable[Fraction]) -> int:
    dens = {tr.horizon.lo.denominator, tr.horizon.hi.denominator}
    for fact in tr.facts:
        dens.add(fact.span.lo.denominator)
        dens.add(fact.span.hi.denominator)
    for b in all_bounds(f):
        dens.add(b.lo.denominator)
        dens.add(b.hi.denominator)
    for p in pts:
        dens.add(p.denominator)
    return math.lcm(*dens)


def _sample_grid(f: Formula, tr: Trace, scale: int):
    # No window anchored inside the horizon ever reaches beyond the
    # horizon padded by the formula's reach, so this range covers every
    # point the recursion can consult.
    past, future = temporal_reach(f)
    lo = _scaled(tr.horizon.lo - past, scale)
    hi = _scaled(tr.horizon.hi + future, scale)
    if max(abs(lo), abs(hi)) >= _INT64_LIMIT:
        raise OverflowError("sample grid exceeds the exact integer range")
    if hi - lo > 50_000_000:
        raise MemoryError("sample grid too fine; denominators too diverse")
    return np.arange(lo, hi + 1, dtype=np.int64)


class _TruthTable:
    """Truth arrays over the sample grid, one node at a time from its
    operands' arrays; fold supplies the operands bottom-up."""

    def __init__(self, tr: Trace, xs, scale: int):
        self.tr = tr
        self.xs = xs
        self.n = len(xs)
        self.scale = scale
        self.horizon_mask = self._span_mask(
            _scaled(tr.horizon.lo, scale), _scaled(tr.horizon.hi, scale)
        )

    def _span_mask(self, lo: int, hi: int) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        left = int(np.searchsorted(self.xs, lo, side="left"))
        right = int(np.searchsorted(self.xs, hi, side="right"))
        mask[left:right] = True
        return mask

    def predicate(self, node: Pred, kids) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        for fact in self.tr.facts:
            if fact.predicate == node.name:
                mask |= self._span_mask(
                    _scaled(fact.span.lo, self.scale),
                    _scaled(fact.span.hi, self.scale),
                )
        return mask

    def _window_edges(self, bound, past: bool):
        b1 = _scaled(bound.lo, self.scale)
        b2 = _scaled(bound.hi, self.scale)
        if past:
            lo_vals, hi_vals = self.xs - b2, self.xs - b1
        else:
            lo_vals, hi_vals = self.xs + b1, self.xs + b2
        left = np.searchsorted(self.xs, lo_vals, side="left")
        right = np.searchsorted(self.xs, hi_vals, side="right")
        return left, right

    def window_quantifier(self, node, kids, past: bool, universal: bool) -> np.ndarray:
        left, right = self._window_edges(node.bound, past)
        prefix = np.concatenate(([0], np.cumsum(kids[0].astype(np.int64))))
        count = prefix[right] - prefix[left]
        if universal:
            # every grid point in the window satisfies the body
            return count == (right - left)
        return count > 0

    def witness_scan(self, node, kids, past: bool) -> np.ndarray:
        """Since/until: a witness in the window with the left operand
        true at every grid point between the witness and the query
        point, both ends included."""
        holds, witness = kids
        false_prefix = np.concatenate(([0], np.cumsum((~holds).astype(np.int64))))
        wit_prefix = np.concatenate(([0], np.cumsum(witness.astype(np.int64))))
        left, right = self._window_edges(node.bound, past)
        if past:
            # smallest index j such that holds[j..i] is all true
            reach_back = np.searchsorted(false_prefix, false_prefix[1:], side="left")
            start = np.maximum(left, reach_back)
            return (right > start) & (wit_prefix[right] - wit_prefix[start] > 0)
        # one past the largest index j such that holds[i..j] is all true
        reach_fwd = np.searchsorted(false_prefix, false_prefix[:-1], side="right") - 1
        end = np.minimum(right, reach_fwd)
        return (end > left) & (wit_prefix[end] - wit_prefix[left] > 0)


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
