"""Brute-force lattice checks for the interval algebra.

Every helper decides membership questions on the uniform lattice of
step 1 / (4 * lcm of every denominator involved), using only raw
comparisons of int-scaled endpoints, never an `IntervalSet` operation
or its point query.

Exactness argument: endpoints of operation results are sums and
differences of input endpoints and bounds, so they live on the 1/lcm
lattice; a lattice four times finer samples strictly inside every
nonempty piece and on both sides of every breakpoint.  Agreement on the
padded lattice therefore implies set equality.

The lattice is indexed: its point i / (4 * denom) is the int i.  Each
set's membership is worked out once per example, one bool per index,
from its parts' endpoints scaled by 4 * denom.  A closed window
[x + lo, x + hi] is then a range of indices, and a prefix count of the
bools answers "some point of the window is in the set" and "every point
is" in O(1), so a property costs time linear in its lattice's length.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from bmtl.intervals import Interval, IntervalSet


class Lattice(NamedTuple):
    """The points i / (4 * denom) for the ints i in [start, stop]."""

    denom: int
    start: int
    stop: int


def lattice_denominator(*groups: Iterable[Fraction]) -> int:
    dens = [1]
    for group in groups:
        for x in group:
            dens.append(Fraction(x).denominator)
    return math.lcm(*dens)


def set_endpoints(s: IntervalSet) -> list[Fraction]:
    out: list[Fraction] = []
    for p in s.parts:
        out.append(p.lo)
        out.append(p.hi)
    return out


def padded_grid(sets: Sequence[IntervalSet], extra: Iterable[Fraction], pad: Fraction) -> Lattice:
    """Lattice spanning every part of every set, padded on both sides."""
    pts: list[Fraction] = []
    for s in sets:
        pts.extend(set_endpoints(s))
    pts.extend(Fraction(x) for x in extra)
    if not pts:
        pts = [Fraction(0)]
    denom = lattice_denominator(pts, [pad])
    lo, hi = (min(pts) - pad) * 4 * denom, (max(pts) + pad) * 4 * denom
    return Lattice(denom, math.ceil(lo), math.floor(hi))


def _index_run(p: Interval, step_d: int) -> tuple[int, int]:
    """The first and last index i with i / step_d in p (first > last when
    none is): i / step_d is in p iff lo < i / step_d < hi or it equals a
    closed end."""
    first, rest = divmod(p.lo.numerator * step_d, p.lo.denominator)
    if rest or not p.lo_closed:
        first += 1
    last, rest = divmod(p.hi.numerator * step_d, p.hi.denominator)
    if not rest and not p.hi_closed:
        last -= 1
    return first, last


def members(parts: Iterable[Interval], lat: Lattice) -> list[bool]:
    """For each point of lat, whether some interval of parts holds it."""
    out = [False] * (lat.stop - lat.start + 1)
    for p in parts:
        first, last = _index_run(p, 4 * lat.denom)
        first, last = max(first, lat.start), min(last, lat.stop)
        if first <= last:
            out[first - lat.start:last + 1 - lat.start] = [True] * (last + 1 - first)
    return out


def _window_counts(s: IntervalSet, lat: Lattice, lo: Fraction, hi: Fraction):
    """For each point x of lat: how many points of the closed window
    [x + lo, x + hi] lie in s, and how many points the window has.  The
    windows' lattice has step 1/(4 * lcm of s's and the bounds'
    denominators)."""
    denom = lattice_denominator(set_endpoints(s), [lo, hi])
    step_d = 4 * denom
    # exact: denom clears lo and hi; x = j / (4 * lat.denom) sits at
    # index j * denom / lat.denom of the windows' lattice
    d_lo, d_hi = int(lo * step_d), int(hi * step_d)
    xs = range(lat.start, lat.stop + 1)
    firsts = [-(-j * denom // lat.denom) + d_lo for j in xs]
    lasts = [j * denom // lat.denom + d_hi for j in xs]
    if not firsts:
        return []
    span = Lattice(denom, firsts[0], lasts[-1])
    prefix = [0, *itertools.accumulate(members(s, span))]
    return [
        (prefix[b + 1 - span.start] - prefix[a - span.start], b + 1 - a)
        for a, b in zip(firsts, lasts)
    ]


def exists_in_window(s: IntervalSet, lat: Lattice, lo: Fraction, hi: Fraction) -> list[bool]:
    """For each point x of lat, whether some lattice point of
    [x + lo, x + hi] lies in s."""
    return [inside > 0 for inside, _ in _window_counts(s, lat, lo, hi)]


def forall_in_window(s: IntervalSet, lat: Lattice, lo: Fraction, hi: Fraction) -> list[bool]:
    """For each point x of lat, whether every lattice point of
    [x + lo, x + hi] lies in s."""
    return [inside == size for inside, size in _window_counts(s, lat, lo, hi)]


def assert_canonical(s: IntervalSet):
    """Parts must be sorted, pairwise disjoint, and non-fusible."""
    for p in s.parts:
        assert p.lo < p.hi or (p.lo == p.hi and p.lo_closed and p.hi_closed)
    for a, b in zip(s.parts, s.parts[1:]):
        assert a.hi < b.lo or (
            a.hi == b.lo and not a.hi_closed and not b.lo_closed
        ), f"parts {a} and {b} overlap or abut"
