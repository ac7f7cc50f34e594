"""Exact interval-set algebra over rational time.

Sets of time points are kept in a canonical form: a sorted tuple of
pairwise disjoint, non-adjacent intervals with per-endpoint open/closed
flags.  Canonical form is unique, so structural equality coincides with
point-set equality.  All arithmetic is exact: the public constructors
coerce endpoints to ``fractions.Fraction``, and the set operations keep
whatever exact type their operands carry, so a set whose endpoints are
ints (time scaled by a common denominator, see :func:`to_scaled`) stays
integer throughout.  Floats never enter the core.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import MemberOutsideUniverseError, NegativeBoundError

RationalLike = Union[Fraction, int]


def rat(x: RationalLike) -> Fraction:
    """Coerce an int to Fraction; Fractions pass through unchanged."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, slots=True)
class Interval:
    """A nonempty rational interval with open/closed endpoint flags.

    Requires ``lo < hi``, or ``lo == hi`` with both endpoints closed
    (a singleton).  The empty interval is unrepresentable.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        _check_endpoints(self.lo, self.hi, self.lo_closed, self.hi_closed)

    def contains(self, t: RationalLike) -> bool:
        t = rat(t)
        above = self.lo < t or (self.lo_closed and self.lo == t)
        below = t < self.hi or (self.hi_closed and t == self.hi)
        return above and below

    def contains_interval(self, other: "Interval") -> bool:
        lo_ok = self.lo < other.lo or (
            self.lo == other.lo and (self.lo_closed or not other.lo_closed)
        )
        hi_ok = other.hi < self.hi or (
            other.hi == self.hi and (self.hi_closed or not other.hi_closed)
        )
        return lo_ok and hi_ok

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        if self.lo > other.lo or (self.lo == other.lo and not self.lo_closed):
            lo, lc = self.lo, self.lo_closed
        elif self.lo == other.lo:
            lo, lc = self.lo, self.lo_closed and other.lo_closed
        else:
            lo, lc = other.lo, other.lo_closed
        if self.hi < other.hi or (self.hi == other.hi and not self.hi_closed):
            hi, hc = self.hi, self.hi_closed
        elif self.hi == other.hi:
            hi, hc = self.hi, self.hi_closed and other.hi_closed
        else:
            hi, hc = other.hi, other.hi_closed
        return _maybe_interval(lo, hi, lc, hc)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


def _check_endpoints(lo, hi, lo_closed: bool, hi_closed: bool) -> None:
    if lo > hi:
        raise ValueError(f"inverted interval endpoints: {lo} > {hi}")
    if not (lo_closed and hi_closed) and lo == hi:
        raise ValueError("singleton interval requires both endpoints closed")


_new = object.__new__
_set = object.__setattr__


def _interval(lo, hi, lo_closed: bool, hi_closed: bool) -> Interval:
    """An Interval whose endpoints are kept as given, Fractions or ints.

    Every operation below builds its intervals here, so integer sets
    stay integer.  The checks are the constructor's; only the coercion
    is skipped, by filling the frozen slots directly.
    """
    _check_endpoints(lo, hi, lo_closed, hi_closed)
    p = _new(Interval)
    _set(p, "lo", lo)
    _set(p, "hi", hi)
    _set(p, "lo_closed", lo_closed)
    _set(p, "hi_closed", hi_closed)
    return p


def _maybe_interval(lo, hi, lo_closed: bool, hi_closed: bool) -> Optional[Interval]:
    """:func:`_interval`, or None where the endpoints leave it empty."""
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return _interval(lo, hi, lo_closed, hi_closed)


def _exact(x: RationalLike) -> RationalLike:
    """Ints and Fractions as they are (both exact); anything else via rat."""
    return x if type(x) is int or type(x) is Fraction else rat(x)


def make_interval(
    lo: RationalLike, hi: RationalLike, lo_closed: bool = True, hi_closed: bool = True
) -> Optional[Interval]:
    """Build an interval, collapsing empty results to None."""
    return _maybe_interval(rat(lo), rat(hi), lo_closed, hi_closed)


def _separated(a: Interval, b: Interval) -> bool:
    """a ends before b starts, with a point of neither between them.

    Two parts in start order fuse into one interval iff they are not
    separated, and a part list is canonical iff each part is separated
    from the next (then it also starts first, as a is nonempty).
    """
    return a.hi < b.lo or (a.hi == b.lo and not (a.hi_closed or b.lo_closed))


def _merge(cur: Interval, nxt: Interval) -> Interval:
    if cur.lo == nxt.lo:
        lc = cur.lo_closed or nxt.lo_closed
    else:
        lc = cur.lo_closed
    if nxt.hi > cur.hi:
        hi, hc = nxt.hi, nxt.hi_closed
    elif nxt.hi == cur.hi:
        hi, hc = cur.hi, cur.hi_closed or nxt.hi_closed
    else:
        hi, hc = cur.hi, cur.hi_closed
    return _interval(cur.lo, hi, lc, hc)


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of intervals.

    Construct via :func:`coalesce` (or the operations below) unless the
    parts are already canonical; the constructor checks and rejects
    non-canonical input.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.parts, self.parts[1:]):
            if not _separated(a, b):
                raise ValueError("parts not in canonical form")

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        # both part tuples are already sorted: merge them in one pass
        return _fuse(heapq.merge(self.parts, other.parts, key=_start_key))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        i = j = 0
        a, b = self.parts, other.parts
        while i < len(a) and j < len(b):
            piece = a[i].intersect(b[j])
            if piece is not None:
                out.append(piece)
            # advance the side that ends first; on a tie advance both
            ahi, bhi = a[i], b[j]
            if ahi.hi < bhi.hi or (ahi.hi == bhi.hi and not ahi.hi_closed and bhi.hi_closed):
                i += 1
            elif bhi.hi < ahi.hi or (ahi.hi == bhi.hi and not bhi.hi_closed and ahi.hi_closed):
                j += 1
            else:
                i += 1
                j += 1
        return IntervalSet(tuple(out))

    def complement_within(self, universe: Interval) -> "IntervalSet":
        """Points of ``universe`` not in this set; closedness flips at
        every internal boundary."""
        for p in self.parts:
            if not universe.contains_interval(p):
                raise MemberOutsideUniverseError(
                    f"member {p} not contained in universe {universe}"
                )
        out: list[Interval] = []
        cursor, inclusive = universe.lo, universe.lo_closed
        for p in self.parts:
            gap = _maybe_interval(cursor, p.lo, inclusive, not p.lo_closed)
            if gap is not None:
                out.append(gap)
            cursor, inclusive = p.hi, not p.hi_closed
        tail = _maybe_interval(cursor, universe.hi, inclusive, universe.hi_closed)
        if tail is not None:
            out.append(tail)
        return IntervalSet(tuple(out))

    def dilate(self, shift_lo: RationalLike, shift_hi: RationalLike) -> "IntervalSet":
        """Minkowski sum with the closed shift interval [shift_lo, shift_hi].

        Shifts may be negative; endpoint closedness follows the source.
        """
        shift_lo, shift_hi = _exact(shift_lo), _exact(shift_hi)
        if shift_lo > shift_hi:
            raise ValueError("inverted shift interval")
        # one shift moves every start, so the parts stay in start order
        return _fuse(
            _interval(p.lo + shift_lo, p.hi + shift_hi, p.lo_closed, p.hi_closed)
            for p in self.parts
        )

    def erode(self, lo: RationalLike, hi: RationalLike, direction: str) -> "IntervalSet":
        """Points whose whole displaced window lies in the set.

        direction "past": keep t with [t - hi, t - lo] fully inside;
        direction "future": keep t with [t + lo, t + hi] fully inside.
        Because the set is canonical, a closed window fits iff it fits
        inside one single part, so each part shrinks independently.
        """
        lo, hi = _exact(lo), _exact(hi)
        if lo < 0:
            raise NegativeBoundError("erosion window must not reach negative offsets")
        if lo > hi:
            raise ValueError("inverted erosion window")
        out: list[Interval] = []
        for p in self.parts:
            if direction == "past":
                piece = _maybe_interval(p.lo + hi, p.hi + lo, p.lo_closed, p.hi_closed)
            elif direction == "future":
                piece = _maybe_interval(p.lo - lo, p.hi - hi, p.lo_closed, p.hi_closed)
            else:
                raise ValueError(f"unknown erosion direction: {direction!r}")
            if piece is not None:
                out.append(piece)
        # one shift moves every start, so the pieces stay in start order
        return _fuse(out)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.intersect(other) == self

    def contains_point(self, t: RationalLike) -> bool:
        t = rat(t)
        return any(p.contains(t) for p in self.parts)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


EMPTY = IntervalSet()


def _start_key(p: Interval) -> tuple[Fraction, bool]:
    return (p.lo, not p.lo_closed)


def coalesce(raw: Iterable[Optional[Interval]]) -> IntervalSet:
    """Canonicalize a raw collection of intervals (Nones are dropped).

    Sorts in :func:`_start_key` order on an exact integer key: each start
    scaled by the lcm of the starts' denominators, so no comparison in
    the sort touches a Fraction.
    """
    pieces = [p for p in raw if p is not None]
    scale = math.lcm(*{p.lo.denominator for p in pieces})
    pieces.sort(key=lambda p: (p.lo.numerator * (scale // p.lo.denominator), not p.lo_closed))
    return _fuse(pieces)


def _fuse(pieces: Iterable[Interval]) -> IntervalSet:
    """Canonical set from intervals already ordered by :func:`_start_key`."""
    out: list[Interval] = []
    for p in pieces:
        if out and not _separated(out[-1], p):
            out[-1] = _merge(out[-1], p)
        else:
            out.append(p)
    return IntervalSet(tuple(out))


def closed_union(spans: Iterable[tuple[int, int]]) -> IntervalSet:
    """Canonical set of the closed intervals [lo, hi], given as (lo, hi)
    pairs with lo <= hi, endpoints kept as given (ints in integer time).

    Sorting the pairs sorts by start; a closed span fuses with the run
    before it when it starts no later than that run ends.
    """
    out: list[Interval] = []
    ordered = iter(sorted(spans))
    first = next(ordered, None)
    if first is None:
        return EMPTY
    lo, hi = first
    for a, b in ordered:
        if a > hi:
            out.append(_interval(lo, hi, True, True))
            lo, hi = a, b
        elif b > hi:
            hi = b
    out.append(_interval(lo, hi, True, True))
    return IntervalSet(tuple(out))


def from_interval(p: Interval) -> IntervalSet:
    return IntervalSet((p,))


def to_scaled(s: IntervalSet, scale: int) -> IntervalSet:
    """s in integer time: every endpoint times scale, as an int.

    scale must be a positive multiple of every endpoint's denominator,
    so a set already in integer time (denominators 1) rescales by any
    positive int.  Positive scaling keeps the order of endpoints, so the
    result is canonical whenever s is.
    """
    return IntervalSet(tuple(
        _interval(scaled_value(p.lo, scale), scaled_value(p.hi, scale), p.lo_closed, p.hi_closed)
        for p in s.parts
    ))


def from_scaled(s: IntervalSet, scale: int) -> IntervalSet:
    """Inverse of :func:`to_scaled`: every endpoint divided by scale, as a Fraction."""
    return IntervalSet(tuple(
        _interval(Fraction(p.lo, scale), Fraction(p.hi, scale), p.lo_closed, p.hi_closed)
        for p in s.parts
    ))


def scaled_value(x: RationalLike, scale: int) -> int:
    """x * scale as an int; scale must be a multiple of x's denominator."""
    q, r = divmod(scale, x.denominator)
    if r:
        raise ValueError(f"scale {scale} is not a multiple of the denominator of {x}")
    return x.numerator * q
