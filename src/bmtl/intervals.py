"""Exact interval-set algebra over rational time.

Sets of time points are kept in a canonical form: a sorted tuple of
pairwise disjoint, non-adjacent intervals with per-endpoint open/closed
flags.  Canonical form is unique, so structural equality coincides with
point-set equality.  The public constructors coerce int endpoints to
``fractions.Fraction`` and refuse anything not rational, so floats never
enter the core.

Every set operation runs on atom codes.  At a scale L that clears every
denominator in sight, time splits into atoms: the points x/L and the
open unit gaps between them.  Atom 2x is the point x/L and atom 2x+1 the
gap (x/L, (x+1)/L), so an interval is a contiguous run of atoms: a
closed end x is coded 2x, an open start 2x+1 and an open end 2x-1.  A
set is the flat list ``[lo0, hi0, lo1, hi1, ...]`` of its runs' first
and last atoms, and the endpoint flags drop out of every operation:

  nonempty run          lo <= hi
  intersection          max of the los, min of the his
  fuse with the next    lo_next <= hi + 1
  shift time by d/L     add 2d to a code
  canonical list        lo_i <= hi_i and hi_i + 1 < lo_(i+1)

The kernel below works on such lists of ints and never mutates its
arguments; it is the only set algebra.  :class:`IntervalSet` is a value:
its canonical-form check, point query, iteration and text.
:mod:`bmtl.evaluate` fuses a predicate's spans into codes and stays in
codes from the trace to its result, clipped to a caller's region before
the one decode; no bmtl module but this one and that one sees them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int]


def rat(x: RationalLike) -> Fraction:
    """Coerce an int to Fraction; Fractions pass through unchanged.
    Anything not rational, a float included, is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


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
        if self.lo > self.hi:
            raise ValueError(f"inverted interval endpoints: {self.lo} > {self.hi}")
        if not (self.lo_closed and self.hi_closed) and self.lo == self.hi:
            raise ValueError("singleton interval requires both endpoints closed")

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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


# ------------------------------------------------------------------ kernel


def encode(parts: Iterable[Interval], scale: int) -> list[int]:
    """The atom codes of parts at scale, a multiple of every endpoint's
    denominator; canonical parts give a canonical list."""
    out: list[int] = []
    for p in parts:
        lo = 2 * p.lo.numerator * (scale // p.lo.denominator)
        hi = 2 * p.hi.numerator * (scale // p.hi.denominator)
        out.append(lo if p.lo_closed else lo + 1)
        out.append(hi if p.hi_closed else hi - 1)
    return out


_new = object.__new__
_set = object.__setattr__


def decode(codes: Sequence[int], scale: int) -> "IntervalSet":
    """The set of a canonical code list at scale, with Fraction ends.

    An even code 2x is the closed end x; an odd low code 2x+1 and an odd
    high code 2x-1 are the open end x.  Canonical codes give canonical
    parts, so neither the parts nor the set are checked again.
    """
    parts = []
    it = iter(codes)
    for lo, hi in zip(it, it):
        p = _new(Interval)
        _set(p, "lo", Fraction(lo >> 1, scale))
        _set(p, "hi", Fraction((hi + 1) >> 1, scale))
        _set(p, "lo_closed", not lo & 1)
        _set(p, "hi_closed", not hi & 1)
        parts.append(p)
    s = _new(IntervalSet)
    _set(s, "parts", tuple(parts))
    return s


def fuse_runs(runs: Iterable[tuple[int, int]]) -> list[int]:
    """Canonical codes of (lo, hi) runs given in order of lo; empty runs
    are dropped, and a run fuses with the one before when they overlap
    or meet."""
    out: list[int] = []
    for lo, hi in runs:
        if lo > hi:
            continue
        if out and lo <= out[-1] + 1:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out.append(lo)
            out.append(hi)
    return out


def intersect_codes(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The intersection of two canonical lists, in one merge."""
    out: list[int] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        alo, ahi, blo, bhi = a[i], a[i + 1], b[j], b[j + 1]
        lo = alo if alo > blo else blo
        hi = ahi if ahi < bhi else bhi
        if lo <= hi:
            out.append(lo)
            out.append(hi)
        # advance the run that ends first; on a tie advance both
        if ahi <= bhi:
            i += 2
        if bhi <= ahi:
            j += 2
    return out


def shift_codes(codes: Sequence[int], d_lo: int, d_hi: int) -> list[int]:
    """Every run [lo, hi] moved to [lo + d_lo, hi + d_hi].

    With d_lo <= d_hi this dilates (runs grow and may fuse); with
    d_lo >= d_hi it erodes (runs shrink and may vanish).  One shift moves
    every start, so the runs stay in order.
    """
    return fuse_runs(zip([lo + d_lo for lo in codes[::2]], [hi + d_hi for hi in codes[1::2]]))


def complement_codes(codes: Sequence[int], lo: int, hi: int) -> list[int]:
    """The gaps of a canonical list within the run [lo, hi]; its runs may
    reach outside [lo, hi]."""
    out: list[int] = []
    it = iter(codes)
    for a, b in zip(it, it):
        end = a - 1 if a - 1 < hi else hi
        if lo <= end:
            out.append(lo)
            out.append(end)
        if b >= lo:
            lo = b + 1
    if lo <= hi:
        out.append(lo)
        out.append(hi)
    return out


def _scale(parts: Iterable[Interval]) -> int:
    """The lcm of the denominators of parts' ends."""
    return math.lcm(*{x.denominator for p in parts for x in (p.lo, p.hi)})


# ------------------------------------------------------------------ sets


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of intervals: a value, with no operations.

    Construct via :func:`coalesce` unless the parts are already
    canonical; the constructor checks and rejects non-canonical input.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        if len(self.parts) > 1:
            codes = encode(self.parts, _scale(self.parts))
            if any(codes[k] + 1 >= codes[k + 1] for k in range(1, len(codes) - 1, 2)):
                raise ValueError("parts not in canonical form")

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def contains_point(self, t: RationalLike) -> bool:
        t = rat(t)
        return any(p.contains(t) for p in self.parts)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


def coalesce(raw: Iterable[Interval]) -> IntervalSet:
    """Canonicalize a raw collection of intervals, in any order: their
    codes at the lcm of their ends' denominators, sorted and fused."""
    parts = list(raw)
    scale = _scale(parts)
    it = iter(encode(parts, scale))
    return decode(fuse_runs(sorted(zip(it, it))), scale)


def scaled_value(x: RationalLike, scale: int) -> int:
    """x * scale as an int; scale must be a multiple of x's denominator."""
    q, r = divmod(scale, x.denominator)
    if r:
        raise ValueError(f"scale {scale} is not a multiple of the denominator of {x}")
    return x.numerator * q
