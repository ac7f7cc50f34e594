"""Interval-set algebra: frozen examples, lattice-oracle properties, laws."""

import math
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from bmtl.harness import GenConfig
from bmtl.intervals import (
    Interval,
    IntervalSet,
    coalesce,
    complement_codes,
    decode,
    encode,
    fuse_runs,
    intersect_codes,
    scaled_value,
    shift_codes,
)
from bmtl.rewrite import SingletonFree
from bmtl.syntax import Bound
from conftest import (
    complement,
    fractions_st,
    intersect,
    intervals_st,
    interval_sets_st,
    nonneg_fractions_st,
    shifted,
    union,
)
from gridcheck import (
    assert_canonical,
    exists_in_window,
    forall_in_window,
    members,
    padded_grid,
)
from hypothesis import strategies as st


def iset(*parts: Interval) -> IntervalSet:
    return coalesce(parts)


# ---------------------------------------------------------------- frozen


class TestFrozenValues:
    def test_dilate_past_window(self):
        s = iset(Interval(F(0), F(4)))
        assert shifted(s, F(1), F(2)) == iset(Interval(F(1), F(6)))

    def test_dilate_future_window(self):
        s = iset(Interval(F(0), F(4)))
        assert shifted(s, F(-2), F(-1)) == iset(Interval(F(-2), F(3)))

    def test_erode_past(self):
        s = iset(Interval(F(0), F(4)))
        assert shifted(s, F(2), F(1)) == iset(Interval(F(2), F(5)))

    def test_erode_future(self):
        s = iset(Interval(F(0), F(4)))
        assert shifted(s, F(-1), F(-2)) == iset(Interval(F(-1), F(2)))

    def test_complement_flips_closedness(self):
        s = iset(Interval(F(0), F(1)), Interval(F(2), F(3)))
        got = complement(s, Interval(F(-1), F(4)))
        assert got == IntervalSet(
            (
                Interval(F(-1), F(0), True, False),
                Interval(F(1), F(2), False, False),
                Interval(F(3), F(4), False, True),
            )
        )

    def test_coalesce_merges_shared_covered_point(self):
        got = coalesce(
            [Interval(F(0), F(1), True, True), Interval(F(1), F(2), False, True)]
        )
        assert got == iset(Interval(F(0), F(2)))

    def test_coalesce_keeps_uncovered_gap(self):
        got = coalesce(
            [Interval(F(0), F(1), True, False), Interval(F(1), F(2), False, True)]
        )
        assert len(got.parts) == 2


# ------------------------------------------------------------ construction


class TestConstruction:
    def test_inverted_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(F(2), F(1))

    def test_open_singleton_rejected(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(1), True, False)

    def test_noncanonical_parts_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet((Interval(F(0), F(2)), Interval(F(1), F(3))))
        with pytest.raises(ValueError):
            IntervalSet((Interval(F(0), F(1)), Interval(F(1), F(2))))


# -------------------------------------------------- lattice-oracle properties

ALGEBRA_EXAMPLES = settings(max_examples=220)


class TestAgainstLatticeOracle:
    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), interval_sets_st())
    def test_intersect(self, s1, s2):
        got = intersect(s1, s2)
        assert_canonical(got)
        pts = padded_grid([s1, s2, got], [], F(1))
        want = [a and b for a, b in zip(members(s1, pts), members(s2, pts))]
        assert members(got, pts) == want

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), interval_sets_st())
    def test_union(self, s1, s2):
        got = union(s1, s2)
        assert_canonical(got)
        pts = padded_grid([s1, s2, got], [], F(1))
        want = [a or b for a, b in zip(members(s1, pts), members(s2, pts))]
        assert members(got, pts) == want

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), fractions_st(lo=-20, hi=20), fractions_st(lo=-20, hi=20))
    def test_complement_within(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi = lo + 1
        universe = Interval(lo, hi)
        got = complement(s, universe)
        assert_canonical(got)
        pts = padded_grid([s, got], [lo, hi], F(1))
        want = [u and not x for u, x in zip(members([universe], pts), members(s, pts))]
        assert members(got, pts) == want

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_dilate_matches_window_existential(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        got = shifted(s, lo, hi)
        assert_canonical(got)
        pts = padded_grid([s, got], [], hi + 1)
        assert members(got, pts) == exists_in_window(s, pts, -hi, -lo)

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_erode_past_matches_window_universal(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        got = shifted(s, hi, lo)
        assert_canonical(got)
        pts = padded_grid([s, got], [], hi + 1)
        assert members(got, pts) == forall_in_window(s, pts, -hi, -lo)

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_erode_future_matches_window_universal(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        got = shifted(s, -lo, -hi)
        assert_canonical(got)
        pts = padded_grid([s, got], [], hi + 1)
        assert members(got, pts) == forall_in_window(s, pts, lo, hi)

    @ALGEBRA_EXAMPLES
    @given(st.lists(intervals_st(), max_size=6))
    def test_coalesce_preserves_pointwise_membership(self, raw):
        got = coalesce(raw)
        assert_canonical(got)
        pts = padded_grid([got] + [IntervalSet((p,)) for p in raw], [], F(1))
        assert members(got, pts) == members(raw, pts)


# ------------------------------------------------------------ algebraic laws


class TestLaws:
    @given(interval_sets_st(), fractions_st(lo=-20, hi=20), fractions_st(lo=-20, hi=20))
    def test_complement_is_involutive(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi = lo + 1
        universe = Interval(lo, hi)
        clipped = intersect(s, IntervalSet((universe,)))
        assert complement(complement(s, universe), universe) == clipped

    @given(interval_sets_st(), interval_sets_st(), interval_sets_st())
    def test_intersect_distributes_over_union(self, a, b, c):
        assert intersect(a, union(b, c)) == union(intersect(a, b), intersect(a, c))

    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_dilate_then_erode_future_is_expansive(self, s, a, b):
        # each part maps to [a+lo, b+hi] and back to exactly [a, b]
        lo, hi = min(a, b), max(a, b)
        back = shifted(shifted(s, lo, hi), -lo, -hi)
        assert intersect(s, back) == s

    @given(interval_sets_st())
    def test_empty_interactions(self, s):
        assert intersect(s, IntervalSet()) == IntervalSet()
        assert union(s, IntervalSet()) == s
        assert shifted(IntervalSet(), F(0), F(5)) == IntervalSet()

    @given(intervals_st())
    def test_contains_point_respects_endpoint_closure(self, p):
        s = IntervalSet((p,))
        assert s.contains_point(p.lo) == p.lo_closed
        assert s.contains_point(p.hi) == p.hi_closed
        if p.lo < p.hi:
            assert s.contains_point((p.lo + p.hi) / 2)

    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_erode_of_wide_window_empties_narrow_parts(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        eroded = shifted(s, -lo, -hi)
        for part in eroded.parts:
            assert any(
                orig.lo <= part.lo + lo and part.hi + hi <= orig.hi for orig in s.parts
            )


# ------------------------------------------------------------ integer time


@st.composite
def _mixed_intervals(draw):
    """Intervals whose ends come from a few points over denominators 1, 2,
    3, 7, 11 and 13, so equal starts, open or closed, are common."""
    points = st.builds(
        F, st.integers(min_value=-30, max_value=30), st.sampled_from((1, 2, 3, 7, 11, 13))
    )
    a, b = draw(points), draw(points)
    if a == b:
        return Interval(a, b)
    return Interval(min(a, b), max(a, b), draw(st.booleans()), draw(st.booleans()))


def _lcm(parts) -> int:
    return math.lcm(*(x.denominator for p in parts for x in (p.lo, p.hi)))


def _is_canonical(codes: list[int]) -> bool:
    runs = list(zip(codes[::2], codes[1::2]))
    return all(lo <= hi for lo, hi in runs) and all(
        a[1] + 1 < b[0] for a, b in zip(runs, runs[1:])
    )


class TestIntegerTime:
    @settings(max_examples=300)
    @given(st.lists(_mixed_intervals(), max_size=12))
    def test_coalesce_integer_key_matches_fraction_sort(self, raw):
        # the Fraction start key puts a closed start before an open one
        pieces = sorted(raw, key=lambda p: (p.lo, not p.lo_closed))
        scale = _lcm(pieces)
        codes = encode(pieces, scale)
        assert codes[::2] == sorted(codes[::2])
        assert coalesce(raw) == decode(fuse_runs(zip(codes[::2], codes[1::2])), scale)

    def test_coalesce_orders_tied_starts_closed_first(self):
        raw = [Interval(F(1, 7), F(2), False, True), Interval(F(2, 14), F(2, 14))]
        assert coalesce(raw) == IntervalSet((Interval(F(1, 7), F(2)),))

    @settings(max_examples=300)
    @given(st.one_of(interval_sets_st(), st.lists(_mixed_intervals(), max_size=8).map(coalesce)))
    def test_codes_round_trip(self, s):
        scale = _lcm(s.parts)
        for at in (scale, 24 * 7 * scale):
            codes = encode(s.parts, at)
            assert all(type(x) is int for x in codes)
            assert _is_canonical(codes), codes
            back = decode(codes, at)
            assert back == s
            assert all(type(x) is F for p in back.parts for x in (p.lo, p.hi))

    @settings(max_examples=300)
    @given(st.one_of(interval_sets_st(), st.lists(_mixed_intervals(), max_size=8).map(coalesce)),
           st.integers(2, 60), fractions_st(lo=-40, hi=40))
    def test_a_set_is_its_codes_at_any_scale(self, s, m, t):
        # the same parts coded at their least scale and at m times it
        parts = s.parts
        scale = _lcm(parts)
        least = decode(encode(parts, scale), scale)
        wide = decode(encode(parts, m * scale), m * scale)
        built = IntervalSet(parts)
        assert least == wide == built and wide == least and built == wide
        assert hash(least) == hash(wide) == hash(built)
        for got in (least, wide, built):
            assert got.parts == parts and tuple(got) == parts
            assert str(got) == "{" + ", ".join(map(str, parts)) + "}"
            assert bool(got) == bool(parts)
            # each end, a point just inside or outside it, and t
            step = F(1, 3 * m * scale)
            for x in [t, *(e + d for p in parts for e in (p.lo, p.hi) for d in (-step, 0, step))]:
                assert got.contains_point(x) == any(p.contains(x) for p in parts), x

    def test_sets_that_differ_are_unequal_at_any_scale(self):
        closed, half_open = iset(Interval(0, 1)), iset(Interval(0, 1, True, False))
        wide = decode(encode(closed.parts, 6), 6)
        assert wide == closed and wide != half_open and closed != half_open
        assert wide != decode(encode(iset(Interval(0, F(7, 6))).parts, 6), 6)
        assert decode([], 5) == IntervalSet() and not decode([], 5)
        assert IntervalSet() != iset(Interval(0, 0))

    def test_adjacent_runs(self):
        # [0,1) and [1,2] share no point but leave none between them
        assert iset(Interval(0, 1, True, False), Interval(1, 2)) == iset(Interval(0, 2))
        assert encode([Interval(0, 1, True, False), Interval(1, 2)], 1) == [0, 1, 2, 4]
        # (0,1) and (1,2) leave the point 1 out
        apart = iset(Interval(0, 1, False, False), Interval(1, 2, False, False))
        assert len(apart.parts) == 2
        assert encode(apart.parts, 1) == [1, 1, 3, 3]
        assert fuse_runs([(1, 1), (3, 3)]) == [1, 1, 3, 3]

    def test_closed_singleton_between_open_gaps(self):
        one = Interval(1, 1)
        left, right = Interval(0, 1, False, False), Interval(1, 2, False, False)
        assert encode([left, one, right], 1) == [1, 1, 2, 2, 3, 3]
        assert iset(left, one) == iset(Interval(0, 1, False, True))
        assert iset(one, right) == iset(Interval(1, 2, True, False))
        assert iset(left, one, right) == iset(Interval(0, 2, False, False))
        assert complement(IntervalSet((one,)), Interval(0, 2)) == IntervalSet(
            (Interval(0, 1, True, False), Interval(1, 2, False, True))
        )
        assert complement(iset(left, right), Interval(0, 2)) == iset(
            Interval(0, 0), one, Interval(2, 2)
        )
        # eroding by a zero-width window keeps the singleton, dilating
        # by a unit one closes both gaps over it
        assert shifted(IntervalSet((one,)), 0, 0) == IntervalSet((one,))
        assert shifted(iset(left, right), 0, 1) == iset(Interval(0, 3, False, False))

    def test_kernel_stays_integer(self):
        s = iset(Interval(F(0), F(4)), Interval(F(6), F(9)))
        universe = Interval(F(-5), F(15))
        codes, (lo, hi) = encode(s.parts, 1), encode([universe], 1)
        both = codes + shift_codes(codes, -6, -6)
        for out, want in (
            (shift_codes(codes, 2, 4), shifted(s, 1, 2)),
            (shift_codes(codes, 4, 2), shifted(s, 2, 1)),
            (
                complement_codes(codes, lo, hi),
                iset(Interval(-5, 0, True, False), Interval(4, 6, False, False),
                     Interval(9, 15, False, True)),
            ),
            (fuse_runs(sorted(zip(both[::2], both[1::2]))), iset(Interval(-3, 9))),
            # a shift by one atom opens the run's start
            (
                intersect_codes(codes, shift_codes(codes, 1, 2)),
                iset(Interval(0, 4, False, True), Interval(6, 9, False, True)),
            ),
        ):
            assert out
            assert all(type(x) is int for x in out), out
            assert decode(out, 1) == want

    def test_scale_must_clear_every_denominator(self):
        assert scaled_value(F(5, 6), 12) == 10
        with pytest.raises(ValueError):
            scaled_value(F(5, 6), 9)

    def test_public_constructors_still_coerce_to_fraction(self):
        for p in (Interval(0, 3), Interval(1, 2, False, False), Bound(1, 2)):
            assert type(p.lo) is F and type(p.hi) is F

    @pytest.mark.parametrize("build", [
        lambda x: Interval(x, 1),
        lambda x: Bound(x, 1),
        lambda x: GenConfig(bound_max=x),
        lambda x: SingletonFree(kappa=x),
    ], ids=["Interval", "Bound", "GenConfig", "SingletonFree"])
    @pytest.mark.parametrize("value", [0.1, 0.5, "1/2", Decimal("0.5")],
                             ids=["float", "exact_float", "str", "decimal"])
    def test_public_constructors_refuse_what_is_not_rational(self, build, value):
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            build(value)
