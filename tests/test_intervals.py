"""Interval-set algebra: frozen examples, lattice-oracle properties, laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from bmtl.errors import MemberOutsideUniverseError, NegativeBoundError
from bmtl.intervals import (
    EMPTY,
    Interval,
    IntervalSet,
    _fuse,
    _start_key,
    coalesce,
    from_interval,
    from_scaled,
    make_interval,
    scaled_value,
    to_scaled,
)
from conftest import fractions_st, intervals_st, interval_sets_st, nonneg_fractions_st
from gridcheck import (
    assert_canonical,
    brute_exists_in_window,
    brute_forall_in_window,
    interval_contains,
    padded_grid,
    window_grid,
    lattice_denominator,
    set_endpoints,
)
from hypothesis import strategies as st


def iset(*parts: Interval) -> IntervalSet:
    return coalesce(parts)


# ---------------------------------------------------------------- frozen


class TestFrozenValues:
    def test_dilate_past_window(self):
        s = iset(Interval(F(0), F(4)))
        assert s.dilate(F(1), F(2)) == iset(Interval(F(1), F(6)))

    def test_dilate_future_window(self):
        s = iset(Interval(F(0), F(4)))
        assert s.dilate(F(-2), F(-1)) == iset(Interval(F(-2), F(3)))

    def test_erode_past(self):
        s = iset(Interval(F(0), F(4)))
        assert s.erode(F(1), F(2), "past") == iset(Interval(F(2), F(5)))

    def test_erode_future(self):
        s = iset(Interval(F(0), F(4)))
        assert s.erode(F(1), F(2), "future") == iset(Interval(F(-1), F(2)))

    def test_complement_flips_closedness(self):
        s = iset(Interval(F(0), F(1)), Interval(F(2), F(3)))
        got = s.complement_within(Interval(F(-1), F(4)))
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

    def test_make_interval_collapses_empty(self):
        assert make_interval(F(2), F(1)) is None
        assert make_interval(F(1), F(1), True, False) is None
        assert make_interval(F(1), F(1)) == Interval(F(1), F(1))

    def test_noncanonical_parts_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet((Interval(F(0), F(2)), Interval(F(1), F(3))))
        with pytest.raises(ValueError):
            IntervalSet((Interval(F(0), F(1)), Interval(F(1), F(2))))

    def test_erode_negative_bound_rejected(self):
        with pytest.raises(NegativeBoundError):
            from_interval(Interval(F(0), F(4))).erode(F(-1), F(1), "past")

    def test_complement_outside_universe_rejected(self):
        with pytest.raises(MemberOutsideUniverseError):
            from_interval(Interval(F(0), F(4))).complement_within(Interval(F(1), F(2)))


# -------------------------------------------------- lattice-oracle properties

ALGEBRA_EXAMPLES = settings(max_examples=220)


class TestAgainstLatticeOracle:
    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), interval_sets_st())
    def test_intersect(self, s1, s2):
        got = s1.intersect(s2)
        assert_canonical(got)
        pts = padded_grid([s1, s2, got], [], F(1))
        for x in pts:
            assert got.contains_point(x) == (s1.contains_point(x) and s2.contains_point(x))

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), interval_sets_st())
    def test_union(self, s1, s2):
        got = s1.union(s2)
        assert_canonical(got)
        pts = padded_grid([s1, s2, got], [], F(1))
        for x in pts:
            assert got.contains_point(x) == (s1.contains_point(x) or s2.contains_point(x))

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), fractions_st(lo=-20, hi=20), fractions_st(lo=-20, hi=20))
    def test_complement_within(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi = lo + 1
        universe = Interval(lo, hi)
        clipped = s.intersect(from_interval(universe))
        got = clipped.complement_within(universe)
        assert_canonical(got)
        pts = padded_grid([clipped, got], [lo, hi], F(1))
        for x in pts:
            want = universe.contains(x) and not clipped.contains_point(x)
            assert got.contains_point(x) == want

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_dilate_matches_window_existential(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        got = s.dilate(lo, hi)
        assert_canonical(got)
        denom = lattice_denominator(set_endpoints(s), [lo, hi])
        pts = padded_grid([s, got], [], hi + 1)
        for x in pts:
            want = brute_exists_in_window(s, window_grid(x, -hi, -lo, denom))
            assert got.contains_point(x) == want

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_erode_past_matches_window_universal(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        got = s.erode(lo, hi, "past")
        assert_canonical(got)
        denom = lattice_denominator(set_endpoints(s), [lo, hi])
        pts = padded_grid([s, got], [], hi + 1)
        for x in pts:
            want = brute_forall_in_window(s, window_grid(x, -hi, -lo, denom))
            assert got.contains_point(x) == want

    @ALGEBRA_EXAMPLES
    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_erode_future_matches_window_universal(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        got = s.erode(lo, hi, "future")
        assert_canonical(got)
        denom = lattice_denominator(set_endpoints(s), [lo, hi])
        pts = padded_grid([s, got], [], hi + 1)
        for x in pts:
            want = brute_forall_in_window(s, window_grid(x, lo, hi, denom))
            assert got.contains_point(x) == want

    @ALGEBRA_EXAMPLES
    @given(st.lists(intervals_st(), max_size=6))
    def test_coalesce_preserves_pointwise_membership(self, raw):
        got = coalesce(raw)
        assert_canonical(got)
        pts = padded_grid([got] + [from_interval(p) for p in raw], [], F(1))
        for x in pts:
            want = any(interval_contains(p, x) for p in raw)
            assert got.contains_point(x) == want


# ------------------------------------------------------------ algebraic laws


class TestLaws:
    @given(interval_sets_st(), fractions_st(lo=-20, hi=20), fractions_st(lo=-20, hi=20))
    def test_complement_is_involutive(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi = lo + 1
        universe = Interval(lo, hi)
        clipped = s.intersect(from_interval(universe))
        assert clipped.complement_within(universe).complement_within(universe) == clipped

    @given(interval_sets_st(), interval_sets_st(), interval_sets_st())
    def test_intersect_distributes_over_union(self, a, b, c):
        assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))

    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_dilate_then_erode_future_is_expansive(self, s, a, b):
        # each part maps to [a+lo, b+hi] and back to exactly [a, b]
        lo, hi = min(a, b), max(a, b)
        grown = s.dilate(lo, hi)
        assert s.is_subset_of(grown.erode(lo, hi, "future"))

    @given(interval_sets_st())
    def test_empty_interactions(self, s):
        assert s.intersect(EMPTY) == EMPTY
        assert s.union(EMPTY) == s
        assert EMPTY.dilate(F(0), F(5)) == EMPTY

    @given(intervals_st())
    def test_contains_point_respects_endpoint_closure(self, p):
        s = from_interval(p)
        assert s.contains_point(p.lo) == p.lo_closed
        assert s.contains_point(p.hi) == p.hi_closed
        if p.lo < p.hi:
            assert s.contains_point((p.lo + p.hi) / 2)

    @given(interval_sets_st(), nonneg_fractions_st(), nonneg_fractions_st())
    def test_erode_of_wide_window_empties_narrow_parts(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        eroded = s.erode(lo, hi, "future")
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


class TestIntegerTime:
    @settings(max_examples=300)
    @given(st.lists(st.one_of(_mixed_intervals(), st.none()), max_size=12))
    def test_coalesce_integer_key_matches_fraction_sort(self, raw):
        want = _fuse(sorted((p for p in raw if p is not None), key=_start_key))
        assert coalesce(raw) == want

    def test_coalesce_orders_tied_starts_closed_first(self):
        raw = [Interval(F(1, 7), F(2), False, True), Interval(F(2, 14), F(2, 14))]
        assert coalesce(raw) == from_interval(Interval(F(1, 7), F(2)))

    @given(interval_sets_st())
    def test_scaling_round_trips(self, s):
        scaled = to_scaled(s, 24 * 7)
        assert all(type(x) is int for p in scaled.parts for x in (p.lo, p.hi))
        back = from_scaled(scaled, 24 * 7)
        assert back == s
        assert all(type(x) is F for p in back.parts for x in (p.lo, p.hi))

    def test_integer_sets_stay_integer(self):
        s = to_scaled(iset(Interval(F(0), F(4)), Interval(F(6), F(9))), 1)
        universe = to_scaled(from_interval(Interval(F(-5), F(15))), 1).parts[0]
        for out in (
            s.dilate(1, 2),
            s.erode(1, 2, "past"),
            s.complement_within(universe),
            s.union(s.dilate(-3, -3)),
            s.intersect(s.dilate(0, 1)),
        ):
            assert out.parts
            assert all(type(x) is int for p in out.parts for x in (p.lo, p.hi)), out

    def test_scale_must_clear_every_denominator(self):
        assert scaled_value(F(5, 6), 12) == 10
        with pytest.raises(ValueError):
            scaled_value(F(5, 6), 9)

    def test_public_constructors_still_coerce_to_fraction(self):
        for p in (Interval(0, 3), make_interval(1, 2)):
            assert type(p.lo) is F and type(p.hi) is F
