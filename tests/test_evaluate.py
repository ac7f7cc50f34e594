"""Exact truth-set evaluation: frozen values and semantic laws."""

import math
from fractions import Fraction as F

from hypothesis import example, given, settings

from bmtl.evaluate import (
    _binary_clause,
    _IntegerTime,
    eval_truth_set,
    reliable_region,
)
from bmtl.intervals import Interval, IntervalSet, coalesce, decode, encode
from bmtl.syntax import (
    And,
    Bound,
    BoxMinus,
    BoxPlus,
    DiaMinus,
    DiaPlus,
    Not,
    Pred,
    Since,
    Top,
    Until,
    fold,
)
from bmtl.traces import Fact, Trace, parse_trace
from conftest import (
    bounds_st,
    complement,
    formulas_st,
    intersect,
    reference_reach,
    shifted,
    traces_st,
    union,
)
from gridcheck import assert_canonical, exists_in_window, forall_in_window, members, padded_grid
from hypothesis import strategies as st


class TestFrozenValues:
    def test_dia_minus_dilates(self, simple_trace):
        f = DiaMinus(Bound(F(1), F(2)), Pred("p"))
        assert eval_truth_set(f, simple_trace) == coalesce([Interval(F(1), F(6))])

    def test_dia_plus_dilates_backward(self, simple_trace):
        f = DiaPlus(Bound(F(1), F(2)), Pred("p"))
        assert eval_truth_set(f, simple_trace) == coalesce([Interval(F(-2), F(3))])

    def test_box_plus_erodes(self, simple_trace):
        f = BoxPlus(Bound(F(0), F(1)), Pred("p"))
        assert eval_truth_set(f, simple_trace) == coalesce([Interval(F(0), F(3))])

    def test_until_needs_uninterrupted_left_operand(self, simple_trace):
        # witness u in [t+1, t+2] with q(u), p throughout [t, u]:
        # u ranges over [3, 4], so t covers [1, 3]
        f = Until(Pred("p"), Bound(F(1), F(2)), Pred("q"))
        assert eval_truth_set(f, simple_trace) == coalesce([Interval(F(1), F(3))])

    def test_since_mirrors_until(self, simple_trace):
        # witness u in [t-2, t-1] with p(u), q throughout [u, t]:
        # witness and anchor must sit in q with p, so u in [3, 4], t in [4, 6]
        f = Since(Pred("q"), Bound(F(1), F(2)), Pred("p"))
        assert eval_truth_set(f, simple_trace) == coalesce([Interval(F(4), F(6))])

    def test_top_is_horizon(self, simple_trace):
        assert eval_truth_set(Top(), simple_trace) == IntervalSet((simple_trace.horizon,))

    def test_not_complements_within_horizon(self, simple_trace):
        f = Not(Pred("p"))
        assert eval_truth_set(f, simple_trace) == coalesce(
            [
                Interval(F(-5), F(0), True, False),
                Interval(F(4), F(15), False, True),
            ]
        )

    def test_reliable_region(self, simple_trace):
        f = And(
            DiaMinus(Bound(F(1), F(2)), Pred("p")),
            DiaPlus(Bound(F(0), F(5)), Pred("q")),
        )
        assert reliable_region(f, simple_trace) == Interval(F(-3), F(10))

    def test_reliable_region_empty_when_reach_fills_horizon(self):
        tr = Trace(Interval(F(0), F(3)), ())
        f = DiaMinus(Bound(F(0), F(3)), Pred("p"))
        assert reliable_region(f, tr) is None

    def test_empty_base_propagates(self, simple_trace):
        f = DiaMinus(Bound(F(0), F(2)), Pred("missing"))
        assert eval_truth_set(f, simple_trace).parts == ()


class TestStructuralLaws:
    @given(formulas_st(max_depth=3), formulas_st(max_depth=3), traces_st())
    def test_and_is_intersection(self, f, g, tr):
        assert eval_truth_set(And(f, g), tr) == intersect(
            eval_truth_set(f, tr), eval_truth_set(g, tr)
        )

    @given(formulas_st(max_depth=3), traces_st())
    def test_not_complements_clipped_truth(self, f, tr):
        assert eval_truth_set(Not(f), tr) == complement(eval_truth_set(f, tr), tr.horizon)

    @given(bounds_st(), formulas_st(max_depth=2), traces_st())
    def test_dia_box_duality_inside_reliable_region(self, b, f, tr):
        boxed = BoxPlus(b, f)
        dual = Not(DiaPlus(b, Not(f)))
        region = reliable_region(And(boxed, dual), tr)
        if region is None:
            return
        assert eval_truth_set(boxed, tr, region) == eval_truth_set(dual, tr, region)

    @given(bounds_st(), formulas_st(max_depth=2), traces_st())
    def test_past_dia_box_duality_inside_reliable_region(self, b, f, tr):
        boxed = BoxMinus(b, f)
        dual = Not(DiaMinus(b, Not(f)))
        region = reliable_region(And(boxed, dual), tr)
        if region is None:
            return
        assert eval_truth_set(boxed, tr, region) == eval_truth_set(dual, tr, region)


@st.composite
def _sevenths_intervals(draw):
    """Intervals whose ends are n/7, a denominator that neither formulas_st
    nor traces_st uses, each end open or closed."""
    ends = st.integers(min_value=-100, max_value=100).filter(lambda n: n % 7).map(lambda n: F(n, 7))
    a, b = draw(ends), draw(ends)
    if a == b:
        return Interval(a, b)
    return Interval(min(a, b), max(a, b), draw(st.booleans()), draw(st.booleans()))


class TestWithin:
    def test_frozen_clips(self, simple_trace):
        p = Pred("p")  # true on [0, 4]
        assert eval_truth_set(p, simple_trace, Interval(0, 4, False, False)) == coalesce(
            [Interval(0, 4, False, False)]
        )
        assert eval_truth_set(p, simple_trace, Interval(F(1, 7), F(30, 7), True, False)) == (
            coalesce([Interval(F(1, 7), 4)])
        )
        assert eval_truth_set(p, simple_trace, Interval(F(29, 7), F(30, 7))).parts == ()

    @settings(max_examples=200)
    @given(formulas_st(max_depth=3, allow_not=True), traces_st(), _sevenths_intervals())
    @example(Pred("p"), Trace(Interval(0, 2), (Fact("p", Interval(0, 1)),)), Interval(F(1, 7), 1))
    def test_within_is_the_unclipped_set_clipped_on_the_lattice(self, f, tr, within):
        whole = eval_truth_set(f, tr)
        got = eval_truth_set(f, tr, within)
        assert_canonical(got)
        assert all(type(x) is F for p in got.parts for x in (p.lo, p.hi)), got
        pts = padded_grid([whole, got], [within.lo, within.hi], F(1))
        want = [a and b for a, b in zip(members(whole, pts), members([within], pts))]
        assert members(got, pts) == want


@st.composite
def _extension_facts(draw, horizon: Interval, delta: F):
    """Facts confined to the closed zones strictly outside the horizon."""
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        name = draw(st.sampled_from(("p", "q", "r")))
        left = draw(st.booleans())
        if left:
            zone_lo, zone_hi = horizon.lo - delta, horizon.lo - F(1, 8)
        else:
            zone_lo, zone_hi = horizon.hi + F(1, 8), horizon.hi + delta
        a = draw(st.integers(min_value=0, max_value=int((zone_hi - zone_lo) * 8)))
        b = draw(st.integers(min_value=a, max_value=int((zone_hi - zone_lo) * 8)))
        out.append(Fact(name, Interval(zone_lo + F(a, 8), zone_lo + F(b, 8))))
    return out


class TestReliableRegionSoundness:
    @settings(max_examples=120)
    @given(formulas_st(max_depth=3, allow_not=True), traces_st(), st.data())
    def test_truth_inside_region_survives_horizon_extension(self, f, tr, data):
        region = reliable_region(f, tr)
        if region is None:
            return
        delta = F(4)
        extra = data.draw(_extension_facts(tr.horizon, delta))
        extended = Trace(
            Interval(tr.horizon.lo - delta, tr.horizon.hi + delta),
            tr.facts + tuple(extra),
        )
        assert eval_truth_set(f, tr, region) == eval_truth_set(f, extended, region)


class TestSharedRegion:
    @given(formulas_st(max_depth=3), formulas_st(max_depth=3), traces_st())
    # a past reach of 1 and a future reach of 2 fill the width of 3
    @example(
        DiaMinus(Bound(F(0), F(1)), Pred("p")),
        DiaPlus(Bound(F(1), F(2)), Pred("q")),
        Trace(Interval(F(0), F(3)), ()),
    )
    def test_region_of_a_conjunction_takes_the_larger_reach_on_each_side(self, f1, f2, tr):
        (past1, future1), (past2, future2) = reference_reach(f1), reference_reach(f2)
        past, future = max(past1, past2), max(future1, future2)
        h = tr.horizon
        want = None if past + future >= h.width else Interval(h.lo + past, h.hi - future)
        assert reliable_region(And(f1, f2), tr) == want


def _reference_binary_clause(holds, witness, shift_lo, shift_hi):
    """The clause as first written: one scan of every witness part and one
    union per part of holds (quadratic, kept as the reference)."""
    out = IntervalSet()
    for part in holds.parts:
        j = IntervalSet((part,))
        inside = intersect(j, witness)
        if inside.parts:
            out = union(out, intersect(shifted(inside, shift_lo, shift_hi), j))
    return out


@st.composite
def _grid_intervals(draw, max_width: int):
    """Intervals on a half-unit grid, so shared endpoints and singletons
    are common; a zero width gives a singleton."""
    lo = F(draw(st.integers(min_value=-16, max_value=16)), 2)
    hi = lo + F(draw(st.integers(min_value=0, max_value=2 * max_width)), 2)
    if lo == hi:
        return Interval(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def _grid_sets(max_parts: int, max_width: int):
    return st.lists(_grid_intervals(max_width), max_size=max_parts).map(coalesce)


@st.composite
def _shifts(draw):
    """[0,0], a zero-width shift, or a general one; either end may be negative."""
    kind = draw(st.sampled_from(("origin", "zero_width", "general")))
    if kind == "origin":
        return F(0), F(0)
    lo = F(draw(st.integers(min_value=-8, max_value=8)), 2)
    if kind == "zero_width":
        return lo, lo
    return lo, lo + F(draw(st.integers(min_value=1, max_value=8)), 2)


def _parts(*spans):
    return IntervalSet(tuple(Interval(*span) for span in spans))


def _sweep(holds, witness, shift_lo, shift_hi):
    """The sweep on the two sets' codes at the lcm of every denominator."""
    ends = [x for p in holds.parts + witness.parts for x in (p.lo, p.hi)]
    scale = math.lcm(*(x.denominator for x in ends + [shift_lo, shift_hi]))
    codes = _binary_clause(
        encode(holds.parts, scale),
        encode(witness.parts, scale),
        int(2 * shift_lo * scale),
        int(2 * shift_hi * scale),
    )
    return decode(codes, scale)


class _CountingList(list):
    """A code list that counts its reads by index or slice."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestSinceUntilSweep:
    # many narrow parts of holds against few wide witness parts, so a
    # witness part often straddles several parts of holds
    @settings(max_examples=300)
    @given(_grid_sets(8, 2), _grid_sets(4, 8), _shifts())
    @example(
        _parts((0, 1), (2, 3, False, False), (4, 4), (5, 7, True, False)),
        _parts((F(1, 2), 6)),
        (F(-1), F(0)),
    )
    @example(_parts((0, 1, False, True), (3, 3)), _parts((1, 1), (3, 3)), (F(0), F(0)))
    @example(_parts((0, 10)), _parts((1, 2, False, False), (2, 3, False, True)), (F(2), F(2)))
    def test_sweep_matches_per_part_reference(self, holds, witness, shift):
        lo, hi = shift
        assert _sweep(holds, witness, lo, hi) == _reference_binary_clause(holds, witness, lo, hi)

    @staticmethod
    def _witness_reads(facts: int) -> int:
        """Reads of the witness codes by one since and one until clause
        on a trace with the given number of facts per predicate."""
        p = [Fact("p", Interval(F(4 * i), F(4 * i + 3))) for i in range(facts)]
        q = [Fact("q", Interval(F(8 * i + 5, 2), F(8 * i + 6, 2))) for i in range(facts)]
        tr = Trace(Interval(F(0), F(4 * facts)), tuple(p + q))
        unit = 2 * tr.scale  # a shift by 1 in codes
        reads = 0
        # since over [0,1] and until over [1,2]
        for shift in ((0, unit), (-2 * unit, -unit)):
            witness = _CountingList(encode(tr.truth_base("q").parts, tr.scale))
            assert _binary_clause(encode(tr.truth_base("p").parts, tr.scale), witness, *shift)
            reads += witness.reads
        return reads

    def test_sweep_reads_grow_linearly(self):
        small = self._witness_reads(500)
        large = self._witness_reads(2000)
        assert large <= 4.5 * small, (small, large)


def _reference_eval_truth_set(f, tr):
    """The evaluator as set operations, by the conftest helpers and
    `shifted`: the same clauses run on the trace's Fraction truth bases
    and the bounds as they are, each operation at the lcm of its own
    operands, with since/until by the per-part reference (kept as the
    reference)."""
    horizon = IntervalSet((tr.horizon,))
    clauses = {
        Pred: lambda n, k: tr.truth_base(n.name),
        Top: lambda n, k: horizon,
        Not: lambda n, k: complement(k[0], tr.horizon),
        And: lambda n, k: intersect(k[0], k[1]),
        DiaMinus: lambda n, k: shifted(k[0], n.bound.lo, n.bound.hi),
        DiaPlus: lambda n, k: shifted(k[0], -n.bound.hi, -n.bound.lo),
        BoxMinus: lambda n, k: shifted(k[0], n.bound.hi, n.bound.lo),
        BoxPlus: lambda n, k: shifted(k[0], -n.bound.lo, -n.bound.hi),
        Since: lambda n, k: _reference_binary_clause(k[0], k[1], n.bound.lo, n.bound.hi),
        Until: lambda n, k: _reference_binary_clause(k[0], k[1], -n.bound.hi, -n.bound.lo),
    }
    return fold(f, lambda node, kids: clauses[type(node)](node, kids))


_COPRIME = (1, 7, 11, 13)


def _coprime_rationals(lo: int, hi: int):
    """Rationals in [lo, hi] over denominators 1, 7, 11 and 13."""
    return st.sampled_from(_COPRIME).flatmap(
        lambda d: st.integers(min_value=lo * d, max_value=hi * d).map(lambda n: F(n, d))
    )


@st.composite
def _coprime_bounds(draw):
    a, b = draw(_coprime_rationals(0, 3)), draw(_coprime_rationals(0, 3))
    return Bound(min(a, b), max(a, b))


@st.composite
def _coprime_traces(draw):
    """A horizon with a negative start (its end is negative too at times)
    and facts whose ends come from a few shared points, so facts touch,
    overlap and shrink to singletons, and negation puts open and closed
    starts at one point."""
    lo = draw(_coprime_rationals(-6, -1))
    hi = lo + draw(_coprime_rationals(1, 8).filter(lambda w: w > 0))
    points = draw(st.lists(_coprime_rationals(-6, 7), min_size=1, max_size=5))
    points = [min(max(x, lo), hi) for x in points] + [lo, hi]
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        x, y = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        facts.append(Fact(draw(st.sampled_from(("p", "q"))), Interval(min(x, y), max(x, y))))
    return Trace(Interval(lo, hi), tuple(facts))


@st.composite
def _fifths_or_sevenths_bounds(draw):
    """Bounds within [0, 3] with an end at n/5 or n/7 off the integers."""
    d = draw(st.sampled_from((5, 7)))
    ends = st.integers(min_value=0, max_value=3 * d)
    a, b = sorted((draw(ends), draw(ends.filter(lambda n: n % d))))
    return Bound(F(a, d), F(b, d))


class TestIntegerTime:
    @settings(max_examples=300)
    @given(
        formulas_st(max_depth=3, allow_not=True, bounds=_coprime_bounds()),
        _coprime_traces(),
    )
    @example(
        Not(And(Pred("p"), Not(Pred("q")))),
        Trace(
            Interval(F(-13, 7), F(-1, 11)),
            (
                Fact("p", Interval(F(-1), F(-1))),
                Fact("q", Interval(F(-1), F(-5, 13))),
                Fact("p", Interval(F(-5, 13), F(-1, 11))),
            ),
        ),
    )
    def test_scaled_evaluation_matches_fraction_fold(self, f, tr):
        got = eval_truth_set(f, tr)
        assert got == _reference_eval_truth_set(f, tr)
        assert all(type(x) is F for p in got.parts for x in (p.lo, p.hi)), got

    def test_base_is_the_spans_fused_at_the_evaluators_scale(self):
        tr = parse_trace("horizon [-1/2,10]\np @ [1/3,2]\np @ [5/4,2]\np @ [2,9/4]\n")
        assert tr.scale == 12
        # the closed span [4/12, 27/12] is the run of atoms [2*4, 2*27]
        t = _IntegerTime(Pred("p"), tr, None)
        assert t.scale == 12
        assert t.base("p") == [8, 54]
        assert all(type(x) is int for x in t.base("p"))
        assert t.base("q") == []
        # a bound at 1/5 scales time by 5 more: the run [2*20, 2*135]
        t = _IntegerTime(DiaMinus(Bound(F(0), F(1, 5)), Pred("p")), tr, None)
        assert t.scale == 60
        assert t.base("p") == [40, 270]
        want = coalesce([Interval(F(1, 3), F(9, 4))])
        assert eval_truth_set(Pred("p"), tr) == tr.truth_base("p") == want

    @settings(max_examples=150)
    @given(
        st.sampled_from((DiaMinus, DiaPlus, BoxMinus, BoxPlus)),
        _fifths_or_sevenths_bounds(),
        st.sampled_from(("p", "q")),
        st.sampled_from(("p", "q")),
        traces_st(max_facts=6).filter(lambda tr: tr.scale == 4),
    )
    def test_rescaled_bases_match_the_lattice(self, window, b, x, y, tr):
        # the bound puts 5 or 7 into the evaluator's scale, so both bases
        # are read at a multiple of the trace's scale
        f = window(b, Pred(x))
        got = eval_truth_set(f, tr)
        base = tr.truth_base(x)
        # got's ends are sums of base's and b's, so the lattice and the
        # windows' lattice have one step
        pts = padded_grid([got, base], [b.lo, b.hi], b.hi + 1)
        # the window of t: [t - hi, t - lo] looking back, [t + lo, t + hi] ahead
        lo, hi = (b.lo, b.hi) if window in (DiaPlus, BoxPlus) else (-b.hi, -b.lo)
        held = exists_in_window if window in (DiaMinus, DiaPlus) else forall_in_window
        assert members(got, pts) == held(base, pts, lo, hi)
        assert eval_truth_set(And(f, Pred(y)), tr) == intersect(got, tr.truth_base(y))

    @given(formulas_st(max_depth=3, allow_not=True, bounds=bounds_st()), traces_st())
    def test_every_endpoint_handed_out_is_a_fraction(self, f, tr):
        for p in eval_truth_set(f, tr).parts:
            assert type(p.lo) is F and type(p.hi) is F, p
            assert type(p.lo_closed) is bool and type(p.hi_closed) is bool, p

    def test_endpoints_are_fractions_on_an_integer_trace(self, simple_trace):
        # every value in sight is an integer, so the scale is 1
        got = eval_truth_set(Until(Pred("p"), Bound(F(1), F(2)), Pred("q")), simple_trace)
        assert got.parts and all(type(x) is F for p in got.parts for x in (p.lo, p.hi))

    def test_trace_is_left_unscaled(self, simple_trace):
        f = DiaMinus(Bound(F(1, 7), F(2, 11)), Pred("p"))
        first = eval_truth_set(f, simple_trace)
        base = simple_trace.truth_base("p")
        assert base == coalesce([Interval(F(0), F(4))])
        assert all(type(x) is F for p in base.parts for x in (p.lo, p.hi))
        assert eval_truth_set(f, simple_trace) == first == coalesce(
            [Interval(F(1, 7), F(4) + F(2, 11))]
        )
