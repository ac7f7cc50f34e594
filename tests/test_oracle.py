"""Pointwise oracle: frozen values and two reference cross-checks.

The naive reference below re-decides every quantifier by direct
Fraction comparisons and linear scans over the same sampling lattice —
no prefix sums, no index or bit arithmetic — so an error in the
oracle's bitset bookkeeping cannot hide in the reference.

The kernel references compute the oracle's whole truth arrays as lists
of bools, by binary search on the grid values (bisect) and prefix counts
(accumulate), without assuming that the grid is a run of consecutive
integers, so a slip in the oracle's shifts and crops shows up at every
grid point it touches.  On the quarter-step grid over the padded
horizon they also give a reference first difference, which the
oracle's half-step grid over the padded region must match atom for
atom.
"""

import math
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmtl.errors import BmtlError, OracleGridError, PointOutsideHorizonError
from bmtl.evaluate import eval_truth_set, reliable_region
from bmtl.intervals import Interval, coalesce
from bmtl.oracle import (
    _ARRAYS,
    _TruthTable,
    _sample_grid,
    oracle_eval_many,
    oracle_first_difference,
)
from bmtl.rewrite import SingletonFree, normalize
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
from conftest import bound_lcm, formulas_st, preorder_bounds, reference_reach, traces_st


# ----------------------------------------------------------- naive reference


def _lattice(tr: Trace, f, extra_denoms) -> list[F]:
    dens = {tr.horizon.lo.denominator, tr.horizon.hi.denominator, *extra_denoms}
    for fact in tr.facts:
        dens.add(fact.span.lo.denominator)
        dens.add(fact.span.hi.denominator)
    for b in preorder_bounds(f):
        dens.add(b.lo.denominator)
        dens.add(b.hi.denominator)
    step = F(1, 4 * math.lcm(*dens))
    past, future = reference_reach(f)
    lo, hi = tr.horizon.lo - past, tr.horizon.hi + future
    n = int((hi - lo) / step)
    return [lo + i * step for i in range(n + 1)]


def _naive_tables(f, tr: Trace, pts: list[F]) -> dict:
    in_horizon = [tr.horizon.contains(x) for x in pts]
    tables: dict = {}

    def table(node) -> list[bool]:
        if node in tables:
            return tables[node]
        if isinstance(node, Pred):
            spans = [ft.span for ft in tr.facts if ft.predicate == node.name]
            out = [any(s.contains(x) for s in spans) for x in pts]
        elif isinstance(node, Top):
            out = list(in_horizon)
        elif isinstance(node, Not):
            child = table(node.body)
            out = [h and not c for h, c in zip(in_horizon, child)]
        elif isinstance(node, And):
            lt, rt = table(node.left), table(node.right)
            out = [a and b for a, b in zip(lt, rt)]
        elif isinstance(node, (DiaMinus, DiaPlus, BoxMinus, BoxPlus)):
            child = table(node.body)
            past = isinstance(node, (DiaMinus, BoxMinus))
            universal = isinstance(node, (BoxMinus, BoxPlus))
            out = []
            for i, x in enumerate(pts):
                wlo = x - node.bound.hi if past else x + node.bound.lo
                whi = x - node.bound.lo if past else x + node.bound.hi
                vals = [child[j] for j, y in enumerate(pts) if wlo <= y <= whi]
                out.append(all(vals) if universal else any(vals))
        elif isinstance(node, (Since, Until)):
            holds, wit = table(node.left), table(node.right)
            out = []
            for i, x in enumerate(pts):
                if isinstance(node, Since):
                    wlo, whi = x - node.bound.hi, x - node.bound.lo
                    step = -1
                else:
                    wlo, whi = x + node.bound.lo, x + node.bound.hi
                    step = 1
                found = False
                j = i
                # walk away from the anchor while the left operand holds,
                # accepting any witness inside the window
                while 0 <= j < len(pts) and holds[j]:
                    if wlo <= pts[j] <= whi and wit[j]:
                        found = True
                        break
                    j += step
                out.append(found)
        else:
            raise TypeError(node)
        tables[node] = out
        return out

    table(f)
    return tables


def naive_eval(f, tr: Trace, t: F) -> bool:
    pts = _lattice(tr, f, {t.denominator})
    tables = _naive_tables(f, tr, pts)
    return tables[f][pts.index(t)]


# ----------------------------------------------------- kernel references


def _as_int(x) -> int:
    assert F(x).denominator == 1
    return int(x)


def _prefix(row) -> list[int]:
    """Counts of true entries: prefix[i] is the count over row[:i]."""
    return list(accumulate(row, initial=0))


def _reference_span_mask(xs, span: Interval, scale: int) -> list[bool]:
    left = bisect_left(xs, _as_int(span.lo * scale))
    right = bisect_right(xs, _as_int(span.hi * scale))
    return [left <= i < right for i in range(len(xs))]


def _reference_fact_mask(tr: Trace, name: str, xs, scale: int) -> list[bool]:
    mask = [False] * len(xs)
    for fact in tr.facts:
        if fact.predicate == name:
            span = _reference_span_mask(xs, fact.span, scale)
            mask = [a or b for a, b in zip(mask, span)]
    return mask


def _reference_window_edges(xs, scale: int, bound, past: bool):
    b1 = _as_int(bound.lo * scale)
    b2 = _as_int(bound.hi * scale)
    first, last = (-b2, -b1) if past else (b1, b2)
    left = [bisect_left(xs, x + first) for x in xs]
    right = [bisect_right(xs, x + last) for x in xs]
    return left, right


def _reference_window_quantifier(xs, scale, bound, body, past, universal):
    left, right = _reference_window_edges(xs, scale, bound, past)
    prefix = _prefix(body)
    counts = [(prefix[r] - prefix[l], r - l) for l, r in zip(left, right)]
    return [c == size if universal else c > 0 for c, size in counts]


def _reference_witness_scan(xs, scale, bound, holds, witness, past):
    false_prefix = _prefix(not h for h in holds)
    wit_prefix = _prefix(witness)
    left, right = _reference_window_edges(xs, scale, bound, past)
    if past:
        # smallest index j such that holds[j..i] is all true
        reach_back = [bisect_left(false_prefix, v) for v in false_prefix[1:]]
        starts = [max(l, b) for l, b in zip(left, reach_back)]
        return [r > s and wit_prefix[r] - wit_prefix[s] > 0 for s, r in zip(starts, right)]
    # one past the largest index j such that holds[i..j] is all true
    reach_fwd = [bisect_right(false_prefix, v) - 1 for v in false_prefix[:-1]]
    ends = [min(r, f) for r, f in zip(right, reach_fwd)]
    return [e > l and wit_prefix[e] - wit_prefix[l] > 0 for l, e in zip(left, ends)]


def _reference_truth_arrays(f, tr: Trace, xs, scale: int) -> list:
    """Every node's truth array over the grid xs, in fold order."""
    horizon = _reference_span_mask(xs, tr.horizon, scale)

    def step(node, kids):
        if isinstance(node, Pred):
            out = _reference_fact_mask(tr, node.name, xs, scale)
        elif isinstance(node, Top):
            out = horizon
        elif isinstance(node, Not):
            out = [h and not k for h, k in zip(horizon, kids[0])]
        elif isinstance(node, And):
            out = [a and b for a, b in zip(*kids)]
        elif isinstance(node, (Since, Until)):
            past = isinstance(node, Since)
            out = _reference_witness_scan(xs, scale, node.bound, *kids, past)
        else:
            past = isinstance(node, (DiaMinus, BoxMinus))
            universal = isinstance(node, (BoxMinus, BoxPlus))
            out = _reference_window_quantifier(
                xs, scale, node.bound, kids[0], past, universal
            )
        arrays.append(out)
        return out

    arrays: list = []
    fold(f, step)
    return arrays


def _grid_denominator(f, tr: Trace, pts) -> int:
    """The oracle's L, worked out here: the lcm of the trace's scale, of
    every bound endpoint's denominator and of the points'."""
    return math.lcm(tr.scale, bound_lcm(f), *(p.denominator for p in pts))


def _reference_first_difference(f, tr: Trace, truth, region: Interval):
    """oracle_first_difference's answer from the kernel references on
    the grid of step 1/(4L) over the horizon padded by f's reach, with L
    the oracle's common denominator: twice as fine as the oracle's grid,
    and over every point the formula can consult."""
    ends = [region.lo, region.hi, *(x for p in truth.parts for x in (p.lo, p.hi))]
    scale = 4 * _grid_denominator(f, tr, ends)
    past, future = reference_reach(f)
    xs = list(range(
        _as_int((tr.horizon.lo - past) * scale),
        _as_int((tr.horizon.hi + future) * scale) + 1,
    ))
    root = _reference_truth_arrays(f, tr, xs, scale)[-1]
    expected = [False] * len(xs)
    for p in truth.parts:
        left = (bisect_left if p.lo_closed else bisect_right)(xs, _as_int(p.lo * scale))
        right = (bisect_right if p.hi_closed else bisect_left)(xs, _as_int(p.hi * scale))
        expected[left:right] = [True] * (right - left)
    lo, hi = _as_int(region.lo * scale), _as_int(region.hi * scale)
    differ = [x for x, a, b in zip(xs, root, expected) if lo <= x <= hi and a != b]
    return F(differ[0], scale) if differ else None


def _atom(x: F, scale: int) -> int:
    """The atom code of the point x at scale: 2k for the point k/scale,
    2k + 1 for the open gap (k/scale, (k + 1)/scale)."""
    k = x * scale
    return 2 * k.numerator if k.denominator == 1 else 2 * math.floor(k) + 1


def _bools(bits: int, n: int) -> list[bool]:
    """The bitset bits as n bools, index i from bit i."""
    return [(bits >> i) & 1 == 1 for i in range(n)]


def _bits(row) -> int:
    """The bool row as a bitset, bit i from index i."""
    return sum(1 << i for i, v in enumerate(row) if v)


def _oracle_truth_arrays(f, tr: Trace, xs, scale: int) -> list:
    table = _TruthTable(tr, xs, scale)
    arrays: list = []

    def step(node, kids):
        arrays.append(_ARRAYS[type(node)](table, node, kids))
        return arrays[-1]

    fold(f, step)
    return [_bools(bits, table.n) for bits in arrays]


# ----------------------------------------------------------------- fixtures


def small_formulas():
    bound = st.builds(
        lambda a, b: Bound(min(a, b), max(a, b)),
        st.builds(F, st.integers(0, 4), st.sampled_from((1, 2))),
        st.builds(F, st.integers(0, 4), st.sampled_from((1, 2))),
    )
    leaves = st.one_of(
        st.builds(Pred, st.sampled_from(("p", "q"))),
        st.just(Top()),
    )

    def extend(children):
        return st.one_of(
            st.builds(And, children, children),
            st.builds(Not, children),
            st.builds(BoxPlus, bound, children),
            st.builds(BoxMinus, bound, children),
            st.builds(DiaPlus, bound, children),
            st.builds(DiaMinus, bound, children),
            st.builds(Since, children, bound, children),
            st.builds(Until, children, bound, children),
        )

    return st.recursive(leaves, extend, max_leaves=4)


@st.composite
def small_traces(draw):
    width = draw(st.integers(min_value=2, max_value=6))
    lo = F(draw(st.integers(min_value=-3, max_value=0)))
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        name = draw(st.sampled_from(("p", "q")))
        a = draw(st.integers(0, 2 * width))
        b = draw(st.integers(a, 2 * width))
        facts.append(Fact(name, Interval(lo + F(a, 2), lo + F(b, 2))))
    return Trace(Interval(lo, lo + width), tuple(facts))


class TestFrozenValues:
    def test_witness_inside_window(self, simple_trace):
        f = DiaMinus(Bound(F(1), F(2)), Pred("p"))
        assert oracle_eval_many(f, simple_trace, [F(6)])[0] is True
        assert oracle_eval_many(f, simple_trace, [F(13, 2)])[0] is False

    def test_universal_window_hits_horizon_edge(self):
        tr = Trace(Interval(F(0), F(10)), ())
        f = BoxPlus(Bound(F(0), F(2)), Top())
        assert oracle_eval_many(f, tr, [F(8)])[0] is True
        assert oracle_eval_many(f, tr, [F(9)])[0] is False

    def test_point_outside_horizon_rejected(self, simple_trace):
        with pytest.raises(PointOutsideHorizonError):
            oracle_eval_many(Pred("p"), simple_trace, [F(16)])

    def test_many_matches_single(self, simple_trace):
        f = Until(Pred("p"), Bound(F(1), F(2)), Pred("q"))
        pts = [F(0), F(1), F(3, 2), F(3), F(4)]
        assert oracle_eval_many(f, simple_trace, pts) == [
            oracle_eval_many(f, simple_trace, [p])[0] for p in pts
        ]


class TestFirstDifference:
    """oracle_first_difference on simple_trace: p holds on [0,4]."""

    def first_difference(self, trace, f, parts, region=Interval(F(-5), F(15))):
        return oracle_first_difference(f, trace, coalesce(parts), region)

    def test_agreeing_truth_gives_none(self, simple_trace):
        assert self.first_difference(simple_trace, Pred("p"), [Interval(0, 4)]) is None

    def test_closed_end_flipped_to_open_gives_that_end(self, simple_trace):
        f = DiaMinus(Bound(F(1), F(2)), Pred("p"))  # true on [1,6]
        assert self.first_difference(simple_trace, f, [Interval(1, 6)]) is None
        assert self.first_difference(simple_trace, f, [Interval(1, 6, True, False)]) == 6
        assert self.first_difference(simple_trace, f, [Interval(1, 6, False, True)]) == 1

    def test_extra_isolated_point_gives_that_point(self, simple_trace):
        parts = [Interval(0, 4), Interval(F(15, 2), F(15, 2))]
        assert self.first_difference(simple_trace, Pred("p"), parts) == F(15, 2)

    def test_truth_ends_off_the_formula_lattice_are_differences(self, simple_trace):
        # the grid takes the 1/7 ends in, so they are compared, not refused
        too_long = [Interval(0, F(29, 7))]
        too_short = [Interval(0, F(27, 7))]
        assert self.first_difference(simple_trace, Pred("p"), too_long) == F(57, 14)
        assert self.first_difference(simple_trace, Pred("p"), too_short) == F(55, 14)

    def test_region_ends_off_the_formula_lattice(self, simple_trace):
        region = Interval(F(1, 3), F(13, 3))
        parts = [Interval(F(1, 3), 4)]
        assert self.first_difference(simple_trace, Pred("p"), parts, region) is None
        parts = [Interval(F(1, 3), F(13, 3))]
        assert self.first_difference(simple_trace, Pred("p"), parts, region) == F(25, 6)

    def test_a_missing_open_gap_is_a_difference(self):
        # f is true on the open gap (4,5) alone: no integer lies in it,
        # but its midpoint is on the half-step grid
        tr = Trace(Interval(F(-5), F(15)),
                   (Fact("p", Interval(F(0), F(4))), Fact("q", Interval(F(5), F(6)))))
        f = And(And(Not(Pred("p")), Not(Pred("q"))), DiaMinus(Bound(F(0), F(1)), Pred("p")))
        gap = [Interval(4, 5, False, False)]
        assert self.first_difference(tr, f, gap) is None
        assert 4 < self.first_difference(tr, f, []) < 5

    def test_truth_parts_past_the_padded_grid(self, simple_trace):
        # p has reach 0, so the grid is the region [5,15] itself: parts
        # wholly before it, across either end and wholly after it
        region = Interval(5, 15)
        before = Interval(-5, F(1, 2))
        assert self.first_difference(simple_trace, Pred("p"), [before], region) is None
        assert self.first_difference(simple_trace, Pred("p"), [Interval(-5, 6)], region) == 5
        across_hi = [Interval(F(29, 2), 20)]
        assert self.first_difference(simple_trace, Pred("p"), across_hi, region) == F(29, 2)
        assert self.first_difference(simple_trace, Pred("p"), [Interval(16, 20)], region) is None
        whole = [Interval(-9, 20)]
        assert self.first_difference(simple_trace, Pred("p"), whole, region) == 5

    def test_only_the_region_is_compared(self, simple_trace):
        parts = [Interval(0, 4, True, False)]
        assert self.first_difference(simple_trace, Pred("p"), parts, Interval(2, 3)) is None
        assert self.first_difference(simple_trace, Pred("p"), [], Interval(5, 15)) is None
        assert self.first_difference(simple_trace, Pred("p"), [], Interval(4, 15)) == 4

    def test_region_outside_horizon_rejected(self, simple_trace):
        with pytest.raises(PointOutsideHorizonError):
            self.first_difference(simple_trace, Pred("p"), [], Interval(0, 16))

    @settings(max_examples=400, deadline=None)
    @given(formulas_st(allow_not=True), traces_st())
    def test_evaluator_agrees_on_the_whole_region(self, f, tr):
        region = reliable_region(f, tr)
        if region is None:
            return
        truth = eval_truth_set(f, tr, region)
        assert oracle_first_difference(f, tr, truth, region) is None

    @settings(max_examples=500, deadline=None)
    @given(formulas_st(allow_not=True), traces_st(), st.data())
    def test_perturbed_truths_match_the_quarter_step_reference(self, f, tr, data):
        # the evaluator's truth with one end's closedness flipped or one
        # part dropped; a dropped open gap (k/L, (k+1)/L) holds no point
        # of a 1/L grid, so only a grid with gap midpoints sees it
        region = reliable_region(f, tr)
        if region is None:
            return
        parts = list(eval_truth_set(f, tr, region).parts)
        if parts:
            i = data.draw(st.integers(0, len(parts) - 1))
            p = parts.pop(i)
            move = data.draw(st.sampled_from(("drop", "flip lo", "flip hi")))
            if move != "drop" and p.lo < p.hi:  # a flipped singleton is empty
                flip_lo = move == "flip lo"
                parts.append(Interval(
                    p.lo, p.hi, p.lo_closed ^ flip_lo, p.hi_closed ^ (not flip_lo)))
        truth = coalesce(parts)
        got = oracle_first_difference(f, tr, truth, region)
        want = _reference_first_difference(f, tr, truth, region)
        if want is None:
            assert got is None
        else:
            ends = [region.lo, region.hi, *(x for p in truth.parts for x in (p.lo, p.hi))]
            scale = _grid_denominator(f, tr, ends)
            assert got is not None and _atom(got, scale) == _atom(want, scale)

    def test_queries_on_a_parsed_trace_build_no_fact(self, monkeypatch):
        tr = parse_trace("horizon [-2,9]\np @ [0,3/2]\nq @ [1,4]\np @ [5,8]\n")
        built = []
        monkeypatch.setattr(Fact, "__post_init__", lambda fact: built.append(fact))
        f = Since(Pred("p"), Bound(F(0), F(2)), Not(Pred("q")))
        truth = coalesce([Interval(0, 1), Interval(5, 8)])
        oracle_first_difference(f, tr, truth, Interval(F(1, 3), 7))
        oracle_eval_many(f, tr, [F(-2), F(1, 2), F(6), F(9)])
        assert built == []


class TestAgainstNaiveReference:
    @settings(max_examples=150, deadline=None)
    @given(small_formulas(), small_traces(), st.data())
    def test_vectorized_matches_naive(self, f, tr, data):
        numer = data.draw(
            st.integers(
                min_value=int(tr.horizon.lo * 2), max_value=int(tr.horizon.hi * 2)
            )
        )
        t = F(numer, 2)
        assert oracle_eval_many(f, tr, [t])[0] == naive_eval(f, tr, t)

    @settings(max_examples=80, deadline=None)
    @given(small_formulas(), small_traces(), st.data())
    def test_oracle_matches_evaluator(self, f, tr, data):
        numer = data.draw(
            st.integers(
                min_value=int(tr.horizon.lo * 4), max_value=int(tr.horizon.hi * 4)
            )
        )
        t = F(numer, 4)
        assert oracle_eval_many(f, tr, [t])[0] == eval_truth_set(f, tr).contains_point(t)


def _bool_rows(n: int):
    return st.lists(st.booleans(), min_size=n, max_size=n)


@st.composite
def grid_kernels(draw):
    """A grid of n consecutive integers starting at lo, operand rows on
    it, and an integer bound whose windows may reach past both ends."""
    n = draw(st.integers(min_value=1, max_value=30))
    lo = draw(st.integers(min_value=-20, max_value=20))
    holds = draw(
        st.one_of(
            _bool_rows(n),
            st.just([True] * n),
            st.just([False] * n),
        )
    )
    witness = draw(_bool_rows(n))
    a = draw(st.integers(min_value=0, max_value=n + 3))
    b = draw(st.one_of(st.just(a), st.integers(min_value=0, max_value=n + 3)))
    bound = Bound(F(min(a, b)), F(max(a, b)))
    return lo, n, holds, witness, bound


def _unit_table(lo: int, n: int):
    xs = list(range(lo, lo + n))
    # the kernels never read the horizon; it only has to be valid
    tr = Trace(Interval(F(lo), F(lo + n)), ())
    return xs, _TruthTable(tr, range(lo, lo + n), 1)


def _assert_kernels_match(lo, n, holds, witness, bound):
    xs, table = _unit_table(lo, n)
    for past in (True, False):
        for universal in (True, False):
            assert _bools(table.window_quantifier(
                DiaPlus(bound, Pred("p")), [_bits(witness)], past, universal
            ), n) == _reference_window_quantifier(xs, 1, bound, witness, past, universal)
        assert _bools(table.witness_scan(
            Since(Pred("p"), bound, Pred("q")), [_bits(holds), _bits(witness)], past
        ), n) == _reference_witness_scan(xs, 1, bound, holds, witness, past)


class TestKernelsAgainstBinarySearch:
    @settings(max_examples=300, deadline=None)
    @given(grid_kernels())
    @example((0, 1, [True], [True], Bound(F(0), F(0))))
    @example((-3, 5, [False] * 5, [True] * 5, Bound(F(2), F(2))))
    @example((4, 6, [True] * 6, [False] * 6, Bound(F(7), F(9))))
    def test_kernels_match_reference_on_whole_arrays(self, case):
        _assert_kernels_match(*case)

    @pytest.mark.parametrize(
        "a, b",
        [
            (0, 11),  # a window wider than 2n, 12 points on a 5-point grid
            (3, 11),
            (5, 5),  # windows wholly past either end: b1 = n
            (5, 9),
            (8, 20),
            (0, 0),  # b1 = 0
            (0, 3),
            (0, 4),
            (2, 2),  # b1 = b2
            (4, 4),
        ],
    )
    @pytest.mark.parametrize("holds", ["all-true", "mixed"])
    def test_bound_edge_cases(self, a, b, holds):
        rows = {"all-true": [1, 1, 1, 1, 1], "mixed": [1, 1, 0, 1, 1]}
        for witness in ([0, 1, 0, 0, 1], [1, 0, 0, 0, 0], [1, 1, 1, 1, 1]):
            _assert_kernels_match(
                -2, 5, [v == 1 for v in rows[holds]], [v == 1 for v in witness],
                Bound(F(a), F(b)))

    @pytest.mark.parametrize(
        "a, b", [(0, 0), (2, 2), (2, 4), (0, 8), (0, 9), (10, 12)]
    )
    @pytest.mark.parametrize("holds", ["all-true", "all-false", "alternating"])
    def test_single_witness_at_every_position(self, a, b, holds):
        n = 9
        rows = {
            "all-true": [True] * n,
            "all-false": [False] * n,
            "alternating": [i % 2 == 0 for i in range(n)],
        }
        for j in range(n):
            # anchors i = j + a and j + b (or j - a, j - b) put the
            # witness exactly on an edge of i's window
            witness = [i == j for i in range(n)]
            _assert_kernels_match(-4, n, rows[holds], witness, Bound(F(a), F(b)))

    @settings(max_examples=150, deadline=None)
    @given(small_formulas(), small_traces(), st.sampled_from((1, 3)))
    def test_truth_arrays_match_reference(self, f, tr, refine):
        scale = 4 * refine * _grid_denominator(f, tr, [])
        past, future = reference_reach(f)
        grid = _sample_grid(tr.horizon.lo - past, tr.horizon.hi + future, scale)
        new = _oracle_truth_arrays(f, tr, grid, scale)
        ref = _reference_truth_arrays(f, tr, list(grid), scale)
        assert len(new) == len(ref)
        for a, b in zip(new, ref):
            assert a == b


class TestSpanMasks:
    """_TruthTable's bits from the trace's int spans against masks built
    from tr.facts, on grids that crop the horizon and grids that pad it."""

    TRACE = (
        "horizon [-3,6]\n"
        "p @ [-3,-5/2]\n"  # wholly before the cropped grid
        "p @ [-2,1/4]\n"  # across the cropped grid's left end
        "p @ [1/2,1/2]\n"
        "p @ [1,3/2]\n"
        "p @ [5/4,2]\n"  # overlaps the fact before
        "q @ [3,6]\n"  # across the cropped grid's right end
        "q @ [11/2,6]\n"  # wholly after the cropped grid
    )

    @pytest.mark.parametrize("factor", [2, 6, 12])
    @pytest.mark.parametrize("lo, hi", [(F(-1), F(4)), (F(-7, 2), F(13, 2)), (F(-3), F(6))])
    def test_span_masks_equal_fact_masks(self, factor, lo, hi):
        tr = parse_trace(self.TRACE)
        assert tr.scale == 4
        scale = factor * tr.scale
        xs = list(range(_as_int(lo * scale), _as_int(hi * scale) + 1))
        table = _TruthTable(tr, xs, scale)
        for name in ("p", "q", "r"):
            assert _bools(table.predicate(Pred(name), []), len(xs)) == _reference_fact_mask(
                tr, name, xs, scale)
        horizon = _reference_span_mask(xs, tr.horizon, scale)
        assert _bools(table.horizon_mask, len(xs)) == horizon


class TestGridLimits:
    def test_sample_grid_is_a_sized_run_of_scaled_values(self):
        grid = _sample_grid(F(-2), F(2), 4)
        assert len(grid) == 17
        assert (grid[0], grid[-1]) == (-8, 8)

    def test_too_fine_grid_raises_oracle_grid_error(self):
        tr = Trace(Interval(F(0), F(100)), ())
        f = DiaPlus(Bound(F(0), F(1, 1_000_003)), Top())
        with pytest.raises(OracleGridError) as info:
            oracle_eval_many(f, tr, [F(1)])
        assert isinstance(info.value, BmtlError)
        assert isinstance(info.value, MemoryError)
        assert info.value.code == "ORACLE_GRID_TOO_FINE"

    def test_grid_ends_past_the_int64_range_agree_with_the_evaluator(self):
        # a tiny grid whose scaled ends pass 2**62: grid indices count
        # from the grid's low end, so only their number matters
        base = F(2**61)
        tr = Trace(Interval(base, base + 2), (Fact("p", Interval(base, base + F(1, 2))),))
        f = Since(Top(), Bound(F(0), F(1)), Pred("p"))
        truth = eval_truth_set(f, tr)
        pts = [base + F(k, 4) for k in range(9)]
        assert oracle_eval_many(f, tr, pts) == [truth.contains_point(p) for p in pts]
        assert oracle_eval_many(f, tr, pts) == [True] * 7 + [False] * 2
        region = reliable_region(f, tr)
        assert oracle_first_difference(f, tr, eval_truth_set(f, tr, region), region) is None

    def test_truth_ends_too_fine_for_the_grid_raise_oracle_grid_error(self):
        tr = Trace(Interval(F(0), F(100)), ())
        truth = coalesce([Interval(1, 1 + F(1, 1_000_003))])
        with pytest.raises(OracleGridError) as info:
            oracle_first_difference(Pred("p"), tr, truth, tr.horizon)
        assert info.value.code == "ORACLE_GRID_TOO_FINE"


class TestSharedSubtrees:
    def test_oracle_query_on_a_deep_mitl_chain_is_fast(self):
        # the mitl box rule shares the box body between two branches, so
        # this formula has 2**16 root-to-leaf paths but few distinct nodes
        f = Pred("p")
        for _ in range(16):
            f = BoxPlus(Bound(F(1), F(2)), f)
        g = normalize(f, SingletonFree(F(1, 2), F(1, 2))).output
        tr = Trace(
            Interval(F(0), F(10)),
            (Fact("p", Interval(F(1), F(3))), Fact("p", Interval(F(4), F(9)))),
        )
        times = []
        for _ in range(3):
            start = time.perf_counter()
            oracle_eval_many(g, tr, [F(5)])
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1, times
