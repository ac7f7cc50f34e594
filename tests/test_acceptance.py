"""Acceptance gate: the eight checks this package must pass.

Each test runs one criterion end to end and prints a single
[PASS]/[FAIL] line with its measured numbers, bypassing pytest's
capture so the verdicts always appear in the run log.  A criterion
fails loudly via assert; nothing here loosens a threshold to get green.
"""

import random
import time
from fractions import Fraction as F

import pytest

from bmtl.evaluate import eval_truth_set, reliable_region
from bmtl.harness import GenConfig, gen_formula, gen_trace, run_campaign
from bmtl.intervals import Interval, IntervalSet, coalesce
from bmtl.oracle import oracle_eval_many
from bmtl.rewrite import Punctual, SingletonFree, normalize, rewrite_diamond
from bmtl.syntax import (
    And,
    Bound,
    BoxPlus,
    DiaMinus,
    DiaPlus,
    Not,
    Since,
    Top,
    Until,
    census,
    print_formula,
)
from conftest import complement, corrupt_punctual_box, intersect, shifted, union
from gridcheck import exists_in_window, forall_in_window, members, padded_grid

CAMPAIGN_BUDGET_S = 120.0
CORE_OPS = {"pred", "top", "and", "since", "until"}


@pytest.fixture
def announce(capsys):
    def _announce(name: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _announce


def test_c1_punctual_campaign(announce):
    cfg = GenConfig(seed=42, trials=1000)
    report = run_campaign(cfg, Punctual())
    ok = (
        not report.failures
        and report.wall_time_s < CAMPAIGN_BUDGET_S
        and report.trials + report.empty_regions == 1000
    )
    announce(
        "C1 punctual equivalence campaign",
        ok,
        f"{report.passes}/{report.trials} trials passed, "
        f"{len(report.failures)} failures, {report.empty_regions} empty regions, "
        f"{report.wall_time_s:.1f}s (budget {CAMPAIGN_BUDGET_S:.0f}s)",
    )


def test_c2_singleton_free_campaign_and_slack_independence(announce):
    cfg = GenConfig(seed=42, trials=1000)
    report = run_campaign(cfg, SingletonFree())
    slack_reports = [
        run_campaign(GenConfig(seed=7, trials=100), SingletonFree(kappa, lam))
        for kappa, lam in ((F(2), F(1, 2)), (F(1, 4), F(3)))
    ]
    ok = (
        not report.failures
        and report.wall_time_s < CAMPAIGN_BUDGET_S
        and all(not r.failures and r.trials > 0 for r in slack_reports)
    )
    announce(
        "C2 singleton-free campaign + slack independence",
        ok,
        f"{report.passes}/{report.trials} trials passed "
        f"({report.empty_regions} empty, {report.wall_time_s:.1f}s); "
        f"fixed-slack reruns {[r.passes for r in slack_reports]} passes, "
        f"{[len(r.failures) for r in slack_reports]} failures",
    )


def test_c3_diamond_rewrite_pairs(announce):
    cfg = GenConfig(seed=1042)
    rng = random.Random(1042)
    compared = equal = 0
    for i in range(500):
        body = gen_formula(cfg, i)
        d = rng.choice((1, 2, 3, 4))
        bound_parts = sorted(F(rng.randint(0, 4 * d), d) for _ in range(2))
        bound = Bound(bound_parts[0], bound_parts[1])
        dia = (DiaPlus if rng.random() < 0.5 else DiaMinus)(bound, body)
        rewritten = rewrite_diamond(dia)
        assert isinstance(rewritten, (Since, Until))
        tr = gen_trace(cfg, i)
        region = reliable_region(And(dia, rewritten), tr)
        if region is None:
            continue
        compared += 1
        if eval_truth_set(dia, tr, region) == eval_truth_set(rewritten, tr, region):
            equal += 1
    ok = compared >= 450 and equal == compared
    announce(
        "C3 diamond elimination pairs",
        ok,
        f"{equal}/{compared} pairs agree inside the reliable region "
        f"({500 - compared} empty-region trials skipped)",
    )


def test_c4_golden_zero_lower_box_identity(announce):
    checked = equal = 0
    for idx, width in enumerate((F(1), F(3, 2), F(2))):
        cfg = GenConfig(seed=4000 + idx, max_depth=2)
        for k in range(20):
            body = gen_formula(cfg, k)
            boxed = BoxPlus(Bound(F(0), width), body)
            unrolled = Until(body, Bound(width, width), Top())
            tr = gen_trace(cfg, k)
            region = reliable_region(And(boxed, unrolled), tr)
            if region is None:
                continue
            checked += 1
            if eval_truth_set(boxed, tr, region) == eval_truth_set(unrolled, tr, region):
                equal += 1
    ok = checked >= 55 and equal == checked
    announce(
        "C4 golden window-hold identity",
        ok,
        f"{equal}/{checked} trace comparisons agree across widths 1, 3/2, 2",
    )


def test_c5_census_guarantees(announce):
    punctual_ok = 0
    for i in range(500):
        f = gen_formula(GenConfig(seed=5001), i)
        out = normalize(f, Punctual()).output
        if set(census(out).counts) <= CORE_OPS:
            punctual_ok += 1
    mitl_ok = 0
    for i in range(500):
        f = gen_formula(
            GenConfig(seed=5002), i, box_bounds="mitl", singleton_free=True
        )
        c_in = census(f)
        out = normalize(f, SingletonFree()).output
        c_out = census(out)
        if (
            not c_in.has_singleton_bound
            and not c_out.has_singleton_bound
            and set(c_out.counts) <= CORE_OPS
        ):
            mitl_ok += 1
    ok = punctual_ok == 500 and mitl_ok == 500
    announce(
        "C5 structural guarantees after normalization",
        ok,
        f"punctual core-only {punctual_ok}/500; "
        f"singleton-free preserved {mitl_ok}/500",
    )


def test_c6_evaluator_vs_oracle(announce):
    cfg = GenConfig(seed=6006)
    rng = random.Random(6006)
    agreements = total = 0
    for i in range(500):
        f = gen_formula(cfg, i)
        if i % 3 == 1:
            f = Not(f)
        tr = gen_trace(cfg, i)
        lo_i = int(tr.horizon.lo * 24)
        hi_i = int(tr.horizon.hi * 24)
        points = [F(rng.randint(lo_i, hi_i), 24) for _ in range(50)]
        truth = eval_truth_set(f, tr)
        got = oracle_eval_many(f, tr, points)
        for pt, o in zip(points, got):
            total += 1
            if o == truth.contains_point(pt):
                agreements += 1
    ok = total == 25000 and agreements == total
    announce(
        "C6 evaluator vs pointwise oracle",
        ok,
        f"{agreements}/{total} sampled points agree (100% required)",
    )


def _random_interval_set(rng: random.Random) -> IntervalSet:
    parts = []
    for _ in range(rng.randint(0, 4)):
        d = rng.choice((1, 2, 3, 4))
        a = F(rng.randint(-32, 32), d)
        b = F(rng.randint(-32, 32), d)
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            parts.append(Interval(lo, hi))
        else:
            parts.append(
                Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
            )
    return coalesce(parts)


def _random_bound_pair(rng: random.Random):
    d = rng.choice((1, 2, 3, 4))
    a = F(rng.randint(0, 12), d)
    b = F(rng.randint(0, 12), d)
    return min(a, b), max(a, b)


def test_c7_interval_algebra_against_lattice(announce):
    rng = random.Random(7007)
    cases_per_property = 200
    failures = []

    def run_property(name, check):
        bad = 0
        for _ in range(cases_per_property):
            if not check():
                bad += 1
        if bad:
            failures.append(f"{name}: {bad}")

    def check_intersect():
        s1, s2 = _random_interval_set(rng), _random_interval_set(rng)
        got = intersect(s1, s2)
        pts = padded_grid([s1, s2, got], [], F(1))
        return members(got, pts) == [a and b for a, b in zip(members(s1, pts), members(s2, pts))]

    def check_union():
        s1, s2 = _random_interval_set(rng), _random_interval_set(rng)
        got = union(s1, s2)
        pts = padded_grid([s1, s2, got], [], F(1))
        return members(got, pts) == [a or b for a, b in zip(members(s1, pts), members(s2, pts))]

    def check_complement():
        s = _random_interval_set(rng)
        lo, hi = _random_bound_pair(rng)
        universe = Interval(-hi - 9, hi + 9)
        clipped = intersect(s, IntervalSet((universe,)))
        got = complement(clipped, universe)
        pts = padded_grid([clipped, got], [universe.lo, universe.hi], F(1))
        return members(got, pts) == [
            u and not c for u, c in zip(members([universe], pts), members(clipped, pts))
        ]

    def check_dilate():
        s = _random_interval_set(rng)
        lo, hi = _random_bound_pair(rng)
        got = shifted(s, lo, hi)
        pts = padded_grid([s, got], [], hi + 1)
        return members(got, pts) == exists_in_window(s, pts, -hi, -lo)

    def check_erode_past():
        s = _random_interval_set(rng)
        lo, hi = _random_bound_pair(rng)
        got = shifted(s, hi, lo)
        pts = padded_grid([s, got], [], hi + 1)
        return members(got, pts) == forall_in_window(s, pts, -hi, -lo)

    def check_erode_future():
        s = _random_interval_set(rng)
        lo, hi = _random_bound_pair(rng)
        got = shifted(s, -lo, -hi)
        pts = padded_grid([s, got], [], hi + 1)
        return members(got, pts) == forall_in_window(s, pts, lo, hi)

    def check_coalesce():
        raw = []
        for _ in range(rng.randint(0, 5)):
            d = rng.choice((1, 2, 4))
            a = F(rng.randint(-24, 24), d)
            b = F(rng.randint(-24, 24), d)
            lo, hi = min(a, b), max(a, b)
            closed = lo == hi
            raw.append(
                Interval(
                    lo,
                    hi,
                    closed or rng.random() < 0.5,
                    closed or rng.random() < 0.5,
                )
            )
        got = coalesce(raw)
        pts = padded_grid([got] + [IntervalSet((p,)) for p in raw], [], F(1))
        return members(got, pts) == members(raw, pts)

    t0 = time.monotonic()
    run_property("intersect", check_intersect)
    run_property("union", check_union)
    run_property("complement", check_complement)
    run_property("dilate", check_dilate)
    run_property("erode-past", check_erode_past)
    run_property("erode-future", check_erode_future)
    run_property("coalesce", check_coalesce)
    elapsed = time.monotonic() - t0
    ok = not failures
    announce(
        "C7 interval algebra vs quarter-step lattice",
        ok,
        f"7 properties x {cases_per_property} cases, "
        + ("all agree" if ok else f"failures {failures}")
        + f", {elapsed:.1f}s",
    )


def test_c8_mutation_sentinel(announce, monkeypatch):
    with monkeypatch.context() as patch:
        corrupt_punctual_box(patch)
        corrupted = run_campaign(GenConfig(seed=42, trials=100), Punctual())
    clean = run_campaign(GenConfig(seed=42, trials=100), Punctual())
    detected = len(corrupted.failures)
    ok = detected >= 1 and not clean.failures
    first = (
        print_formula_first(corrupted) if detected else "none"
    )
    announce(
        "C8 seeded-defect detection",
        ok,
        f"corrupted rewrite caught in {detected}/100 trials "
        f"(first witness formula: {first}); clean rerun {clean.passes}/100",
    )


def print_formula_first(report) -> str:
    return report.failures[0].formula
