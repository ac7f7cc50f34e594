"""Campaign harness: determinism, generators, verdicts, accounting."""

import gc
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import bmtl.evaluate as evaluate_module
import bmtl.harness as harness_module
import bmtl.oracle as oracle_module
import bmtl.rewrite as rewrite_module
import bmtl.syntax as syntax_module
from bmtl.errors import ConfigError
from bmtl.harness import (
    MAX_DEPTH_CAP,
    GenConfig,
    check_equivalence,
    gen_formula,
    gen_trace,
    run_campaign,
)
from bmtl.evaluate import eval_truth_set
from bmtl.intervals import Interval, from_interval, fuse_runs
from bmtl.parser import parse_formula
from bmtl.rewrite import Punctual, SingletonFree
from bmtl.syntax import (
    Bound,
    BoxMinus,
    BoxPlus,
    DiaMinus,
    Not,
    Pred,
    Top,
    census,
    is_negation_free,
    print_formula,
)
from bmtl.traces import Fact, Trace
from conftest import (
    complement,
    corrupt_punctual_box,
    formulas_st,
    intersect,
    preorder_bounds,
    traces_st,
    union,
)

RULES_AS_SHIPPED = dict(rewrite_module.RULES)


def _json_without_time(report) -> str:
    payload = report.to_json()
    payload.pop("wall_time_s")
    return json.dumps(payload, sort_keys=False)


def _reference_gen_trace(cfg: GenConfig, stream_index: int) -> Trace:
    """gen_trace as it was before it drew straight into integer time: the
    same draws, each fact built as a Fact with Fraction ends and checked
    by Trace()."""
    rng = harness_module._stream(cfg.seed, harness_module._TAG_TRACE, stream_index)
    half = cfg.horizon_length / 2
    horizon = Interval(-half, half)
    facts = []
    for _ in range(cfg.facts_per_trace):
        name = rng.choice(cfg.predicate_pool)
        d = rng.randint(1, cfg.bound_denominator_max)
        lo_n = -int(half * d)
        hi_n = int(half * d)
        a = rng.randint(lo_n, hi_n)
        b = rng.randint(a, hi_n)
        facts.append(Fact(name, Interval(F(a, d), F(b, d))))
    return Trace(horizon, tuple(facts))


class TestGenerators:
    def test_formula_generation_is_deterministic(self):
        cfg = GenConfig(seed=7)
        assert gen_formula(cfg, 3) == gen_formula(cfg, 3)
        assert gen_trace(cfg, 3) == gen_trace(cfg, 3)

    def test_stream_indices_decorrelate(self):
        cfg = GenConfig(seed=7)
        formulas = {gen_formula(cfg, i) for i in range(12)}
        assert len(formulas) > 1

    def test_seeds_decorrelate(self):
        a = [gen_formula(GenConfig(seed=1), i) for i in range(8)]
        b = [gen_formula(GenConfig(seed=2), i) for i in range(8)]
        assert a != b

    def test_generated_formulas_are_negation_free(self):
        cfg = GenConfig(seed=11)
        for i in range(40):
            assert is_negation_free(gen_formula(cfg, i))

    def test_singleton_free_generation(self):
        cfg = GenConfig(seed=11)
        for i in range(40):
            f = gen_formula(cfg, i, singleton_free=True)
            assert not census(f).has_singleton_bound

    def test_singleton_free_bounds_within_a_small_bound_max(self):
        # bound_max 1/2 leaves a step of 1/d within it from d = 2 on
        cfg = GenConfig(seed=11, bound_max=F(1, 2))
        for i in range(200):
            for b in preorder_bounds(gen_formula(cfg, i, singleton_free=True)):
                assert 0 <= b.lo < b.hi <= F(1, 2), (i, b)

    def test_singleton_free_bounds_without_a_legal_denominator(self):
        # bound_max 1/8 leaves a step of 1/d within it from d = 8 on, past
        # the default bound_denominator_max of 4
        cfg = GenConfig(seed=11, bound_max=F(1, 8))
        refused = 0
        for i in range(200):
            try:
                f = gen_formula(cfg, i, singleton_free=True)
            except ConfigError:
                refused += 1
            else:  # drew no bounded node
                assert preorder_bounds(f) == [], i
        assert refused > 0

    def test_mitl_box_bounds(self):
        cfg = GenConfig(seed=11)
        for i in range(60):
            f = gen_formula(cfg, i, box_bounds="mitl")

            def walk(node):
                if isinstance(node, (BoxPlus, BoxMinus)):
                    b = node.bound
                    assert 0 < b.lo < b.hi <= 3 * b.lo
                from bmtl.syntax import children

                for c in children(node):
                    walk(c)

            walk(f)

    def test_mitl_box_bounds_stay_within_bound_max(self):
        # bound_max 1/2 leaves two steps of 1/d within it at d = 4 only
        cfg = GenConfig(bound_max=F(1, 2), bound_denominator_max=4)
        for i in range(2000):
            b = harness_module._mitl_box_bound(cfg, random.Random(i))
            assert 0 < b.lo < b.hi <= min(3 * b.lo, cfg.bound_max), b

    def test_slacks_stay_within_bound_max(self):
        cfg = GenConfig(bound_max=F(1, 8), bound_denominator_max=8)
        for i in range(1000):
            assert 0 < harness_module._random_slack(cfg, random.Random(i)) <= F(1, 8)

    def test_no_legal_mitl_bound_is_a_config_error(self):
        cfg = GenConfig(bound_max=F(1, 4), bound_denominator_max=4, trials=5)
        with pytest.raises(ConfigError, match="bound_denominator_max"):
            run_campaign(cfg, SingletonFree())
        with pytest.raises(ConfigError):  # at the first box drawn
            for i in range(50):
                gen_formula(cfg, i, box_bounds="mitl")
        # punctual boxes may be singletons, which bound_max 1/4 allows
        report = run_campaign(cfg, Punctual())
        assert report.trials + report.empty_regions == 5

    @pytest.mark.parametrize("name", ["true", "S", "U", "bplus", "p q", "", "1p", "p-q", 1])
    def test_predicate_names_must_print_back(self, name):
        with pytest.raises(ConfigError, match="predicate name"):
            GenConfig(predicate_pool=("p", name))

    def test_generated_formulas_replay_from_their_text(self):
        cfg = GenConfig(seed=5, predicate_pool=("p_1", "Q2", "trueish"))
        for i in range(40):
            f = gen_formula(cfg, i)
            assert parse_formula(print_formula(f)) == f

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_index=st.integers(0, 10**6),
        horizon_length=st.sampled_from((F(40), F(7, 3), F(37, 3), F(1, 5))),
        bound_denominator_max=st.integers(1, 8),
        facts_per_trace=st.integers(0, 12),
    )
    def test_traces_equal_the_fact_built_reference(self, seed, stream_index, **drawn):
        cfg = GenConfig(seed=seed, **drawn)
        want, got = _reference_gen_trace(cfg, stream_index), gen_trace(cfg, stream_index)
        assert got == want
        assert got.scale == want.scale
        for name in (*cfg.predicate_pool, "absent"):
            assert got.spans(name) == want.spans(name)

    def test_traces_fit_horizon(self):
        cfg = GenConfig(seed=11)
        for i in range(20):
            tr = gen_trace(cfg, i)
            assert tr.horizon.width == cfg.horizon_length
            for fact in tr.facts:
                assert tr.horizon.contains_interval(fact.span)


class TestCheckEquivalence:
    def test_identical_formulas_are_equal(self):
        tr = Trace(Interval(F(0), F(10)), (Fact("p", Interval(F(1), F(3))),))
        f = DiaMinus(Bound(F(0), F(1)), Pred("p"))
        verdict = check_equivalence(f, f, tr)
        assert verdict.status == "equal"
        assert verdict.region == Interval(F(1), F(10))

    def test_differing_formulas_yield_witness(self):
        tr = Trace(Interval(F(0), F(10)), (Fact("p", Interval(F(1), F(3))),))
        verdict = check_equivalence(Pred("p"), Top(), tr)
        assert verdict.status == "not_equal"
        assert verdict.witness is not None
        assert verdict.region.contains(verdict.witness)
        # the witness separates the two truth sets
        in_p = eval_truth_set(Pred("p"), tr).contains_point(verdict.witness)
        in_top = eval_truth_set(Top(), tr).contains_point(verdict.witness)
        assert in_p != in_top

    def test_empty_region_reported(self):
        tr = Trace(Interval(F(0), F(2)), ())
        f = DiaMinus(Bound(F(0), F(3)), Pred("p"))
        assert check_equivalence(f, f, tr).status == "empty_region"

    def test_first_diff_under_negation(self):
        tr = Trace(
            Interval(F(0), F(10)),
            (Fact("p", Interval(F(1), F(3))), Fact("q", Interval(F(2), F(5)))),
        )
        # p is [1,3] and !q is [0,2) and (5,10]: they differ on [0,1),
        # [2,3] and (5,10]
        verdict = check_equivalence(Pred("p"), Not(Pred("q")), tr)
        assert verdict.status == "not_equal"
        assert verdict.first_diff == Interval(F(0), F(1), True, False)
        assert verdict.witness == 0

    @settings(max_examples=150)
    @given(
        formulas_st(max_depth=2, allow_not=True),
        formulas_st(max_depth=2, allow_not=True),
        traces_st(),
    )
    def test_first_diff_is_first_part_of_symmetric_difference(self, f1, f2, tr):
        verdict = check_equivalence(f1, f2, tr)
        if verdict.status == "empty_region":
            return
        region = verdict.region
        s1, s2 = verdict.truths
        assert s1 == intersect(eval_truth_set(f1, tr), from_interval(region))
        assert s2 == intersect(eval_truth_set(f2, tr), from_interval(region))
        diff = union(intersect(s1, complement(s2, region)), intersect(s2, complement(s1, region)))
        if verdict.status == "equal":
            assert diff.parts == ()
        else:
            assert verdict.first_diff == diff.parts[0]
            assert verdict.first_diff.contains(verdict.witness)


def open_every_closed_right_end(monkeypatch):
    """Corrupt the evaluator: every fact's closed right end is opened.
    The original and the rewritten formula still agree, so only the
    oracle can tell."""

    def opened(node, kids, t):
        codes = t.base(node.name)
        return fuse_runs(zip(codes[::2], [hi - 1 for hi in codes[1::2]]))

    monkeypatch.setitem(evaluate_module._CLAUSES, Pred, opened)


class TestCampaigns:
    def test_report_is_deterministic(self):
        cfg = GenConfig(seed=9, trials=15)
        a = run_campaign(cfg, Punctual())
        b = run_campaign(cfg, Punctual())
        assert _json_without_time(a) == _json_without_time(b)

    def test_small_punctual_campaign_green(self):
        report = run_campaign(GenConfig(seed=3, trials=20), Punctual())
        assert report.failures == []
        assert report.trials == report.passes
        assert report.trials + report.empty_regions == 20

    def test_small_singleton_free_campaign_green(self):
        report = run_campaign(GenConfig(seed=3, trials=20), SingletonFree())
        assert report.failures == []
        assert report.trials == report.passes

    def test_fixed_slack_campaign_green(self):
        report = run_campaign(GenConfig(seed=3, trials=15), SingletonFree(F(2), F(1, 2)))
        assert report.failures == []

    def test_empty_regions_counted_separately(self):
        cfg = GenConfig(seed=5, trials=30, horizon_length=F(6), bound_max=F(4))
        report = run_campaign(cfg, Punctual())
        assert report.empty_regions > 0
        assert report.trials == report.passes + len(report.failures)
        assert report.trials + report.empty_regions == 30

    def test_campaign_leaves_no_interned_nodes_behind(self):
        gc.collect()
        before = len(syntax_module._UNIQUE)
        run_campaign(GenConfig(seed=9, trials=30), SingletonFree())
        gc.collect()
        assert len(syntax_module._UNIQUE) == before

    def test_report_json_keys_are_stable(self):
        report = run_campaign(GenConfig(seed=3, trials=2), Punctual())
        payload = report.to_json()
        assert list(payload) == [
            "mode",
            "config",
            "trials",
            "passes",
            "failures",
            "empty_regions",
            "wall_time_s",
        ]
        assert list(payload["config"]) == [
            "seed",
            "max_depth",
            "predicate_pool",
            "bound_denominator_max",
            "bound_max",
            "facts_per_trace",
            "horizon_length",
            "trials",
        ]

    def test_fold_budget_per_trial(self, monkeypatch):
        calls = {"eval": 0, "fold": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(
            harness_module, "eval_truth_set", counting("eval", harness_module.eval_truth_set)
        )
        fold = counting("fold", syntax_module.fold)
        for module in (syntax_module, evaluate_module, oracle_module):
            monkeypatch.setattr(module, "fold", fold)
        cfg = GenConfig(seed=5, trials=30, horizon_length=F(6), bound_max=F(4))
        report = run_campaign(cfg, Punctual())
        assert report.trials > 0 and report.empty_regions > 0
        # the oracle checks reuse the truth sets the comparison computed
        assert calls["eval"] == 2 * report.trials
        # one scope fold over the conjunction for the region, which fills
        # the scope slot of both formulas' nodes, so the evaluator's scale
        # and the oracle's grid read it; then per formula the evaluator's
        # and the oracle's fold.  An empty region stops after the first
        assert calls["fold"] == 5 * report.trials + report.empty_regions

    @pytest.mark.parametrize(
        "settings",
        [
            {"trials": -1},
            {"max_depth": -1},
            {"facts_per_trace": -1},
            {"bound_max": 0},
            {"bound_denominator_max": 0},
        ],
    )
    def test_out_of_range_settings_raise_config_error(self, settings):
        with pytest.raises(ConfigError):
            GenConfig(**settings)

    def test_depth_cap(self):
        assert GenConfig(max_depth=MAX_DEPTH_CAP).max_depth == 32
        with pytest.raises(ConfigError, match="at most 32"):
            GenConfig(max_depth=MAX_DEPTH_CAP + 1)

    def test_finer_denominators_keep_the_oracle_grid_in_reach(self):
        # drawing samples from every denominator the settings allow
        # (twice the lcm of 1..13) made the first trial's grid too fine
        cfg = GenConfig(seed=0, trials=3, bound_denominator_max=13)
        report = run_campaign(cfg, Punctual())
        assert (report.trials, report.passes) == (3, 3)

    def test_corrupted_rewrite_is_detected(self, monkeypatch):
        corrupt_punctual_box(monkeypatch)
        report = run_campaign(GenConfig(seed=42, trials=100), Punctual())
        assert len(report.failures) >= 1
        assert all(f.kind in ("mismatch", "oracle_mismatch") for f in report.failures)

    def test_corrupted_evaluator_is_caught_by_the_oracle(self, monkeypatch):
        open_every_closed_right_end(monkeypatch)
        report = run_campaign(GenConfig(seed=42, trials=25), Punctual())
        assert any(f.kind == "oracle_mismatch" for f in report.failures)

    def test_corrupted_evaluator_is_caught_by_the_oracle_in_mitl(self, monkeypatch):
        open_every_closed_right_end(monkeypatch)
        report = run_campaign(GenConfig(seed=42, trials=25), SingletonFree())
        assert any(f.kind == "oracle_mismatch" for f in report.failures)

    def test_clean_after_sentinel_reset(self):
        assert rewrite_module.RULES == RULES_AS_SHIPPED
        report = run_campaign(GenConfig(seed=42, trials=25), Punctual())
        assert report.failures == []
