"""The three workloads: set-up, one request, and the check of a round.

Each workload is a fixed mix of requests generated from the seed at
set-up.  The timed loop runs the whole mix once per round for the
workload's fixed number of ``rounds``, chosen so that they take about
30 of a run's 40 seconds on a 2-CPU machine and a slower commit still
fits; run.py then represents each request by its fastest round.  For
the campaign workloads a request is one ``run_campaign`` call of a
single trial; for eval-large it is one ``bmtl eval``, from trace text to
rendered truth set.

``execute`` returns the request's latency, its result and a rendering
of the output.  The first round is checked in full, outside the timed
region, by ``failures``; every later round must reproduce the first
round's renderings exactly.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import inputs

# Campaign requests per round, one trial each.  Trial costs vary by
# about half their mean, so a few hundred distinct trials keep a seed's
# mean cost, and the latency percentiles over them, within a few percent
# of another seed's.  Requests of ten trials each gave only twenty
# latency samples, whose percentiles moved by a quarter between seeds.
CAMPAIGN_REQUESTS = 300


class Campaign:
    """campaign-punctual and campaign-mitl: seeded ``run_campaign`` calls."""

    def __init__(self, lib, seed: int, mode: str):
        self.lib, self.seed = lib, seed
        rewrite = lib.rewrite
        # SingletonFree() leaves the slacks unset, so each trial draws its own
        self.mode = rewrite.Punctual if mode == "punctual" else rewrite.SingletonFree
        self.rounds = 20 if mode == "punctual" else 13
        self.requests: list = []

    def config(self, index: int, trials: int = 1):
        return self.lib.harness.GenConfig(seed=inputs.campaign_seed(self.seed, index),
                                          trials=trials)

    def setup(self) -> None:
        self.requests = [self.config(i) for i in range(CAMPAIGN_REQUESTS)]
        # warm-up on trials the mix does not hold
        self.lib.harness.run_campaign(self.config(CAMPAIGN_REQUESTS, 20), self.mode())

    @staticmethod
    def ops(cfg) -> int:
        return cfg.trials

    def execute(self, cfg, tracer=None):
        start = perf_counter()
        report = self.lib.harness.run_campaign(cfg, self.mode())
        elapsed = perf_counter() - start
        summary = report.to_json()
        del summary["wall_time_s"]
        return elapsed, report, summary

    def failures(self, results) -> int:
        """Trials of the round that raised or failed; every trial if the
        round compared none, since such a campaign proves nothing.  A
        single trial whose reliable region is empty is skipped, as
        ``run_campaign`` skips it."""
        failed = compared = 0
        for cfg, res in zip(self.requests, results):
            if res is None:
                failed += cfg.trials
            else:
                failed += len(res[1].failures)
                compared += res[1].trials
        return failed if compared else sum(cfg.trials for cfg in self.requests)


class EvalLarge:
    """eval-large: ``bmtl eval`` requests on large traces."""

    rounds = 17

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        self.requests: list[inputs.EvalRequest] = []

    def setup(self) -> None:
        self.requests = inputs.eval_mix(self.seed)
        rng = inputs.stream(self.seed, "warmup")
        text = inputs.trace_text(rng, 64)
        for formula in (inputs.since_until_formula(rng), inputs.window_formula(rng)):
            req = inputs.EvalRequest("warmup", 64, formula, text, "warmup")
            # warms the oracle too
            self.check(req, self.execute(req)[1])

    @staticmethod
    def ops(req) -> int:
        return 1

    def execute(self, req: inputs.EvalRequest, tracer=None):
        """One request, from trace text to rendered truth set, as ``bmtl eval`` does."""
        lib = self.lib
        scope = (tracer.span("eval.request", family=req.family, facts=req.facts)
                 if tracer is not None else contextlib.nullcontext())
        start = perf_counter()
        with scope:
            tr = lib.traces.parse_trace(req.trace)
            formula = lib.parser.parse_formula(req.formula)
            truth = lib.evaluate.eval_truth_set(formula, tr)
            region = lib.evaluate.reliable_region(formula, tr)
            text = f"truth: {truth}\nreliable: {region if region is not None else 'empty'}\n"
        return perf_counter() - start, (tr, formula, truth, region), text

    def failures(self, results) -> int:
        """Requests of the round that raised or disagreed with the oracle."""
        return sum(1 if res is None else self.check(req, res[1])
                   for req, res in zip(self.requests, results))

    def check(self, req: inputs.EvalRequest, result) -> int:
        """0 if the evaluator agrees with the oracle at seeded points of the
        reliable region, else 1."""
        tr, formula, truth, region = result
        if region is None:
            return 1
        points = inputs.probe_points(self.seed, req, region.lo, region.hi)
        expected = self.lib.oracle.oracle_eval_many(formula, tr, points)
        agrees = bool(points) and all(
            truth.contains_point(p) == want for p, want in zip(points, expected))
        if not agrees:
            print(f"perfbench: eval disagrees with the oracle: {req.formula}", flush=True)
        return 0 if agrees else 1


WORKLOADS = {
    "campaign-punctual": lambda lib, seed: Campaign(lib, seed, "punctual"),
    "campaign-mitl": lambda lib, seed: Campaign(lib, seed, "mitl"),
    "eval-large": EvalLarge,
}
