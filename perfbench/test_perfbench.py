"""Tests of the benchmark's own code: seeded inputs and tracer arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
from tracing import Tracer, installed  # noqa: E402
from workloads import CAMPAIGN_REQUESTS  # noqa: E402


def _campaign_seeds(seed: int) -> list[int]:
    return [inputs.campaign_seed(seed, i) for i in range(CAMPAIGN_REQUESTS)]


def test_same_seed_gives_identical_inputs():
    assert inputs.eval_mix(7) == inputs.eval_mix(7)
    assert _campaign_seeds(7) == _campaign_seeds(7)


def test_different_seeds_give_different_inputs():
    a, b = inputs.eval_mix(7), inputs.eval_mix(8)
    assert all(x.trace != y.trace for x, y in zip(a, b))
    assert [r.formula for r in a] != [r.formula for r in b]
    assert not set(_campaign_seeds(7)) & set(_campaign_seeds(8))


def test_eval_mix_covers_every_family_and_size():
    requests = inputs.eval_mix(1)
    assert [(r.family, r.facts) for r in requests] == [
        (f, n) for f, sizes in inputs.FAMILY_SIZES.items() for n in sizes]
    for r in requests:
        has_since_until = " S[" in r.formula or " U[" in r.formula
        assert has_since_until == (r.family == "since_until")


def test_generated_inputs_parse_with_disjoint_facts():
    from bmtl.parser import parse_formula
    from bmtl.traces import parse_trace

    for r in inputs.eval_mix(3)[:3]:
        parse_formula(r.formula)
        tr = parse_trace(r.trace)
        for name in inputs.PREDICATES:
            assert len(tr.truth_base(name).parts) == r.facts


class _Clock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1
        return self.now


def test_self_time_of_nested_calls():
    toy = types.ModuleType("toy")
    toy.inner = lambda: None

    def outer():
        toy.inner()
        toy.inner()

    toy.outer = outer
    tracer = Tracer(clock=_Clock())
    toy.outer = tracer.wrap("outer", toy.outer)
    toy.inner = tracer.wrap("inner", toy.inner)
    toy.outer()
    # clock reads: outer starts 0; inner 1-2; inner 3-4; outer ends 5
    assert [s[2:] for s in tracer.spans] == [[0, 5], [1, 2], [3, 4]]
    assert tracer.self_times() == [3, 1, 1]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 5, "self_s": 3}
    assert summary["inner"] == {"calls": 2, "total_s": 2, "self_s": 2}
    assert tracer.root_seconds() == 5


def test_self_time_excludes_grandchildren_only_once():
    tracer = Tracer(clock=_Clock())
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    # a 0-5, b 1-4, c 2-3
    assert tracer.self_times() == [2, 2, 1]


def test_installed_wraps_every_binding_and_restores():
    import bmtl.evaluate
    import bmtl.harness
    from layers import LAYERS

    original = bmtl.evaluate.eval_truth_set
    tracer = Tracer()
    with installed(tracer, LAYERS):
        assert bmtl.harness.eval_truth_set is bmtl.evaluate.eval_truth_set
        assert bmtl.harness.eval_truth_set.__wrapped__ is original
    assert bmtl.harness.eval_truth_set is original
    assert bmtl.evaluate.eval_truth_set is original
