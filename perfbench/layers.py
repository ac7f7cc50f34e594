"""Which library functions the traced run wraps, and the per-layer
metrics derived from its spans and counters.

Every workload reports every per-layer metric; a layer its requests
never reach reads 0.  On eval-large that is the harness, rewrite and
oracle layers (its oracle check runs outside the traced round) and
intervals.contains_point.  On the campaigns it is traces, parser,
intervals.complement_within and evaluate.growth_slope, which needs
since/until requests of several trace sizes.  syntax.print_formula runs
only to report a failing trial, so it reads 0 on a passing run.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from tracing import Tracer


@dataclass(frozen=True)
class Layer:
    """One wrapped function: its span name, where it is defined, and the
    counters its ``count(tracer, args, result)`` hook adds to."""

    name: str
    module: str
    attr: str
    counters: tuple[str, ...] = ()
    count: Optional[Callable] = None
    prepare: Optional[Callable] = None


def _counter(key: str, size: Callable) -> Callable:
    def count(tracer: Tracer, args, result):
        tracer.counters[key] += size(result)
    return count


def _interval_op(name: str) -> Layer:
    """An IntervalSet method, or coalesce, with its parts in and out.

    Parts in are the operand parts (both operands for union and
    intersect, the raw pieces offered for coalesce); parts out are the
    result's parts, or the number of hits for contains_point.
    """
    key = f"intervals.{name}"
    if name in ("union", "intersect"):
        def size_in(args):
            return len(args[0].parts) + len(args[1].parts)
    elif name == "coalesce":
        def size_in(args):
            return len(args[0])
    else:
        def size_in(args):
            return len(args[0].parts)

    def count(tracer: Tracer, args, result):
        tracer.counters[key + ".parts_in"] += size_in(args)
        tracer.counters[key + ".parts_out"] += (
            int(result) if name == "contains_point" else len(result.parts))

    if name == "coalesce":
        # coalesce takes any iterable; materialize it so it can be sized
        return Layer(key, "bmtl.intervals", name, (key + ".parts_in", key + ".parts_out"),
                     count, lambda args: (list(args[0]),) + args[1:])
    return Layer(key, "bmtl.intervals", f"IntervalSet.{name}",
                 (key + ".parts_in", key + ".parts_out"), count)


def _normalized(tracer: Tracer, args, result):
    tracer.counters["rewrite.rules_applied"] += len(result.applied)
    children = sys.modules["bmtl.syntax"].children
    nodes, todo = 0, [result.output]
    while todo:
        nodes += 1
        todo.extend(children(todo.pop()))
    tracer.counters["rewrite.nodes_out"] += nodes


def _campaign(tracer: Tracer, args, result):
    tracer.counters["harness.trials_compared"] += result.trials
    tracer.counters["harness.empty_regions"] += result.empty_regions


LAYERS = [
    Layer("harness.run_campaign", "bmtl.harness", "run_campaign",
          ("harness.trials_compared", "harness.empty_regions"), _campaign),
    Layer("harness.gen_formula", "bmtl.harness", "gen_formula"),
    Layer("harness.gen_trace", "bmtl.harness", "gen_trace"),
    Layer("harness.check_equivalence", "bmtl.harness", "check_equivalence"),
    Layer("rewrite.normalize", "bmtl.rewrite", "normalize",
          ("rewrite.rules_applied", "rewrite.nodes_out"), _normalized),
    Layer("parser.parse_formula", "bmtl.parser", "parse_formula"),
    Layer("traces.parse_trace", "bmtl.traces", "parse_trace",
          ("traces.facts_parsed",), _counter("traces.facts_parsed", lambda r: len(r.facts))),
    Layer("evaluate.eval_truth_set", "bmtl.evaluate", "eval_truth_set",
          ("evaluate.truth_parts",), _counter("evaluate.truth_parts", lambda r: len(r.parts))),
    Layer("syntax.temporal_reach", "bmtl.syntax", "temporal_reach"),
    Layer("syntax.print_formula", "bmtl.syntax", "print_formula"),
    Layer("oracle.oracle_eval_many", "bmtl.oracle", "oracle_eval_many"),
    # a private function, wrapped for the oracle's grid size and build time
    Layer("oracle.sample_grid", "bmtl.oracle", "_sample_grid",
          ("oracle.points",), _counter("oracle.points", len)),
    *(_interval_op(name) for name in ("union", "intersect", "dilate", "erode",
                                      "complement_within", "contains_point", "coalesce")),
]


def growth_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(median seconds) against log(size).

    0.0 when fewer than two sizes were measured.
    """
    by_size: dict[float, list[float]] = {}
    for size, seconds in points:
        by_size.setdefault(size, []).append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def since_until_eval_times(tracer: Tracer) -> list[tuple[float, float]]:
    """(facts per predicate, eval seconds) of each since/until eval request."""
    out = []
    for name, parent, start, end in tracer.spans:
        if name == "evaluate.eval_truth_set" and parent in tracer.attrs:
            attrs = tracer.attrs[parent]
            if attrs.get("family") == "since_until":
                out.append((attrs["facts"], end - start))
    return out


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer figure of one traced round of the mix."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        for field in ("calls", "total_s", "self_s"):
            out[f"{layer.name}.{field}"] = 0
        for key in layer.counters:
            out[key] = 0
    for name, row in tracer.summary().items():
        for field, value in row.items():
            out[f"{name}.{field}"] = value
    out.update(tracer.counters)
    compared = out["harness.trials_compared"]
    out["harness.eval_calls_per_trial"] = (
        out["evaluate.eval_truth_set.calls"] / compared if compared else 0.0)
    root = tracer.root_seconds()
    out["oracle.time_share"] = out["oracle.oracle_eval_many.total_s"] / root if root else 0.0
    out["evaluate.growth_slope"] = growth_slope(since_until_eval_times(tracer))
    return out
