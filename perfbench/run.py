#!/usr/bin/env python3
"""Seeded benchmark of bmtl: campaign throughput per rewrite mode,
large-trace ``eval`` latency, and per-layer tracing.

    python3 perfbench/run.py --workload campaign-punctual --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its
``src/`` directory.  ``BENCHMARK.json`` at the root names the workloads
and the metrics, with their units.  Single process, no threads.

Each workload is a fixed mix of requests made from the seed (see
workloads.py), sent by one client in a closed loop: each request starts
when the previous one has finished.  --trace 0 runs the mix for the
workload's fixed number of rounds, stopping early only if another round
would end after --seconds.  Other load on a shared machine only ever
adds time, and on a shared 2-CPU virtual machine it was seen to swing by
a quarter to a half over tens of seconds, so each request is represented
by its fastest round: ops_per_s is the mix's operations over the sum of
those times, and the latency percentiles are taken over them.  The
number of rounds is fixed so that a faster commit does not also get
more tries at a low minimum.  Outputs are checked outside the timed
region.

setup_s is the median of several set-ups before and after the timed
loop.  A set-up is a fresh interpreter's import of the library, numpy
and the standard library included, as a process start does it, plus
input generation and warm-up in this process on a fresh import of bmtl's
own modules.  The interpreter is started only to time the import; it
exits before anything else runs, and every workload runs in this one
process.

--trace 1 repeats one round plain and one round traced until --seconds
have passed.  The per-layer figures are medians over the traced rounds,
so they describe the same fixed work and compare across commits.  The
tracing overhead compares the fastest traced round with the fastest
plain one.  The spans of the first traced round are written to
perfbench/out/.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_BEFORE, SETUP_AFTER = 4, 3
LIBRARY_MODULES = ("harness", "rewrite", "evaluate", "traces", "parser", "oracle",
                   "intervals", "syntax")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import bmtl; print(time.perf_counter() - start)")


def cold_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the library."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                           text=True, timeout=120, check=True)
    return float(probe.stdout)


def import_library() -> SimpleNamespace:
    """A fresh import of bmtl's modules; numpy and the standard library stay loaded."""
    for name in [n for n in sys.modules if n == "bmtl" or n.startswith("bmtl.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"bmtl.{m}") for m in LIBRARY_MODULES})
    if not Path(lib.harness.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: bmtl was imported from {lib.harness.__file__}, not {SRC}")
    return lib


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def commit() -> str:
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        git = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy

    def lines(directory: Path) -> int:
        return sum(len(p.read_bytes().splitlines()) for p in sorted(directory.rglob("*.py")))

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "repo.src_lines": lines(SRC),
        "repo.test_lines": lines(ROOT / "tests"),
    }


def set_up(name: str, seed: int, repeats: int):
    """The workload after ``repeats`` set-ups, and the time of each."""
    from workloads import WORKLOADS

    times = []
    for _ in range(repeats):
        import_s = cold_import_seconds()
        lib = import_library()
        start = perf_counter()
        workload = WORKLOADS[name](lib, seed)
        workload.setup()
        times.append(import_s + perf_counter() - start)
    return workload, times


def run_round(workload, tracer=None) -> list:
    """The mix once: per request, (seconds, result, rendering), or None if it raised."""
    out = []
    for req in workload.requests:
        try:
            out.append(workload.execute(req, tracer))
        except Exception:
            print(f"perfbench: request {str(req)[:120]} raised:", flush=True)
            traceback.print_exc()
            out.append(None)
    return out


def tally(workload, results, reference) -> tuple[int, int]:
    """Operations attempted and failed in one round.

    Without a reference the round is checked in full; otherwise each
    request must reproduce the reference rendering.
    """
    attempted = sum(workload.ops(req) for req in workload.requests)
    if reference is None:
        return attempted, workload.failures(results)
    return attempted, sum(workload.ops(req)
                          for req, res, ref in zip(workload.requests, results, reference)
                          if res is None or res[2] != ref)


def measure(workload, seconds: float) -> dict:
    """``workload.rounds`` rounds, or fewer if the next would end after
    ``seconds``; end-to-end figures."""
    start = perf_counter()
    first = run_round(workload)
    attempted, failed = tally(workload, first, None)
    reference = [r and r[2] for r in first]
    times = [[r[0]] if r else [] for r in first]
    for done in range(1, workload.rounds):
        elapsed = perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            break
        results = run_round(workload)
        a, f = tally(workload, results, reference)
        attempted, failed = attempted + a, failed + f
        for t, r in zip(times, results):
            if r:
                t.append(r[0])
    best = [min(t) for t in times if t]
    ops = sum(workload.ops(req) for req, t in zip(workload.requests, times) if t)
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": f"{len(best)} requests x {len(times[0])} rounds "
                   f"in {perf_counter() - start:.1f} s",
        "metrics": {
            "ops_per_s": ops / sum(best),
            "latency_p50_ms": 1000 * statistics.median(best),
            "latency_p90_ms": 1000 * percentile(best, 90),
        },
    }


def trace_layers(workload, seconds: float, spans_path: Path) -> dict:
    """Plain and traced rounds over the mix; per-layer figures."""
    from layers import LAYERS, round_metrics
    from tracing import Tracer, installed

    plain_walls, traced_walls, rounds = [], [], []
    attempted = failed = 0
    reference = None
    start = perf_counter()
    while True:
        plain = run_round(workload)
        tracer = Tracer()
        with installed(tracer, LAYERS):
            traced = run_round(workload, tracer)
        checked = tally(workload, plain, reference)  # in full on the first round
        if reference is None:
            reference = [r and r[2] for r in plain]
        for a, f in (checked, tally(workload, traced, reference)):
            attempted, failed = attempted + a, failed + f
        plain_walls.append(sum(r[0] for r in plain if r))
        traced_walls.append(sum(r[0] for r in traced if r))
        rounds.append(round_metrics(tracer))
        if len(rounds) == 1:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(spans_path)
        del tracer
        if perf_counter() - start >= seconds:
            break
    metrics = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    metrics["trace.overhead_pct"] = 100 * (min(traced_walls) / min(plain_walls) - 1)
    return {"attempted": attempted, "failed": failed, "samples": f"{len(rounds)} rounds",
            "metrics": metrics}


def main(argv=None) -> int:
    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bmtl" / "__init__.py").is_file() or not manifest_path.is_file():
        print(f"perfbench: needs {SRC}/bmtl and {manifest_path}; run from a bmtl checkout",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workload, setup_times = set_up(args.workload, args.seed, SETUP_BEFORE)
    info = provenance()
    print("provenance: " + json.dumps(info), flush=True)

    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run = trace_layers(workload, args.seconds, spans)
        run["metrics"].update({k: v for k, v in info.items() if k.startswith("repo.")})
        declared = manifest["per_layer"]
    else:
        run = measure(workload, args.seconds)
        setup_times += set_up(args.workload, args.seed, SETUP_AFTER)[1]
        run["metrics"]["setup_s"] = statistics.median(setup_times)
        run["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = manifest["end_to_end"]

    print(f"error_rate = {run['failed'] / run['attempted']} "
          f"({run['failed']} failed of {run['attempted']} attempted)")
    if args.trace:
        print(f"traced = {run['samples']}; spans of the first in {spans}")
    else:
        print(f"latency samples = {run['samples']}")
    units = {m["name"]: m["unit"] for m in declared}
    for key in sorted(run["metrics"]):
        print(f"{key} = {run['metrics'][key]} {units.get(key, '')}".rstrip())
    metrics = {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
