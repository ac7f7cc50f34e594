"""Outside-in span tracing for the benchmark.

The tracer replaces a layer's public functions with timing wrappers at
every place their callers look them up (each module attribute bound to
the function, or the class attribute for a method), and puts the
originals back afterwards.  Spans are kept in memory as
``[name, parent_index, start, end]`` records; a span's self time is its
duration minus the time covered by its direct child spans.  Counters
(parts in and out of an interval operation, facts parsed, ...) are
recorded at the same boundaries, after the span has closed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Optional


class Tracer:
    """In-memory span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None,
             prepare: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``prepare(args)`` may rewrite the positional arguments before the
        call (to materialize an iterator that ``count`` needs to size);
        ``count(tracer, args, result)`` runs after the span closes.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, e.g. one eval request."""
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, self.clock(), 0.0]
        self._stack.append(index)
        self.spans.append(record)
        if attrs:
            self.attrs[index] = attrs
        try:
            yield index
        finally:
            record[3] = self.clock()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end), c in zip(self.spans, child)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end), own in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def write_jsonl(self, path) -> None:
        """One line per span: index, parent, name, start and duration in microseconds."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                row = [i, parent, name, round((start - origin) * 1e6, 3),
                       round((end - start) * 1e6, 3)]
                if i in self.attrs:
                    row.append(self.attrs[i])
                fh.write(json.dumps(row) + "\n")


def _resolve(module: ModuleType, attr: str):
    """The object owning ``attr`` ("func" or "Class.method") and the leaf name."""
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def installed(tracer: Tracer, layers):
    """Wrap every layer function where callers look it up; restore on exit.

    Each layer names a span, the module defining the function and the
    attribute ("func" or "Class.method"), plus optional ``count`` and
    ``prepare`` hooks.  A module-level function is replaced in every bmtl
    module that binds it, so calls through ``from x import f`` and
    through ``x.f`` are both seen, recursive calls included.  A layer
    whose function no longer exists is reported on stderr and skipped.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "bmtl" or n.startswith("bmtl."))]
    try:
        for layer in layers:
            try:
                owner, leaf = _resolve(sys.modules[layer.module], layer.attr)
                original = getattr(owner, leaf)
            except (KeyError, AttributeError):
                print(f"perfbench: layer {layer.name} ({layer.module}.{layer.attr}) "
                      "not found", file=sys.stderr)
                continue
            wrapper = tracer.wrap(layer.name, original, layer.count, layer.prepare)
            if isinstance(owner, ModuleType):
                targets = [(m, k) for m in modules
                           for k, v in list(vars(m).items()) if v is original]
            else:
                targets = [(owner, leaf)]
            for target, key in targets:
                undo.append((target, key, getattr(target, key)))
                setattr(target, key, wrapper)
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            setattr(target, key, value)
