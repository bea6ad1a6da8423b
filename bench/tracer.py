"""In-memory spans around calls into coopchan.

A span records (name, start, end, parent, operation id); names read
``<layer>.<call>``, where the layer is a module of ``src/coopchan`` or
``bench`` for the benchmark's own glue.  ``Tracer.instrument`` puts the spans
around the calls from outside: it swaps the coopchan functions a module
imports by name for wrappers, so ``run_pipeline`` and the workloads run their
own code and their callees are timed.  Spans stay in memory and are written
out once, when the run ends.  A second mode also records the ``tracemalloc``
peak of each span; it is meant for a pass of its own, so that allocation
tracking never inflates the timings.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

MIB = 1024.0 * 1024.0
LAYERS = ("synth", "model", "idealise", "discretise", "infer", "diagnostics", "io",
          "pipeline", "bench")


def layer_of(obj) -> str | None:
    """The layer of a coopchan function, or None for anything else."""
    if not inspect.isfunction(obj) or not obj.__module__.startswith("coopchan."):
        return None
    layer = obj.__module__.split(".")[1]
    return layer if layer in LAYERS else None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    peak_mib: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans; ``memory=True`` also resets and reads the
    tracemalloc peak around each span (tracemalloc must be running)."""

    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    op: str = ""
    _stack: list[int] = field(default_factory=list)
    _peaks: dict[int, int] = field(default_factory=dict)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        if self.memory:
            # keep the parent's peak so far before this span resets it
            if parent is not None:
                self._peaks[parent] = max(self._peaks[parent],
                                          tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            self._peaks[index] = base
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record = self.spans[index]
            record.start, record.end = start, end
            if self.memory:
                peak = max(tracemalloc.get_traced_memory()[1], self._peaks.pop(index))
                record.peak_mib = (peak - base) / MIB
                if parent is not None:
                    self._peaks[parent] = max(self._peaks[parent], peak)

    @contextmanager
    def instrument(self, *modules):
        """Within the block, each coopchan function that one of ``modules``
        imports by name runs in a span named ``<layer>.<function>``.  The
        callers look these names up at call time, so their own code runs
        unchanged; the names are restored on exit."""
        swapped = []
        for module in modules:
            for name, fn in list(vars(module).items()):
                layer = layer_of(fn)
                if layer is None or fn.__module__ == module.__name__:
                    continue
                swapped.append((module, name, fn))
                setattr(module, name, self._spanned(f"{layer}.{fn.__name__}", fn))
        try:
            yield
        finally:
            for module, name, fn in swapped:
                setattr(module, name, fn)

    def _spanned(self, span_name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)
        return spanned

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by the layer's child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time[i]
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def peak(self, name: str) -> float:
        return max((s.peak_mib for s in self.spans
                    if s.name == name and s.peak_mib is not None), default=0.0)

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans, keeping their parent links."""
        offset = len(self.spans)
        self.spans += [replace(s, parent=None if s.parent is None else s.parent + offset)
                       for s in other.spans]

    def write(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "op": s.op, "peak_mib": s.peak_mib}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
