"""Spans around the benchmark's calls into dobkit, and their per-layer summary.

A span is recorded for every call the benchmark makes into a public function
of a dobkit module, and for every op that encloses such calls. Spans are kept
in memory and written out once, when the run ends. Spans inside the package
are not recorded: a layer's self time includes whatever it calls internally.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# The package's modules, in dependency order; "bench" is the driver's own time.
LAYERS = ("zalg", "loops", "robustness", "stability", "sim", "cli")


class Tracer:
    """Records spans when enabled; otherwise ``call`` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (name, tag, start, end, parent index or -1, op id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1

    def call(self, fn, *args, tag: str = "", **kwargs):
        """Call ``fn``; when tracing, record a span named ``<module>.<function>``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
        with self._span(name, tag):
            return fn(*args, **kwargs)

    def op(self, op_id: int, label: str):
        """A span enclosing one op; the spans inside it share ``op_id``."""
        self._op = op_id
        return self.span("bench." + label)

    @contextmanager
    def span(self, name: str, tag: str = ""):
        """A span around work the benchmark does not reach through ``call``."""
        if not self.enabled:
            yield
            return
        with self._span(name, tag):
            yield

    @contextmanager
    def _span(self, name: str, tag: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, tag, start, end, parent, self._op)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, tag, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "tag": tag, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def summarize(spans) -> dict:
    """Per-layer self time and per-name total time.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, because the benchmark runs one call at
    a time.
    """
    child_time = defaultdict(float)
    for name, tag, start, end, parent, op_id in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    total = defaultdict(float)
    for index, (name, tag, start, end, parent, op_id) in enumerate(spans):
        duration = end - start
        self_time[name.split(".", 1)[0]] += duration - child_time[index]
        total[f"{name}[{tag}]" if tag else name] += duration
    return {"self": dict(self_time), "total": dict(total)}
