"""Spans around the benchmark's calls into funalg's modules.

A span records one call: its layer (a funalg module), the function name,
start and end times, the span that caused it and the case it belongs to.
Spans are kept in memory and written out when the run ends.  A disabled
tracer records nothing and adds one branch per call.
"""

from __future__ import annotations

import json
import time

LAYERS = ("codec", "derivation", "evaluator", "clausal", "compiler",
          "reduction", "harness")


class Tracer:
    """Records spans while enabled; `case` names the case being run."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        # each span: [id, parent, layer, name, start, end, case, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.case = None
        self.t0 = time.perf_counter()

    def call(self, layer: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the given layer."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer, fn.__name__):
            return fn(*args, **kwargs)

    def span(self, layer: str, name: str):
        """A context manager recording one span of the current case."""
        return _Span(self, layer, name)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in s from tracer start."""
        keys = ("id", "parent", "layer", "name", "start", "end", "case",
                "failed")
        with open(path, "w") as f:
            for s in self.spans:
                rec = dict(zip(keys, s))
                rec["start"] -= self.t0
                rec["end"] -= self.t0
                f.write(json.dumps(rec) + "\n")

    def layer_times(self, spans=None) -> dict:
        """Per layer: calls, busy_s, self_s and failed.

        busy_s sums span durations; self_s subtracts the part of each span
        that its child spans cover.  Children of one span never overlap,
        since calls are sequential.
        """
        spans = self.spans if spans is None else spans
        child_time: dict[int, float] = {}
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + s[5] - s[4]
        out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
               for layer in LAYERS}
        for sid, _, layer, _, start, end, _, failed in spans:
            if layer not in out:
                continue
            agg = out[layer]
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_time.get(sid, 0.0)
            agg["failed"] += failed
        return out

    def name_times(self, layer: str, spans=None) -> dict[str, float]:
        """Busy seconds per function name within one layer."""
        spans = self.spans if spans is None else spans
        out: dict[str, float] = {}
        for s in spans:
            if s[2] == layer:
                out[s[3]] = out.get(s[3], 0.0) + s[5] - s[4]
        return out


class _Span:
    __slots__ = ("tr", "rec")

    def __init__(self, tr: Tracer, layer: str, name: str):
        self.tr = tr
        self.rec = None
        if tr.enabled:
            parent = tr._stack[-1] if tr._stack else None
            self.rec = [tr._next_id, parent, layer, name, 0.0, 0.0, tr.case,
                        0]
            tr._next_id += 1

    def __enter__(self):
        if self.rec is not None:
            self.tr._stack.append(self.rec[0])
            self.rec[4] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.rec is not None:
            self.rec[5] = time.perf_counter()
            self.rec[7] = int(exc_type is not None)
            self.tr._stack.pop()
            self.tr.spans.append(self.rec)
        return False
