"""Spans around the benchmark's calls into each layer of the program.

A span records its name, start, end, parent span and attributes: the
pass and program it belongs to, and the counters a layer reports once
its call returns.  Spans stay in memory and are written as
``trace.json`` when the run ends.  A layer's self time is the duration
of its spans minus the part their child spans cover.

A disabled tracer records nothing; its ``span`` only yields the
attribute dict, so the untraced run executes the same code.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Span name -> the layer (module) whose work it times.  Other spans
#: (``pass``, ``program``, ``setup``) belong to the benchmark.
LAYER_OF = {
    "frontend.parse": "frontend",
    "frontend.factgen": "frontend",
    "core.solver.ts": "core.solver",
    "core.solver.cs": "core.solver",
    "compile.emit": "compile.emit",
    "compile.decode": "compile.emit",
    "compile.kernels": "compile.kernels",
    "datalog.kernel": "datalog.kernel",
    "service.restore": "service",
    "service.snapshot_save": "service",
    "service.points_to": "service",
    "service.alias": "service",
    "service.callees": "service",
    "service.fields_of": "service",
    "service.update": "service",
    "service.check": "service",
}


class Tracer:
    """Records spans in memory when ``enabled``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        """Time the body as span ``name``; yields its attribute dict,
        which the caller may extend with counters after the body."""
        if not self.enabled:
            yield attrs
            return
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus its children's durations."""
        out = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                out[span["parent"]] -= span["end"] - span["start"]
        return out

    def ancestor_attr(self, index: int, key: str) -> Optional[object]:
        """The nearest value of attribute ``key`` on span ``index`` or
        one of its ancestors."""
        while index is not None:
            span = self.spans[index]
            if key in span["attrs"]:
                return span["attrs"][key]
            index = span["parent"]
        return None

    def totals_by_pass(self) -> Dict[int, Dict[str, float]]:
        """Pass index -> ``{span name: summed self time}`` plus
        ``{span name.counter: summed counter}`` for every numeric
        attribute, over the spans under each ``pass`` span."""
        out: Dict[int, Dict[str, float]] = {}
        for index, seconds in enumerate(self.self_times()):
            pass_index = self.ancestor_attr(index, "pass")
            if pass_index is None:
                continue
            span = self.spans[index]
            totals = out.setdefault(pass_index, {})
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
            for key, value in span["attrs"].items():
                if isinstance(value, (int, float)) and key != "pass":
                    name = "%s.%s" % (span["name"], key)
                    totals[name] = totals.get(name, 0) + value
        return out

    def layer_shares(self, pass_seconds: Dict[int, float]) -> Dict[str, float]:
        """Layer -> median over the given passes of the layer's self
        time as a share of the pass's wall time."""
        by_pass = self.totals_by_pass()
        out = {}
        for layer in sorted(set(LAYER_OF.values())):
            names = [name for name, of in LAYER_OF.items() if of == layer]
            out[layer] = statistics.median(
                sum(by_pass.get(index, {}).get(name, 0.0) for name in names)
                / seconds
                for index, seconds in pass_seconds.items()
            )
        return out

    def self_time_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self.self_times()):
            layer = LAYER_OF.get(span["name"], "benchmark")
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def overhead_pct(self) -> float:
        """The recorded spans' own cost, as a percentage of the wall
        time under the root spans."""
        traced = sum(
            span["end"] - span["start"]
            for span in self.spans if span["parent"] is None
        )
        return 100.0 * len(self.spans) * span_cost() / traced

    def write(self, path: str, **extra) -> None:
        document = {
            "spans": self.spans,
            "self_time_by_layer": self.self_time_by_layer(),
        }
        document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def span_cost(samples: int = 4000) -> float:
    """Seconds one recorded span adds, measured on a scratch tracer."""
    tracer = Tracer(True)
    start = time.perf_counter()
    with tracer.span("outer"):
        for _ in range(samples):
            with tracer.span("inner", program="p"):
                pass
    return (time.perf_counter() - start) / (samples + 1)
