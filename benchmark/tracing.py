"""Spans around the public functions of bdcsim, recorded from outside.

The tracer swaps module attributes for wrappers while it is installed, so
calls the program makes through those names (``bdcsim.cli.run``,
``bdcsim.sim.select_mode``, ...) open a span.  Spans stay in memory as
``[name, start, end, parent]`` rows; counters are kept at the same
boundaries.  The per-step plant closure is left alone: one span per
integration step would cost more than the step.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

# (module, attribute, span name).  cli imports run, steady_window,
# trace_from_csv and parse_scenario_file by name and run() calls the
# controller through the names bound in bdcsim.sim, so those bindings are
# the ones wrapped.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_scenario_file", "scenario.parse_scenario_file"),
    ("cli", "run", "sim.run"),
    ("sim", "run", "sim.run"),
    ("cli", "trace_from_csv", "sim.trace_from_csv"),
    ("cli", "steady_window", "sim.steady_window"),
    ("sim", "steady_window", "sim.steady_window"),
    ("sim", "select_mode", "control.select_mode"),
    ("sim", "regulate", "control.regulate"),
    ("analysis", "predicted_ripple_buck", "analysis.predicted_ripple_buck"),
    ("analysis", "predicted_ripple_boost", "analysis.predicted_ripple_boost"),
    ("analysis", "current_envelope", "analysis.current_envelope"),
    ("analysis", "line_regulation", "analysis.line_regulation"),
)


def _count(tracer: "Tracer", name: str, args, result) -> None:
    """Work counts taken at the span boundary."""
    c = tracer.counts
    if name == "sim.run":
        scenario = args[0]
        c["sim.steps"] += round(scenario.t_end / scenario.dt)
        c["sim.samples"] += len(result)
    elif name == "sim.to_csv":
        c["sim.to_csv_rows"] += len(args[0])
        c["sim.to_csv_bytes"] += os.path.getsize(args[1])
    elif name == "sim.trace_from_csv":
        c["sim.from_csv_rows"] += len(result)
    elif name == "control.select_mode":
        c["control.ticks"] += 1
        c["control.mode_transitions"] += result is not args[3]


class Tracer:
    """In-memory span recorder.  `now` is its clock; the benchmark passes
    one that leaves out the time of its own speed probes."""

    def __init__(self, now=time.perf_counter) -> None:
        self.now = now
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            _count(self, name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Swap the WRAPPED attributes (and Trace.to_csv) for traced ones."""
        saved = []
        trace_cls = modules["sim"].Trace
        try:
            for mod_name, attr, span in WRAPPED:
                mod = modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
            saved.append((trace_cls, "to_csv", trace_cls.to_csv))
            trace_cls.to_csv = self.wrap("sim.to_csv", trace_cls.to_csv)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the part covered by
        child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out
