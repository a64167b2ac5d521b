"""Span recorder that times mcflow's layers from outside the package.

mcflow's modules import each other's functions by name, so a layer is timed
by replacing the name its caller looks up (for example
`mcflow.scenarios.run_flow`, not `mcflow.solver.run_flow`) with a wrapper
that opens a span.  Spans stay in memory; `Tracer.dump` writes them out once
the benchmark has finished measuring.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    run_id: str
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


#: (module path, attribute, span name) for every wrapped caller-side name.
WRAPPED = (
    ("mcflow.cli", "run_scenario_config", "scenarios.run"),
    ("mcflow.cli", "run_dirichlet_sweep", "scenarios.run"),
    ("mcflow.cli", "write_run_artifacts", "scenarios.write"),
    ("mcflow.cli", "write_sweep_csv", "scenarios.write"),
    ("mcflow.cli", "write_summary_json", "scenarios.write"),
    ("mcflow.scenarios", "write_run_artifacts", "scenarios.write"),
    ("mcflow.scenarios", "run_flow", "solver.run"),
    ("mcflow.scenarios", "solve_dirichlet", "solver.run"),
    ("mcflow.scenarios", "build_outer_barrier", "barriers.build"),
    ("mcflow.scenarios", "ricci_form_bound", "geometry.ricci_bound"),
    ("mcflow.solver", "interpolate_initial_data", "initial_data.blend"),
    ("mcflow.diagnostics", "make_record", "diagnostics.record"),
)


class Tracer:
    """Collects spans of one benchmark process; one run id per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run_id = ""
        self._saved: list[tuple] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._run_id, len(self.spans), parent, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def run(self, run_id: str, name: str, func, *args):
        """Call `func(*args)` as the root span of a traced run.

        The wrappers are installed only for the duration of the call, so
        untraced runs in the same process execute mcflow unmodified.
        Returns (result, spans of this run).
        """
        self._run_id = run_id
        first = len(self.spans)
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        try:
            root = self._open(name)
            try:
                result = func(*args)
            finally:
                self._close(root)
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)
        return result, self.spans[first:]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run_id": s.run_id, "span": s.span_id,
                                     "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end}) + "\n")


def self_times(spans: list[Span]) -> dict:
    """Per-name totals: {name: (count, self seconds)}.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap because the run is single-threaded.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, tuple] = {}
    for s in spans:
        count, own = out.get(s.name, (0, 0.0))
        out[s.name] = (count + 1,
                       own + s.duration - child_time.get(s.span_id, 0.0))
    return out
