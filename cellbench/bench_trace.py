"""Span tracing for the cell benchmark, installed from outside the package.

The tracer wraps the public entry points of each layer (class methods and
module functions of ``repro``) for the duration of a traced pass and puts
the originals back afterwards; nothing inside ``src/`` knows it is being
traced.  Every wrapped call becomes a span with a name, start, end, parent
span and cell id.  Spans stay in memory; :meth:`Tracer.write` writes them
out once the benchmark ends.

The hottest boundaries (``RouteOracle.tree`` takes millions of calls on a
large GENERAL cell, ``Environment.step`` one call per DES event) are
*aggregated*: one span per ``(parent span, name)`` carrying a call count and
the summed busy time, instead of one span per call.

A span's **self time** is its busy time minus the part of it its children
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One traced interval, or an aggregate of many calls (``count > 1``).

    ``busy`` is the time the span was active: ``end - start`` for a plain
    span, the sum of the individual call durations for an aggregate (whose
    ``start``/``end`` are only the envelope of its calls).
    """

    id: int
    name: str
    parent: int  # 0: no parent
    cell: int
    start: float
    end: float
    busy: float = 0.0
    count: int = 1
    aggregate: bool = False


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: busy time minus the time its children cover.

    Plain children cover the union of their intervals clipped to the
    parent's; aggregate children cover their summed busy time (their calls
    are disjoint and nested inside the parent).  Never negative.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        intervals: List[Tuple[float, float]] = []
        for child in children.get(span.id, ()):
            if child.aggregate:
                covered += child.busy
            else:
                lo, hi = max(child.start, span.start), min(child.end, span.end)
                if hi > lo:
                    intervals.append((lo, hi))
        intervals.sort()
        run_lo: Optional[float] = None
        run_hi = 0.0
        for lo, hi in intervals:
            if run_lo is None or lo > run_hi:
                if run_lo is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_lo is not None:
            covered += run_hi - run_lo
        out[span.id] = max(0.0, span.busy - covered)
    return out


def layer_table(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """``span name -> (total self seconds, calls)``."""
    spans = list(spans)
    selfs = self_times(spans)
    table: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        seconds, calls = table.get(span.name, (0.0, 0))
        table[span.name] = (seconds + selfs[span.id], calls + span.count)
    return table


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Extra work counts gathered at the boundaries (e.g. trees per
        #: batched kernel call), keyed by ``(cell, metric name)``.
        self.counts: Counter = Counter()
        self._stack: List[Span] = []
        self._aggregates: Dict[Tuple[int, str], Span] = {}
        self._next_id = 1
        self.cell = 0

    def _enter(self, name: str, start: float, aggregate: bool) -> Span:
        parent = self._stack[-1].id if self._stack else 0
        span = self._aggregates.get((parent, name)) if aggregate else None
        if span is None:
            span = Span(
                self._next_id, name, parent, self.cell, start, start,
                count=0 if aggregate else 1, aggregate=aggregate,
            )
            self._next_id += 1
            self.spans.append(span)
            if aggregate:
                self._aggregates[(parent, name)] = span
        self._stack.append(span)
        return span

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
             *, aggregate: bool = False) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        start = self.clock()
        span = self._enter(name, start, aggregate)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            span.end = end
            span.busy += end - start
            if aggregate:
                span.count += 1

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "cell": span.cell, "start": span.start, "end": span.end,
                    "busy": span.busy, "count": span.count,
                }) + "\n")


class Patches:
    """Replace attributes of classes/modules and put the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new: Any = type(raw)(functools.wraps(raw.__func__)(make(raw.__func__)))
        else:
            new = functools.wraps(raw)(make(raw))
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _boundaries() -> List[Tuple[Any, str, str, bool]]:
    """``(owner, attribute, span name, aggregate)`` for every traced layer."""
    from repro.core import alternatives, optimal, reductions, sflow
    from repro.eval import experiments, robustness
    from repro.network import failures, overlay, underlay
    from repro.routing import kernel, oracle
    from repro.services import abstract_graph
    from repro.sim import engine

    return [
        (experiments, "generate_scenario", "scenario.generate", False),
        (robustness, "generate_scenario", "scenario.generate", False),
        (underlay.Underlay, "generate", "underlay.generate", False),
        (overlay.OverlayGraph, "build", "overlay.build", False),
        (overlay.OverlayGraph, "ego_view", "overlay.ego_view", False),
        (oracle.RouteOracle, "tree", "oracle.tree", True),
        (oracle.RouteOracle, "warm", "oracle.warm", False),
        (kernel, "snapshot", "kernel.snapshot", False),
        (kernel, "batched_trees", "kernel.batched_trees", False),
        (abstract_graph.AbstractGraph, "build", "abstract_graph.build", False),
        (alternatives.FixedAlgorithm, "solve", "fixed.solve", False),
        (alternatives.RandomAlgorithm, "solve", "random.solve", False),
        (alternatives.ServicePathAlgorithm, "solve", "service_path.solve", False),
        (optimal.GlobalOptimalAlgorithm, "solve", "optimal.solve", False),
        (sflow.SFlowAlgorithm, "federate", "sflow.federate", False),
        (reductions.ReductionSolver, "solve_assignment",
         "reductions.solve_assignment", False),
        (engine.Environment, "step", "engine.step", True),
        (failures.FailureInjector, "gray_plan", "failures.plan", False),
    ]


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary so its calls record spans on ``tracer``."""
    for owner, attr, name, aggregate in _boundaries():
        def make(fn: Callable[..., Any], name: str = name,
                 aggregate: bool = aggregate) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, fn, args, kwargs, aggregate=aggregate)
            return traced
        patches.wrap(owner, attr, make)

    from repro.routing import kernel
    from repro.services import abstract_graph

    def count_trees(fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*args: Any, **kwargs: Any) -> Any:
            trees = fn(*args, **kwargs)
            tracer.counts[tracer.cell, "kernel.trees"] += len(trees)
            return trees
        return counted

    def count_edges(fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*args: Any, **kwargs: Any) -> Any:
            graph = fn(*args, **kwargs)
            tracer.counts[tracer.cell, "abstract_graph.edges"] += graph.num_edges()
            return graph
        return counted

    patches.wrap(kernel, "batched_trees", count_trees)
    patches.wrap(abstract_graph.AbstractGraph, "build", count_edges)
