"""Workloads, cell runners and output checks of the cell benchmark.

One *operation* is one Fig. 10 cell: generate the scenario, run the five
arms (sflow, fixed, random, service_path, optimal) and fold the trial
records -- exactly what ``run_evaluation`` does per ``(size, trial)``.  A
``gray-faults`` operation is one ``GrayFailureExperiment`` cell: a
fault-free baseline federation plus one federation per fault intensity.

Each workload measures a fixed *corpus* of cells drawn from a corpus seed:
a stratified mix (every round of the corpus holds each size x requirement
class once, in drawn order).  The run seed only shuffles the order in which
each pass visits the corpus.  Corpora differ in cost by tens of percent
(a paper-mixed corpus holds a handful of GENERAL cells that take most of
its time), so figures are compared on one corpus, never across corpora.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.alternatives import FixedAlgorithm, RandomAlgorithm, ServicePathAlgorithm
from repro.core.optimal import GlobalOptimalAlgorithm
from repro.core.sflow import SFlowAlgorithm, SFlowResult
from repro.eval.experiments import EvaluationConfig, run_evaluation_with_metrics
from repro.eval.robustness import GrayFailureConfig, GrayFailureExperiment
from repro.network.metrics import PathQuality, combine_series
from repro.services.requirement import RequirementClass

from bench_trace import Patches


@dataclass(frozen=True)
class Workload:
    """A named cell mix; ``why`` says what it stresses."""

    name: str
    kind: str  # "fig10" | "gray"
    sizes: Tuple[int, ...]
    classes: Tuple[Optional[RequirementClass], ...]
    #: Rounds (sizes x classes each) in the corpus.
    rounds: int
    why: str


#: Network sizes of the one-round corpus the tests use (``--tiny``).
TINY_SIZES = (10, 12)

_DRAWN = (
    RequirementClass.PATH,
    RequirementClass.DISJOINT_PATHS,
    RequirementClass.SPLIT_MERGE,
    RequirementClass.GENERAL,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-mixed", "fig10", (10, 20, 30, 40, 50), _DRAWN, 5,
            "Fig. 10(a/c/d) regime: GENERAL cells spend their time in sFlow's "
            "local ReductionSolver and planning-view oracle hits",
        ),
        Workload(
            "gray-faults", "gray", (20, 30, 40, 50), (None,), 20,
            "GrayFailureExperiment cells: oracle write path (carry, drop, "
            "repair), DES retries, detector, failover and re-federation",
        ),
    )
}


@dataclass(frozen=True)
class CellSpec:
    """One operation: what to run, fully determined by the corpus seed."""

    index: int
    size: int
    requirement_class: Optional[RequirementClass]
    seed: int


def corpus(workload: Workload, corpus_seed: int, *, tiny: bool = False) -> List[CellSpec]:
    """The workload's cells drawn from ``corpus_seed``."""
    rng = random.Random(f"{workload.name}/{corpus_seed}")
    sizes = TINY_SIZES if tiny else workload.sizes
    cells: List[CellSpec] = []
    for _ in range(1 if tiny else workload.rounds):
        mix = [(size, clazz) for size in sizes for clazz in workload.classes]
        rng.shuffle(mix)
        for size, clazz in mix:
            cells.append(CellSpec(len(cells), size, clazz, rng.randrange(2**31)))
    return cells


def pass_order(cells: Sequence[CellSpec], seed: int, number: int) -> List[CellSpec]:
    """The order in which pass ``number`` of a run with ``seed`` visits
    the corpus."""
    order = list(cells)
    random.Random(f"{seed}/{number}").shuffle(order)
    return order


def warmup_spec(workload: Workload, seed: int) -> CellSpec:
    """A small cell of the workload's kind that touches every code path
    the timed cells use (kernel included), run before timing starts."""
    clazz = RequirementClass.DISJOINT_PATHS if workload.kind == "fig10" else None
    return CellSpec(-1, 20, clazz, seed)


# -- running one cell ---------------------------------------------------------


@dataclass
class Captured:
    """What the arms returned during one cell, captured at their boundary."""

    #: ``(arm, requirement, overlay, flow graph or None)`` per arm call.
    graphs: List[Tuple[str, Any, Any, Any]] = field(default_factory=list)
    #: Every ``SFlowAlgorithm.federate`` result, in call order.
    federations: List[SFlowResult] = field(default_factory=list)


class Capture:
    """Records the outputs of each arm so the checks can inspect them.

    Installed for timed and traced passes alike; it costs one wrapper call
    per arm call (five per Fig. 10 cell, four per gray cell).
    """

    def __init__(self) -> None:
        self.current = Captured()
        self._patches = Patches()

    def install(self) -> None:
        for cls in (FixedAlgorithm, RandomAlgorithm, ServicePathAlgorithm,
                    GlobalOptimalAlgorithm):
            self._patches.wrap(cls, "solve", self._solve_wrapper(cls.name))
        self._patches.wrap(SFlowAlgorithm, "federate", self._federate_wrapper)

    def uninstall(self) -> None:
        self._patches.undo()

    def _solve_wrapper(self, arm: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def captured(algorithm, requirement, overlay, **kwargs):
                graph = fn(algorithm, requirement, overlay, **kwargs)
                self.current.graphs.append((arm, requirement, overlay, graph))
                return graph
            return captured
        return make

    def _federate_wrapper(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def captured(algorithm, requirement, overlay, **kwargs):
            result = fn(algorithm, requirement, overlay, **kwargs)
            self.current.federations.append(result)
            self.current.graphs.append(("sflow", requirement, overlay, result.flow_graph))
            return result
        return captured

    def take(self) -> Captured:
        taken, self.current = self.current, Captured()
        return taken


def run_cell(workload: Workload, spec: CellSpec) -> Tuple[list, Dict[str, dict]]:
    """Run one operation through the repository's own sweep entry points;
    returns its records and its metrics-registry delta."""
    if workload.kind == "fig10":
        return run_evaluation_with_metrics(EvaluationConfig(
            network_sizes=(spec.size,), trials=1,
            requirement_class=spec.requirement_class, seed=spec.seed, workers=0,
        ))
    return GrayFailureExperiment(GrayFailureConfig(
        network_sizes=(spec.size,), trials=1, seed=spec.seed, workers=0,
    )).run_with_metrics()


# -- checks -------------------------------------------------------------------

#: Counts that must repeat exactly whenever the same cell runs again.
EXACT_COUNTS = (
    "oracle.hits", "oracle.misses", "oracle.warmed", "oracle.carried",
    "oracle.dropped", "oracle.repaired", "engine.events", "sflow.messages",
    "reductions.calls",
)

#: Record fields that hold wall-clock time and are left out of the digest.
WALL_FIELDS = frozenset({"elapsed_seconds"})


def counter_total(delta: Dict[str, dict], name: str) -> float:
    """Total of counter ``name`` in a registry delta (0 when absent)."""
    record = delta.get(name)
    return float(sum(record["values"].values())) if record else 0.0


def record_digest(records: Sequence[Any]) -> str:
    """SHA-256 over every record with its wall-clock fields left out."""
    h = hashlib.sha256()
    for record in records:
        row = {k: v for k, v in asdict(record).items() if k not in WALL_FIELDS}
        h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


def graph_problems(graph: Any, requirement: Any, overlay: Any, *, exact_quality: bool) -> List[str]:
    """Why ``graph`` is not a complete, coherent flow graph for
    ``requirement`` over ``overlay`` (empty when it is).

    Edges without a route (``UNREACHABLE``) are an algorithm outcome, not
    a defect: the random and serialized controls may return them.  With
    ``exact_quality`` every routed edge's quality must equal the series
    composition of its overlay links (fault-free runs only; gray runs route
    over degraded copies of the overlay).
    """
    problems = []
    if graph.requirement is not requirement:
        problems.append("flow graph answers a different requirement")
    if not graph.is_complete():
        problems.append("flow graph is incomplete")
    for sid, inst in graph.assignment.items():
        if inst not in overlay:
            problems.append(f"{sid} assigned to {inst}, not an overlay instance")
    for edge in graph.edges():
        if not edge.quality.reachable:
            continue
        path = edge.overlay_path
        if not path or path[0] != edge.src or path[-1] != edge.dst:
            problems.append(f"edge {edge.requirement_edge} route does not join its ends")
            continue
        links = [overlay.link(a, b) for a, b in zip(path, path[1:])]
        if any(link is None for link in links):
            problems.append(f"edge {edge.requirement_edge} routes over a missing link")
            continue
        if exact_quality and combine_series(link.metrics for link in links) != edge.quality:
            problems.append(f"edge {edge.requirement_edge} quality disagrees with its route")
    return problems


def check_cell(workload: Workload, records: Sequence[Any], delta: Dict[str, dict],
               captured: Captured) -> List[str]:
    """Every output check of one operation; returns the failures found."""
    failures = []
    if counter_total(delta, "engine.handler_error"):
        failures.append("engine.handler_error moved")
    exact = workload.kind == "fig10"
    for arm, requirement, overlay, graph in captured.graphs:
        if graph is not None:
            failures += [f"{arm}: {p}" for p in
                         graph_problems(graph, requirement, overlay, exact_quality=exact)]
    if workload.kind == "fig10":
        failures += fig10_record_problems(records)
    else:
        failures += gray_record_problems(records)
    return failures


def fig10_record_problems(records: Sequence[Any]) -> List[str]:
    """sFlow must never beat ``optimal`` under the shortest-widest order."""
    by_arm = {r.algorithm: r for r in records}
    missing = {"sflow", "fixed", "random", "service_path", "optimal"} - set(by_arm)
    if missing:
        return [f"no record for {sorted(missing)}"]
    sflow, optimal = by_arm["sflow"], by_arm["optimal"]
    if sflow.feasible and optimal.feasible:
        if PathQuality(sflow.bandwidth, sflow.latency).is_better_than(
            PathQuality(optimal.bandwidth, optimal.latency)
        ):
            return ["sflow beats optimal"]
    return []


def gray_record_problems(records: Sequence[Any]) -> List[str]:
    """Every intensity-0 run must reproduce its baseline bit for bit."""
    return [
        f"intensity-0 run at N={r.network_size} differs from its baseline"
        for r in records
        if r.intensity == 0 and not r.identical_to_baseline
    ]


# -- per-cell figures -----------------------------------------------------------


def cell_counts(delta: Dict[str, dict], captured: Captured) -> Dict[str, float]:
    """Deterministic work counts of one cell (registry delta + sFlow results)."""
    counts = {
        name: counter_total(delta, name)
        for name in (
            "oracle.hits", "oracle.misses", "oracle.warmed", "oracle.carried",
            "oracle.dropped", "oracle.repaired", "engine.handler_error",
            "channel.messages", "channel.lost", "channel.duplicated",
            "channel.reordered", "detector.suspicions", "detector.heartbeats",
        )
    }
    fed = captured.federations
    counts["sflow.federations"] = float(len(fed))
    counts["sflow.messages"] = float(sum(r.messages for r in fed))
    counts["sflow.node_activations"] = float(sum(r.node_activations for r in fed))
    counts["sflow.retransmissions"] = float(sum(r.retransmissions for r in fed))
    counts["sflow.failovers"] = float(sum(r.failovers for r in fed))
    counts["sflow.refederations"] = float(sum(r.refederations for r in fed))
    counts["sflow.local_compute_s"] = sum(r.local_compute_seconds for r in fed)
    return counts


def quality_figures(workload: Workload, records: Sequence[Any],
                    captured: Captured) -> Dict[str, List[float]]:
    """Sim-time quality samples of one cell (deterministic per cell).

    * ``sflow_correctness``: Fig. 10 cells, sFlow's correctness coefficient
      against ``optimal`` (cells where optimal is feasible); gray cells,
      each served federation's coefficient against the fault-free
      baseline federation of its cell;
    * ``served``: 1 per federation that came back COMMITTED or DEGRADED;
    * ``delivered_bw``: gray cells, the delivered-bandwidth fraction of
      each run; Fig. 10 cells, sFlow's bottleneck bandwidth over
      optimal's (capped at 1).
    """
    out: Dict[str, List[float]] = {"sflow_correctness": [], "served": [], "delivered_bw": []}
    if workload.kind == "fig10":
        by_arm = {r.algorithm: r for r in records}
        sflow, optimal = by_arm["sflow"], by_arm["optimal"]
        out["served"].append(1.0 if sflow.feasible else 0.0)
        if optimal.feasible:
            out["sflow_correctness"].append(sflow.correctness)
            out["delivered_bw"].append(
                min(1.0, sflow.bandwidth / optimal.bandwidth) if sflow.feasible else 0.0
            )
    else:
        for r in records:
            out["served"].append(1.0 if r.outcome in ("succeeded", "degraded") else 0.0)
            out["delivered_bw"].append(r.delivered_fraction)
        baseline, *runs = captured.federations
        for run in runs:
            if run.flow_graph is not None:
                out["sflow_correctness"].append(
                    run.flow_graph.correctness_coefficient(baseline.flow_graph)
                )
    return out
