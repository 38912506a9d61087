#!/usr/bin/env python3
"""Fig. 10 cell benchmark: cell throughput and tail, checked outputs, and a
per-layer trace measured from outside the package.

Run from the repository root::

    python3 cellbench/run.py --workload paper-mixed --seed 0 --seconds 30 --trace 0

``--trace 0`` times whole passes over the workload's corpus (at least two,
stopping near ``--seconds``) with nothing but the output capture installed
and prints the end-to-end metrics.  ``--trace 1`` runs one pass untraced
and the same pass traced, and prints the per-layer metrics and the tracing
overhead.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``cellbench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".cellbench-out"

#: End-to-end metrics of an untraced run: name -> unit.  They are the
#: ``end_to_end`` list of BENCHMARK.json, in the same order.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s_p50": "s",
    "cell_s_p90": "s",
    "peak_rss_mb": "MB",
    "sflow_correctness": "ratio",
    "served_frac": "ratio",
    "delivered_bw_frac": "ratio",
}

#: Per-layer self times (s per cell): metric -> span name.
LAYER_SECONDS = {
    "cell.self_s": "cell",
    "scenario.generate_s": "scenario.generate",
    "underlay.generate_s": "underlay.generate",
    "overlay.build_s": "overlay.build",
    "overlay.ego_view_s": "overlay.ego_view",
    "oracle.tree_s": "oracle.tree",
    "oracle.warm_s": "oracle.warm",
    "kernel.snapshot_s": "kernel.snapshot",
    "kernel.batched_trees_s": "kernel.batched_trees",
    "abstract_graph.build_s": "abstract_graph.build",
    "fixed.solve_s": "fixed.solve",
    "random.solve_s": "random.solve",
    "service_path.solve_s": "service_path.solve",
    "optimal.solve_s": "optimal.solve",
    "sflow.federate_s": "sflow.federate",
    "reductions.solve_assignment_s": "reductions.solve_assignment",
    "engine.self_s": "engine.step",
    "failures.plan_s": "failures.plan",
}

#: Per-layer call counts (per cell): metric -> span name.
LAYER_CALLS = {
    "overlay.ego_view_calls": "overlay.ego_view",
    "oracle.tree_calls": "oracle.tree",
    "kernel.snapshot_calls": "kernel.snapshot",
    "reductions.calls": "reductions.solve_assignment",
    "engine.events": "engine.step",
}

#: Per-layer counts read from the registry delta, the sFlow results or the
#: tracer's boundary counters (per cell).
LAYER_COUNTS = (
    "oracle.hits", "oracle.misses", "oracle.warmed", "oracle.carried",
    "oracle.dropped", "oracle.repaired", "kernel.trees", "abstract_graph.edges",
    "sflow.federations", "sflow.messages", "sflow.node_activations",
    "sflow.retransmissions", "sflow.failovers", "sflow.refederations",
    "engine.handler_error", "channel.messages", "channel.lost",
    "channel.duplicated", "channel.reordered", "detector.suspicions",
    "detector.heartbeats",
)

#: Setup samples per untraced run; setup_s is their median.
SETUP_PROBES = 5

#: Span cell id of the traced repeat of the first cell (kept out of the
#: per-layer table, used only for the exact-count check).
REPEAT_CELL = -1


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics of a traced run: name -> unit (BENCHMARK.json's
    ``per_layer`` list, in the same order)."""
    units = {name: "s/cell" for name in LAYER_SECONDS}
    units["sflow.local_compute_s"] = "s/cell"
    units.update({name: "count/cell" for name in LAYER_CALLS})
    units.update({name: "count/cell" for name in LAYER_COUNTS})
    units["oracle.hit_rate"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class CellRun:
    """One executed operation and everything measured about it."""

    spec: Any
    pass_number: int
    seconds: float
    failures: List[str]
    counts: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    quality: Dict[str, List[float]] = field(default_factory=dict)


def p90(values: Sequence[float]) -> float:
    """90th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``q``."""
    return n - math.ceil(q / 100.0 * n) >= 10


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed: the order in which each pass visits the corpus")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus-seed", type=int, default=0,
        help="workload seed the corpus's scenarios derive from (held-out corpus: 1)",
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="one-round corpus of small networks and one setup probe (the benchmark's tests)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench_cells
    except ImportError as exc:
        print(f"cellbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workload = bench_cells.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"cellbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_cells.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("cellbench: --seconds must be > 0", file=sys.stderr)
        return 2

    bench = Bench(bench_cells, workload, args.seed, args.corpus_seed, args.tiny)
    bench.warm_up()
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    if args.trace:
        result = bench.traced()
    else:
        setup = probe_setup(args, 1 if args.tiny else SETUP_PROBES)
        result = bench.timed(args.seconds, setup)
    print(json.dumps(result))
    return 0


def probe_setup(args: argparse.Namespace, probes: int) -> List[float]:
    """Wall seconds from spawning a fresh interpreter on this benchmark
    until it reports its first cell ready (imports + warm-up), ``probes``
    times."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed),
               "--corpus-seed", str(args.corpus_seed), "--seconds", "1"]
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


class Bench:
    """One workload corpus at one run seed: warm-up, timed and traced passes."""

    def __init__(self, cells: Any, workload: Any, seed: int, corpus_seed: int,
                 tiny: bool) -> None:
        self.cells = cells
        self.workload = workload
        self.seed = seed
        self.corpus_seed = corpus_seed
        self.corpus = cells.corpus(workload, corpus_seed, tiny=tiny)
        self.capture = cells.Capture()

    def warm_up(self) -> None:
        self.cells.run_cell(self.workload, self.cells.warmup_spec(self.workload, self.corpus_seed))

    # -- executing cells ----------------------------------------------------

    def execute(self, spec: Any, pass_number: int, tracer: Any = None,
                cell: Optional[int] = None) -> CellRun:
        """Run one cell, time it, and check its outputs.  Traced, its spans
        carry ``cell`` (default: the spec's index)."""
        cells = self.cells
        self.capture.take()
        started = time.perf_counter()
        try:
            if tracer is None:
                records, delta = cells.run_cell(self.workload, spec)
            else:
                tracer.cell = spec.index if cell is None else cell
                records, delta = tracer.call(
                    "cell", cells.run_cell, (self.workload, spec), {}
                )
        except Exception:  # any escape is a failed operation, reported below
            seconds = time.perf_counter() - started
            self.capture.take()
            return CellRun(spec, pass_number, seconds, [traceback.format_exc(limit=3)])
        seconds = time.perf_counter() - started
        captured = self.capture.take()
        run = CellRun(
            spec, pass_number, seconds,
            cells.check_cell(self.workload, records, delta, captured),
            counts=cells.cell_counts(delta, captured),
            digest=cells.record_digest(records),
        )
        try:
            run.quality = cells.quality_figures(self.workload, records, captured)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            run.failures.append(f"quality figures: {exc!r}")
        return run

    def run_pass(self, number: int, tracer: Any = None) -> List[CellRun]:
        """One pass over the corpus in this run's order for pass ``number``."""
        return [self.execute(spec, number, tracer)
                for spec in self.cells.pass_order(self.corpus, self.seed, number)]

    def compare(self, first: CellRun, again: CellRun, label: str) -> None:
        """Exact counts and record digest must repeat between two runs of
        one cell (only counts both runs measured are compared); a mismatch
        fails ``again``."""
        if first.digest != again.digest:
            again.failures.append(f"{label}: record digest differs")
        for name in self.cells.EXACT_COUNTS:
            if name in first.counts and name in again.counts:
                if first.counts[name] != again.counts[name]:
                    again.failures.append(
                        f"{label}: {name} {first.counts[name]:g} != {again.counts[name]:g}"
                    )

    def repeats(self, runs: List[CellRun]) -> None:
        """Compare every later run of a cell with its first run."""
        first: Dict[int, CellRun] = {}
        for run in runs:
            if run.spec.index in first:
                self.compare(first[run.spec.index], run, f"repeat in pass {run.pass_number}")
            else:
                first[run.spec.index] = run

    # -- untraced run --------------------------------------------------------

    def timed(self, seconds: float, setup: List[float]) -> Dict[str, Any]:
        """Whole passes over the corpus, at least two, stopping at the pass
        boundary nearest to ``seconds``."""
        runs: List[CellRun] = []
        self.capture.install()
        try:
            started = time.perf_counter()
            number = 0
            while True:
                pass_started = time.perf_counter()
                runs += self.run_pass(number)
                number += 1
                now = time.perf_counter()
                if number >= 2 and now - started + (now - pass_started) / 2 >= seconds:
                    break
        finally:
            self.capture.uninstall()
        self.repeats(runs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = [run.seconds for run in runs]
        metrics = {
            "setup_s": statistics.median(setup),
            "cells_per_s": len(runs) / sum(times),
            "cell_s_p50": statistics.median(times),
            "cell_s_p90": p90(times),
            "peak_rss_mb": peak_rss_mb,
            **self.quality(runs),
        }
        failed = sum(1 for run in runs if run.failures)
        self.print_header("timed", runs)
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
        for name, unit in END_TO_END.items():
            note = ""
            if name in ("cell_s_p50", "cell_s_p90"):
                q = 50 if name.endswith("50") else 90
                if not supported(len(runs), q):
                    note = f"  (n={len(runs)}: fewer than 10 cells beyond p{q}; context only)"
            print(f"  {name:<20} {metrics[name]:>12.6g} {unit}{note}")
        print(f"  {'failed_frac':<20} {failed / len(runs):>12.6g} ratio "
              f"({failed} of {len(runs)} operations)")
        self.print_failures(runs)
        return self.result(runs, {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in END_TO_END.items()})

    @staticmethod
    def quality(runs: List[CellRun]) -> Dict[str, float]:
        """Sim-time quality over the first pass (a function of the corpus)."""
        pooled: Dict[str, List[float]] = {"sflow_correctness": [], "served": [], "delivered_bw": []}
        for run in runs:
            if run.pass_number == 0:
                for key, values in run.quality.items():
                    pooled[key].extend(values)
        mean = lambda xs: statistics.fmean(xs) if xs else float("nan")  # noqa: E731
        return {
            "sflow_correctness": mean(pooled["sflow_correctness"]),
            "served_frac": mean(pooled["served"]),
            "delivered_bw_frac": mean(pooled["delivered_bw"]),
        }

    # -- traced run ------------------------------------------------------------

    def traced(self) -> Dict[str, Any]:
        """One untraced pass, the same pass traced, and the first cell
        traced once more."""
        from bench_trace import Patches, Tracer, install

        tracer = Tracer()
        patches = Patches()
        self.capture.install()
        try:
            plain = self.run_pass(0)
            install(tracer, patches)
            try:
                traced = [self.execute(run.spec, 1, tracer) for run in plain]
                repeat = self.execute(plain[0].spec, 2, tracer, cell=REPEAT_CELL)
            finally:
                patches.undo()
        finally:
            self.capture.uninstall()
        counts = self.span_counts(tracer)
        for run in traced:
            run.counts.update(counts.get(run.spec.index, {}))
        repeat.counts.update(counts.get(REPEAT_CELL, {}))
        for untraced, run in zip(plain, traced):
            self.compare(untraced, run, "traced vs untraced")
        self.compare(traced[0], repeat, "traced repeat")
        path = OUT_DIR / f"spans-{self.workload.name}-seed{self.seed}.jsonl"
        tracer.write(path)
        metrics = self.layer_metrics(tracer, plain, traced)
        self.print_header("traced", traced)
        self.print_layers(metrics, traced)
        print(f"  spans written to {path.relative_to(ROOT)}")
        self.print_failures(plain + traced + [repeat])
        return self.result(plain + traced + [repeat],
                           {name: {"value": metrics[name], "unit": unit}
                            for name, unit in per_layer_units().items()})

    @staticmethod
    def span_counts(tracer: Any) -> Dict[int, Dict[str, float]]:
        """Call and boundary counts of every traced cell, by cell id."""
        wanted = {span_name: metric for metric, span_name in LAYER_CALLS.items()}
        by_cell: Dict[int, Dict[str, float]] = {}

        def counts(cell: int) -> Dict[str, float]:
            if cell not in by_cell:
                by_cell[cell] = {name: 0.0 for name in LAYER_CALLS}
                by_cell[cell].update({"kernel.trees": 0.0, "abstract_graph.edges": 0.0})
            return by_cell[cell]

        for span in tracer.spans:
            if span.name in wanted:
                counts(span.cell)[wanted[span.name]] += span.count
        for (cell, name), value in tracer.counts.items():
            counts(cell)[name] += value
        return by_cell

    def layer_metrics(self, tracer: Any, plain: List[CellRun],
                      traced: List[CellRun]) -> Dict[str, float]:
        """Per-cell means over the traced pass (the repeat cell left out)."""
        from bench_trace import layer_table

        n = len(traced)
        table = layer_table([span for span in tracer.spans if span.cell >= 0])
        metrics: Dict[str, float] = {}
        for metric, name in LAYER_SECONDS.items():
            metrics[metric] = table.get(name, (0.0, 0))[0] / n
        for metric, name in LAYER_CALLS.items():
            metrics[metric] = table.get(name, (0.0, 0))[1] / n
        for name in LAYER_COUNTS + ("sflow.local_compute_s",):
            metrics[name] = sum(run.counts.get(name, 0.0) for run in traced) / n
        lookups = metrics["oracle.hits"] + metrics["oracle.misses"]
        metrics["oracle.hit_rate"] = metrics["oracle.hits"] / lookups if lookups else 0.0
        metrics["trace.overhead_frac"] = (
            sum(run.seconds for run in traced) / sum(run.seconds for run in plain) - 1.0
        )
        return metrics

    # -- reporting ---------------------------------------------------------------

    def print_header(self, mode: str, runs: List[CellRun]) -> None:
        passes = 1 + max(run.pass_number for run in runs) - min(run.pass_number for run in runs)
        print(f"cellbench {mode}: workload={self.workload.name} corpus_seed={self.corpus_seed} "
              f"seed={self.seed} corpus={len(self.corpus)} cells passes={passes} "
              f"cell_seconds={sum(r.seconds for r in runs):.3f}")
        print(f"  why: {self.workload.why}")

    def print_layers(self, metrics: Dict[str, float], traced: List[CellRun]) -> None:
        per_cell = sum(run.seconds for run in traced) / len(traced)
        print(f"  {'layer (self time)':<32} {'s/cell':>10} {'share':>7}")
        for metric in LAYER_SECONDS:
            share = metrics[metric] / per_cell if per_cell else 0.0
            print(f"  {metric:<32} {metrics[metric]:>10.5f} {share:>6.1%}")
        print(f"  {'count':<32} {'per cell':>10}")
        for metric in list(LAYER_CALLS) + list(LAYER_COUNTS):
            print(f"  {metric:<32} {metrics[metric]:>10.1f}")
        print(f"  {'sflow.local_compute_s':<32} {metrics['sflow.local_compute_s']:>10.5f}")
        print(f"  {'oracle.hit_rate':<32} {metrics['oracle.hit_rate']:>10.4f}")
        print(f"  {'trace.overhead_frac':<32} {metrics['trace.overhead_frac']:>10.4f}")

    @staticmethod
    def print_failures(runs: List[CellRun]) -> None:
        for run in runs:
            for failure in run.failures:
                print(f"  FAILED cell {run.spec.index} (N={run.spec.size}): {failure}")

    @staticmethod
    def result(runs: List[CellRun], metrics: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        failed = sum(1 for run in runs if run.failures)
        return {
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": metrics,
        }


if __name__ == "__main__":
    sys.exit(main())
