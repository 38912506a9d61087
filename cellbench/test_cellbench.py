"""Tests of the cell benchmark itself.

Run from the repository root::

    python3 -m pytest cellbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_cells  # noqa: E402
import run  # noqa: E402
from bench_trace import Span, Tracer, layer_table, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "cellbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_cells.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(bench_cells.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                      "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_corpus_and_pass_order_derive_from_their_seeds():
    workload = bench_cells.WORKLOADS["paper-mixed"]
    corpus = bench_cells.corpus(workload, 0)
    assert corpus == bench_cells.corpus(workload, 0)
    held_out = bench_cells.corpus(workload, 1)
    assert [c.seed for c in corpus] != [c.seed for c in held_out]
    # Every corpus holds the same size x class mix whatever its seed.
    mix = sorted((c.size, c.requirement_class.value) for c in corpus)
    assert mix == sorted((c.size, c.requirement_class.value) for c in held_out)
    assert len(mix) == 5 * 4 * workload.rounds
    order = bench_cells.pass_order(corpus, 3, 0)
    assert order == bench_cells.pass_order(corpus, 3, 0)
    assert order != bench_cells.pass_order(corpus, 4, 0)
    assert sorted(order, key=lambda c: c.index) == corpus


def _tampering(monkeypatch, tamper):
    original = bench_cells.run_cell

    def tampered(workload, spec):
        records, delta = original(workload, spec)
        tamper(records)
        return records, delta

    monkeypatch.setattr(bench_cells, "run_cell", tampered)


def _failed_frac(workload_name: str) -> float:
    bench = run.Bench(bench_cells, bench_cells.WORKLOADS[workload_name], 5, 0, True)
    result = bench.timed(0.01, [0.5])
    return result["failed"] / result["attempted"]


def test_untampered_tiny_runs_have_no_failures():
    assert _failed_frac("paper-mixed") == 0.0
    assert _failed_frac("gray-faults") == 0.0


def test_sflow_beating_optimal_raises_failed_frac(monkeypatch):
    def sflow_wins(records):
        by_arm = {r.algorithm: r for r in records}
        sflow, optimal = by_arm["sflow"], by_arm["optimal"]
        if optimal.feasible:
            sflow.feasible = True
            sflow.bandwidth = optimal.bandwidth * 2
            sflow.latency = optimal.latency

    _tampering(monkeypatch, sflow_wins)
    assert _failed_frac("paper-mixed") > 0.0


def test_non_identical_intensity_zero_run_raises_failed_frac(monkeypatch):
    def diverge(records):
        for record in records:
            if record.intensity == 0:
                record.identical_to_baseline = False

    _tampering(monkeypatch, diverge)
    assert _failed_frac("gray-faults") == 1.0


def test_count_that_does_not_repeat_fails_the_repeat(monkeypatch):
    original = bench_cells.cell_counts
    calls = iter(range(1000))

    def drifting(delta, captured):
        counts = original(delta, captured)
        counts["oracle.hits"] += next(calls)
        return counts

    monkeypatch.setattr(bench_cells, "cell_counts", drifting)
    bench = run.Bench(bench_cells, bench_cells.WORKLOADS["paper-mixed"], 5, 0, True)
    result = bench.timed(0.01, [0.5])
    # Every run after the first pass repeats a cell with a different count.
    assert result["failed"] == result["attempted"] - len(bench.corpus)


def test_graph_check_rejects_a_route_over_a_missing_link():
    workload = bench_cells.WORKLOADS["paper-mixed"]
    capture = bench_cells.Capture()
    capture.install()
    try:
        bench_cells.run_cell(workload, bench_cells.CellSpec(0, 20, None, 11))
    finally:
        capture.uninstall()
    arm, requirement, overlay, graph = next(
        g for g in capture.take().graphs if g[0] == "optimal"
    )
    assert bench_cells.graph_problems(graph, requirement, overlay, exact_quality=True) == []
    edge = next(e for e in graph.edges() if len(e.overlay_path) >= 2)
    stranger = next(i for i in overlay.instances()
                    if i not in edge.overlay_path and overlay.link(edge.src, i) is None)
    broken = type(edge)(edge.src, edge.dst, edge.quality, (edge.src, stranger, edge.dst))
    graph._edges[edge.requirement_edge] = broken
    problems = bench_cells.graph_problems(graph, requirement, overlay, exact_quality=True)
    assert any("missing link" in p for p in problems)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(1, "root", 0, 0, 0.0, 10.0, busy=10.0),
        Span(2, "a", 1, 0, 1.0, 4.0, busy=3.0),
        Span(3, "b", 1, 0, 3.0, 6.0, busy=3.0),  # overlaps a: union is 1..6
        Span(4, "hot", 1, 0, 6.5, 9.5, busy=2.0, count=3, aggregate=True),
        Span(5, "leaf", 2, 0, 2.0, 3.0, busy=1.0),
        Span(6, "spill", 3, 0, 5.0, 7.0, busy=2.0),  # clipped to b's end
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 1.0, 6: 2.0}
    assert layer_table(spans)["hot"] == (2.0, 3)


def test_tracer_nests_and_aggregates_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return tracer.call("hot", lambda: None, (), {}, aggregate=True)

    def body():
        leaf()
        leaf()
        return tracer.call("child", lambda: "done", (), {})

    assert tracer.call("cell", body, (), {}) == "done"
    table = layer_table(tracer.spans)
    assert [s.name for s in tracer.spans] == ["cell", "hot", "child"]
    assert table["hot"] == (2.0, 2)
    assert table["child"] == (1.0, 1)
    # One tick per clock read: cell 0..7, hot 1..2 and 3..4, child 5..6.
    assert table["cell"] == (7.0 - 2.0 - 1.0, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "cellbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run_bench("--workload", "paper-mixed", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason=(
    "known defect: after a failover re-pins s1, a gray federation reports "
    "SUCCEEDED with requirement edge s1->s2 never realised (README, "
    "'Known defect surfaced by the checks')"
))
def test_gray_failover_keeps_the_flow_graph_complete():
    workload = bench_cells.WORKLOADS["gray-faults"]
    capture = bench_cells.Capture()
    capture.install()
    try:
        records, delta = bench_cells.run_cell(
            workload, bench_cells.CellSpec(0, 30, None, 280032636)
        )
    finally:
        capture.uninstall()
    assert bench_cells.check_cell(workload, records, delta, capture.take()) == []
