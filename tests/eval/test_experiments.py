"""Tests for the experiment sweeps."""

import math

import pytest

from repro.eval.experiments import (
    ALGORITHMS,
    EvaluationConfig,
    aggregate,
    run_evaluation,
    run_scalability,
    run_trial,
)
from repro.eval.robustness import GrayFailureConfig, RobustnessConfig
from repro.services.requirement import RequirementClass
from repro.services.workloads import ScenarioConfig, generate_scenario

SMALL = EvaluationConfig(network_sizes=(10, 14), trials=2, n_services=5, seed=1)


@pytest.fixture(scope="module")
def records():
    return run_evaluation(SMALL)


class TestConfig:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            EvaluationConfig(trials=0)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            EvaluationConfig(network_sizes=())

    @pytest.mark.parametrize(
        "config_cls", [EvaluationConfig, RobustnessConfig, GrayFailureConfig]
    )
    @pytest.mark.parametrize("n_services", [0, 1])
    def test_fewer_than_two_services_rejected(self, config_cls, n_services):
        # instance_range divides the network size by n_services.
        with pytest.raises(ValueError, match="source and sink"):
            config_cls(n_services=n_services)

    def test_instance_scaling(self):
        config = EvaluationConfig(n_services=5)
        lo, hi = config.instance_range(20)
        assert lo <= 20 / 5 <= hi

    def test_static_instances_when_scaling_off(self):
        config = EvaluationConfig(
            scale_instances=False, instances_per_service=(2, 2)
        )
        assert config.instance_range(50) == (2, 2)


class TestRunTrial:
    def test_records_for_all_algorithms(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=0)
        )
        records = run_trial(scenario)
        assert sorted(r.algorithm for r in records) == sorted(ALGORITHMS)

    def test_optimal_scores_perfect_correctness(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=0)
        )
        records = run_trial(scenario)
        optimal = next(r for r in records if r.algorithm == "optimal")
        assert optimal.correctness == 1.0
        assert optimal.feasible

    def test_correctness_bounded(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=1)
        )
        for rec in run_trial(scenario):
            assert 0.0 <= rec.correctness <= 1.0

    def test_sflow_has_message_metrics(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=2)
        )
        records = run_trial(scenario)
        sflow = next(r for r in records if r.algorithm == "sflow")
        assert sflow.messages > 0
        assert sflow.convergence_time > 0

    def test_non_sflow_has_no_message_metrics(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=2)
        )
        records = run_trial(scenario)
        fixed = next(r for r in records if r.algorithm == "fixed")
        assert fixed.messages == 0


class TestSweeps:
    def test_record_count(self, records):
        assert len(records) == 2 * 2 * len(ALGORITHMS)

    def test_deterministic(self, records):
        again = run_evaluation(SMALL)
        key = lambda r: (r.network_size, r.trial, r.algorithm)
        assert sorted(
            (r.network_size, r.algorithm, r.bandwidth, r.correctness)
            for r in records
        ) == sorted(
            (r.network_size, r.algorithm, r.bandwidth, r.correctness)
            for r in again
        )

    def test_all_sizes_present(self, records):
        assert {r.network_size for r in records} == {10, 14}

    def test_scalability_uses_path_requirements(self):
        records = run_scalability(SMALL)
        assert all(
            r.requirement_class in ("path", "single") for r in records
        )

    def test_sflow_never_beats_optimal_bandwidth(self, records):
        by_key = {}
        for rec in records:
            by_key.setdefault((rec.network_size, rec.trial), {})[
                rec.algorithm
            ] = rec
        for group in by_key.values():
            assert group["sflow"].bandwidth <= group["optimal"].bandwidth + 1e-9


class TestAggregate:
    def test_groups_by_size_and_algorithm(self, records):
        table = aggregate(records, "correctness", feasible_only=False)
        assert (10, "sflow") in table
        assert (14, "optimal") in table

    def test_feasible_only_drops_failures(self, records):
        loose = aggregate(records, "latency", feasible_only=False)
        strict = aggregate(records, "latency", feasible_only=True)
        # Strict aggregation never contains infinities.
        assert all(math.isfinite(v) for v in strict.values())
        assert set(strict) <= set(loose)


class TestParallelDeterminism:
    """The multiprocessing sweep must reproduce the serial sweep exactly.

    ``elapsed_seconds`` is the one field measured in wall-clock time (it
    times the algorithm run itself), so it is normalised to zero before
    comparison; every other field -- seeds, qualities, correctness,
    virtual-time convergence, message counts -- must be bit-identical.
    """

    @staticmethod
    def _normalized(records):
        from dataclasses import replace as dc_replace

        return [dc_replace(r, elapsed_seconds=0.0) for r in records]

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            EvaluationConfig(workers=-2)

    def test_parallel_matches_serial(self, records):
        from dataclasses import replace as dc_replace

        parallel = run_evaluation(dc_replace(SMALL, workers=2))
        assert self._normalized(parallel) == self._normalized(records)

    def test_parallel_scalability_matches_serial(self):
        from dataclasses import replace as dc_replace

        config = EvaluationConfig(
            network_sizes=(10,), trials=2, n_services=4, seed=3
        )
        serial = run_scalability(config)
        parallel = run_scalability(dc_replace(config, workers=2))
        assert self._normalized(parallel) == self._normalized(serial)

    def test_all_cpus_sentinel(self):
        from repro.eval.experiments import resolve_workers

        assert resolve_workers(0, 10) == 0
        assert resolve_workers(1, 10) == 0
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(-1, 100) >= 0
        assert resolve_workers(8, 1) == 0


class TestMergedMetrics:
    """Per-cell metric deltas merge identically across the worker split."""

    @staticmethod
    def _counters(snapshot):
        return {
            name: record["values"]
            for name, record in snapshot.items()
            if record["kind"] == "counter"
        }

    def test_parallel_merged_counters_match_serial(self):
        from dataclasses import replace as dc_replace

        from repro.eval.experiments import run_evaluation_with_metrics

        config = EvaluationConfig(
            network_sizes=(10,), trials=2, n_services=4, seed=3
        )
        serial_records, serial_metrics = run_evaluation_with_metrics(config)
        parallel_records, parallel_metrics = run_evaluation_with_metrics(
            dc_replace(config, workers=2)
        )
        normalize = TestParallelDeterminism._normalized
        assert normalize(parallel_records) == normalize(serial_records)
        assert self._counters(parallel_metrics) == self._counters(
            serial_metrics
        )
        # Histogram integer series (count/buckets) must agree too; only the
        # float sums may differ in the last bits.
        for name, record in serial_metrics.items():
            if record["kind"] != "histogram":
                continue
            twin = parallel_metrics[name]
            for labels, series in record["values"].items():
                assert twin["values"][labels]["count"] == series["count"]
                assert twin["values"][labels]["buckets"] == series["buckets"]

    def test_sweep_counts_protocol_sessions(self):
        from repro.eval.experiments import run_evaluation_with_metrics

        config = EvaluationConfig(
            network_sizes=(10,), trials=2, n_services=4, seed=3
        )
        _, metrics = run_evaluation_with_metrics(config)
        # One sflow federation per (size, trial) cell.
        sessions = sum(metrics["sflow.sessions"]["values"].values())
        assert sessions == 2
        assert sum(metrics["channel.messages"]["values"].values()) > 0

    def test_pooled_sweep_folds_worker_deltas_into_parent_registry(self):
        from dataclasses import replace as dc_replace

        from repro.obs import metrics as obs_metrics
        from repro.eval.experiments import run_evaluation_with_metrics

        config = EvaluationConfig(
            network_sizes=(10,), trials=2, n_services=4, seed=3, workers=2
        )
        counter = obs_metrics.registry().counter("sflow.sessions")
        before = counter.total
        _, metrics = run_evaluation_with_metrics(config)
        gained = counter.total - before
        assert gained == sum(metrics["sflow.sessions"]["values"].values())


class TestSweepTelemetry:
    """The sampled series bank folds identically across the worker split."""

    CONFIG = EvaluationConfig(
        network_sizes=(10,), trials=2, n_services=4, seed=3,
        sample_interval=5.0,
    )

    def test_parallel_series_bank_is_bit_identical_to_serial(self):
        from dataclasses import replace as dc_replace

        from repro.eval.experiments import run_evaluation_with_observability

        _, _, serial = run_evaluation_with_observability(self.CONFIG)
        _, _, parallel = run_evaluation_with_observability(
            dc_replace(self.CONFIG, workers=2)
        )
        assert serial.series  # the sampler actually produced points
        assert sorted(parallel.series) == sorted(serial.series)
        for key, expect in serial.series.items():
            got = parallel.series[key]
            if expect["kind"] != "histogram":
                assert got == expect, key
                continue
            # Histogram float sums carry the same last-bit caveat as the
            # snapshot algebra (serial cells subtract deltas off an
            # accumulated registry; workers start from zero).  Everything
            # integer -- times, counts, buckets -- must be bit-identical.
            assert dict(got, points=None) == dict(expect, points=None)
            assert len(got["points"]) == len(expect["points"])
            for mine, theirs in zip(got["points"], expect["points"]):
                t, count, total, buckets = theirs
                assert mine[0] == t and mine[1] == count
                assert mine[3] == buckets
                assert mine[2] == pytest.approx(total)

    def test_unset_interval_keeps_telemetry_empty(self):
        from dataclasses import replace as dc_replace

        from repro.eval.experiments import run_evaluation_with_observability

        _, _, telemetry = run_evaluation_with_observability(
            dc_replace(self.CONFIG, sample_interval=None)
        )
        assert telemetry.series == {}
        assert telemetry.slo_results == [] and telemetry.alerts == []

    def test_slos_are_graded_over_the_folded_bank(self):
        from dataclasses import replace as dc_replace

        from repro.eval.experiments import run_evaluation_with_observability
        from repro.obs.slo import SloSpec

        spec = SloSpec(
            name="no-handler-errors", metric="engine.handler_error",
            objective="<=", threshold=0.0, field="delta", window=100.0,
            error_budget=0.01, burn_rate_threshold=1.0,
        )
        _, _, telemetry = run_evaluation_with_observability(
            dc_replace(self.CONFIG, slos=(spec,))
        )
        (row,) = telemetry.slo_results
        assert row["slo"] == "no-handler-errors" and row["pass"]
        assert telemetry.alerts == []

    def test_slos_without_interval_rejected(self):
        from repro.obs.slo import DEFAULT_SLOS

        with pytest.raises(ValueError):
            EvaluationConfig(slos=tuple(DEFAULT_SLOS))


class TestSweepProfiles:
    """Campaign causal profiles fold identically across the worker split."""

    CONFIG = EvaluationConfig(
        network_sizes=(10,), trials=3, n_services=4, seed=3
    )

    def test_parallel_campaign_profile_is_bit_identical_to_serial(self):
        from dataclasses import replace as dc_replace

        from repro.eval.experiments import run_evaluation_with_profiles

        serial_records, serial = run_evaluation_with_profiles(self.CONFIG)
        parallel_records, parallel = run_evaluation_with_profiles(
            dc_replace(self.CONFIG, workers=2)
        )
        # One traced session per sflow run (the baselines are untraced).
        sflow = [r for r in serial_records if r.algorithm == "sflow"]
        assert serial.sessions == len(sflow) > 0
        assert serial.mean_path_duration > 0
        # CampaignProfile carries only floats summed in submission order --
        # no trace ids, no wall-clock -- so the whole dict matches exactly.
        assert parallel.as_dict() == serial.as_dict()

    def test_profiled_sweep_keeps_trial_records_unchanged(self):
        from repro.eval.experiments import run_evaluation, run_evaluation_with_profiles

        plain = run_evaluation(self.CONFIG)
        profiled, campaign = run_evaluation_with_profiles(self.CONFIG)
        assert [(r.algorithm, r.latency, r.convergence_time) for r in profiled] == [
            (r.algorithm, r.latency, r.convergence_time) for r in plain
        ]
        # The critical path *is* the convergence time, session by session.
        assert campaign.path_duration_total == pytest.approx(
            sum(r.convergence_time for r in plain if r.algorithm == "sflow")
        )

    def test_profiling_restores_an_outer_recording_sink(self):
        import io

        import repro.obs as obs
        from repro.eval.experiments import run_evaluation_with_profiles
        from repro.obs.trace import tracer as obs_tracer

        sink = io.StringIO()
        with obs.recording(sink):
            outer = obs_tracer().sink
            run_evaluation_with_profiles(self.CONFIG)
            assert obs_tracer().sink is outer  # shadowed, never closed
