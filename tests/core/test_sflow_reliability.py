"""Tests for the sFlow reliability layer (acks + retransmission) under a
lossy transport."""

import pytest

from repro.core.detector import RetryPolicy
from repro.core.sflow import FederationOutcome, SFlowAlgorithm, SFlowConfig
from repro.errors import SFlowError
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    travel_agency_scenario,
)
from repro.sim.channels import MessageNetwork
from repro.sim.engine import Environment


@pytest.fixture
def scenario():
    return travel_agency_scenario()


class TestConfigValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=-0.1)
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=1.0)

    def test_retransmit_timeout_positive(self):
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=0.1, retransmit_timeout=0)

    def test_max_retries_nonnegative(self):
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=0.1, max_retries=-1)


class TestLossyTransportPrimitive:
    def test_loss_fn_drops_deliveries_but_counts_sends(self):
        env = Environment()
        network = MessageNetwork(env, loss_fn=lambda s, d, e: True)
        box = network.register("dst")
        network.send("src", "dst", "doomed")
        env.run()
        assert len(box) == 0
        assert network.stats.messages == 1
        assert network.stats.lost == 1

    def test_no_loss_fn_means_lossless(self):
        env = Environment()
        network = MessageNetwork(env)
        box = network.register("dst")
        network.send("src", "dst", "fine")
        env.run()
        assert len(box) == 1
        assert network.stats.lost == 0


class TestLossyFederation:
    def test_same_result_as_lossless(self, scenario):
        clean = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        lossy_alg = SFlowAlgorithm(
            SFlowConfig(loss_rate=0.3, loss_seed=5, retransmit_timeout=20)
        )
        lossy = lossy_alg.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert lossy.assignment == clean.assignment
        lossy.validate()

    def test_reliability_accounting(self, scenario):
        algorithm = SFlowAlgorithm(
            SFlowConfig(loss_rate=0.3, loss_seed=5, retransmit_timeout=20)
        )
        algorithm.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        result = algorithm.last_result
        assert result.lost_messages > 0
        assert result.retransmissions > 0
        assert result.acks > 0
        # Every sfederate that was processed got acknowledged; sends =
        # originals + retransmissions + acks (initial message is exempt).
        assert result.messages > len(scenario.requirement.edges()) + 1

    def test_lossless_run_has_no_reliability_traffic(self, scenario):
        algorithm = SFlowAlgorithm()
        algorithm.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        result = algorithm.last_result
        assert result.retransmissions == 0
        assert result.lost_messages == 0
        assert result.acks == 0

    def test_loss_slows_convergence(self, scenario):
        clean_alg = SFlowAlgorithm()
        clean_alg.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        lossy_alg = SFlowAlgorithm(
            SFlowConfig(loss_rate=0.4, loss_seed=7, retransmit_timeout=25)
        )
        lossy_alg.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert (
            lossy_alg.last_result.convergence_time
            >= clean_alg.last_result.convergence_time
        )

    def test_deterministic_under_seeded_loss(self, scenario):
        def run():
            algorithm = SFlowAlgorithm(
                SFlowConfig(loss_rate=0.25, loss_seed=11, retransmit_timeout=15)
            )
            algorithm.solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            result = algorithm.last_result
            return (
                result.messages,
                result.retransmissions,
                result.convergence_time,
            )

        assert run() == run()

    @pytest.mark.parametrize("loss_rate", [0.1, 0.3, 0.5])
    def test_federation_completes_across_loss_rates(self, loss_rate):
        scenario = generate_scenario(
            ScenarioConfig(network_size=14, n_services=5, seed=9)
        )
        algorithm = SFlowAlgorithm(
            SFlowConfig(
                loss_rate=loss_rate, loss_seed=3, retransmit_timeout=10
            )
        )
        graph = algorithm.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert graph.is_complete()

    def test_gives_up_after_max_retries(self, scenario):
        # 100% practical loss on protocol messages: every retry fails.
        algorithm = SFlowAlgorithm(
            SFlowConfig(
                loss_rate=0.99,
                loss_seed=0,
                retransmit_timeout=5,
                max_retries=1,
            )
        )
        with pytest.raises(SFlowError):
            algorithm.solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )

    def test_failed_reason_counts_retry_policy_attempts(self, scenario):
        # Failover off with a RetryPolicy: the FAILED reason must name the
        # policy's budget (3), not the unused fixed schedule's
        # max_retries + 1 (2).
        config = SFlowConfig(
            loss_rate=0.99,
            loss_seed=0,
            max_retries=1,
            failover=False,
            retry_policy=RetryPolicy(max_attempts=3, base=5.0, jitter=0.0),
        )
        result = SFlowAlgorithm(config).federate(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert result.outcome is FederationOutcome.FAILED
        assert "lost 3 times; failover disabled" in result.failure_reason
