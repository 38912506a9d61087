"""The route oracle is a pure cost switch: cache on == cache off.

Failure campaigns crash, degrade and revive instances while sFlow plans
over cached local views.  Whatever the oracle caches, carries or drops,
the trial records must equal a run that computes every tree directly.
"""

from dataclasses import asdict

import pytest

from repro.eval.robustness import (
    GrayFailureConfig,
    GrayFailureExperiment,
    RobustnessConfig,
    RobustnessExperiment,
)
from repro.routing.oracle import RouteOracle


@pytest.fixture(autouse=True)
def fresh_default_oracle():
    """Both arms start from, and leave behind, a fresh default oracle."""
    RouteOracle.reset_default()
    yield
    RouteOracle.reset_default()


def _rows(records):
    return [
        {k: v for k, v in asdict(r).items() if k != "elapsed_seconds"}
        for r in records
    ]


def _cache_on_and_off(experiment):
    cached = _rows(experiment().run())
    RouteOracle.reset_default().enabled = False
    direct = _rows(experiment().run())
    return cached, direct


def test_gray_failure_records_do_not_depend_on_the_cache():
    # One of the seeds whose intensity-0.6 record used to change with the
    # cache, while crash handling mutated the cached planning views.
    config = GrayFailureConfig(
        network_sizes=(20,), trials=1, seed=554729510, workers=0,
    )
    cached, direct = _cache_on_and_off(lambda: GrayFailureExperiment(config))
    assert cached == direct


def test_crash_campaign_records_do_not_depend_on_the_cache():
    config = RobustnessConfig(
        network_sizes=(20, 30), trials=4, seed=0, workers=0,
    )
    cached, direct = _cache_on_and_off(lambda: RobustnessExperiment(config))
    assert cached == direct
