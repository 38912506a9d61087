"""sFlow realises committed edges on demand, and plans without waste.

A federation realises only the requirement edges it commits.  Each one
must equal the edge the full service abstract graph would give for that
instance pair -- same quality, same overlay path, ``UNREACHABLE`` where
the pair has no route.  The reference graph here is built with the route
oracle disabled, so it comes from the pure tree functions.
"""

import pytest

from repro.core.sflow import SFlowConfig, _Federation, _PlanningView
from repro.eval.robustness import GrayFailureConfig, GrayFailureExperiment
from repro.network.metrics import UNREACHABLE, PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.oracle import RouteOracle
from repro.services.abstract_graph import AbstractGraph
from repro.services.flowgraph import FlowEdge
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import ScenarioConfig, generate_scenario

#: A gray-failure cell whose faulty federations both fail over (N=20).
GRAY_FAILOVER = GrayFailureConfig(network_sizes=(20,), trials=1, seed=1, workers=0)


@pytest.fixture(autouse=True)
def fresh_default_oracle():
    RouteOracle.reset_default()
    yield
    RouteOracle.reset_default()


def _reference(requirement, overlay, pairs):
    """``FlowEdge`` per pair from the eagerly built abstract graph."""
    RouteOracle.reset_default().enabled = False
    try:
        abstract = AbstractGraph.build(requirement, overlay)
    finally:
        RouteOracle.reset_default()
    expected = {}
    for src, dst in pairs:
        edge = abstract.edge(src, dst)
        expected[src, dst] = (
            FlowEdge(src, dst, UNREACHABLE, ())
            if edge is None
            else FlowEdge(src, dst, edge.quality, edge.overlay_path)
        )
    return expected


def _requirement_pairs(requirement, overlay):
    return [
        (a, b)
        for a_sid, b_sid in requirement.edges()
        for a in overlay.instances_of(a_sid)
        for b in overlay.instances_of(b_sid)
    ]


def _assert_realised_like_abstract(requirement, overlay, source):
    federation = _Federation(requirement, overlay, source, SFlowConfig())
    pairs = _requirement_pairs(requirement, overlay)
    realised = {pair: federation.realize_edge(*pair) for pair in pairs}
    assert realised == _reference(requirement, overlay, pairs)
    return realised


@pytest.mark.parametrize("clazz", [
    RequirementClass.PATH,
    RequirementClass.DISJOINT_PATHS,
    RequirementClass.SPLIT_MERGE,
    RequirementClass.GENERAL,
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_requirement_pair_matches_the_abstract_graph(clazz, seed):
    scenario = generate_scenario(ScenarioConfig(
        network_size=20, requirement_class=clazz, seed=seed,
    ))
    realised = _assert_realised_like_abstract(
        scenario.requirement, scenario.overlay, scenario.source_instance
    )
    assert any(edge.quality.reachable for edge in realised.values())


def test_unreachable_pairs_match_the_abstract_graph():
    """``b/5`` has no incoming link and ``c/6`` none at all: every pair
    touching them is unreachable, with an empty path."""
    overlay = OverlayGraph()
    a, b, c = ServiceInstance("a", 0), ServiceInstance("b", 1), ServiceInstance("c", 2)
    overlay.add_link(a, b, PathQuality(5, 1))
    overlay.add_link(b, c, PathQuality(4, 2))
    overlay.add_link(ServiceInstance("b", 5), c, PathQuality(9, 1))
    overlay.add_instance(ServiceInstance("c", 6))
    requirement = ServiceRequirement(edges=[("a", "b"), ("b", "c")])
    realised = _assert_realised_like_abstract(requirement, overlay, a)
    unreachable = [pair for pair, edge in realised.items() if not edge.quality.reachable]
    assert len(unreachable) == 3
    assert all(realised[pair].overlay_path == () for pair in unreachable)


def test_gray_cell_edges_match_the_abstract_graph_across_failover(monkeypatch):
    """Every edge a gray cell's federations commit -- failover re-pins
    included -- equals the abstract-graph edge for its pair."""
    real_realize = _Federation.realize_edge
    real_failover = _Federation._plan_failover
    in_failover = [False]
    calls = []  # (requirement, overlay, src, dst, edge, from failover)

    def realize(self, src, dst):
        edge = real_realize(self, src, dst)
        calls.append((self.requirement, self.overlay, src, dst, edge, in_failover[0]))
        return edge

    def plan_failover(self, src, dead, message):
        in_failover[0] = True
        try:
            return real_failover(self, src, dead, message)
        finally:
            in_failover[0] = False

    monkeypatch.setattr(_Federation, "realize_edge", realize)
    monkeypatch.setattr(_Federation, "_plan_failover", plan_failover)
    records = GrayFailureExperiment(GRAY_FAILOVER).run()
    assert sum(record.failovers for record in records) > 0
    assert any(repin for *_, repin in calls)
    for requirement, overlay, src, dst, edge, _ in calls:
        assert edge == _reference(requirement, overlay, [(src, dst)])[src, dst]


def test_federations_build_no_abstract_graph_and_fetch_each_tree_once(monkeypatch):
    """A gray cell (a fault-free federation, then faulty ones) never builds
    the abstract graph, and each planning view asks the oracle for a
    source's tree at most once."""
    real_build = AbstractGraph.build.__func__
    real_quality = _PlanningView.quality
    real_tree = RouteOracle.tree
    builds = []
    pricing = []  # the planning view currently pricing a pair
    fetched = []  # (planning view, source) per oracle lookup while pricing

    def build(cls, *args, **kwargs):
        builds.append(args)
        return real_build(cls, *args, **kwargs)

    def quality(self, src, dst):
        pricing.append(self)
        try:
            return real_quality(self, src, dst)
        finally:
            pricing.pop()

    def tree(self, graph, source, **kwargs):
        if pricing:
            fetched.append((pricing[-1], source))
        return real_tree(self, graph, source, **kwargs)

    monkeypatch.setattr(AbstractGraph, "build", classmethod(build))
    monkeypatch.setattr(_PlanningView, "quality", quality)
    monkeypatch.setattr(RouteOracle, "tree", tree)
    records = GrayFailureExperiment(GRAY_FAILOVER).run()
    assert min(r.intensity for r in records) == 0 < max(r.intensity for r in records)
    assert builds == []
    assert fetched
    assert len(fetched) == len(set(fetched))
