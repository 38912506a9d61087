"""Tests for the service overlay graph."""

import math

import pytest

from repro.core.sflow import SFlowAlgorithm, _Federation
from repro.eval.robustness import GrayFailureConfig, GrayFailureExperiment
from repro.network.failures import degrade_links, fail_instances
from repro.network.metrics import UNREACHABLE, PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance, ServiceLink
from repro.network.underlay import Underlay
from repro.services.catalog import ServiceCatalog
from repro.services.workloads import ScenarioConfig, generate_scenario


class TestServiceInstance:
    def test_str_is_sid_slash_nid(self):
        assert str(ServiceInstance("map", 7)) == "map/7"

    def test_ordering_by_sid_then_nid(self):
        assert ServiceInstance("a", 9) < ServiceInstance("b", 0)
        assert ServiceInstance("a", 1) < ServiceInstance("a", 2)

    def test_hashable(self):
        assert ServiceInstance("a", 1) in {ServiceInstance("a", 1)}


class TestServiceLink:
    def test_self_loop_rejected(self):
        inst = ServiceInstance("a", 1)
        with pytest.raises(ValueError):
            ServiceLink(inst, inst, PathQuality(1, 1))


class TestOverlayConstruction:
    def test_add_instance_idempotent(self):
        overlay = OverlayGraph()
        inst = ServiceInstance("a", 1)
        overlay.add_instance(inst)
        overlay.add_instance(inst)
        assert len(overlay) == 1

    def test_add_link_registers_endpoints(self):
        overlay = OverlayGraph()
        a, b = ServiceInstance("a", 1), ServiceInstance("b", 2)
        overlay.add_link(a, b, PathQuality(5, 1))
        assert a in overlay and b in overlay
        assert overlay.num_links() == 1

    def test_duplicate_link_rejected(self):
        overlay = OverlayGraph()
        a, b = ServiceInstance("a", 1), ServiceInstance("b", 2)
        overlay.add_link(a, b, PathQuality(5, 1))
        with pytest.raises(ValueError):
            overlay.add_link(a, b, PathQuality(6, 1))

    def test_links_are_directed(self):
        overlay = OverlayGraph()
        a, b = ServiceInstance("a", 1), ServiceInstance("b", 2)
        overlay.add_link(a, b, PathQuality(5, 1))
        assert overlay.link(a, b) is not None
        assert overlay.link(b, a) is None
        assert overlay.link_quality(b, a) == UNREACHABLE

    def test_instances_of_sorted(self):
        overlay = OverlayGraph()
        overlay.add_instance(ServiceInstance("m", 5))
        overlay.add_instance(ServiceInstance("m", 2))
        assert [i.nid for i in overlay.instances_of("m")] == [2, 5]

    def test_successors_and_predecessors(self, small_overlay):
        src = ServiceInstance("src", 0)
        succ = [inst for inst, _ in small_overlay.successors(src)]
        assert succ == [ServiceInstance("mid", 1), ServiceInstance("mid", 2)]
        dst = ServiceInstance("dst", 3)
        preds = [inst for inst, _ in small_overlay.predecessors(dst)]
        assert preds == [ServiceInstance("mid", 1), ServiceInstance("mid", 2)]


class TestBuildFromUnderlay:
    @pytest.fixture
    def built(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [
            ServiceInstance("A", 0),
            ServiceInstance("B", 1),
            ServiceInstance("B", 3),
        ]
        return OverlayGraph.build(diamond_underlay, placement, catalog.compatible)

    def test_compatible_pairs_linked(self, built):
        a = ServiceInstance("A", 0)
        assert built.link(a, ServiceInstance("B", 1)) is not None
        assert built.link(a, ServiceInstance("B", 3)) is not None

    def test_incompatible_pairs_not_linked(self, built):
        # B does not feed A, and B does not feed B.
        assert built.link(ServiceInstance("B", 1), ServiceInstance("A", 0)) is None
        assert built.link(ServiceInstance("B", 1), ServiceInstance("B", 3)) is None

    def test_link_weight_is_shortest_underlay_path(self, diamond_underlay):
        # Default routing = plain shortest (latency) paths: 0 -> 3 via host 1.
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 0), ServiceInstance("B", 3)]
        overlay = OverlayGraph.build(
            diamond_underlay, placement, catalog.compatible
        )
        link = overlay.link(ServiceInstance("A", 0), ServiceInstance("B", 3))
        assert link.metrics == PathQuality(10.0, 2.0)
        assert link.underlay_path == (0, 1, 3)

    def test_widest_routing_option(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 0), ServiceInstance("B", 3)]
        overlay = OverlayGraph.build(
            diamond_underlay, placement, catalog.compatible,
            underlay_routing="widest",
        )
        link = overlay.link(ServiceInstance("A", 0), ServiceInstance("B", 3))
        assert link.metrics == PathQuality(50.0, 10.0)
        assert link.underlay_path == (0, 2, 3)

    def test_bad_routing_mode_rejected(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        with pytest.raises(ValueError):
            OverlayGraph.build(
                diamond_underlay,
                [ServiceInstance("A", 0), ServiceInstance("B", 1)],
                catalog.compatible,
                underlay_routing="fastest",
            )

    def test_colocated_instances_get_ideal_link(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 2), ServiceInstance("B", 2)]
        overlay = OverlayGraph.build(diamond_underlay, placement, catalog.compatible)
        link = overlay.link(ServiceInstance("A", 2), ServiceInstance("B", 2))
        assert link.metrics.latency == 0.0
        assert link.metrics.bandwidth == math.inf

    def test_unknown_host_rejected(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        with pytest.raises(KeyError):
            OverlayGraph.build(
                diamond_underlay, [ServiceInstance("A", 99)], catalog.compatible
            )


class TestEgoView:
    @pytest.fixture
    def line_overlay(self):
        """a/0 -> b/1 -> c/2 -> d/3 (directed line)."""
        overlay = OverlayGraph()
        insts = [
            ServiceInstance(s, i) for i, s in enumerate(["a", "b", "c", "d"])
        ]
        for u, v in zip(insts, insts[1:]):
            overlay.add_link(u, v, PathQuality(5, 1))
        return overlay, insts

    def test_zero_hops_is_self(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[0], 0)
        assert list(view.instances()) == [insts[0]]
        assert view.num_links() == 0

    def test_radius_counts_undirected_hops(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[2], 1)
        assert set(view.instances()) == {insts[1], insts[2], insts[3]}

    def test_out_direction_only_follows_downstream(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[1], 2, direction="out")
        assert set(view.instances()) == {insts[1], insts[2], insts[3]}

    def test_in_direction_only_follows_upstream(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[2], 2, direction="in")
        assert set(view.instances()) == {insts[0], insts[1], insts[2]}

    def test_view_keeps_internal_links(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[1], 1)
        assert view.link(insts[0], insts[1]) is not None
        assert view.link(insts[1], insts[2]) is not None
        assert view.link(insts[2], insts[3]) is None  # c->d endpoint d outside

    def test_large_radius_is_whole_overlay(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[0], 10)
        assert len(view) == len(overlay)
        assert view.num_links() == overlay.num_links()

    def test_unknown_root_rejected(self, line_overlay):
        overlay, _ = line_overlay
        with pytest.raises(KeyError):
            overlay.ego_view(ServiceInstance("zz", 99), 2)

    def test_negative_hops_rejected(self, line_overlay):
        overlay, insts = line_overlay
        with pytest.raises(ValueError):
            overlay.ego_view(insts[0], -1)

    def test_bad_direction_rejected(self, line_overlay):
        overlay, insts = line_overlay
        with pytest.raises(ValueError):
            overlay.ego_view(insts[0], 1, direction="sideways")

    def test_same_reached_set_shares_one_view(self, line_overlay):
        overlay, (a, b, c, d) = line_overlay
        view = overlay.ego_view(b, 1)  # {a, b, c}
        assert overlay.ego_view(b, 1) is view
        assert overlay.ego_view(a, 2) is view
        assert overlay.ego_view(c, 2, direction="in") is view

    def test_different_reached_set_gets_another_view(self, line_overlay):
        overlay, (a, b, c, d) = line_overlay
        view = overlay.ego_view(b, 1)  # {a, b, c}
        wider = overlay.ego_view(b, 2)  # {a, b, c, d}
        downstream = overlay.ego_view(b, 1, direction="out")  # {b, c}
        assert wider is not view and downstream is not view
        assert set(wider.instances()) == {a, b, c, d}
        assert set(downstream.instances()) == {b, c}

    def test_whole_overlay_ball_is_not_the_overlay(self, line_overlay):
        overlay, (a, *_) = line_overlay
        assert overlay.ego_view(a, 10) is not overlay

    def test_add_instance_clears_memo(self, line_overlay):
        overlay, (a, b, c, d) = line_overlay
        view = overlay.ego_view(b, 1)
        overlay.add_instance(b)  # already present: nothing changes
        assert overlay.ego_view(b, 1) is view
        overlay.add_instance(ServiceInstance("e", 4))
        rebuilt = overlay.ego_view(b, 1)
        assert rebuilt is not view
        assert set(rebuilt.instances()) == set(view.instances())

    def test_add_link_clears_memo(self, line_overlay):
        overlay, (a, b, c, d) = line_overlay
        view = overlay.ego_view(b, 1)
        overlay.add_link(a, c, PathQuality(7, 2))
        rebuilt = overlay.ego_view(b, 1)
        assert rebuilt is not view
        assert view.link(a, c) is None
        assert rebuilt.link(a, c) is not None

    def test_subgraph_and_fail_instances_stay_fresh(self, line_overlay):
        overlay, (a, b, c, d) = line_overlay
        view = overlay.ego_view(b, 1)
        first = overlay.subgraph([a, b, c])
        second = overlay.subgraph([a, b, c])
        assert first is not second and view not in (first, second)
        failed = fail_instances(overlay, [d])
        assert fail_instances(overlay, [d]) is not failed
        assert failed is not view and failed is not overlay

    def test_one_subgraph_per_distinct_ball_in_a_gray_cell(self, monkeypatch):
        """Every ``ego_view`` call of a gray-failure cell builds at most
        one view per (overlay, reached set); the rest are memo hits."""
        real_ego_view = OverlayGraph.ego_view
        real_subgraph = OverlayGraph.subgraph
        inside = [False]
        calls = [0]
        builds = [0]
        balls = set()
        overlays = []  # keeps every overlay alive so ids stay unique

        def counting_ego_view(self, root, hops, *, direction="both"):
            inside[0] = True
            try:
                view = real_ego_view(self, root, hops, direction=direction)
            finally:
                inside[0] = False
            calls[0] += 1
            overlays.append(self)
            balls.add((id(self), frozenset(view.instances())))
            return view

        def counting_subgraph(self, keep):
            if inside[0]:
                builds[0] += 1
            return real_subgraph(self, keep)

        monkeypatch.setattr(OverlayGraph, "ego_view", counting_ego_view)
        monkeypatch.setattr(OverlayGraph, "subgraph", counting_subgraph)
        GrayFailureExperiment(GrayFailureConfig(
            network_sizes=(20,), trials=1, seed=0, workers=0,
        )).run()
        assert builds[0] == len(balls)
        assert calls[0] > builds[0] > 0


class TestLinkSummaries:
    @pytest.fixture
    def overlay(self):
        """a/0 -> b/1 -> c/2, a co-located a/0 -> b/0 link, isolated d/3."""
        overlay = OverlayGraph()
        a0, b0, b1, c2 = (
            ServiceInstance("a", 0), ServiceInstance("b", 0),
            ServiceInstance("b", 1), ServiceInstance("c", 2),
        )
        overlay.add_link(a0, b1, PathQuality(6, 2))
        overlay.add_link(b1, c2, PathQuality(4, 4))
        overlay.add_link(a0, b0, PathQuality(math.inf, 0))
        overlay.add_instance(ServiceInstance("d", 3))
        return overlay

    def test_values(self, overlay):
        a0, b1, c2 = ServiceInstance("a", 0), ServiceInstance("b", 1), ServiceInstance("c", 2)
        assert overlay.mean_link_quality() == PathQuality(5, 3)
        assert overlay.mean_link_latency() == 2.0
        assert dict(overlay.mean_incident_quality()) == {
            a0: PathQuality(6, 2), b1: PathQuality(5, 3), c2: PathQuality(4, 4),
        }
        empty = OverlayGraph()
        assert empty.mean_link_quality() == PathQuality(1.0, 1.0)
        assert empty.mean_link_latency() == 1.0
        assert dict(empty.mean_incident_quality()) == {}

    @staticmethod
    def _summaries(overlay):
        return (
            overlay.mean_link_quality(),
            overlay.mean_link_latency(),
            dict(overlay.mean_incident_quality()),
        )

    def test_memoized_values_equal_a_fresh_computation(self):
        scenario = generate_scenario(ScenarioConfig(network_size=20, seed=4))
        overlay = scenario.overlay
        first = self._summaries(overlay)
        assert overlay.mean_incident_quality() is overlay.mean_incident_quality()
        assert overlay.mean_link_quality() is overlay.mean_link_quality()
        fresh = overlay.subgraph(list(overlay.instances()))
        assert self._summaries(overlay) == first == self._summaries(fresh)
        view = overlay.ego_view(scenario.source_instance, 2)
        assert view.mean_link_quality() is view.mean_link_quality()
        assert view.mean_link_quality() == overlay.subgraph(
            list(view.instances())
        ).mean_link_quality()

    def test_hints_mapping_is_read_only(self, overlay):
        with pytest.raises(TypeError):
            overlay.mean_incident_quality()[ServiceInstance("d", 3)] = PathQuality(1, 1)

    def test_shared_across_federations(self, monkeypatch):
        scenario = generate_scenario(ScenarioConfig(network_size=12, seed=0))
        seen = []
        real_run = _Federation.run

        def run(self):
            seen.append((self.hints, self.fallback_latency))
            return real_run(self)

        monkeypatch.setattr(_Federation, "run", run)
        for _ in range(2):
            SFlowAlgorithm().federate(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
        (hints, latency), (hints_again, latency_again) = seen
        assert hints is hints_again is scenario.overlay.mean_incident_quality()
        assert latency == latency_again == scenario.overlay.mean_link_latency()

    def test_add_instance_clears_summaries(self, overlay):
        hints = overlay.mean_incident_quality()
        overlay.add_instance(ServiceInstance("a", 0))  # already present
        assert overlay.mean_incident_quality() is hints
        overlay.add_instance(ServiceInstance("e", 4))
        assert overlay.mean_incident_quality() is not hints
        assert overlay.mean_incident_quality() == hints

    def test_add_link_clears_summaries(self, overlay):
        before = self._summaries(overlay)
        overlay.add_link(ServiceInstance("c", 2), ServiceInstance("d", 3), PathQuality(2, 9))
        assert overlay.mean_link_quality() == PathQuality(4, 5)
        assert overlay.mean_link_latency() == 3.75
        assert overlay.mean_incident_quality()[ServiceInstance("d", 3)] == PathQuality(2, 9)
        assert self._summaries(overlay) != before

    def test_never_shared_with_derived_copies(self, overlay):
        hints = overlay.mean_incident_quality()
        copy = overlay.subgraph(list(overlay.instances()))
        assert copy.mean_incident_quality() is not hints
        assert copy.mean_incident_quality() == hints
        view = overlay.ego_view(ServiceInstance("b", 1), 1)
        assert view.mean_incident_quality() is not hints
        failed = fail_instances(overlay, [ServiceInstance("c", 2)])
        assert failed.mean_incident_quality() is not hints
        assert failed.mean_link_quality() == PathQuality(6, 2)
        assert overlay.mean_link_quality() == PathQuality(5, 3)
        degraded = degrade_links(
            overlay, [(ServiceInstance("a", 0), ServiceInstance("b", 1))],
            bandwidth_factor=0.5,
        )
        assert degraded.mean_link_quality() == PathQuality(3.5, 3)
        assert overlay.mean_incident_quality() is hints


class TestSubgraphAndMerge:
    def test_subgraph_induced_links(self, small_overlay):
        src = ServiceInstance("src", 0)
        mid1 = ServiceInstance("mid", 1)
        sub = small_overlay.subgraph([src, mid1])
        assert len(sub) == 2
        assert sub.num_links() == 1

    def test_subgraph_unknown_instance_rejected(self, small_overlay):
        with pytest.raises(KeyError):
            small_overlay.subgraph([ServiceInstance("nope", 0)])

    def test_merged_with_unions_views(self, small_overlay):
        src = ServiceInstance("src", 0)
        mid1 = ServiceInstance("mid", 1)
        mid2 = ServiceInstance("mid", 2)
        dst = ServiceInstance("dst", 3)
        left = small_overlay.subgraph([src, mid1, dst])
        right = small_overlay.subgraph([src, mid2, dst])
        merged = left.merged_with(right)
        assert len(merged) == 4
        assert merged.num_links() == small_overlay.num_links()
