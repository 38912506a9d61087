"""Tests for block decomposition and the reduction solver.

Two layers of validation:

* structural -- decomposition trees of hand-built requirements have the
  expected series/parallel/path shapes (the paper's Fig. 8 examples);
* behavioural -- the Pareto solver equals exhaustive search on random
  scenarios of every requirement class, and the non-Pareto (paper
  heuristic) variant is never better.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimal import optimal_flow_graph
from repro.core.reductions import (
    GeneralBlock,
    ParallelBlock,
    PathBlock,
    ReductionSolver,
    SeriesBlock,
    _evaluate_assignment,
    decompose,
    pareto_prune,
)
from repro.errors import FederationError
from repro.network.metrics import PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    travel_agency_requirement,
)


class TestDecompose:
    def test_chain_is_path_block(self):
        req = ServiceRequirement.from_path(["a", "b", "c"])
        block = decompose(req)
        assert isinstance(block, PathBlock)
        assert block.chain == ("a", "b", "c")

    def test_diamond_is_parallel_of_paths(self, diamond_requirement):
        block = decompose(diamond_requirement)
        assert isinstance(block, ParallelBlock)
        assert len(block.children) == 2
        assert all(isinstance(child, PathBlock) for child in block.children)
        assert {child.chain[1] for child in block.children} == {"a", "b"}

    def test_series_of_split_merge(self):
        # s -> {a,b} -> m -> t : series(parallel, path) or path at the tail.
        req = ServiceRequirement(
            edges=[("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"), ("m", "t")]
        )
        block = decompose(req)
        assert isinstance(block, SeriesBlock)
        kinds = [type(child).__name__ for child in block.children]
        assert "ParallelBlock" in kinds

    def test_direct_edge_becomes_own_branch(self):
        req = ServiceRequirement(edges=[("s", "t"), ("s", "a"), ("a", "t")])
        block = decompose(req)
        assert isinstance(block, ParallelBlock)
        chains = sorted(child.chain for child in block.children)
        assert chains == [("s", "a", "t"), ("s", "t")]

    def test_non_series_parallel_is_general(self):
        req = ServiceRequirement(
            edges=[
                ("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"),
                ("b", "y"), ("x", "t"), ("y", "t"),
            ]
        )
        block = decompose(req)
        assert isinstance(block, GeneralBlock)

    def test_travel_agency_is_general_block(self):
        block = decompose(travel_agency_requirement())
        assert isinstance(block, GeneralBlock)

    def test_nested_decomposition(self):
        # Two split-merge lobes in series.
        req = ServiceRequirement(
            edges=[
                ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
            ]
        )
        block = decompose(req)
        assert isinstance(block, SeriesBlock)
        assert all(
            isinstance(child, ParallelBlock) for child in block.children
        )

    def test_describe_renders_tree(self, diamond_requirement):
        text = decompose(diamond_requirement).describe()
        assert "Parallel" in text
        assert "Path" in text

    def test_services_cover_requirement(self):
        rng = random.Random(3)
        from repro.services.workloads import random_requirement

        for _ in range(20):
            req = random_requirement(rng, 8)
            if len(req.sinks) != 1:
                continue
            block = decompose(req)
            assert set(block.services()) == set(req.services())


class TestParetoPrune:
    def entry(self, bw, lat):
        return (PathQuality(bw, lat), {})

    def test_keeps_frontier(self):
        entries = [self.entry(10, 10), self.entry(5, 1), self.entry(7, 3)]
        frontier = pareto_prune(entries, keep_all=True)
        assert [e[0] for e in frontier] == [
            PathQuality(10, 10), PathQuality(7, 3), PathQuality(5, 1)
        ]

    def test_drops_dominated(self):
        entries = [self.entry(10, 1), self.entry(5, 5), self.entry(10, 2)]
        frontier = pareto_prune(entries, keep_all=True)
        assert [e[0] for e in frontier] == [PathQuality(10, 1)]

    def test_single_best_mode(self):
        entries = [self.entry(10, 10), self.entry(5, 1)]
        assert [e[0] for e in pareto_prune(entries, keep_all=False)] == [
            PathQuality(10, 10)
        ]

    def test_unreachable_dropped(self):
        assert pareto_prune([(UNREACHABLE, {})], keep_all=True) == []

    def test_empty_input(self):
        assert pareto_prune([], keep_all=True) == []


class TestSolver:
    def test_picks_wide_branch_on_chain(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        graph = ReductionSolver().solve(req, small_overlay)
        assert graph.instance_for("mid") == ServiceInstance("mid", 1)

    def test_infeasible_raises(self):
        overlay = OverlayGraph()
        overlay.add_instance(ServiceInstance("a", 0))
        overlay.add_instance(ServiceInstance("b", 1))
        req = ServiceRequirement(edges=[("a", "b")])
        with pytest.raises(FederationError, match="no feasible"):
            ReductionSolver().solve(req, overlay)

    def test_pinned_source_respected(self, travel_scenario):
        graph = ReductionSolver().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert graph.instance_for("travel_engine") == travel_scenario.source_instance

    def test_bad_pinned_source_rejected(self, travel_scenario):
        with pytest.raises(FederationError):
            ReductionSolver().solve(
                travel_scenario.requirement,
                travel_scenario.overlay,
                source_instance=ServiceInstance("travel_engine", 999),
            )

    def test_multi_sink_requirements_supported(self):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=6,
                requirement_class=RequirementClass.TREE,
                seed=5,
            )
        )
        graph = ReductionSolver().solve(
            scenario.requirement, scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert graph.is_complete()
        assert "__virtual_sink__" not in graph.assignment

    @pytest.mark.parametrize(
        "clazz",
        [
            RequirementClass.PATH,
            RequirementClass.DISJOINT_PATHS,
            RequirementClass.SPLIT_MERGE,
            RequirementClass.GENERAL,
            RequirementClass.TREE,
        ],
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_pareto_solver_matches_optimal(self, clazz, seed):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=13,
                n_services=6,
                requirement_class=clazz,
                seed=seed,
            )
        )
        optimal = optimal_flow_graph(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        solved = ReductionSolver(pareto=True).solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert solved.quality() == optimal.quality()

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristic_never_beats_pareto(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=13, n_services=6, seed=seed)
        )
        pareto = ReductionSolver(pareto=True).solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        heuristic = ReductionSolver(pareto=False).solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert not heuristic.quality().is_better_than(pareto.quality())

    @pytest.mark.parametrize("limit", [0, -1])
    def test_enumeration_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="enumeration_limit"):
            ReductionSolver(enumeration_limit=limit)

    def test_enumeration_limit_falls_back_to_greedy(self, travel_scenario):
        solver = ReductionSolver(enumeration_limit=1)
        graph = solver.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert graph.is_complete()

    def test_greedy_fallback_not_better_than_exact(self, travel_scenario):
        exact = ReductionSolver().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        greedy = ReductionSolver(enumeration_limit=1).solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert not greedy.quality().is_better_than(exact.quality())

    def test_solve_assignment_returns_quality(self, small_overlay):
        from repro.services.abstract_graph import AbstractGraph

        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        abstract = AbstractGraph.build(req, small_overlay)
        assignment, quality = ReductionSolver().solve_assignment(req, abstract)
        assert set(assignment) == {"src", "mid", "dst"}
        assert quality == PathQuality(50.0, 10.0)


class TestLatencyBound:
    """The QoS-constrained variant: max bandwidth s.t. latency <= bound."""

    @pytest.fixture
    def req(self):
        return ServiceRequirement.from_path(["src", "mid", "dst"])

    def test_loose_bound_equals_unbounded(self, req, small_overlay):
        unbounded = ReductionSolver().solve(req, small_overlay)
        bounded = ReductionSolver().solve(
            req, small_overlay, latency_bound=1e9
        )
        assert bounded.assignment == unbounded.assignment

    def test_tight_bound_switches_to_fast_lane(self, req, small_overlay):
        # The wide lane (mid/1) takes 10 latency; the narrow (mid/2) takes 2.
        graph = ReductionSolver().solve(req, small_overlay, latency_bound=5.0)
        assert graph.instance_for("mid") == ServiceInstance("mid", 2)
        assert graph.end_to_end_latency() <= 5.0

    def test_infeasible_bound_raises(self, req, small_overlay):
        with pytest.raises(FederationError, match="within latency bound"):
            ReductionSolver().solve(req, small_overlay, latency_bound=0.5)

    def test_negative_bound_rejected(self, req, small_overlay):
        with pytest.raises(ValueError):
            ReductionSolver().solve(req, small_overlay, latency_bound=-1.0)

    def test_requires_pareto_mode(self, req, small_overlay):
        with pytest.raises(FederationError, match="pareto=True"):
            ReductionSolver(pareto=False).solve(
                req, small_overlay, latency_bound=5.0
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_is_respected_and_bandwidth_maximal(self, seed):
        """Cross-check against brute force on random scenarios."""
        import itertools

        from repro.services.abstract_graph import AbstractGraph
        from repro.services.flowgraph import ServiceFlowGraph

        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=5,
                seed=seed,
                instances_per_service=(2, 3),
            )
        )
        requirement, overlay = scenario.requirement, scenario.overlay
        unbounded = ReductionSolver().solve(
            requirement, overlay, source_instance=scenario.source_instance
        )
        bound = unbounded.end_to_end_latency() * 0.9  # force a real trade
        abstract = AbstractGraph.build(requirement, overlay)
        pools = [abstract.instances_of(s) for s in requirement.services()]
        best_bw = None
        for combo in itertools.product(*pools):
            assignment = dict(zip(requirement.services(), combo))
            if assignment[requirement.source] != scenario.source_instance:
                continue
            try:
                graph = ServiceFlowGraph.realize(abstract, assignment)
            except FederationError:
                continue
            if graph.end_to_end_latency() > bound:
                continue
            bw = graph.bottleneck_bandwidth()
            if best_bw is None or bw > best_bw:
                best_bw = bw
        try:
            bounded = ReductionSolver().solve(
                requirement,
                overlay,
                source_instance=scenario.source_instance,
                latency_bound=bound,
            )
        except FederationError:
            assert best_bw is None
            return
        assert bounded.end_to_end_latency() <= bound + 1e-9
        assert bounded.bottleneck_bandwidth() == pytest.approx(best_bw)


# ---------------------------------------------------------------------------
# GENERAL-block enumeration: equivalence with the per-combination reference
# ---------------------------------------------------------------------------


def reference_solve_general(solver, block, view):
    """The per-combination enumerator: one ``_evaluate_assignment`` call per
    ``(interior, u, v)`` choice.  ``_solve_general`` must reproduce its
    table bit for bit and price the same pairs in the same order."""
    req = block.requirement
    interior = [s for s in req.topological_order() if s not in (block.u, block.v)]
    pools = [view.instances_of(s) for s in interior]
    if any(not pool for pool in pools):
        return {}
    table = {}
    for interior_choice in itertools.product(*pools):
        partial = dict(zip(interior, interior_choice))
        for src in view.instances_of(block.u):
            for dst in view.instances_of(block.v):
                assignment = dict(partial)
                assignment[block.u] = src
                assignment[block.v] = dst
                quality = _evaluate_assignment(req, assignment, view)
                if quality is None:
                    continue
                table.setdefault((src, dst), []).append((quality, assignment))
    return {
        key: pareto_prune(entries, keep_all=solver.pareto)
        for key, entries in table.items()
    }


class ReferenceSolver(ReductionSolver):
    """A :class:`ReductionSolver` running the reference enumerator."""

    def _solve_general(self, block, view):
        return reference_solve_general(self, block, view)


class TableView:
    """An abstract view over explicit instance pools and a price table."""

    def __init__(self, pools, prices):
        self.pools = pools
        self.prices = prices

    def instances_of(self, sid):
        return self.pools.get(sid, ())

    def quality(self, src, dst):
        return self.prices.get((src, dst), UNREACHABLE)


class CountingView:
    """Records every ``quality`` call made through it, in order."""

    def __init__(self, base):
        self.base = base
        self.calls = []

    def instances_of(self, sid):
        return self.base.instances_of(sid)

    def quality(self, src, dst):
        self.calls.append((src, dst))
        return self.base.quality(src, dst)


#: The constant price of an edge priced from gossip hints alone: many
#: edges share it, so assignments tie and the tie order is observable.
HINT_PRICE = PathQuality(4.0, 2.0)


@st.composite
def general_cases(draw):
    """A two-terminal requirement DAG ``s0 -> ... -> s{n-1}``, instance
    pools of 1-3, and prices mixing unreachable edges, the constant hint
    price, and a small grid of real prices (which ties too)."""
    n = draw(st.integers(min_value=3, max_value=6))
    sids = [f"s{i}" for i in range(n)]
    edges = set()
    for j in range(1, n):
        preds = draw(
            st.sets(st.integers(0, j - 1), min_size=1, max_size=min(j, 3))
        )
        edges.update((i, j) for i in preds)
    for i in range(n - 1):
        if not any(a == i for a, _ in edges):
            edges.add((i, n - 1))
    req = ServiceRequirement(edges=[(sids[a], sids[b]) for a, b in sorted(edges)])
    pools = {
        sid: tuple(
            ServiceInstance(sid, k)
            for k in range(draw(st.integers(min_value=1, max_value=3)))
        )
        for sid in sids
    }
    prices = {}
    for a, b in req.edges():
        for x in pools[a]:
            for y in pools[b]:
                kind = draw(st.sampled_from(["unreachable", "hint", "priced"]))
                if kind == "hint":
                    prices[(x, y)] = HINT_PRICE
                elif kind == "priced":
                    prices[(x, y)] = PathQuality(
                        float(draw(st.integers(1, 4))),
                        draw(st.integers(0, 6)) * 0.5,
                    )
    pareto = draw(st.booleans())
    return req, TableView(pools, prices), pareto


def table_shape(table):
    """Everything order-sensitive about a block table, as plain data."""
    return [
        (
            key,
            [
                (quality.bandwidth, quality.latency, list(assignment.items()))
                for quality, assignment in entries
            ],
        )
        for key, entries in table.items()
    ]


class TestGeneralEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(general_cases())
    def test_matches_reference_enumerator(self, case):
        req, view, pareto = case
        solver = ReductionSolver(pareto=pareto)
        block = GeneralBlock(req.source, req.sink, req)
        got = solver._solve_general(block, view)
        want = reference_solve_general(solver, block, view)
        assert table_shape(got) == table_shape(want)

    @settings(max_examples=150, deadline=None)
    @given(general_cases())
    def test_prices_each_pair_once_in_reference_order(self, case):
        req, view, pareto = case
        solver = ReductionSolver(pareto=pareto)
        block = GeneralBlock(req.source, req.sink, req)
        counted = CountingView(view)
        solver._solve_general(block, counted)
        reference = CountingView(view)
        reference_solve_general(solver, block, reference)
        assert max(Counter(counted.calls).values(), default=0) <= 1
        # First-lookup order, hence the priced set, equals the reference's.
        assert counted.calls == list(dict.fromkeys(reference.calls))

    def test_unreachable_edges_and_ties_on_a_fixed_case(self):
        # s -> {a, b}, a -> {x, y}, b -> y, {x, y} -> t: not series-parallel.
        req = ServiceRequirement(
            edges=[
                ("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"),
                ("b", "y"), ("x", "t"), ("y", "t"),
            ]
        )
        pools = {
            sid: tuple(ServiceInstance(sid, k) for k in range(2))
            for sid in req.services()
        }
        prices = {}
        for a, b in req.edges():
            for x in pools[a]:
                for y in pools[b]:
                    prices[(x, y)] = HINT_PRICE
        prices[(ServiceInstance("a", 0), ServiceInstance("x", 1))] = UNREACHABLE
        view = TableView(pools, prices)
        block = decompose(req)
        assert isinstance(block, GeneralBlock)
        solver = ReductionSolver()
        got = solver._solve_general(block, view)
        assert table_shape(got) == table_shape(
            reference_solve_general(solver, block, view)
        )
        # All prices tie, so every frontier keeps exactly the first
        # enumerated assignment: interior instance 0 everywhere.
        interior = [s for s in req.topological_order() if s not in ("s", "t")]
        for entries in got.values():
            (_, assignment), = entries
            assert list(assignment) == [*interior, "s", "t"]
            assert all(
                assignment[sid].nid == 0 for sid in ("a", "b", "x", "y")
            )


class TestPricingWork:
    """Work counts, not wall time: ``solve_assignment`` prices each
    ``(src, dst)`` pair at most once, and exactly the pairs -- in the same
    first-lookup order -- that the reference solver prices."""

    @pytest.mark.parametrize(
        "clazz", [RequirementClass.GENERAL, RequirementClass.TREE]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_each_pair_priced_once_per_solve(self, clazz, seed):
        from repro.services.abstract_graph import AbstractGraph

        scenario = generate_scenario(
            ScenarioConfig(
                network_size=14,
                n_services=6,
                requirement_class=clazz,
                seed=seed,
            )
        )
        abstract = AbstractGraph.build(scenario.requirement, scenario.overlay)
        counted = CountingView(abstract)
        got = ReductionSolver().solve_assignment(
            scenario.requirement, counted,
            source_instance=scenario.source_instance,
        )
        reference = CountingView(abstract)
        want = ReferenceSolver().solve_assignment(
            scenario.requirement, reference,
            source_instance=scenario.source_instance,
        )
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]
        assert max(Counter(counted.calls).values()) == 1
        assert counted.calls == list(dict.fromkeys(reference.calls))

    def test_chain_with_a_multi_instance_head_prices_each_pair_once(self):
        # The layered DP restarts from every head instance, so without the
        # per-solve memo each (b, c) pair would be priced once per a.
        req = ServiceRequirement.from_path(["a", "b", "c"])
        pools = {
            sid: tuple(ServiceInstance(sid, k) for k in range(3))
            for sid in req.services()
        }
        prices = {
            (x, y): PathQuality(float(1 + x.nid + y.nid), 1.0)
            for a, b in req.edges()
            for x in pools[a]
            for y in pools[b]
        }
        counted = CountingView(TableView(pools, prices))
        ReductionSolver().solve_assignment(req, counted)
        assert len(counted.calls) == len(prices)
        assert set(counted.calls) == set(prices)

    def test_prices_do_not_outlive_a_solve(self):
        req = ServiceRequirement.from_path(["a", "b"])
        a, b1, b2 = (
            ServiceInstance("a", 0), ServiceInstance("b", 1), ServiceInstance("b", 2)
        )
        view = TableView(
            {"a": (a,), "b": (b1, b2)},
            {(a, b1): PathQuality(10.0, 1.0), (a, b2): PathQuality(5.0, 1.0)},
        )
        solver = ReductionSolver()
        assert solver.solve_assignment(req, view)[0]["b"] == b1
        view.prices[(a, b1)] = UNREACHABLE  # the overlay changed
        assert solver.solve_assignment(req, view)[0]["b"] == b2
