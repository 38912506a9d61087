"""Reduction heuristics for generic service requirements (paper Sec. 3.4).

The paper reduces complex requirements to primitives the baseline algorithm
can solve:

* **Path reduction** -- disjoint source->sink chains are split off and each
  solved optimally as a single service path (Fig. 8 a-c);
* **Split-and-merge reduction** -- a split...merge sub-topology is isolated,
  solved, and replaced by a single abstract edge between the splitting and
  the merging service (Fig. 8 b-d).

We implement both as one recursive *block decomposition* of the two-terminal
requirement DAG:

* a :class:`PathBlock` is a chain (solved by the baseline's layered DP);
* a :class:`SeriesBlock` concatenates blocks at *cut services* (services
  every source->sink stream passes through);
* a :class:`ParallelBlock` puts blocks side by side between the same two
  terminals -- exactly the paper's disjoint paths / split-and-merge shape;
* a :class:`GeneralBlock` is an irreducible residue, handled by bounded
  exhaustive enumeration (the paper concedes its reductions are best-effort
  heuristics; arbitrary DAGs cannot always be reduced).

The accompanying :class:`ReductionSolver` runs a dynamic program over the
block tree.  Per block and per pair of terminal instances it keeps either

* the single lexicographically-best quality (``pareto=False`` -- the
  paper's shortest-widest-everywhere heuristic), or
* the full **Pareto frontier** of ``(bandwidth, latency)`` values
  (``pareto=True``, default) -- necessary for exactness because the
  shortest-widest order does not compose: a narrower-but-faster sub-block
  may win once another block becomes the global bottleneck.

With Pareto frontiers the solver is *exact* for series-parallel
requirements (given the paper's edge-quality model where every abstract
edge is priced by its own shortest-widest overlay path); this is verified
against brute force in ``tests/core/test_reductions.py``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import FederationError, RequirementError
from repro.network.metrics import IDEAL, PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.abstract_graph import AbstractGraph
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid

#: Virtual service used to make multi-sink requirements two-terminal.
VIRTUAL_SINK = "__virtual_sink__"


class AbstractView(Protocol):
    """The minimal abstract-graph interface the solver consumes."""

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        ...  # pragma: no cover - protocol

    def quality(self, src: ServiceInstance, dst: ServiceInstance) -> PathQuality:
        ...  # pragma: no cover - protocol


# ---------------------------------------------------------------------------
# Block decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A two-terminal fragment of the requirement: terminals ``u`` -> ``v``."""

    u: Sid
    v: Sid

    def services(self) -> Tuple[Sid, ...]:
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Human-readable decomposition tree (used in docs and tests)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PathBlock(Block):
    """A chain ``u -> ... -> v`` -- the baseline algorithm's home turf."""

    chain: Tuple[Sid, ...]

    def services(self) -> Tuple[Sid, ...]:
        return self.chain

    def describe(self, indent: int = 0) -> str:
        return " " * indent + "Path(" + " -> ".join(self.chain) + ")"


@dataclass(frozen=True)
class SeriesBlock(Block):
    """Blocks concatenated at cut services: ``children[i].v == children[i+1].u``."""

    children: Tuple[Block, ...]

    def services(self) -> Tuple[Sid, ...]:
        seen: List[Sid] = []
        for child in self.children:
            for sid in child.services():
                if sid not in seen:
                    seen.append(sid)
        return tuple(seen)

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + f"Series({self.u} -> {self.v})"]
        lines += [child.describe(indent + 2) for child in self.children]
        return "\n".join(lines)


@dataclass(frozen=True)
class ParallelBlock(Block):
    """Blocks side by side between the same terminals (split-and-merge)."""

    children: Tuple[Block, ...]

    def services(self) -> Tuple[Sid, ...]:
        seen: List[Sid] = []
        for child in self.children:
            for sid in child.services():
                if sid not in seen:
                    seen.append(sid)
        return tuple(seen)

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + f"Parallel({self.u} || {self.v})"]
        lines += [child.describe(indent + 2) for child in self.children]
        return "\n".join(lines)


@dataclass(frozen=True)
class GeneralBlock(Block):
    """An irreducible two-terminal DAG fragment."""

    requirement: ServiceRequirement

    def services(self) -> Tuple[Sid, ...]:
        return self.requirement.services()

    def describe(self, indent: int = 0) -> str:
        return (
            " " * indent
            + f"General({self.u} => {self.v}, services={list(self.services())})"
        )


def decompose(requirement: ServiceRequirement) -> Block:
    """Decompose a two-terminal requirement into a block tree.

    The requirement must have a single sink (augment multi-sink requirements
    first; :class:`ReductionSolver` does this automatically).
    """
    return _decompose(requirement, requirement.source, requirement.sink)


def _decompose(req: ServiceRequirement, u: Sid, v: Sid) -> Block:
    if _is_chain(req):
        return PathBlock(u, v, req.topological_order())

    cuts = _cut_services(req, u, v)
    if cuts:
        terminals = [u, *cuts, v]
        try:
            children: List[Block] = []
            for a, b in zip(terminals, terminals[1:]):
                segment = _segment(req, a, b)
                children.append(_decompose(segment, a, b))
            return SeriesBlock(u, v, tuple(children))
        except RequirementError:
            # Defensive: a malformed segment means the cut structure was not
            # cleanly separable; fall back to exhaustive handling.
            return GeneralBlock(u, v, req)

    branches = _parallel_branches(req, u, v)
    if len(branches) > 1:
        children = [
            _decompose(branch, u, v) for branch in branches
        ]
        return ParallelBlock(u, v, tuple(children))

    return GeneralBlock(u, v, req)


def _is_chain(req: ServiceRequirement) -> bool:
    return all(
        req.out_degree(s) <= 1 and req.in_degree(s) <= 1 for s in req.services()
    )


def _cut_services(req: ServiceRequirement, u: Sid, v: Sid) -> List[Sid]:
    """Services (other than the terminals) on *every* ``u -> v`` stream.

    A service ``w`` is a cut iff removing it disconnects ``v`` from ``u``.
    Requirements are small (the paper's evaluation uses a handful of
    services), so the quadratic removal test is plenty fast.
    """
    cuts = []
    for w in req.topological_order():
        if w in (u, v):
            continue
        if not _reaches(req, u, v, without=w):
            cuts.append(w)
    return cuts  # topological order is preserved


def _reaches(req: ServiceRequirement, src: Sid, dst: Sid, *, without: Sid) -> bool:
    seen = {src}
    stack = [src]
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for nxt in req.successors(node):
            if nxt == without or nxt in seen:
                continue
            seen.add(nxt)
            stack.append(nxt)
    return False


def _segment(req: ServiceRequirement, a: Sid, b: Sid) -> ServiceRequirement:
    """The sub-requirement strictly between two consecutive cuts."""
    keep = (req.descendants(a) & (req.ancestors(b) | {b})) | {a, b}
    # Drop the direct a -> b skip edges? No: they belong to this segment.
    edges = [(x, y) for x, y in req.edges() if x in keep and y in keep]
    return ServiceRequirement(edges=edges, nodes=keep)


def _parallel_branches(
    req: ServiceRequirement, u: Sid, v: Sid
) -> List[ServiceRequirement]:
    """Split into branches sharing only the terminals, if possible.

    Branches are the undirected connected components of the requirement with
    the terminals removed; a direct ``u -> v`` edge forms its own branch.
    """
    interior = [s for s in req.services() if s not in (u, v)]
    neighbor: Dict[Sid, List[Sid]] = {s: [] for s in interior}
    for a, b in req.edges():
        if a in neighbor and b in neighbor:
            neighbor[a].append(b)
            neighbor[b].append(a)
    components: List[List[Sid]] = []
    unvisited = set(interior)
    while unvisited:
        start = min(unvisited)
        comp = [start]
        unvisited.discard(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in neighbor[node]:
                if nxt in unvisited:
                    unvisited.discard(nxt)
                    comp.append(nxt)
                    stack.append(nxt)
        components.append(sorted(comp))

    branches: List[ServiceRequirement] = []
    for comp in components:
        keep = set(comp) | {u, v}
        edges = [
            (a, b)
            for a, b in req.edges()
            if a in keep and b in keep and (a, b) != (u, v)
        ]
        try:
            branches.append(ServiceRequirement(edges=edges, nodes=keep))
        except RequirementError:
            return [req]  # not separable after all; treat as one block
    if req.has_edge(u, v):
        branches.append(ServiceRequirement(edges=[(u, v)]))
    return branches if len(branches) > 1 else [req]


# ---------------------------------------------------------------------------
# Pareto machinery
# ---------------------------------------------------------------------------

#: One DP entry: achievable quality plus the assignment realising it.
Entry = Tuple[PathQuality, Dict[Sid, ServiceInstance]]

_Payload = TypeVar("_Payload")


def pareto_prune(
    entries: Iterable[Tuple[PathQuality, _Payload]], *, keep_all: bool
) -> List[Tuple[PathQuality, _Payload]]:
    """Remove dominated entries.

    ``keep_all=True`` keeps the whole ``(bandwidth, latency)`` Pareto
    frontier; ``keep_all=False`` keeps only the lexicographically best entry
    (the paper's pure shortest-widest heuristic).  Of equal qualities the
    first entry wins; the payload (normally an assignment) rides along.
    """
    candidates = [e for e in entries if e[0].reachable]
    if not candidates:
        return []
    # Sort best-first: bandwidth desc, then latency asc.
    candidates.sort(key=lambda e: (-e[0].bandwidth, e[0].latency))
    if not keep_all:
        return [candidates[0]]
    frontier: List[Tuple[PathQuality, _Payload]] = []
    best_latency = math.inf
    for quality, assignment in candidates:
        if quality.latency < best_latency:
            frontier.append((quality, assignment))
            best_latency = quality.latency
    return frontier


def _combine_series(a: Entry, b: Entry) -> Entry:
    qa, aa = a
    qb, ab = b
    quality = PathQuality(min(qa.bandwidth, qb.bandwidth), qa.latency + qb.latency)
    merged = dict(aa)
    merged.update(ab)
    return (quality, merged)


def _combine_parallel(a: Entry, b: Entry) -> Entry:
    qa, aa = a
    qb, ab = b
    quality = PathQuality(
        min(qa.bandwidth, qb.bandwidth), max(qa.latency, qb.latency)
    )
    merged = dict(aa)
    merged.update(ab)
    return (quality, merged)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

#: DP table: (u_instance, v_instance) -> Pareto list of entries.
BlockTable = Dict[Tuple[ServiceInstance, ServiceInstance], List[Entry]]


class _AugmentedView:
    """An :class:`AbstractView` with a virtual sink gluing multi-sink
    requirements into two-terminal form (ideal zero-cost edges)."""

    def __init__(self, base: AbstractView, real_sinks: Sequence[Sid]) -> None:
        self._base = base
        self._real_sinks = set(real_sinks)
        self._virtual = ServiceInstance(VIRTUAL_SINK, -1)

    @property
    def virtual_instance(self) -> ServiceInstance:
        return self._virtual

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        if sid == VIRTUAL_SINK:
            return (self._virtual,)
        return self._base.instances_of(sid)

    def quality(self, src: ServiceInstance, dst: ServiceInstance) -> PathQuality:
        if dst == self._virtual:
            return IDEAL if src.sid in self._real_sinks else UNREACHABLE
        if src == self._virtual:
            return UNREACHABLE
        return self._base.quality(src, dst)


class _PricedView:
    """An :class:`AbstractView` that prices each ``(src, dst)`` pair once.

    Lazy: the base view is asked on first demand only, so the set of pairs
    priced and the order of their first lookups are exactly the base
    view's.  It lives for one :meth:`ReductionSolver.solve_assignment`
    call -- planning views change per activation and overlays mutate
    between solves, so nothing may outlive the call.
    """

    def __init__(self, base: AbstractView) -> None:
        self._base = base
        self._prices: Dict[Tuple[ServiceInstance, ServiceInstance], PathQuality] = {}
        self.instances_of = base.instances_of

    def quality(self, src: ServiceInstance, dst: ServiceInstance) -> PathQuality:
        key = (src, dst)
        quality = self._prices.get(key)
        if quality is None:
            quality = self._prices[key] = self._base.quality(src, dst)
        return quality


class ReductionSolver:
    """Requirement-reduction federation (the centralised sFlow core).

    Args:
        pareto: keep full Pareto frontiers in the block DP (exact for
            series-parallel requirements) instead of single
            shortest-widest-best entries (the paper's heuristic).
        enumeration_limit: cap on the number of assignments a
            :class:`GeneralBlock` may enumerate before falling back to the
            greedy widest-first completion (at least 1).
    """

    name = "reduction"

    def __init__(self, *, pareto: bool = True, enumeration_limit: int = 200_000):
        if enumeration_limit < 1:
            raise ValueError("enumeration_limit must be >= 1")
        self.pareto = pareto
        self.enumeration_limit = enumeration_limit

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
        abstract: Optional[AbstractGraph] = None,
        latency_bound: Optional[float] = None,
    ) -> ServiceFlowGraph:
        """Federate ``requirement`` over ``overlay``; returns the flow graph.

        ``latency_bound`` turns the problem into its QoS-constrained
        variant: maximise bottleneck bandwidth *subject to* a critical-path
        latency of at most the bound.  With Pareto frontiers this costs
        nothing extra -- the bound simply filters the frontier at the top
        (requires ``pareto=True``; the single-best heuristic discards the
        slower-but-wider entries a bound might need).
        """
        if abstract is None:
            abstract = AbstractGraph.build(requirement, overlay)
        assignment, _quality = self.solve_assignment(
            requirement,
            abstract,
            source_instance=source_instance,
            latency_bound=latency_bound,
        )
        return ServiceFlowGraph.realize(abstract, assignment)

    def solve_assignment(
        self,
        requirement: ServiceRequirement,
        view: AbstractView,
        *,
        source_instance: Optional[ServiceInstance] = None,
        latency_bound: Optional[float] = None,
    ) -> Tuple[Dict[Sid, ServiceInstance], PathQuality]:
        """Pick one instance per service; returns ``(assignment, quality)``.

        ``quality`` is the block-DP value of the chosen solution: bottleneck
        bandwidth and critical-path latency under the series/parallel
        composition rules.  See :meth:`solve` for ``latency_bound``.
        """
        if latency_bound is not None:
            if latency_bound < 0:
                raise ValueError(f"latency_bound must be >= 0, got {latency_bound}")
            if not self.pareto:
                raise FederationError(
                    "latency-bounded federation needs pareto=True: the "
                    "single-best heuristic drops the slower-but-wider "
                    "frontier entries a bound may require"
                )
        work_req, work_view = self._two_terminal(requirement, view)
        work_view = _PricedView(work_view)
        block = decompose(work_req)
        table = self._solve_block(block, work_view)
        sources = self._source_candidates(work_view, work_req.source, source_instance)
        best: Optional[Entry] = None
        for src in sources:
            for dst in work_view.instances_of(work_req.sink):
                for quality, assignment in table.get((src, dst), ()):
                    if latency_bound is not None and quality.latency > latency_bound:
                        continue
                    if best is None or quality.is_better_than(best[0]):
                        best = (quality, assignment)
        if best is None:
            constraint = (
                f" within latency bound {latency_bound}"
                if latency_bound is not None
                else ""
            )
            raise FederationError(
                f"no feasible federation of {requirement!r}{constraint} "
                f"(source candidates: {list(sources)})"
            )
        assignment = {
            sid: inst for sid, inst in best[1].items() if sid != VIRTUAL_SINK
        }
        return assignment, best[0]

    # -- setup -----------------------------------------------------------------

    def _two_terminal(
        self, requirement: ServiceRequirement, view: AbstractView
    ) -> Tuple[ServiceRequirement, AbstractView]:
        if len(requirement.sinks) == 1:
            return requirement, view
        edges = list(requirement.edges())
        edges.extend((sink, VIRTUAL_SINK) for sink in requirement.sinks)
        augmented = ServiceRequirement(edges=edges)
        return augmented, _AugmentedView(view, requirement.sinks)

    def _source_candidates(
        self,
        view: AbstractView,
        source_sid: Sid,
        pinned: Optional[ServiceInstance],
    ) -> Tuple[ServiceInstance, ...]:
        instances = view.instances_of(source_sid)
        if not instances:
            raise FederationError(f"service {source_sid!r} has no instances")
        if pinned is None:
            return instances
        if pinned.sid != source_sid or pinned not in instances:
            raise FederationError(
                f"pinned source {pinned} is not an available instance of "
                f"{source_sid!r}"
            )
        return (pinned,)

    # -- block dynamic program ----------------------------------------------------

    def _solve_block(self, block: Block, view: AbstractView) -> BlockTable:
        if isinstance(block, PathBlock):
            return self._solve_path(block, view)
        if isinstance(block, SeriesBlock):
            return self._solve_series(block, view)
        if isinstance(block, ParallelBlock):
            return self._solve_parallel(block, view)
        if isinstance(block, GeneralBlock):
            return self._solve_general(block, view)
        raise AssertionError(f"unknown block type {type(block).__name__}")

    def _solve_path(self, block: PathBlock, view: AbstractView) -> BlockTable:
        """Layered DP along a chain -- the baseline algorithm, Pareto-ised."""
        table: BlockTable = {}
        chain = block.chain
        for src in view.instances_of(chain[0]):
            layer: Dict[ServiceInstance, List[Entry]] = {
                src: [(IDEAL, {chain[0]: src})]
            }
            for sid in chain[1:]:
                nxt: Dict[ServiceInstance, List[Entry]] = {}
                for inst in view.instances_of(sid):
                    candidates: List[Entry] = []
                    for prev_inst, entries in layer.items():
                        hop = view.quality(prev_inst, inst)
                        if not hop.reachable:
                            continue
                        for quality, assignment in entries:
                            extended = dict(assignment)
                            extended[sid] = inst
                            candidates.append((quality.extend(hop), extended))
                    pruned = pareto_prune(candidates, keep_all=self.pareto)
                    if pruned:
                        nxt[inst] = pruned
                layer = nxt
                if not layer:
                    break
            for dst, entries in layer.items():
                table[(src, dst)] = entries
        return table

    def _solve_series(self, block: SeriesBlock, view: AbstractView) -> BlockTable:
        tables = [self._solve_block(child, view) for child in block.children]
        result = tables[0]
        for nxt in tables[1:]:
            combined: BlockTable = {}
            # Join on the shared cut instance (result's dst == nxt's src).
            by_src: Dict[ServiceInstance, List[Tuple[ServiceInstance, List[Entry]]]] = {}
            for (cut, dst), entries in nxt.items():
                by_src.setdefault(cut, []).append((dst, entries))
            accum: Dict[Tuple[ServiceInstance, ServiceInstance], List[Entry]] = {}
            for (src, cut), left_entries in result.items():
                for dst, right_entries in by_src.get(cut, ()):
                    bucket = accum.setdefault((src, dst), [])
                    for left in left_entries:
                        for right in right_entries:
                            bucket.append(_combine_series(left, right))
            for key, entries in accum.items():
                pruned = pareto_prune(entries, keep_all=self.pareto)
                if pruned:
                    combined[key] = pruned
            result = combined
        return result

    def _solve_parallel(self, block: ParallelBlock, view: AbstractView) -> BlockTable:
        tables = [self._solve_block(child, view) for child in block.children]
        result = tables[0]
        for nxt in tables[1:]:
            combined: BlockTable = {}
            for key, left_entries in result.items():
                right_entries = nxt.get(key)
                if not right_entries:
                    continue  # this (u_inst, v_inst) pair can't serve all branches
                merged = [
                    _combine_parallel(left, right)
                    for left in left_entries
                    for right in right_entries
                ]
                pruned = pareto_prune(merged, keep_all=self.pareto)
                if pruned:
                    combined[key] = pruned
            result = combined
        return result

    def _solve_general(self, block: GeneralBlock, view: AbstractView) -> BlockTable:
        """Bounded exhaustive enumeration of the block's assignments.

        Every requirement edge gets a price matrix indexed by pool
        position, filled on first demand, and each assignment is evaluated
        inline: a running min for the bottleneck bandwidth and
        ``finish[j] = max(finish[i] + latency)`` over predecessors for the
        critical path.  The loop order (interior choices, then ``u``, then
        ``v``), the exit on the first unreachable edge in topological
        order, the assignment key order and the float operations are those
        of :func:`_evaluate_assignment` applied per combination, so the
        table -- keys, entries, tie order -- and the pairs priced, in
        first-lookup order, are unchanged.  The edges ahead of ``v`` are
        walked once per ``(interior, u)`` choice rather than once per
        ``v`` instance, which skips only repeated lookups, and only the
        frontier survivors are built into assignment dicts.
        """
        req = block.requirement
        order = req.topological_order()
        interior = [s for s in order if s not in (block.u, block.v)]
        pools = [view.instances_of(s) for s in interior]
        combos = 1
        for pool in pools:
            if not pool:
                return {}
            combos *= len(pool)
        if combos > self.enumeration_limit:
            return self._solve_general_greedy(block, view)

        u_pool = view.instances_of(block.u)
        v_pool = view.instances_of(block.v)
        if not u_pool or not v_pool:
            return {}
        # Slots: interior services in topological order, then u, then v.
        slot_pools = [*pools, u_pool, v_pool]
        slots = {sid: k for k, sid in enumerate([*interior, block.u, block.v])}
        u_slot, v_slot = slots[block.u], slots[block.v]
        # One step per service after the source: its slot and its in-edges,
        # each with a (pred position) x (service position) price matrix.
        steps = []
        for sid in order[1:]:
            j = slots[sid]
            edges = []
            for pred in req.predecessors(sid):
                i = slots[pred]
                matrix = [[None] * len(slot_pools[j]) for _ in slot_pools[i]]
                edges.append((i, matrix, slot_pools[i], slot_pools[j]))
            steps.append((j, edges))
        split = order.index(block.v) - 1
        head, tail = steps[:split], steps[split:]
        sinks = [slots[s] for s in req.sinks]
        position = [0] * len(slot_pools)
        finish = [0.0] * len(slot_pools)

        def walk(walked, bandwidth):
            """Extend ``bandwidth``/``finish`` over ``walked``; ``None`` at
            the first unreachable edge.  Prices are ``(bandwidth, latency)``
            or ``()`` when unreachable; ``None`` marks a pair not yet priced."""
            for j, edges in walked:
                col = position[j]
                worst = 0.0
                for i, matrix, src_pool, dst_pool in edges:
                    row = matrix[position[i]]
                    hop = row[col]
                    if hop is None:
                        quality = view.quality(src_pool[position[i]], dst_pool[col])
                        hop = row[col] = (
                            (quality.bandwidth, quality.latency)
                            if quality.reachable
                            else ()
                        )
                    if not hop:
                        return None
                    hop_bandwidth, hop_latency = hop
                    if hop_bandwidth < bandwidth:
                        bandwidth = hop_bandwidth
                    arrival = finish[i] + hop_latency
                    if arrival > worst:
                        worst = arrival
                finish[j] = worst
            return bandwidth

        # Entries carry the interior choice; (u, v) positions key them.
        found: Dict[Tuple[int, int], List[Tuple[PathQuality, Tuple[int, ...]]]] = {}
        for choice in itertools.product(*(range(len(pool)) for pool in pools)):
            position[:u_slot] = choice
            for a in range(len(u_pool)):
                position[u_slot] = a
                ahead = walk(head, math.inf)
                if ahead is None:
                    continue
                for b in range(len(v_pool)):
                    position[v_slot] = b
                    bandwidth = walk(tail, ahead)
                    if bandwidth is None:
                        continue
                    quality = PathQuality(bandwidth, max([finish[s] for s in sinks]))
                    entries = found.get((a, b))
                    if entries is None:
                        entries = found[(a, b)] = []
                    entries.append((quality, choice))

        table: BlockTable = {}
        for (a, b), entries in found.items():
            src, dst = u_pool[a], v_pool[b]
            frontier: List[Entry] = []
            for quality, choice in pareto_prune(entries, keep_all=self.pareto):
                assignment = {
                    sid: pool[k] for sid, pool, k in zip(interior, pools, choice)
                }
                assignment[block.u] = src
                assignment[block.v] = dst
                frontier.append((quality, assignment))
            table[(src, dst)] = frontier
        return table

    def _solve_general_greedy(
        self, block: GeneralBlock, view: AbstractView
    ) -> BlockTable:
        """Fallback for oversized general blocks: widest-first per service.

        Walks the block in topological order and, for each service, picks
        the instance maximising the worst incoming quality from the already
        assigned predecessors -- the same policy as the fixed control
        algorithm, applied block-locally.
        """
        req = block.requirement
        table: BlockTable = {}
        for src in view.instances_of(block.u):
            assignment: Dict[Sid, ServiceInstance] = {block.u: src}
            feasible = True
            for sid in req.topological_order():
                if sid == block.u:
                    continue
                best_inst: Optional[ServiceInstance] = None
                best_quality = UNREACHABLE
                for inst in view.instances_of(sid):
                    worst = IDEAL
                    for pred in req.predecessors(sid):
                        pred_inst = assignment.get(pred)
                        if pred_inst is None:
                            continue
                        hop = view.quality(pred_inst, inst)
                        if hop.bandwidth < worst.bandwidth or (
                            hop.bandwidth == worst.bandwidth
                            and hop.latency > worst.latency
                        ):
                            worst = hop
                    if best_inst is None or worst.is_better_than(best_quality):
                        best_inst = inst
                        best_quality = worst
                if best_inst is None:
                    feasible = False
                    break
                assignment[sid] = best_inst
            if not feasible:
                continue
            quality = _evaluate_assignment(req, assignment, view)
            if quality is None:
                continue
            dst = assignment[block.v]
            table.setdefault((src, dst), []).append((quality, assignment))
        return {
            key: pareto_prune(entries, keep_all=self.pareto)
            for key, entries in table.items()
        }


def _evaluate_assignment(
    req: ServiceRequirement,
    assignment: Dict[Sid, ServiceInstance],
    view: AbstractView,
) -> Optional[PathQuality]:
    """Bottleneck bandwidth + critical-path latency of a full block
    assignment; ``None`` when any edge is unreachable."""
    bandwidth = math.inf
    finish: Dict[Sid, float] = {req.source: 0.0}
    for sid in req.topological_order()[1:]:
        worst_finish = 0.0
        for pred in req.predecessors(sid):
            hop = view.quality(assignment[pred], assignment[sid])
            if not hop.reachable:
                return None
            bandwidth = min(bandwidth, hop.bandwidth)
            worst_finish = max(worst_finish, finish[pred] + hop.latency)
        finish[sid] = worst_finish
    latency = max(finish[s] for s in req.sinks)
    return PathQuality(bandwidth, latency)
