"""The service overlay graph.

Nodes of the overlay are *service instances*: a service identifier (SID,
"what it does") bound to a network node identifier (NID, "where it runs").
Fig. 4 of the paper labels them ``SID/NID``.  A directed *service link*
connects two instances when their services are **compatible** (the upstream
service's output feeds the downstream service's input) and the underlay
offers a path between their hosts; the link is weighted with the
shortest-widest quality of that underlay path.

:class:`OverlayGraph` supports

* incremental construction (``add_instance`` / ``add_link``),
* derivation from an :class:`~repro.network.underlay.Underlay` plus a
  placement and a compatibility predicate (:meth:`OverlayGraph.build`),
* routing adjacency views (``successors`` for the Wang-Crowcroft module),
* the **k-hop ego view** that models a service node's local knowledge --
  the paper assumes every node knows the overlay within a two-hop vicinity
  (Sec. 4, Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.network.metrics import LinkMetrics, PathQuality, UNREACHABLE
from repro.network.underlay import Underlay

Sid = str
Nid = int


@dataclass(frozen=True, order=True)
class ServiceInstance:
    """A concrete instance of a service: the ``SID/NID`` pair of the paper.

    Instances of the same service share a SID and are distinguished by the
    NID of the host they run on.  The dataclass ordering (sid, then nid)
    gives algorithms a deterministic iteration order.
    """

    sid: Sid
    nid: Nid

    def __str__(self) -> str:
        return f"{self.sid}/{self.nid}"


@dataclass(frozen=True)
class ServiceLink:
    """A directed overlay edge between two compatible service instances.

    ``metrics`` is the shortest-widest quality of the underlay path realising
    the link; ``underlay_path`` records that path's hosts (may be empty when
    the link was added manually with explicit metrics).
    """

    src: ServiceInstance
    dst: ServiceInstance
    metrics: LinkMetrics
    underlay_path: Tuple[Nid, ...] = ()

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop service link at {self.src}")


def _mean_finite_quality(links: Iterable[LinkMetrics]) -> Optional[PathQuality]:
    """Mean ``(bandwidth, latency)`` over the reachable finite-bandwidth
    ``links`` (summed in iteration order); ``None`` when there is none."""
    finite = [
        metrics
        for metrics in links
        if metrics.reachable and metrics.bandwidth != float("inf")
    ]
    if not finite:
        return None
    return PathQuality(
        sum(metrics.bandwidth for metrics in finite) / len(finite),
        sum(metrics.latency for metrics in finite) / len(finite),
    )


class OverlayGraph:
    """A directed weighted graph over :class:`ServiceInstance` nodes."""

    def __init__(self) -> None:
        self._out: Dict[ServiceInstance, Dict[ServiceInstance, ServiceLink]] = {}
        self._in: Dict[ServiceInstance, Dict[ServiceInstance, ServiceLink]] = {}
        self._by_sid: Dict[Sid, List[ServiceInstance]] = {}
        #: Ego views built so far, keyed by reached set, and the link
        #: summaries computed so far; any mutation of this overlay clears
        #: them all.
        self._ego_views: Dict[FrozenSet[ServiceInstance], "OverlayGraph"] = {}
        self._link_quality: Optional[PathQuality] = None
        self._link_latency: Optional[float] = None
        self._incident_quality: Optional[Mapping[ServiceInstance, PathQuality]] = None

    def _forget_derived(self) -> None:
        self._ego_views.clear()
        self._link_quality = None
        self._link_latency = None
        self._incident_quality = None

    # -- construction ------------------------------------------------------

    def add_instance(self, instance: ServiceInstance) -> ServiceInstance:
        """Register a service instance; idempotent."""
        if instance not in self._out:
            self._forget_derived()
            self._out[instance] = {}
            self._in[instance] = {}
            self._by_sid.setdefault(instance.sid, []).append(instance)
            self._by_sid[instance.sid].sort()
        return instance

    def add_link(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        metrics: LinkMetrics,
        underlay_path: Sequence[Nid] = (),
    ) -> ServiceLink:
        """Add a directed service link (endpoints are auto-registered)."""
        self.add_instance(src)
        self.add_instance(dst)
        if dst in self._out[src]:
            raise ValueError(f"service link {src} -> {dst} already exists")
        link = ServiceLink(src, dst, metrics, tuple(underlay_path))
        self._forget_derived()
        self._out[src][dst] = link
        self._in[dst][src] = link
        return link

    @classmethod
    def build(
        cls,
        underlay: Underlay,
        placement: Iterable[ServiceInstance],
        compatible: Callable[[Sid, Sid], bool],
        *,
        underlay_routing: str = "shortest",
    ) -> "OverlayGraph":
        """Derive the overlay from an underlay, a placement and compatibility.

        For every ordered pair of placed instances ``(a, b)`` with
        ``compatible(a.sid, b.sid)`` and a usable underlay path between their
        hosts, a service link is added with the quality of that path.
        Instances co-located on one host are connected with an ideal
        zero-latency local link when compatible.

        Args:
            underlay: the physical network.
            placement: the service instances to install (hosts must exist).
            compatible: directed predicate -- ``compatible(up, down)`` is True
                when service ``up``'s output feeds service ``down``'s input.
            underlay_routing: how the underlay forwards overlay traffic.
                ``"shortest"`` (default) takes minimum-latency paths (widest
                as tie-break) -- the plain-IP model, where the overlay has no
                say in the physical route; ``"widest"`` takes shortest-widest
                paths -- an idealised QoS-routed underlay.  The choice only
                affects link *weights*; all federation-level optimisation
                happens on top, at the overlay/abstract level.
        """
        overlay = cls()
        instances = sorted(set(placement))
        for inst in instances:
            if not (0 <= inst.nid < underlay.n):
                raise KeyError(f"instance {inst} placed on unknown host {inst.nid}")
            overlay.add_instance(inst)
        # Per-host routing trees come from the process-wide oracle keyed on
        # the underlay, so rebuilding an overlay (churn join, experiment
        # re-runs) over an unchanged underlay reuses the trees.
        from repro.routing.oracle import (
            SHORTEST_WIDEST,
            WIDEST_SHORTEST,
            RouteOracle,
        )
        from repro.routing.wang_crowcroft import extract_path

        if underlay_routing == "shortest":
            order = WIDEST_SHORTEST
        elif underlay_routing == "widest":
            order = SHORTEST_WIDEST
        else:
            raise ValueError(
                f"underlay_routing must be 'shortest' or 'widest', "
                f"got {underlay_routing!r}"
            )
        oracle = RouteOracle.default()
        # Batched prefetch: one CSR snapshot of the underlay serves every
        # distinct host in one kernel pass; the per-instance lookups below
        # then hit the cache.
        oracle.warm(
            underlay, (a.nid for a in instances), order=order,
            view="neighbors", neighbors=underlay.neighbors,
        )
        for a in instances:
            labels = oracle.tree(
                underlay, a.nid, order=order, view="neighbors",
                neighbors=underlay.neighbors,
            )
            for b in instances:
                if a == b or not compatible(a.sid, b.sid):
                    continue
                if a.nid == b.nid:
                    overlay.add_link(a, b, PathQuality(float("inf"), 0.0), (a.nid,))
                    continue
                label = labels.get(b.nid)
                if label is None or not label.quality.reachable:
                    continue
                path = extract_path(labels, a.nid, b.nid)
                overlay.add_link(a, b, label.quality, path)
        return overlay

    # -- queries -----------------------------------------------------------

    def instances(self) -> Iterator[ServiceInstance]:
        """All instances in deterministic (sid, nid) order."""
        return iter(sorted(self._out))

    def routing_nodes(self) -> Tuple[ServiceInstance, ...]:
        """Snapshot-export hook: the node universe of the routing views.

        The routing kernel (:mod:`repro.routing.kernel`) flattens the
        ``successors`` adjacency over exactly this universe when building
        a CSR snapshot for batched tree computation.
        """
        return tuple(sorted(self._out))

    def __contains__(self, instance: ServiceInstance) -> bool:
        return instance in self._out

    def __len__(self) -> int:
        return len(self._out)

    def num_links(self) -> int:
        return sum(len(nbrs) for nbrs in self._out.values())

    def sids(self) -> Iterator[Sid]:
        return iter(sorted(self._by_sid))

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        """All instances of a service (possibly empty), sorted."""
        return tuple(self._by_sid.get(sid, ()))

    def link(self, src: ServiceInstance, dst: ServiceInstance) -> Optional[ServiceLink]:
        if src not in self._out:
            return None
        return self._out[src].get(dst)

    def link_quality(self, src: ServiceInstance, dst: ServiceInstance) -> PathQuality:
        """Quality of the direct link, or UNREACHABLE when absent."""
        found = self.link(src, dst)
        return found.metrics if found is not None else UNREACHABLE

    def successors(
        self, instance: ServiceInstance
    ) -> Iterator[Tuple[ServiceInstance, LinkMetrics]]:
        """Outgoing adjacency -- plugs directly into the routing module."""
        if instance not in self._out:
            return iter(())
        return iter(
            (dst, link.metrics) for dst, link in sorted(self._out[instance].items())
        )

    def predecessors(
        self, instance: ServiceInstance
    ) -> Iterator[Tuple[ServiceInstance, LinkMetrics]]:
        if instance not in self._in:
            return iter(())
        return iter(
            (src, link.metrics) for src, link in sorted(self._in[instance].items())
        )

    def out_links(self, instance: ServiceInstance) -> Tuple[ServiceLink, ...]:
        if instance not in self._out:
            return ()
        return tuple(link for _, link in sorted(self._out[instance].items()))

    # -- link summaries -----------------------------------------------------
    #
    # Aggregates over this overlay's links, memoized until the next
    # mutation: every federation and planning view over one overlay reads
    # the same values instead of recomputing them.  Only reachable links
    # count; the quality means also skip co-located links (infinite
    # bandwidth), which would swamp any mean.

    def mean_link_quality(self) -> PathQuality:
        """Mean ``(bandwidth, latency)`` over the finite-bandwidth links;
        ``PathQuality(1.0, 1.0)`` when there is none."""
        if self._link_quality is None:
            mean = _mean_finite_quality(
                metrics for inst in self.instances() for _, metrics in self.successors(inst)
            )
            self._link_quality = mean if mean is not None else PathQuality(1.0, 1.0)
        return self._link_quality

    def mean_link_latency(self) -> float:
        """Mean latency over every reachable link; 1.0 when there is none."""
        if self._link_latency is None:
            latencies = [
                metrics.latency
                for inst in self.instances()
                for _, metrics in self.successors(inst)
                if metrics.reachable
            ]
            self._link_latency = (
                sum(latencies) / len(latencies) if latencies else 1.0
            )
        return self._link_latency

    def mean_incident_quality(self) -> Mapping[ServiceInstance, PathQuality]:
        """Per instance, the mean ``(bandwidth, latency)`` over its
        finite-bandwidth incident links (outgoing, then incoming).

        Instances without such a link are absent.  The mapping is shared by
        every caller until this overlay is next mutated, so it is read-only.
        """
        if self._incident_quality is None:
            found: Dict[ServiceInstance, PathQuality] = {}
            for inst in self.instances():
                mean = _mean_finite_quality(
                    metrics
                    for links in (self.successors(inst), self.predecessors(inst))
                    for _, metrics in links
                )
                if mean is not None:
                    found[inst] = mean
            self._incident_quality = MappingProxyType(found)
        return self._incident_quality

    # -- local knowledge ----------------------------------------------------

    def ego_view(
        self,
        root: ServiceInstance,
        hops: int,
        *,
        direction: str = "both",
    ) -> "OverlayGraph":
        """The sub-overlay a node knows: everything within ``hops`` overlay hops.

        Args:
            root: the observing instance.
            hops: radius of the vicinity (the paper uses 2).
            direction: ``"out"`` follows service links downstream only,
                ``"in"`` upstream only, ``"both"`` (default) ignores
                direction when measuring distance -- matching "the portion of
                the overall overlay graph within a two-hop vicinity".

        Returns an :class:`OverlayGraph` containing the reached instances
        and *all* links of this overlay among them.  The view is memoized
        per reached set: roots whose balls coincide get the *same* object
        (and so share its routing-oracle lineage, CSR snapshot and cached
        trees) until this overlay is next mutated.  Treat it as read-only;
        it is never this overlay itself.
        """
        if root not in self._out:
            raise KeyError(f"unknown instance {root}")
        if hops < 0:
            raise ValueError("hops must be >= 0")
        if direction not in ("out", "in", "both"):
            raise ValueError(f"bad direction {direction!r}")
        reached: Set[ServiceInstance] = {root}
        frontier = [root]
        for _ in range(hops):
            nxt: List[ServiceInstance] = []
            for node in frontier:
                adjacent: List[ServiceInstance] = []
                if direction in ("out", "both"):
                    adjacent.extend(self._out[node])
                if direction in ("in", "both"):
                    adjacent.extend(self._in[node])
                for other in adjacent:
                    if other not in reached:
                        reached.add(other)
                        nxt.append(other)
            frontier = nxt
        key = frozenset(reached)
        view = self._ego_views.get(key)
        if view is None:
            view = self._ego_views[key] = self.subgraph(key)
        return view

    def subgraph(self, keep: Iterable[ServiceInstance]) -> "OverlayGraph":
        """Induced sub-overlay over ``keep`` (links with both ends kept)."""
        keep_set = set(keep)
        sub = OverlayGraph()
        for inst in sorted(keep_set):
            if inst not in self._out:
                raise KeyError(f"unknown instance {inst}")
            sub.add_instance(inst)
        for inst in sorted(keep_set):
            for dst, link in sorted(self._out[inst].items()):
                if dst in keep_set:
                    sub.add_link(link.src, link.dst, link.metrics, link.underlay_path)
        return sub

    def merged_with(self, other: "OverlayGraph") -> "OverlayGraph":
        """Union of two overlay views (used when a node combines knowledge
        received from link-state advertisements with its own view)."""
        merged = OverlayGraph()
        for graph in (self, other):
            for inst in graph.instances():
                merged.add_instance(inst)
        for graph in (self, other):
            for inst in graph.instances():
                for dst, link in sorted(graph._out[inst].items()):
                    if merged.link(inst, dst) is None:
                        merged.add_link(link.src, link.dst, link.metrics, link.underlay_path)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OverlayGraph(instances={len(self)}, links={self.num_links()})"
