"""sFlow: the fully distributed service federation algorithm (paper Sec. 4).

The federation process is message-driven:

1. The consumer delivers the service requirement to the **source service
   node** in an ``sfederate`` message.
2. Every service node that receives ``sfederate`` messages from *all* of its
   upstream services analyses its **local overlay view** (the two-hop
   vicinity of the paper, generalised to a configurable ``horizon``), runs
   the baseline algorithm plus the reduction heuristics on the residual
   requirement, commits its local decisions, and forwards new ``sfederate``
   messages -- carrying the shrunken residual requirement, the accumulated
   *pins* (service -> instance decisions) and the partial flow graph -- to
   the chosen instances of its immediate downstream services.
3. The sink service node(s) finalise the complete service flow graph.

Decision responsibility follows the paper's remark that "the tasks of
computing optimal service flow graphs are generally assumed by the
splitting node": the instance of service ``Y`` is pinned by ``Y``'s
**immediate dominator** in the requirement DAG.  For chain segments the
dominator is simply the upstream service (fully local decisions); for merge
services it is the split node where the branches diverged, which guarantees
all branches deliver their streams to the *same* merge instance.  Because a
dominator precedes ``Y`` on every requirement path, its pin is always
embedded in whatever ``sfederate`` message later reaches ``Y`` -- no extra
coordination round is needed.

Local knowledge model: each node plans over its ``horizon``-hop ego view of
the overlay (optionally materialised by the actual link-state protocol of
:mod:`repro.routing.link_state`).  Instances *outside* the view are known
only by directory (SID listings); the planner prices edges to them with an
optimistic uniform prior estimated from the links the node can see.  This
is what makes sFlow degrade gracefully -- but measurably -- as the network
grows, reproducing the downward trend of Fig. 10(a).

Crash tolerance (the "agile" half of the paper's title, carried into the
protocol itself): a :class:`~repro.network.failures.ChaosPlan` can kill
service nodes *while the federation is running*.  The runtime then behaves
like a real distributed system rather than a batch solver:

* a crashed node silently drops traffic; the upstream sender detects it by
  **retry exhaustion** of the acknowledged transport;
* the sender **fails over**: it re-runs its local baseline/reduction step
  with every suspected-dead instance excluded, re-pins the lost service to
  its next-best candidate, and re-sends -- with exponential backoff between
  attempts.  Re-pins carry a per-service generation so downstream merge
  points deterministically prefer the freshest decision over stale pins
  still in flight;
* failovers that cannot be decided locally (a merge service pinned by a
  remote dominator, an exhausted failover budget, no live alternative)
  escalate to a bounded number of **re-federations**: the consumer restarts
  the protocol for the residual requirement -- everything not safely
  delivered, i.e. the full requirement -- with the suspects excluded;
* the sink side enforces an optional end-to-end **deadline**; each expiry
  burns one re-federation, and exhausting them fails the run;
* every recovery step lands in a structured :class:`RecoveryEvent` log on
  the :class:`SFlowResult`, and an unrecoverable run returns
  ``outcome=FederationOutcome.FAILED`` instead of leaking an exception out
  of :meth:`~repro.sim.engine.Environment.run`.

Everything runs on the discrete-event simulator: ``sfederate`` messages
take the latency of the realised overlay path they travel, so the reported
convergence time and message counts are measured, not modelled.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.errors import FederationError, SimulationError
from repro.network.failures import ChaosPlan
from repro.obs import metrics as obs_metrics
from repro.obs.clock import Stopwatch
from repro.obs.timeseries import SeriesSampler
from repro.obs.trace import NULL_SPAN, SimClock, tracer as obs_tracer
from repro.network.metrics import PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.link_state import collect_local_views
from repro.routing.oracle import RouteOracle
from repro.routing.wang_crowcroft import RouteLabel
from repro.services.flowgraph import FlowEdge, ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid
from repro.core.degradation import DegradationRecord, SessionState
from repro.core.detector import (
    BreakerConfig,
    CircuitBreaker,
    DetectorConfig,
    PhiAccrualDetector,
    RetryPolicy,
)
from repro.core.reductions import AbstractView, ReductionSolver
from repro.core.repair import repair_flow_graph
from repro.sim.channels import Envelope, MessageNetwork
from repro.sim.engine import Environment, Event

#: Protocol metrics (process-wide, resolved once at import).  Counters are
#: always on; spans/events below additionally feed the flight recorder
#: when one is attached (:mod:`repro.obs`), at zero cost otherwise.
_REGISTRY = obs_metrics.registry()
_M_SESSIONS = _REGISTRY.counter("sflow.sessions", "federation runs by outcome")
_M_SFEDERATE = _REGISTRY.counter("sflow.sfederate.sent", "sfederate dispatches")
_M_ACKS = _REGISTRY.counter("sflow.acks.sent", "acknowledgements sent")
_M_RETRANSMISSIONS = _REGISTRY.counter(
    "sflow.retransmissions", "sfederate retransmissions"
)
_M_SUSPECTS = _REGISTRY.counter(
    "sflow.suspects", "instances declared dead by retry exhaustion"
)
_M_FAILOVERS = _REGISTRY.counter("sflow.failovers", "local re-pins after suspicion")
_M_REFEDERATIONS = _REGISTRY.counter(
    "sflow.refederations", "consumer-side protocol restarts"
)
_M_CRASHES = _REGISTRY.counter("sflow.crashes", "chaos crash-stop events")
_M_ACTIVATIONS = _REGISTRY.counter(
    "sflow.node.activations", "local planning steps executed"
)
_M_RECOVERY = _REGISTRY.counter(
    "sflow.recovery.events", "structured recovery-log entries by kind"
)
_H_FEDERATION_TIME = _REGISTRY.histogram(
    "sflow.federation.sim_time", "per-session federation latency (virtual time)"
)
_H_RECOVERY_TIME = _REGISTRY.histogram(
    "sflow.recovery.sim_time",
    "first recovery event to completion (virtual time), disturbed runs only",
)
_M_DEGRADE_DETECTED = _REGISTRY.counter(
    "degrade.detected", "completions that fell below the bandwidth requirement"
)
_M_DEGRADE_REPAIRS = _REGISTRY.counter(
    "degrade.repairs", "in-place repairs attempted on degraded sessions"
)
_M_DEGRADE_SESSIONS = _REGISTRY.counter(
    "degrade.sessions", "sessions served below requirement (explicit record)"
)
_M_DEGRADE_RECOVERED = _REGISTRY.counter(
    "degrade.recovered", "degraded sessions restored to full bandwidth"
)
_H_DELIVERED_FRACTION = _REGISTRY.histogram(
    "degrade.delivered_fraction",
    "achieved / required bandwidth at completion (requirement-bearing runs)",
)


@dataclass(frozen=True)
class SFederate:
    """The ``sfederate`` message: residual requirement + decisions so far."""

    residual: ServiceRequirement
    pins: Tuple[Tuple[Sid, ServiceInstance], ...]
    edges: Tuple[FlowEdge, ...]
    #: Non-zero when the transport is lossy: retransmission/dedup handle.
    msg_id: int = 0
    #: Protocol round: bumped by every re-federation; stale rounds are dropped.
    generation: int = 0
    #: Failover lineage: ``sid -> re-pin generation`` for re-decided services
    #: (absent = 0).  Higher generations win when pins conflict downstream.
    repins: Tuple[Tuple[Sid, int], ...] = ()

    def pin_map(self) -> Dict[Sid, ServiceInstance]:
        return dict(self.pins)

    @property
    def size(self) -> int:
        """Abstract wire size used for byte accounting."""
        return (
            1
            + len(self.residual)
            + len(self.pins)
            + 3 * len(self.edges)
            + len(self.repins)
        )


@dataclass(frozen=True)
class Ack:
    """Acknowledgement of an ``sfederate`` message under a lossy transport."""

    msg_id: int


class FederationOutcome(enum.Enum):
    """How a federation run ended.

    ``COMMITTED`` is an alias of ``SUCCEEDED``: a session that meets its
    requirement is committed.  ``DEGRADED`` sessions are *served* -- they
    carry a flow graph -- but below their bandwidth requirement, with an
    explicit :class:`~repro.core.degradation.DegradationRecord`.
    """

    SUCCEEDED = "succeeded"
    COMMITTED = "succeeded"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class RecoveryEvent:
    """One structured entry of a run's recovery log.

    ``kind`` is one of: ``crash``, ``revival``, ``retry_exhausted``,
    ``suspect``, ``unsuspect``, ``quarantine``, ``failover``, ``abandon``,
    ``refederate``, ``deadline_expired``, ``degrade_detected``,
    ``degrade_repair``, ``degraded``, ``recovered``, ``failed``.
    ``instance`` names the affected instance when the event concerns one
    (detection-latency accounting keys on it).
    """

    time: float
    kind: str
    detail: str
    instance: str = ""


@dataclass
class SFlowConfig:
    """Tunables of the distributed algorithm.

    Attributes:
        horizon: overlay-hop radius of each node's local view (paper: 2).
        pareto: whether local solvers keep Pareto frontiers (exact local
            optimisation) or single shortest-widest-best entries (the
            paper's pure heuristic).
        use_link_state: materialise local views by running the bounded
            link-state protocol on the simulator instead of reading them off
            the overlay directly (slower, but fully distributed end to end).
        gossip_hints: let planners use the per-instance scalar quality
            summaries published in the directory when pricing edges beyond
            the horizon (see ``_PlanningView``); disable for the strictly
            local ablation.
        enumeration_limit: cap forwarded to the local
            :class:`~repro.core.reductions.ReductionSolver` instances.
        initial_latency: delay of the consumer's first ``sfederate`` message.
        loss_rate: probability that the transport loses any one protocol
            message (sfederate or ack).  Non-zero rates switch the protocol
            into reliable mode: receivers acknowledge and deduplicate,
            senders retransmit after ``retransmit_timeout`` up to
            ``max_retries`` times.  The consumer's initial request is
            assumed to use a reliable channel.
        loss_seed: RNG seed of the loss process (runs are reproducible).
        retransmit_timeout: virtual time before an unacknowledged
            ``sfederate`` is resent.
        max_retries: retransmissions before the sender declares the
            receiver dead (suspected) and hands over to failover.
        failover: whether an upstream node re-pins a suspected-dead
            downstream instance to its next-best candidate (re-running the
            local reduction step with suspects excluded).  With failover
            off, retry exhaustion fails the run -- but still through the
            structured :class:`SFlowResult` path, never by raising out of
            the simulation.
        max_failovers: total failover budget of one run; exhausting it
            escalates to re-federation.
        failover_backoff: base of the exponential virtual-time backoff
            between failover attempts (doubles per attempt of a send).
        deadline: optional end-to-end virtual-time deadline enforced on the
            sink side; every expiry triggers a re-federation until
            ``max_refederations`` is exhausted.
        max_refederations: how many times the consumer may restart the
            protocol for the residual requirement (``k`` in the docs).
        required_bandwidth: optional end-to-end bandwidth requirement.
            When set, a completing run evaluates its delivered bandwidth
            (flow-graph bottleneck, gray degradation ramps applied) and,
            when short, climbs the degradation ladder -- in-place repair,
            hysteresis-bounded re-federation, serve DEGRADED -- instead of
            silently committing a starved graph.  ``None`` (default)
            preserves the legacy behaviour bit for bit.
        refederate_hysteresis: minimum virtual time between two
            degradation-triggered re-federations (flap-storm damping).
        detector: optional phi-accrual detector config; when set, every
            message arrival feeds per-peer inter-arrival histories and a
            periodic sweep suspects silent peers *before* retry exhaustion
            does.
        breaker: optional circuit-breaker config; when set, peers that
            exhaust their retries are quarantined and later sends fail
            over immediately instead of burning a full retry cycle.
        retry_policy: optional bounded retry budget with exponential
            backoff + jitter, replacing the fixed
            ``retransmit_timeout`` x ``max_retries`` schedule.
        sample_interval: optional sim-time interval at which a
            :class:`~repro.obs.timeseries.SeriesSampler` scrapes the
            metrics registry during the run.  ``None`` (default) disables
            sampling entirely -- no sampler process is created and the
            legacy event schedule is preserved bit for bit.
    """

    horizon: int = 2
    pareto: bool = True
    use_link_state: bool = False
    gossip_hints: bool = True
    enumeration_limit: int = 100_000
    initial_latency: float = 0.0
    loss_rate: float = 0.0
    loss_seed: int = 0
    retransmit_timeout: float = 30.0
    max_retries: int = 25
    failover: bool = True
    max_failovers: int = 8
    failover_backoff: float = 10.0
    deadline: Optional[float] = None
    max_refederations: int = 2
    required_bandwidth: Optional[float] = None
    refederate_hysteresis: float = 50.0
    detector: Optional[DetectorConfig] = None
    breaker: Optional[BreakerConfig] = None
    retry_policy: Optional[RetryPolicy] = None
    sample_interval: Optional[float] = None

    def __post_init__(self) -> None:
        for name in (
            "initial_latency",
            "retransmit_timeout",
            "failover_backoff",
            "deadline",
            "refederate_hysteresis",
            "required_bandwidth",
            "sample_interval",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.enumeration_limit < 1:
            raise ValueError("enumeration_limit must be >= 1")
        if self.initial_latency < 0:
            raise ValueError("initial_latency must be >= 0")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError("loss_rate must be in [0, 1)")
        if self.retransmit_timeout <= 0:
            raise ValueError("retransmit_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")
        if self.failover_backoff <= 0:
            raise ValueError("failover_backoff must be > 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be > 0 (or None)")
        if self.max_refederations < 0:
            raise ValueError("max_refederations must be >= 0")
        if self.required_bandwidth is not None and self.required_bandwidth <= 0:
            raise ValueError("required_bandwidth must be > 0 (or None)")
        if self.refederate_hysteresis < 0:
            raise ValueError("refederate_hysteresis must be >= 0")
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ValueError("sample_interval must be > 0 (or None)")


@dataclass
class SFlowResult:
    """Everything a federation run produced and measured.

    ``flow_graph`` is ``None`` exactly when ``outcome`` is
    :attr:`FederationOutcome.FAILED`; ``failure_reason`` then says why and
    ``recovery_log`` records every step the runtime took trying to save the
    run (crashes observed, failovers, re-federations, abandonments).
    A :attr:`FederationOutcome.DEGRADED` run *does* carry a flow graph --
    served at the best achievable bandwidth -- plus the explicit
    :class:`~repro.core.degradation.DegradationRecord` saying how far
    short it falls.
    """

    flow_graph: Optional[ServiceFlowGraph]
    convergence_time: float
    messages: int
    bytes: int
    local_compute_seconds: float
    node_activations: int
    link_state_messages: int = 0
    per_node_compute: Dict[ServiceInstance, float] = field(default_factory=dict)
    #: Reliability accounting (zero on a lossless transport).
    retransmissions: int = 0
    lost_messages: int = 0
    acks: int = 0
    #: Crash-tolerance accounting (empty/zero on an undisturbed run).
    outcome: FederationOutcome = FederationOutcome.SUCCEEDED
    failure_reason: str = ""
    recovery_log: Tuple[RecoveryEvent, ...] = ()
    crashes: int = 0
    failovers: int = 0
    refederations: int = 0
    #: Graceful-degradation accounting (None/empty on requirement-free runs).
    degradation: Optional[DegradationRecord] = None
    achieved_bandwidth: Optional[float] = None
    suspected: Tuple[str, ...] = ()
    #: Sampled metric series over the run (empty unless
    #: :attr:`SFlowConfig.sample_interval` was set); a plain-dict bank --
    #: see :mod:`repro.obs.timeseries`.
    series: Dict[str, dict] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.outcome is FederationOutcome.SUCCEEDED

    @property
    def session_state(self) -> SessionState:
        """The run's lifecycle state (served runs are COMMITTED/DEGRADED)."""
        if self.outcome is FederationOutcome.FAILED:
            return SessionState.FAILED
        if self.outcome is FederationOutcome.DEGRADED:
            return SessionState.DEGRADED
        return SessionState.COMMITTED


class _PlanningView(AbstractView):
    """What one node knows when it plans: its local view plus the directory.

    * Instances inside the local view are priced by shortest-widest routing
      *within the view*.
    * Services invisible from here fall back to the global instance
      directory (SID listings are assumed discoverable, path qualities are
      not).  Edges touching out-of-view instances are priced with the
      per-instance **gossip hints**: a single scalar summary (mean incident
      link quality) each instance publishes alongside its directory entry.
      That is a realistic, cheap aggregate -- constant state per instance,
      propagated like any membership record -- and it gives blind decisions
      a fighting chance without leaking actual topology, so sFlow's
      correctness decays gracefully with network size (Fig. 10(a)) instead
      of collapsing to a coin flip.
    * ``excluded`` removes suspected-dead instances from every candidate
      pool (failover re-planning); pinned decisions are honoured verbatim.
    """

    def __init__(
        self,
        residual: ServiceRequirement,
        local_view: OverlayGraph,
        directory: Dict[Sid, Tuple[ServiceInstance, ...]],
        pins: Dict[Sid, ServiceInstance],
        hints: Optional[Mapping[ServiceInstance, PathQuality]] = None,
        excluded: FrozenSet[ServiceInstance] = frozenset(),
    ) -> None:
        self._local = local_view
        self._hints = hints or {}
        #: Routing trees fetched so far, per source: one oracle lookup per
        #: source however many of its pairs get priced.
        self._trees: Dict[ServiceInstance, Dict[ServiceInstance, RouteLabel]] = {}
        self._pools: Dict[Sid, Tuple[ServiceInstance, ...]] = {}
        for sid in residual.services():
            pinned = pins.get(sid)
            if pinned is not None:
                self._pools[sid] = (pinned,)
                continue
            known = tuple(
                inst
                for inst in local_view.instances_of(sid)
                if inst not in excluded
            )
            if known:
                self._pools[sid] = known
            else:
                self._pools[sid] = tuple(
                    inst
                    for inst in directory.get(sid, ())
                    if inst not in excluded
                )
        self._prior = local_view.mean_link_quality()

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        return self._pools.get(sid, ())

    def quality(self, src: ServiceInstance, dst: ServiceInstance) -> PathQuality:
        if src in self._local and dst in self._local:
            # Local views are memoized on the overlay and shared by every
            # activation and federation over it, so the process oracle
            # turns the repeated per-node tree computations into hits.
            labels = self._trees.get(src)
            if labels is None:
                labels = self._trees[src] = RouteOracle.default().tree(
                    self._local, src
                )
            label = labels.get(dst)
            if label is not None and label.quality.reachable:
                return label.quality
            return UNREACHABLE
        # At least one endpoint is beyond the horizon: combine whatever
        # gossip hints exist, defaulting to the local-view prior.
        estimates = [
            self._hints.get(inst, self._prior) for inst in (src, dst)
        ]
        return PathQuality(
            min(e.bandwidth for e in estimates),
            sum(e.latency for e in estimates) / 2.0,
        )


class _SFlowNode:
    """The per-instance protocol endpoint (a simulation process)."""

    def __init__(self, me: ServiceInstance, federation: "_Federation") -> None:
        self.me = me
        self.fed = federation
        self.mailbox = federation.network.register(me)
        self.inbox: List[SFederate] = []
        self.generation = 0
        self._seen_ids: set = set()

    def reset(self) -> None:
        """Crash-stop: the node's volatile protocol state is lost."""
        self.inbox.clear()
        self._seen_ids.clear()

    def run(self):
        while True:
            envelope: Envelope = yield self.mailbox.get()
            payload = envelope.payload
            self.fed.observe_peer(envelope.src)
            if isinstance(payload, Ack):
                self.fed.acknowledge(payload.msg_id)
                continue
            message: SFederate = payload
            if message.generation < self.generation:
                # Stale protocol round: acknowledge (to silence the
                # retransmitter) but never act on it.
                if message.msg_id:
                    self.fed.send_ack(self.me, envelope.src, message.msg_id)
                continue
            if message.generation > self.generation:
                # A re-federation superseded everything this node had.
                self.generation = message.generation
                self.inbox.clear()
                self._seen_ids.clear()
            if message.msg_id:
                # Reliable mode: always (re-)acknowledge -- the previous ack
                # may have been lost -- but process each message once.
                self.fed.send_ack(self.me, envelope.src, message.msg_id)
                if message.msg_id in self._seen_ids:
                    continue
                self._seen_ids.add(message.msg_id)
            self.inbox.append(message)
            expected = max(1, self.fed.requirement.in_degree(self.me.sid))
            if len(self.inbox) < expected:
                continue
            self._activate(envelope.mid)

    def _activate(self, cause: int = 0) -> None:
        fed = self.fed
        my_sid = self.me.sid
        fed.node_activations += 1
        _M_ACTIVATIONS.inc()
        # ``cause`` is the network msg_id of the delivery that completed
        # this node's in-degree -- the causal profiler's join key.
        fed._span.event("node.activate", instance=str(self.me), cause=cause)
        pins: Dict[Sid, ServiceInstance] = {}
        pin_gens: Dict[Sid, int] = {}
        edges: Dict[Tuple[Sid, Sid], FlowEdge] = {}
        for message in self.inbox:
            gens = dict(message.repins)
            for sid, inst in message.pins:
                gen = gens.get(sid, 0)
                if sid not in pins:
                    pins[sid] = inst
                    pin_gens[sid] = gen
                    continue
                if gen > pin_gens[sid]:
                    # A failover re-pin supersedes the stale decision.
                    pins[sid] = inst
                    pin_gens[sid] = gen
                elif gen == pin_gens[sid] and pins[sid] != inst:
                    raise FederationError(
                        f"inconsistent pins for {sid!r} at {self.me}: "
                        f"{pins[sid]} vs {inst}"
                    )
            for edge in message.edges:
                edges[edge.requirement_edge] = edge
        # Drop flow edges that still reference a superseded pin.
        edges = {
            key: edge
            for key, edge in edges.items()
            if pins.get(edge.src.sid) == edge.src
            and pins.get(edge.dst.sid) == edge.dst
        }
        if pins.get(my_sid) != self.me:
            raise FederationError(
                f"{self.me} received an sfederate pinned to {pins.get(my_sid)}"
            )

        successors = fed.requirement.successors(my_sid)
        if not successors:
            fed.complete_sink(my_sid, pins, pin_gens, edges, self.generation)
            return

        started = fed.stopwatch.read()
        residual = fed.requirement.downstream_closure(my_sid)
        view = fed.local_view(self.me)
        planning = _PlanningView(
            residual,
            view,
            fed.directory,
            pins,
            fed.hints,
            excluded=frozenset(fed.suspected),
        )
        solver = ReductionSolver(
            pareto=fed.config.pareto,
            enumeration_limit=fed.config.enumeration_limit,
        )
        try:
            assignment, _quality = solver.solve_assignment(
                residual, planning, source_instance=self.me
            )
        except FederationError:
            # The local view offers no feasible plan (e.g. a partitioned
            # vicinity); fall back to blind directory choices so the
            # federation still terminates -- with poor quality, as it should.
            assignment = {
                sid: pins.get(sid) or fed.live_choice(sid)
                for sid in residual.services()
            }
            assignment[my_sid] = self.me
        elapsed = fed.stopwatch.read() - started
        fed.record_compute(self.me, elapsed)

        # Pin every service whose decision responsibility lies here.
        new_pins = dict(pins)
        for sid in residual.services():
            if sid == my_sid or sid in new_pins:
                continue
            if fed.idom[sid] == my_sid:
                new_pins[sid] = assignment[sid]

        pin_tuple = tuple(sorted(new_pins.items()))
        repin_tuple = tuple(
            sorted((sid, gen) for sid, gen in pin_gens.items() if gen > 0)
        )
        for succ_sid in successors:
            succ_inst = new_pins.get(succ_sid)
            if succ_inst is None:
                raise FederationError(
                    f"no pin for immediate downstream {succ_sid!r} at {self.me}; "
                    f"dominator {fed.idom[succ_sid]!r} failed to decide"
                )
            flow_edge = fed.realize_edge(self.me, succ_inst)
            out_edges = dict(edges)
            out_edges[flow_edge.requirement_edge] = flow_edge
            message = SFederate(
                residual=fed.requirement.downstream_closure(succ_sid),
                pins=pin_tuple,
                edges=tuple(out_edges[k] for k in sorted(out_edges)),
                msg_id=fed.next_msg_id(),
                generation=self.generation,
                repins=repin_tuple,
            )
            latency = (
                flow_edge.quality.latency
                if flow_edge.quality.reachable
                else fed.fallback_latency
            )
            fed.dispatch(self.me, succ_inst, message, latency)


class _Federation:
    """Shared state of one distributed federation run."""

    def __init__(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        source_instance: ServiceInstance,
        config: SFlowConfig,
        chaos: Optional[ChaosPlan] = None,
        stopwatch: Optional[Stopwatch] = None,
    ) -> None:
        self.requirement = requirement
        self.overlay = overlay
        self.source_instance = source_instance
        self.config = config
        #: Host-compute measurements (solver timing, setup cost) go through
        #: an injectable clock; protocol code never reads wall time directly.
        self.stopwatch = stopwatch if stopwatch is not None else Stopwatch()
        self.env = Environment()
        self.chaos = chaos if chaos is not None and chaos.active else None
        if self.chaos is not None:
            self.chaos.schedule.validate_against(overlay)
        #: The gray-failure plan (lossy/duplicating/reordering channels,
        #: stragglers, flaps, partitions, bandwidth ramps), when active.
        self.gray = None
        if (
            self.chaos is not None
            and self.chaos.gray is not None
            and self.chaos.gray.active
        ):
            self.gray = self.chaos.gray
            self.gray.validate_against(overlay)
        #: Reliable (acknowledged) transport is needed whenever messages can
        #: vanish -- seeded loss or a chaos plan that crashes nodes.
        self.reliable = config.loss_rate > 0 or self.chaos is not None
        self._loss_rng = random.Random(config.loss_seed)
        self._chaos_rng = (
            random.Random(self.chaos.seed)
            if self.chaos is not None and self.chaos.loss_rate > 0
            else None
        )
        loss_fn = None
        if config.loss_rate > 0 or self._chaos_rng is not None:
            loss_fn = self._lose
        jitter_fn = None
        if self.chaos is not None and self.chaos.delay_jitter > 0:
            jitter_rng = random.Random(self.chaos.seed ^ 0x9E3779B9)
            jitter = self.chaos.delay_jitter

            def jitter_fn(src, dst, envelope):
                if src == "consumer":
                    return 0.0
                return jitter_rng.uniform(0.0, jitter)

        self.network = MessageNetwork(self.env, loss_fn=loss_fn, jitter_fn=jitter_fn)
        if self.gray is not None:
            self.network.install_gray(self.gray.channel_model())
        #: Adaptive failure detection (all optional; ``None`` leaves the
        #: legacy retry-exhaustion-only path bit-identical).
        self.detector = (
            PhiAccrualDetector(config.detector)
            if config.detector is not None
            else None
        )
        self.breaker = (
            CircuitBreaker(config.breaker) if config.breaker is not None else None
        )
        self._retry_rng = (
            random.Random(config.loss_seed ^ 0x5F3759DF)
            if config.retry_policy is not None
            else None
        )
        #: Peers suspected by the phi detector alone (cleared on the next
        #: heartbeat -- unlike retry-exhaustion suspects, which stay).
        self._phi_suspects: Set[ServiceInstance] = set()
        self._msg_ids = 0
        self._pending_acks: Dict[int, Event] = {}
        self.retransmissions = 0
        self.acks_sent = 0
        self.idom = requirement.immediate_dominators()
        started = self.stopwatch.read()
        self.directory: Dict[Sid, Tuple[ServiceInstance, ...]] = {
            sid: overlay.instances_of(sid) for sid in requirement.services()
        }
        for sid, pool in self.directory.items():
            if not pool:
                raise FederationError(
                    f"required service {sid!r} has no instance in the overlay"
                )
        self.fallback_latency = overlay.mean_link_latency()
        #: Gossip hints: the per-instance scalar summary (mean incident link
        #: quality) each instance publishes with its directory entry --
        #: constant-size state a directory or gossip layer can carry --
        #: which planners use to price edges beyond their horizon.  Shared
        #: by every federation over the overlay: read-only.
        self.hints: Mapping[ServiceInstance, PathQuality] = (
            overlay.mean_incident_quality() if config.gossip_hints else {}
        )
        self.link_state_messages = 0
        self._views: Dict[ServiceInstance, OverlayGraph] = {}
        if config.use_link_state:
            report = collect_local_views(overlay, config.horizon)
            self._views = report.views
            self.link_state_messages = report.messages
        #: Wall-clock setup cost, reported as a zero-length sim-time span by
        #: :meth:`run` -- setup happens before the DES clock starts ticking.
        self._discovery_seconds = self.stopwatch.read() - started
        #: Root span of the session; a real span only while a trace sink is
        #: attached, otherwise the free no-op singleton.
        self._span = NULL_SPAN
        self.node_activations = 0
        self.local_compute_seconds = 0.0
        self.per_node_compute: Dict[ServiceInstance, float] = {}
        self._sink_parts: Dict[
            Sid, Tuple[Dict, Dict, Dict]
        ] = {}
        self._nodes: Dict[ServiceInstance, _SFlowNode] = {}
        #: Instances this run believes are dead (retry exhaustion, crashes
        #: observed through failed sends -- never via global knowledge).
        self.suspected: Set[ServiceInstance] = set()
        self.generation = 0
        self.crashes = 0
        self.failovers = 0
        self.refederations = 0
        self.failed = False
        self.failure_reason = ""
        self.recovery_log: List[RecoveryEvent] = []
        #: Graceful-degradation ladder state (requirement-bearing runs).
        self.degradation: Optional[DegradationRecord] = None
        self.achieved_bandwidth: Optional[float] = None
        self._final_graph: Optional[ServiceFlowGraph] = None
        self._best_graph: Optional[ServiceFlowGraph] = None
        self._best_bandwidth = 0.0
        self._degrade_seen = False
        self._repair_used = False
        self._last_refederate_at = -float("inf")
        self.done: Event = self.env.event()

    def _lose(self, src, dst, envelope) -> bool:
        if src == "consumer":
            return False
        lost = False
        if self.config.loss_rate > 0:
            lost |= self._loss_rng.random() < self.config.loss_rate
        if self._chaos_rng is not None:
            lost |= self._chaos_rng.random() < self.chaos.loss_rate
        return lost

    # -- recovery bookkeeping ----------------------------------------------------

    def _log(self, kind: str, detail: str, *, instance: str = "") -> None:
        self.recovery_log.append(
            RecoveryEvent(self.env.now, kind, detail, instance)
        )
        _M_RECOVERY.inc(kind=kind)
        self._span.event("recovery." + kind, detail=detail)

    def observe_peer(self, peer) -> None:
        """Feed the adaptive detector: every received envelope (sfederate
        or ack) is a liveness proof of its sender."""
        if self.detector is None or not isinstance(peer, ServiceInstance):
            return
        self.detector.heartbeat(peer, self.env.now)
        if peer in self._phi_suspects:
            # The phi detector was wrong (straggler, healed partition):
            # take the suspicion back so failover planning sees the peer.
            self._phi_suspects.discard(peer)
            self.suspected.discard(peer)
            self._log(
                "unsuspect",
                f"{peer} heartbeated again; phi suspicion withdrawn",
                instance=str(peer),
            )

    def _detector_sweep(self):
        """Periodic phi evaluation over every tracked peer: silence beyond
        the adaptive threshold turns into a suspicion *before* any retry
        budget runs out."""
        interval = self.config.detector.bootstrap_interval
        while True:
            yield self.env.timeout(interval)
            if self.done.triggered:
                return
            for peer, phi in self.detector.poll(self.env.now):
                if peer in self.suspected or peer == self.source_instance:
                    continue
                self.suspected.add(peer)
                self._phi_suspects.add(peer)
                _M_SUSPECTS.inc()
                self._log(
                    "suspect",
                    f"phi-accrual suspects {peer} (phi={phi:.2f})",
                    instance=str(peer),
                )

    def _fail_run(self, reason: str, *, force: bool = False) -> None:
        """End the run as FAILED -- structured, never by raising."""
        if self.done.triggered and not force:
            return
        if not self.failed:
            self.failed = True
            self.failure_reason = reason
            self._log("failed", reason)
        if not self.done.triggered:
            self.done.succeed()

    def live_choice(self, sid: Sid) -> ServiceInstance:
        """First directory instance not currently suspected dead (falling
        back to the directory head so blind planning still terminates)."""
        pool = self.directory[sid]
        for inst in pool:
            if inst not in self.suspected:
                return inst
        return pool[0]

    def _live_alternative(self, sid: Sid) -> Optional[ServiceInstance]:
        for inst in self.directory.get(sid, ()):
            if inst not in self.suspected:
                return inst
        return None

    # -- chaos (crash-stop schedule) ---------------------------------------------

    def _chaos_driver(self, event):
        yield self.env.timeout(event.at)
        self._crash(event.instance)
        if event.revive_at is not None:
            yield self.env.timeout(event.revive_at - event.at)
            self._revive(event.instance)

    def _crash(self, instance: ServiceInstance) -> None:
        self.network.crash(instance)
        node = self._nodes.get(instance)
        if node is not None:
            node.reset()
        self.crashes += 1
        _M_CRASHES.inc()
        # Planning learns of the crash only through suspicion (``excluded``).
        # The local views stay untouched: they are shared by every
        # federation over this overlay, and a cached planning tree must
        # always equal a freshly computed one.
        self._log("crash", f"{instance} crashed (crash-stop)")

    def _revive(self, instance: ServiceInstance) -> None:
        self.network.revive(instance)
        self.suspected.discard(instance)
        self._phi_suspects.discard(instance)
        if self.detector is not None:
            # Pre-crash inter-arrival history would insta-suspect the fresh
            # incarnation; let it bootstrap cleanly.
            self.detector.forget(instance)
        self._log("revival", f"{instance} revived with empty state")

    # -- transport (reliability layer) -------------------------------------------

    def next_msg_id(self) -> int:
        """Fresh ``sfederate`` id; 0 (no reliability) on a safe transport."""
        if not self.reliable:
            return 0
        self._msg_ids += 1
        return self._msg_ids

    def dispatch(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        message: SFederate,
        latency: float,
    ) -> None:
        """Send an ``sfederate``: fire-and-forget when the transport is
        safe, supervised (acks, retransmission, failover) otherwise."""
        _M_SFEDERATE.inc()
        if message.msg_id == 0:
            self.network.send(src, dst, message, latency=latency, size=message.size)
            return
        self.env.process(self._supervised_send(src, dst, message, latency))

    def _reliable_send(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        message: SFederate,
        latency: float,
        ack_event: Event,
    ):
        """Acknowledged transmission; returns True when acked, False when
        the retry budget went unanswered.  Never raises: retry exhaustion
        is the *caller's* signal to start failing over.

        The budget is the fixed ``max_retries`` x ``retransmit_timeout``
        schedule by default; an :class:`~repro.core.detector.RetryPolicy`
        replaces it with a bounded attempt count and exponential backoff +
        seeded jitter."""
        policy = self.config.retry_policy
        attempts = (
            policy.max_attempts
            if policy is not None
            else self.config.max_retries + 1
        )
        for attempt in range(attempts):
            self.network.send(
                src, dst, message, latency=latency, size=message.size
            )
            if attempt > 0:
                self.retransmissions += 1
                _M_RETRANSMISSIONS.inc()
            wait = (
                policy.delay(attempt, self._retry_rng)
                if policy is not None
                else self.config.retransmit_timeout
            )
            timeout = self.env.timeout(wait)
            yield self.env.any_of([ack_event, timeout])
            if ack_event.processed:
                return True
        return False

    def _supervised_send(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        message: SFederate,
        latency: float,
    ):
        """Drive one ``sfederate`` to *some* live instance of its service.

        The happy path is a single acknowledged send.  On retry exhaustion
        the target is suspected dead and, failover permitting, the sender
        re-runs its local planning step (suspects excluded), re-pins the
        service, and re-sends to the next-best candidate -- backing off
        exponentially between attempts.  Everything that cannot be resolved
        locally escalates to a bounded re-federation."""
        target, msg, lat = dst, message, latency
        round_index = 0
        while True:
            quarantined = (
                self.breaker is not None
                and not self.breaker.allows(target, self.env.now)
            )
            if quarantined:
                # The circuit is open: the target already burned through a
                # retry cycle recently.  Fail over immediately instead of
                # spending another full budget on a suspect peer.
                self._log(
                    "quarantine",
                    f"{target} is quarantined; sfederate {msg.msg_id} from "
                    f"{src} fails over without retrying",
                    instance=str(target),
                )
            else:
                ack_event = self.env.event()
                self._pending_acks[msg.msg_id] = ack_event
                acked = yield from self._reliable_send(
                    src, target, msg, lat, ack_event
                )
                if acked:
                    if self.breaker is not None:
                        self.breaker.record_success(target, self.env.now)
                    return
                self._pending_acks.pop(msg.msg_id, None)
            if self.done.triggered or msg.generation < self.generation:
                return  # run settled or superseded by a re-federation
            attempts = (
                self.config.retry_policy.max_attempts
                if self.config.retry_policy is not None
                else self.config.max_retries + 1
            )
            if not quarantined:
                self.suspected.add(target)
                self._phi_suspects.discard(target)
                _M_SUSPECTS.inc()
                self._log(
                    "retry_exhausted",
                    f"{target} never acked sfederate {msg.msg_id} from {src} "
                    f"({attempts} transmissions)",
                    instance=str(target),
                )
                if self.breaker is not None and self.breaker.record_failure(
                    target, self.env.now
                ):
                    self._log(
                        "quarantine",
                        f"circuit opened for {target} after consecutive "
                        "retry exhaustions",
                        instance=str(target),
                    )
            if not self.config.failover:
                self._fail_run(
                    f"sfederate {msg.msg_id} from {src} to {target} lost "
                    f"{attempts} times; failover disabled"
                )
                return
            if self.requirement.in_degree(target.sid) > 1:
                self._log(
                    "abandon",
                    f"{target.sid!r} is a merge service pinned by a remote "
                    f"dominator; local failover at {src} would fork the pin",
                )
                self._try_refederate(
                    f"merge service {target.sid!r} lost instance {target}"
                )
                return
            if self.failovers >= self.config.max_failovers:
                self._log(
                    "abandon",
                    f"failover budget ({self.config.max_failovers}) exhausted",
                )
                self._try_refederate("failover budget exhausted")
                return
            backoff = self.config.failover_backoff * (2 ** round_index)
            round_index += 1
            yield self.env.timeout(backoff)
            if self.done.triggered or msg.generation < self.generation:
                return
            replacement = self._plan_failover(src, target, msg)
            if replacement is None:
                self._log(
                    "abandon",
                    f"no live alternative instance for {target.sid!r}",
                )
                self._try_refederate(
                    f"service {target.sid!r} has no live alternative"
                )
                return
            self.failovers += 1
            _M_FAILOVERS.inc()
            new_target, new_msg, new_lat = replacement
            self._log(
                "failover",
                f"{src} re-pinned {target.sid!r}: {target} -> {new_target} "
                f"(backoff {backoff:g})",
            )
            target, msg, lat = new_target, new_msg, new_lat

    def _plan_failover(
        self,
        src: ServiceInstance,
        dead: ServiceInstance,
        message: SFederate,
    ) -> Optional[Tuple[ServiceInstance, SFederate, float]]:
        """Re-run ``src``'s local planning step with suspects excluded and
        rebuild the sfederate for the next-best instance of ``dead.sid``."""
        my_sid = src.sid
        residual = self.requirement.downstream_closure(my_sid)
        pins = {
            sid: inst
            for sid, inst in message.pins
            if inst not in self.suspected
        }
        pins[my_sid] = src
        started = self.stopwatch.read()
        planning = _PlanningView(
            residual,
            self.local_view(src),
            self.directory,
            pins,
            self.hints,
            excluded=frozenset(self.suspected),
        )
        solver = ReductionSolver(
            pareto=self.config.pareto,
            enumeration_limit=self.config.enumeration_limit,
        )
        replacement: Optional[ServiceInstance] = None
        try:
            assignment, _quality = solver.solve_assignment(
                residual, planning, source_instance=src
            )
            replacement = assignment.get(dead.sid)
        except FederationError:
            replacement = None
        self.record_compute(src, self.stopwatch.read() - started)
        if replacement is None or replacement in self.suspected:
            replacement = self._live_alternative(dead.sid)
        if replacement is None:
            return None
        new_pins = message.pin_map()
        new_pins[dead.sid] = replacement
        repins = dict(message.repins)
        repins[dead.sid] = repins.get(dead.sid, 0) + 1
        flow_edge = self.realize_edge(src, replacement)
        out_edges = {
            edge.requirement_edge: edge
            for edge in message.edges
            if dead not in (edge.src, edge.dst)
        }
        out_edges[flow_edge.requirement_edge] = flow_edge
        new_msg = SFederate(
            residual=message.residual,
            pins=tuple(sorted(new_pins.items())),
            edges=tuple(out_edges[k] for k in sorted(out_edges)),
            msg_id=self.next_msg_id(),
            generation=message.generation,
            repins=tuple(sorted(repins.items())),
        )
        latency = (
            flow_edge.quality.latency
            if flow_edge.quality.reachable
            else self.fallback_latency
        )
        return replacement, new_msg, latency

    def send_ack(
        self, src: ServiceInstance, dst, msg_id: int
    ) -> None:
        self.acks_sent += 1
        _M_ACKS.inc()
        self.network.send(
            src, dst, Ack(msg_id), latency=self.fallback_latency, size=1
        )

    def acknowledge(self, msg_id: int) -> None:
        pending = self._pending_acks.pop(msg_id, None)
        if pending is not None and not pending.triggered:
            pending.succeed()

    # -- re-federation (consumer-side recovery) ----------------------------------

    def _try_refederate(self, reason: str) -> bool:
        """Restart the protocol for the residual requirement (which, seen
        from the consumer, is the full requirement: partially committed
        branches upstream of a loss cannot be trusted).  Bounded by
        ``max_refederations``; exhaustion fails the run structurally."""
        if self.done.triggered:
            return False
        if self.refederations >= self.config.max_refederations:
            self._fail_run(
                f"unrecoverable: {reason} "
                f"(after {self.refederations} re-federation(s))"
            )
            return False
        for sid, pool in self.directory.items():
            if all(inst in self.suspected for inst in pool):
                self._fail_run(
                    f"unrecoverable: required service {sid!r} has no live "
                    f"instance ({reason})"
                )
                return False
        if self.source_instance in self.suspected:
            self._fail_run(
                f"unrecoverable: pinned source instance "
                f"{self.source_instance} is dead ({reason})"
            )
            return False
        self.refederations += 1
        _M_REFEDERATIONS.inc()
        self.generation += 1
        self._sink_parts.clear()
        self._log(
            "refederate",
            f"round {self.generation}: restarting the residual requirement "
            f"({reason}); {len(self.suspected)} suspect(s) excluded",
        )
        initial = SFederate(
            residual=self.requirement,
            pins=((self.requirement.source, self.source_instance),),
            edges=(),
            generation=self.generation,
        )
        self.network.send(
            "consumer",
            self.source_instance,
            initial,
            latency=self.config.initial_latency,
            size=initial.size,
        )
        return True

    def _watchdog(self):
        """Sink-side deadline enforcement: every expired window burns one
        re-federation; running out of them fails the run."""
        while True:
            yield self.env.timeout(self.config.deadline)
            if self.done.triggered:
                return
            self._log(
                "deadline_expired",
                f"no complete flow graph by t={self.env.now:g}",
            )
            if not self._try_refederate("deadline expired"):
                return

    # -- services used by nodes ------------------------------------------------

    def local_view(self, instance: ServiceInstance) -> OverlayGraph:
        if instance not in self._views:
            self._views[instance] = self.overlay.ego_view(
                instance, self.config.horizon
            )
        return self._views[instance]

    def realize_edge(
        self, src: ServiceInstance, dst: ServiceInstance
    ) -> FlowEdge:
        """The committed edge ``src -> dst`` over its shortest-widest route
        in the full overlay: established routing state, realised only for
        the edges the protocol commits and never used for decisions."""
        label = (
            RouteOracle.default().tree(self.overlay, src).get(dst)
            if src != dst
            else None
        )
        if label is None or not label.quality.reachable:
            return FlowEdge(src, dst, UNREACHABLE, ())
        return FlowEdge(src, dst, label.quality, label.path)

    def record_compute(self, instance: ServiceInstance, seconds: float) -> None:
        self.local_compute_seconds += seconds
        self.per_node_compute[instance] = (
            self.per_node_compute.get(instance, 0.0) + seconds
        )

    def complete_sink(
        self,
        sink_sid: Sid,
        pins: Dict[Sid, ServiceInstance],
        pin_gens: Dict[Sid, int],
        edges: Dict[Tuple[Sid, Sid], FlowEdge],
        generation: int,
    ) -> None:
        if generation != self.generation:
            return  # a stale round's sink part; the restart superseded it
        self._sink_parts[sink_sid] = (dict(pins), dict(pin_gens), dict(edges))
        if len(self._sink_parts) == len(self.requirement.sinks) and not (
            self.done.triggered
        ):
            if self.config.required_bandwidth is None:
                self.done.succeed()
                return
            self._evaluate_completion()

    # -- graceful degradation (requirement-bearing runs) -------------------------

    def _delivered_bandwidth(self, graph: Optional[ServiceFlowGraph]) -> float:
        """Bottleneck bandwidth the graph delivers *right now*: committed
        edge qualities scaled by any active gray degradation ramps along
        each edge's realised overlay path."""
        if graph is None:
            return 0.0
        bottleneck = float("inf")
        for edge in graph.edges():
            bandwidth = edge.quality.bandwidth
            if not edge.quality.reachable:
                return 0.0
            if self.gray is not None:
                hops = (
                    list(zip(edge.overlay_path, edge.overlay_path[1:]))
                    if len(edge.overlay_path) >= 2
                    else [(edge.src, edge.dst)]
                )
                for hop_src, hop_dst in hops:
                    bandwidth *= self.gray.bandwidth_factor(
                        hop_src, hop_dst, self.env.now
                    )
            bottleneck = min(bottleneck, bandwidth)
        return 0.0 if bottleneck == float("inf") else bottleneck

    def _attempt_repair(
        self, graph: ServiceFlowGraph, required: float
    ) -> Optional[ServiceFlowGraph]:
        """Rung 1 of the ladder: re-decide only the weak services against
        alternative instances, suspects excluded, survivors pinned."""
        overlay = self.overlay
        if self.suspected:
            live = [
                inst
                for inst in overlay.instances()
                if inst not in self.suspected
            ]
            if self.source_instance in live:
                overlay = overlay.subgraph(live)
        weak: Set[Sid] = set()
        for edge in graph.edges():
            bandwidth = edge.quality.bandwidth
            if self.gray is not None:
                hops = (
                    list(zip(edge.overlay_path, edge.overlay_path[1:]))
                    if len(edge.overlay_path) >= 2
                    else [(edge.src, edge.dst)]
                )
                for hop_src, hop_dst in hops:
                    bandwidth *= self.gray.bandwidth_factor(
                        hop_src, hop_dst, self.env.now
                    )
            if bandwidth < required:
                weak.add(edge.src.sid)
                weak.add(edge.dst.sid)
        weak.discard(self.requirement.source)
        started = self.stopwatch.read()
        try:
            report = repair_flow_graph(
                graph,
                overlay,
                source_instance=self.source_instance,
                solver=ReductionSolver(
                    pareto=self.config.pareto,
                    enumeration_limit=self.config.enumeration_limit,
                ),
                force_repair=weak,
            )
        except FederationError:
            return None
        finally:
            self.record_compute(self.source_instance, self.stopwatch.read() - started)
        return report.graph

    def _evaluate_completion(self) -> None:
        """The degradation ladder, run at every tentative completion:
        commit when the requirement is met, otherwise repair in place,
        then re-federate (hysteresis-bounded), then serve DEGRADED."""
        if self.done.triggered:
            return
        required = self.config.required_bandwidth
        try:
            graph: Optional[ServiceFlowGraph] = self._assemble()
        except FederationError:
            graph = None
        achieved = self._delivered_bandwidth(graph)
        if graph is not None and achieved > self._best_bandwidth:
            self._best_graph, self._best_bandwidth = graph, achieved
        if graph is not None and achieved >= required:
            if self._degrade_seen:
                _M_DEGRADE_RECOVERED.inc()
                self._log(
                    "recovered",
                    f"re-federation restored bandwidth to {achieved:g} "
                    f">= {required:g}",
                )
            self._final_graph = graph
            self.achieved_bandwidth = achieved
            self.done.succeed()
            return
        self._degrade_seen = True
        _M_DEGRADE_DETECTED.inc()
        self._log(
            "degrade_detected",
            f"flow graph delivers {achieved:g} < required {required:g}",
        )
        # Rung 1: in-place repair against alternative instances (once).
        if graph is not None and not self._repair_used:
            self._repair_used = True
            _M_DEGRADE_REPAIRS.inc()
            repaired = self._attempt_repair(graph, required)
            if repaired is not None:
                repaired_achieved = self._delivered_bandwidth(repaired)
                self._log(
                    "degrade_repair",
                    f"in-place repair delivers {repaired_achieved:g} "
                    f"(was {achieved:g})",
                )
                if repaired_achieved > achieved:
                    graph, achieved = repaired, repaired_achieved
                    if achieved > self._best_bandwidth:
                        self._best_graph, self._best_bandwidth = graph, achieved
                if repaired_achieved >= required:
                    _M_DEGRADE_RECOVERED.inc()
                    self._log(
                        "recovered",
                        f"repair restored bandwidth to {repaired_achieved:g} "
                        f">= {required:g}",
                    )
                    self._final_graph = graph
                    self.achieved_bandwidth = achieved
                    self.done.succeed()
                    return
        # Rung 2: re-federate -- bounded, and hysteresis-damped so a
        # sagging overlay cannot trigger a flap storm of restarts.
        elapsed = self.env.now - self._last_refederate_at
        if (
            elapsed >= self.config.refederate_hysteresis
            and self.refederations < self.config.max_refederations
        ):
            self._last_refederate_at = self.env.now
            if self._try_refederate(
                f"delivered bandwidth {achieved:g} below requirement {required:g}"
            ):
                return  # a fresh round is in flight; its sinks re-evaluate
            if self.done.triggered:
                return  # the attempt was unrecoverable; the run is FAILED
        # Rung 3: serve at the best achievable bandwidth, explicitly.
        graph, achieved = self._best_graph, self._best_bandwidth
        if graph is None:
            self._fail_run(
                "degraded completion yielded no assemblable flow graph"
            )
            return
        self.degradation = DegradationRecord(
            time=self.env.now,
            required_bandwidth=required,
            achieved_bandwidth=achieved,
            reason=(
                "re-federation hysteresis window open"
                if elapsed < self.config.refederate_hysteresis
                else "re-federation budget exhausted"
            ),
        )
        _M_DEGRADE_SESSIONS.inc()
        self._log(
            "degraded",
            f"serving at {achieved:g}/{required:g} "
            f"({self.degradation.reason})",
        )
        self._final_graph = graph
        self.achieved_bandwidth = achieved
        self.done.succeed()

    # -- driving -----------------------------------------------------------------

    def run(self) -> SFlowResult:
        nodes = [_SFlowNode(inst, self) for inst in self.overlay.instances()]
        self._nodes = {node.me: node for node in nodes}
        self._span = obs_tracer().session(
            "sflow.federate",
            clock=SimClock(self.env),
            services=len(self.directory),
            instances=len(nodes),
            source=str(self.source_instance),
            chaos=self.chaos is not None,
        )
        # Causal stamping: while the session span is live, the transport
        # tags every send/deliver with a msg_id so the profiler can join
        # activations back through each hop (repro.obs.causal).
        self.network.set_trace_span(self._span)
        # Setup happened before the DES clock started ticking: report the
        # discovery phase as a zero-length sim-time span carrying its
        # wall-clock cost.
        self._span.child("discovery").end(wall_seconds=self._discovery_seconds)
        sampler: Optional[SeriesSampler] = None
        if self.config.sample_interval is not None:
            sampler = SeriesSampler(
                self.env, interval=self.config.sample_interval
            )
            sampler.install()
        for node in nodes:
            self.env.process(node.run())
        if self.chaos is not None:
            for event in self.chaos.schedule.events:
                self.env.process(self._chaos_driver(event))
        if self.config.deadline is not None:
            self.env.process(self._watchdog())
        if self.detector is not None:
            self.env.process(self._detector_sweep())
        initial = SFederate(
            residual=self.requirement,
            pins=((self.requirement.source, self.source_instance),),
            edges=(),
        )
        negotiate = self._span.child("negotiate")
        self.network.send(
            "consumer",
            self.source_instance,
            initial,
            latency=self.config.initial_latency,
            size=initial.size,
        )
        try:
            self.env.run(until=self.done)
        except FederationError as exc:
            # A node hit a protocol invariant violation mid-simulation;
            # surface it as a structured failure, never as an exception
            # escaping Environment.run().
            self._fail_run(f"protocol error: {exc}", force=True)
        except SimulationError as exc:
            # The event queue drained without completing -- e.g. every
            # message path died with no failover/deadline left to drive
            # recovery.  Starvation is a failure, not a crash.
            self._fail_run(f"protocol starved: {exc}", force=True)
        negotiate.end(generations=self.generation + 1)
        graph: Optional[ServiceFlowGraph] = None
        if self.config.required_bandwidth is not None:
            # The degradation ladder assembled (and possibly repaired) the
            # graph in-run; a failed run left it None.
            graph = self._final_graph if not self.failed else None
        elif not self.failed:
            try:
                graph = self._assemble()
            except FederationError as exc:
                self._fail_run(f"assembly failed: {exc}", force=True)
        if graph is None:
            outcome = FederationOutcome.FAILED
        elif self.degradation is not None:
            outcome = FederationOutcome.DEGRADED
        else:
            outcome = FederationOutcome.SUCCEEDED
        _M_SESSIONS.inc(outcome=outcome.value)
        _H_FEDERATION_TIME.observe(self.env.now)
        if self.config.required_bandwidth is not None and graph is not None:
            _H_DELIVERED_FRACTION.observe(
                min(
                    1.0,
                    (self.achieved_bandwidth or 0.0)
                    / self.config.required_bandwidth,
                )
            )
        recovery_latency: Optional[float] = None
        if self.recovery_log:
            recovery_latency = self.env.now - self.recovery_log[0].time
            _H_RECOVERY_TIME.observe(recovery_latency)
        series_bank: Dict[str, dict] = {}
        if sampler is not None:
            # One final manual scrape so the outcome metrics recorded just
            # above land in the series even when the run ended mid-interval.
            sampler.sample()
            series_bank = sampler.bank()
            sink = obs_tracer().sink
            if sink is not None:
                sampler.emit(sink)
        self._span.end(
            outcome=outcome.value,
            messages=self.network.stats.messages,
            bytes=self.network.stats.bytes,
            convergence_time=self.env.now,
            crashes=self.crashes,
            failovers=self.failovers,
            refederations=self.refederations,
            retransmissions=self.retransmissions,
            recovery_latency=recovery_latency,
            failure_reason=self.failure_reason,
        )
        self.network.set_trace_span(None)
        self._span = NULL_SPAN
        return SFlowResult(
            flow_graph=graph,
            convergence_time=self.env.now,
            messages=self.network.stats.messages,
            bytes=self.network.stats.bytes,
            local_compute_seconds=self.local_compute_seconds,
            node_activations=self.node_activations,
            link_state_messages=self.link_state_messages,
            per_node_compute=dict(self.per_node_compute),
            retransmissions=self.retransmissions,
            lost_messages=self.network.stats.lost,
            acks=self.acks_sent,
            outcome=outcome,
            failure_reason=self.failure_reason,
            recovery_log=tuple(self.recovery_log),
            crashes=self.crashes,
            failovers=self.failovers,
            refederations=self.refederations,
            degradation=self.degradation,
            achieved_bandwidth=self.achieved_bandwidth,
            suspected=tuple(sorted(str(inst) for inst in self.suspected)),
            series=series_bank,
        )

    def _assemble(self) -> ServiceFlowGraph:
        assignment: Dict[Sid, ServiceInstance] = {}
        gens: Dict[Sid, int] = {}
        edges: Dict[Tuple[Sid, Sid], FlowEdge] = {}
        for pins, pin_gens, part_edges in self._sink_parts.values():
            for sid, inst in pins.items():
                gen = pin_gens.get(sid, 0)
                existing = assignment.get(sid)
                if existing is None or gen > gens[sid]:
                    assignment[sid] = inst
                    gens[sid] = gen
                elif gen == gens[sid] and existing != inst:
                    raise FederationError(
                        f"sinks disagree on {sid!r}: {existing} vs {inst}"
                    )
            edges.update(part_edges)
        edges = {
            key: edge
            for key, edge in edges.items()
            if assignment.get(edge.src.sid) == edge.src
            and assignment.get(edge.dst.sid) == edge.dst
        }
        return ServiceFlowGraph(self.requirement, assignment, edges.values())


class SFlowAlgorithm:
    """The distributed algorithm behind the
    :class:`~repro.core.types.FederationAlgorithm` interface.

    ``solve`` runs a complete simulated federation and returns the final
    flow graph; the full :class:`SFlowResult` (convergence time, message
    counts, per-node compute, recovery log) of the most recent run is kept
    in :attr:`last_result`.
    """

    name = "sflow"

    def __init__(
        self,
        config: Optional[SFlowConfig] = None,
        *,
        stopwatch: Optional[Stopwatch] = None,
    ):
        self.config = config or SFlowConfig()
        #: Injectable host clock used for the solver-timing measurements
        #: (``local_compute_seconds``); tests pass a scripted fake.
        self.stopwatch = stopwatch if stopwatch is not None else Stopwatch()
        self.last_result: Optional[SFlowResult] = None

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> ServiceFlowGraph:
        result = self.federate(
            requirement, overlay, source_instance=source_instance, chaos=chaos
        )
        if result.flow_graph is None:
            raise FederationError(
                result.failure_reason or "federation failed"
            )
        return result.flow_graph

    def federate(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> SFlowResult:
        """Run the distributed federation and return the full result.

        With a :class:`~repro.network.failures.ChaosPlan` the run is
        disturbed mid-protocol; recovery is attempted per the config and an
        unrecoverable run comes back as a structured
        ``outcome=FederationOutcome.FAILED`` result -- this method never
        raises for in-protocol failures."""
        if source_instance is None:
            pool = overlay.instances_of(requirement.source)
            if not pool:
                raise FederationError(
                    f"source service {requirement.source!r} has no instance"
                )
            source_instance = pool[0]
        federation = _Federation(
            requirement, overlay, source_instance, self.config, chaos,
            stopwatch=self.stopwatch,
        )
        self.last_result = federation.run()
        return self.last_result
