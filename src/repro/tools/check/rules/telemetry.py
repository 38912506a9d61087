"""Telemetry-hygiene rules: SFL005 (metric names), SFL011 (span
lifecycle), SFL012 (orphan events)."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.tools.check.base import FileContext, Rule, Violation

METRIC_FACTORIES: Set[str] = {"counter", "gauge", "histogram"}
#: Registered metric namespaces; ``docs/static_analysis.md`` is the
#: authority for extending this list.
METRIC_NAMESPACES: Tuple[str, ...] = (
    "sflow.", "channel.", "monitor.", "dataflow.", "oracle.", "engine.",
    "detector.", "degrade.", "slo.",
)

#: Methods of :mod:`repro.obs.trace` that *open* a span: ``Tracer.session``
#: (root) and ``Span.child`` (nested).
SPAN_FACTORIES: Set[str] = {"session", "child"}

#: Dotted resolutions of the process-tracer factory.
TRACER_FACTORIES: Set[str] = {
    "repro.obs.trace.tracer",
    "repro.obs.tracer",
    "tracer",
}


class MetricsHygiene(Rule):
    """Metric names must be string literals in a registered namespace.

    The snapshot/merge algebra treats names as opaque stable keys; a
    computed name defeats grep-ability and review, and an off-namespace
    name escapes the dashboards and the trace CLI's summary tables.
    """

    code = "SFL005"
    summary = "metric name not a literal in a registered namespace"

    def applies_to(self, ctx: FileContext) -> bool:
        # The registry implementation itself re-creates metrics from
        # snapshot data (dynamic by design).
        return ctx.in_package("repro") and ctx.module != "repro.obs.metrics"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in METRIC_FACTORIES:
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                yield self.violation(
                    ctx,
                    name_arg,
                    f".{func.attr}(...) metric name must be a string literal "
                    "(computed names break grep-ability and the snapshot "
                    "algebra's stable keys)",
                )
                continue
            if not name_arg.value.startswith(METRIC_NAMESPACES):
                namespaces = "|".join(ns.rstrip(".") for ns in METRIC_NAMESPACES)
                yield self.violation(
                    ctx,
                    name_arg,
                    f"metric name {name_arg.value!r} is outside the "
                    f"registered namespaces ({namespaces}); register the "
                    "namespace in docs/static_analysis.md or rename",
                )


class SpanLifecycle(Rule):
    """Tracer spans must be ``with``-managed or explicitly ended.

    A :class:`repro.obs.trace.Span` only reaches the flight recorder when
    it *ends* -- a span begun and never closed silently vanishes from
    every recording, trace render, and health report, taking its
    ``wall_seconds`` attribution with it.  The sanctioned shapes:

    * ``with tracer.session(...) as span:`` / ``with span.child(...):``
      -- the context manager ends on exit, exceptions included;
    * a local ``s = span.child(...)`` later closed via ``s.end(...)`` (or
      handed off: returned, passed to a call, re-bound onto an object);
    * immediate chaining: ``span.child("phase").end(wall_seconds=dt)``.

    A local that is never ended or handed off fires, as does a bare
    expression statement that discards the fresh span outright.
    Attribute targets (``self._span = tracer.session(...)``) are exempt:
    that is the documented cross-method lifecycle of the protocol
    drivers, where ``run()`` ends what ``__init__`` opened.
    """

    code = "SFL011"
    summary = "tracer span never ended; use `with` or call .end()"

    def applies_to(self, ctx: FileContext) -> bool:
        # The tracer implementation itself builds and hands out spans.
        return ctx.in_package("repro") and ctx.module != "repro.obs.trace"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    @staticmethod
    def _scope_nodes(fn: ast.AST) -> Iterator[ast.AST]:
        """Walk one function's own scope, skipping nested def/class bodies.

        Nested functions get their own :meth:`_check_function` pass, so
        descending into them here would double-report their spans.
        """
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                stack.extend(ast.iter_child_nodes(node))

    def _check_function(
        self, ctx: FileContext, fn: ast.AST
    ) -> Iterator[Violation]:
        nodes = list(self._scope_nodes(fn))
        span_calls = [
            node
            for node in nodes
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SPAN_FACTORIES
        ]
        if not span_calls:
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in [fn] + nodes:
            for child in ast.iter_child_nodes(parent):
                parents.setdefault(child, parent)
        closed = self._closed_names(nodes)
        for call in span_calls:
            attr = call.func.attr  # type: ignore[union-attr]
            parent = parents.get(call)
            if isinstance(parent, (ast.Attribute, ast.withitem)):
                # Chained (.child(x).end(...)) or context-managed.
                continue
            if isinstance(parent, ast.Expr):
                yield self.violation(
                    ctx,
                    call,
                    f".{attr}(...) span discarded without ending it; it "
                    "will never reach the recorder -- use `with`, chain "
                    ".end(...), or bind and close it",
                )
                continue
            name = self._local_target(parent)
            if name is not None and name not in closed:
                yield self.violation(
                    ctx,
                    call,
                    f"span {name!r} from .{attr}(...) is never `with`-"
                    "managed, .end()-ed, or handed off in this function; "
                    "an unclosed span never reaches the recorder",
                )

    @staticmethod
    def _local_target(parent: Optional[ast.AST]) -> Optional[str]:
        """The simple local name a span call is bound to, if any.

        Attribute/subscript/tuple targets mean a cross-method or shared
        lifecycle the per-function analysis cannot follow -- exempt.
        """
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Name):
                return target.id
        elif isinstance(parent, ast.AnnAssign):
            if isinstance(parent.target, ast.Name):
                return parent.target.id
        return None

    @staticmethod
    def _closed_names(nodes: Sequence[ast.AST]) -> Set[str]:
        """Local names that are ended, ``with``-managed, or handed off."""
        closed: Set[str] = set()
        for node in nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "end"
                and isinstance(node.func.value, ast.Name)
            ):
                closed.add(node.func.value.id)
            elif isinstance(node, ast.withitem) and isinstance(
                node.context_expr, ast.Name
            ):
                closed.add(node.context_expr.id)
            elif isinstance(node, (ast.Return, ast.Yield)) and node.value:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        closed.add(sub.id)  # ownership moves to the caller
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Name):
                        closed.add(arg.id)  # handed to another owner
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                closed.add(node.value.id)  # re-bound (e.g. onto self)
        return closed


class OrphanEvent(Rule):
    """Point events must be emitted inside an active span.

    ``tracer().event(...)`` writes an event with ``trace=None`` and
    ``span=None`` -- invisible to per-session timelines and, worse, to the
    causal profiler (:mod:`repro.obs.causal`), which joins events to
    sessions by trace id.  Protocol and service code should emit through
    the enclosing span (``span.event(...)``); genuinely span-less
    diagnostics (the DES kernel's handler-error event, the analytic
    stream sweep) carry a justified suppression instead.
    """

    code = "SFL012"
    summary = "free-standing tracer().event(); orphan events break causal joins"

    def applies_to(self, ctx: FileContext) -> bool:
        # The obs layer itself legitimately emits span-less plumbing
        # events (SLO alert edges, replay); everything above it must not.
        return ctx.in_package("repro") and not ctx.in_package("repro.obs")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        tracer_locals = self._tracer_locals(ctx)
        for node in ctx.nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "event"
            ):
                continue
            receiver = node.func.value
            if isinstance(receiver, ast.Call):
                if self._is_tracer_factory(ctx, receiver):
                    yield self.violation(
                        ctx,
                        node,
                        "tracer().event(...) emits an orphan event (trace=None, "
                        "span=None) that the causal profiler cannot join to any "
                        "session; emit through the active span "
                        "(span.event(...)) or justify with a noqa",
                    )
            elif (
                isinstance(receiver, ast.Name)
                and receiver.id in tracer_locals
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{receiver.id}.event(...) on a bare tracer emits an orphan "
                    "event (trace=None, span=None) invisible to causal "
                    "reconstruction; emit through the active span or justify "
                    "with a noqa",
                )

    def _is_tracer_factory(self, ctx: FileContext, call: ast.Call) -> bool:
        name = ctx.qualified_call_name(call.func)
        return name in TRACER_FACTORIES

    def _tracer_locals(self, ctx: FileContext) -> Set[str]:
        """Names bound directly to ``tracer()`` anywhere in the file."""
        names: Set[str] = set()
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and self._is_tracer_factory(ctx, node.value)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names
