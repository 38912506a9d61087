"""Robustness rules: SFL006 (swallowed exceptions), SFL009 (unbounded
retry loops)."""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.tools.check.base import FileContext, Rule, Violation

BROAD_EXCEPTIONS: Set[str] = {"Exception", "BaseException"}
#: Handler calls that count as structured handling: metric increments,
#: histogram observations, trace events.
EMISSION_CALLS: Set[str] = {"inc", "observe", "event"}

#: Terminal call-name fragments that mark a loop iteration as a (re)send
#: attempt.  Matched case-insensitively as substrings: ``_send``,
#: ``retransmit_pin``, ``retry_once`` all qualify.
RETRY_CALL_MARKERS: Tuple[str, ...] = ("send", "retransmit", "retry")


class SwallowedException(Rule):
    """Broad ``except`` must re-raise or emit structured telemetry.

    ``except Exception`` that neither re-raises nor records anything
    turns every future bug into silence.  Acceptable handlers either
    ``raise`` (possibly a wrapped error), or emit a metric/trace event so
    the failure is visible in recordings and counters.
    """

    code = "SFL006"
    summary = "broad except without re-raise or structured emission"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_structurally(node):
                continue
            caught = "bare except" if node.type is None else (
                f"except {ast.unparse(node.type)}"
                if hasattr(ast, "unparse")
                else "broad except"
            )
            yield self.violation(
                ctx,
                node,
                f"{caught} neither re-raises nor emits a metric/trace "
                "event; narrow the exception type, re-raise, or record a "
                "structured *.inc()/.observe()/.event() before continuing",
            )

    @staticmethod
    def _is_broad(type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True
        candidates: Iterable[ast.expr]
        if isinstance(type_node, ast.Tuple):
            candidates = type_node.elts
        else:
            candidates = (type_node,)
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in BROAD_EXCEPTIONS:
                return True
            if (
                isinstance(candidate, ast.Attribute)
                and candidate.attr in BROAD_EXCEPTIONS
            ):
                return True
        return False

    @staticmethod
    def _handles_structurally(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in EMISSION_CALLS
            ):
                return True
        return False


class UnboundedRetry(Rule):
    """Retry loops in ``repro.core``/``repro.sim`` must bound attempts.

    A ``while True:`` whose body both performs a send-like call and waits
    on a ``timeout(...)`` is a retransmission loop.  Without a ``break``
    or ``return`` escape, its attempt count is unbounded -- under a gray
    fault (a silently dead peer, a partitioned link) it spins forever and
    the session never reaches a terminal state.  Bound it with a ``for``
    over a :class:`repro.core.detector.RetryPolicy` (attempt cap +
    exponential backoff) or add an explicit escape.

    Heuristic scope note: nested function/class bodies are skipped, but a
    ``break`` anywhere in the (non-nested) loop body counts as an escape
    even if it belongs to an inner loop -- the rule prefers false
    negatives over noise.
    """

    code = "SFL009"
    summary = "unbounded retry loop (while True sends + waits, no escape)"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro.core", "repro.sim")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.While):
                continue
            test = node.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            sends = waits = escapes = False
            for child in self._loop_body(node):
                if isinstance(child, ast.Call):
                    name = self._terminal_name(child.func)
                    if name is not None:
                        lowered = name.lower()
                        if any(m in lowered for m in RETRY_CALL_MARKERS):
                            sends = True
                        if lowered == "timeout":
                            waits = True
                elif isinstance(child, (ast.Break, ast.Return)):
                    escapes = True
            if sends and waits and not escapes:
                yield self.violation(
                    ctx,
                    node,
                    "while True retry loop with no break/return: bound the "
                    "attempt count (RetryPolicy / for-loop) so a gray-failed "
                    "peer cannot wedge the session",
                )

    @staticmethod
    def _loop_body(loop: ast.While) -> Iterator[ast.AST]:
        """Walk the loop body, skipping nested function/class scopes."""
        stack: List[ast.AST] = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _terminal_name(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return None
