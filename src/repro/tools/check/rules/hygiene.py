"""General-hygiene rules: SFL007 (computed-float equality in tests),
SFL008 (mutable default arguments)."""

from __future__ import annotations

import ast
from decimal import Decimal, InvalidOperation
from typing import Iterator, Optional, Set

from repro.tools.check.base import FileContext, Rule, Violation

MUTABLE_FACTORIES: Set[str] = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "deque",
}


class FloatEquality(Rule):
    """No ``==``/``!=`` on *computed* floats in tests.

    Exact equality against a stored value is fine in a deterministic DES
    (and the suite leans on it); equality against an arithmetic
    expression (``x == 0.1 + 0.2``) or a decimal literal the binary
    format cannot represent exactly (``x == 0.3``) is a rounding-error
    time bomb.  Use ``pytest.approx`` or ``math.isclose``.
    """

    code = "SFL007"
    summary = "computed-float equality in a test; use pytest.approx"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("tests")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left] + node.comparators:
                problem = self._float_hazard(ctx, operand)
                if problem:
                    yield self.violation(
                        ctx,
                        node,
                        f"{problem}; compare with pytest.approx(...) or "
                        "math.isclose(...) instead of ==",
                    )
                    break

    def _float_hazard(self, ctx: FileContext, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.BinOp) and self._contains_float_arith(node):
            return "float arithmetic inside an equality comparison"
        literal = self._float_literal(node)
        if literal is not None and not self._exactly_representable(ctx, node, literal):
            return (
                f"float literal {literal!r} has no exact binary "
                "representation, so computed values will miss it"
            )
        return None

    @staticmethod
    def _float_literal(node: ast.expr) -> Optional[float]:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return node.value
        return None

    @classmethod
    def _contains_float_arith(cls, node: ast.BinOp) -> bool:
        has_float = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                has_float = True
        return has_float

    def _exactly_representable(
        self, ctx: FileContext, node: ast.expr, value: float
    ) -> bool:
        segment = ast.get_source_segment(ctx.source, node)
        if segment is None:
            return True  # cannot see the literal text; give the benefit
        text = segment.lstrip("+- \t")
        try:
            return Decimal(text) == Decimal(value)
        except (InvalidOperation, ValueError):
            return True


class MutableDefault(Rule):
    """No mutable default arguments, anywhere.

    A ``def f(x=[])`` default is created once and shared across calls --
    in a simulator that is cross-run state leakage, the exact class of
    bug the determinism tests exist to catch.  Use ``None`` plus an
    in-body default (or ``dataclasses.field(default_factory=...)``).
    """

    code = "SFL008"
    summary = "mutable default argument"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}(); the "
                        "object is shared across calls -- default to None "
                        "and construct inside the body",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            return name in MUTABLE_FACTORIES
        return False
