"""Determinism rules: SFL001 (wall clocks), SFL002 (ambient random),
SFL010 (ambient numpy randomness).

The shared source vocabularies (:data:`WALL_CLOCK_CALLS`,
:data:`AMBIENT_RANDOM`, ...) double as the taint-source sets of the
interprocedural dataflow (:mod:`repro.tools.check.dataflow`): what these
rules flag directly, the whole-program pass follows through helper
functions in other modules.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.tools.check.base import FileContext, Rule, Violation
from repro.tools.check.vocab import AMBIENT_RANDOM, WALL_CLOCK_CALLS

__all__ = [
    "AMBIENT_RANDOM",
    "WALL_CLOCK_CALLS",
    "NUMPY_SEEDED_CONSTRUCTS",
    "SimTimePurity",
    "InjectedRandomness",
    "AmbientNumpyRandomness",
]

#: Seeded-generator constructors of :mod:`numpy.random` -- sanctioned
#: *when called with arguments* (an explicit seed / bit generator).
#: Called bare they seed from the OS, which is exactly the ambient state
#: SFL010 exists to keep out of deterministic code.
NUMPY_SEEDED_CONSTRUCTS: Set[str] = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}


class SimTimePurity(Rule):
    """No wall-clock reads inside ``repro.sim`` / ``repro.core``.

    Simulated results must be functions of the DES clock and the inputs
    alone.  Host timing belongs behind the injectable
    :class:`repro.obs.clock.Stopwatch` (or the ``repro.obs`` timer
    helpers), where tests can substitute a fake clock.
    """

    code = "SFL001"
    summary = "wall-clock read in sim/protocol code; inject a repro.obs clock"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro.sim", "repro.core")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualified_call_name(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock call {name}() in {ctx.module}; route timing "
                    "through repro.obs.clock.Stopwatch (injectable) or a "
                    "SimClock so results stay deterministic",
                )


class InjectedRandomness(Rule):
    """RNGs in sim/core/eval must be seeded and injected.

    Ambient ``random.*`` calls (and unseeded ``random.Random()``) tie
    results to interpreter-global state, which breaks bit-identical
    parallel fan-out: a forked worker would consume a different stream
    than the serial loop.
    """

    code = "SFL002"
    summary = "ambient or unseeded randomness in deterministic code"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro.sim", "repro.core", "repro.eval")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualified_call_name(node.func)
            if name in AMBIENT_RANDOM:
                yield self.violation(
                    ctx,
                    node,
                    f"ambient {name}() draws from interpreter-global state; "
                    "accept a seeded random.Random and call its methods",
                )
            elif name == "random.SystemRandom":
                yield self.violation(
                    ctx,
                    node,
                    "random.SystemRandom is never reproducible; use a seeded "
                    "random.Random",
                )
            elif name == "random.Random" and not node.args and not node.keywords:
                yield self.violation(
                    ctx,
                    node,
                    "unseeded random.Random() seeds from the OS; pass an "
                    "explicit seed derived from the experiment config",
                )


class AmbientNumpyRandomness(Rule):
    """No ambient ``numpy.random`` state in deterministic code.

    Module-level ``numpy.random.*`` calls (``rand``, ``seed``,
    ``shuffle``, ...) draw from or mutate the interpreter-global legacy
    ``RandomState`` -- the numpy twin of SFL002's ambient ``random.*``.
    The routing kernel's batched results (and with them every parallel
    sweep) are only bit-identical because nothing in the hot packages
    touches that shared stream.  Seeded generator constructions
    (``default_rng(seed)``, ``Generator(PCG64(seed))``, ...) are the
    sanctioned alternative and stay legal -- but only *with* arguments;
    bare ``default_rng()`` seeds from the OS.
    """

    code = "SFL010"
    summary = "ambient numpy.random state in deterministic code"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package(
            "repro.sim", "repro.core", "repro.routing", "repro.eval"
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualified_call_name(node.func)
            if name is None or not name.startswith("numpy.random."):
                continue
            terminal = name.rsplit(".", 1)[1]
            if terminal in NUMPY_SEEDED_CONSTRUCTS:
                if node.args or node.keywords:
                    continue  # explicitly seeded construction
                yield self.violation(
                    ctx,
                    node,
                    f"bare numpy.random.{terminal}() seeds from the OS; "
                    "pass an explicit seed derived from the experiment "
                    "config",
                )
                continue
            yield self.violation(
                ctx,
                node,
                f"ambient numpy.random.{terminal}() uses interpreter-"
                "global state; construct a seeded numpy Generator "
                "(numpy.random.default_rng(seed)) and call its methods",
            )
