"""``sflow-check``: whole-program static analysis for the sFlow repo.

Public API: ``check_source`` / ``check_file`` (per-file rules only),
``check_paths`` (the whole-program run the CLI makes), ``main`` (the
CLI), the rule catalogue (``RULES``, ``PROJECT_RULES``, ``rule_codes``)
and the framework types (``Violation``, ``Rule``, ``ProjectRule``,
``FileContext``).  One serial pass: each file is parsed and walked once
(:mod:`.engine`), distilled into a symbol summary (:mod:`.symbols`),
and the summaries are joined into a call graph (:mod:`.callgraph`) and
taint dataflow (:mod:`.dataflow`) for the cross-module rules.
"""

from __future__ import annotations

from repro.tools.check.base import (
    DEFAULT_EXCLUDES,
    FileContext,
    ProjectRule,
    Rule,
    Violation,
    module_for,
    parse_suppressions,
)
from repro.tools.check.engine import (
    check_file,
    check_paths,
    check_source,
    main,
)
from repro.tools.check.rules import (
    PROJECT_RULES,
    RULES,
    all_rule_codes,
    rule_codes,
)

# Back-compat alias: the scoping helper was private in the old module and
# is white-box imported by the rule tests.
_module_for = module_for

__all__ = [
    "DEFAULT_EXCLUDES",
    "FileContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "RULES",
    "PROJECT_RULES",
    "all_rule_codes",
    "check_file",
    "check_paths",
    "check_source",
    "main",
    "module_for",
    "parse_suppressions",
    "rule_codes",
]
