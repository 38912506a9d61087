"""Orchestration for ``sflow-check``: one serial pass, plus the CLI.

The pipeline for a project run (:func:`check_paths`):

1. enumerate ``*.py`` files (directory walks honour the exclude globs;
   explicitly named files always lint);
2. parse each file once and push it through the SFL001-SFL012 per-file
   rules plus the symbol distillation of :mod:`.symbols`;
3. the whole-program pass stitches every module summary into the call
   graph + taint lattice of :mod:`.dataflow` and runs the SFL013-SFL015
   project rules, honouring per-line ``noqa`` suppressions in whichever
   file a finding lands;
4. findings are filtered (``--select``/``--ignore``), sorted and
   rendered as human lines or ``--json``.

:func:`check_source` / :func:`check_file` keep the historical per-file
behaviour (no project context), which is also what makes the SFL013+
fixture pairs demonstrable: the per-file API provably returns clean on
files whose combination the project run flags.

Exit codes: 0 clean, 1 violations found, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.tools.check.base import (
    DEFAULT_EXCLUDES,
    FileContext,
    Violation,
    module_for,
    parse_suppressions,
)
from repro.tools.check.dataflow import analyze_project
from repro.tools.check.rules import (
    PROJECT_RULES,
    RULES,
    all_rule_codes,
    rule_codes,
)
from repro.tools.check.symbols import ModuleSummary, summarize_module

_SORT_KEY = lambda v: (v.path, v.line, v.col, v.code)  # noqa: E731


# ---------------------------------------------------------------------------
# per-file analysis (the historical API)
# ---------------------------------------------------------------------------


def _run_file_rules(
    ctx: FileContext,
    select: Optional[Set[str]],
    ignore: Optional[Set[str]],
) -> Tuple[List[Violation], Dict[int, Set[str]]]:
    """Per-file findings (post-``noqa``) plus the file's suppression map."""
    suppressed, findings = parse_suppressions(
        ctx.path, ctx.source, set(all_rule_codes())
    )
    for rule in RULES:
        if select is not None and rule.code not in select:
            continue
        if ignore is not None and rule.code in ignore:
            continue
        if not rule.applies_to(ctx):
            continue
        for violation in rule.check(ctx):
            if violation.code in suppressed.get(violation.line, ()):
                continue
            findings.append(violation)
    return findings, suppressed


def check_source(
    source: str,
    *,
    module: str,
    path: str = "<string>",
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
) -> List[Violation]:
    """Run every applicable per-file rule over one source text."""
    tree = ast.parse(source, filename=path)
    findings, _ = _run_file_rules(
        FileContext(path, module, source, tree), select, ignore
    )
    return _filter(findings, select, ignore)


def check_file(
    path: Path,
    *,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
) -> List[Violation]:
    source = path.read_text(encoding="utf-8")
    module = module_for(path, source)
    return check_source(
        source, module=module, path=str(path), select=select, ignore=ignore
    )


def _filter(
    findings: List[Violation],
    select: Optional[Set[str]],
    ignore: Optional[Set[str]],
) -> List[Violation]:
    if select is not None:
        findings = [f for f in findings if f.code in select or f.code == "SFL000"]
    if ignore is not None:
        findings = [f for f in findings if f.code not in ignore]
    return sorted(findings, key=_SORT_KEY)


# ---------------------------------------------------------------------------
# project runs
# ---------------------------------------------------------------------------


def _iter_python_files(
    paths: Sequence[Path], excludes: Sequence[str]
) -> Iterator[Path]:
    def excluded(p: Path) -> bool:
        posix = p.as_posix()
        return any(fnmatch(posix, pattern) for pattern in excludes)

    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not excluded(sub):
                    yield sub
        elif path.suffix == ".py":
            # Explicitly named files are checked even inside excluded dirs.
            yield path


def _parse_file(path: Path) -> Union[FileContext, str]:
    """Read and parse one file, or describe why it cannot be linted."""
    try:
        source = path.read_bytes().decode("utf-8")
        tree = ast.parse(source, filename=str(path))
    except OSError as exc:
        return f"{path}:0: read error: {exc}"
    except SyntaxError as exc:
        return f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
    except UnicodeDecodeError as exc:
        return f"{path}:0: decode error: {exc}"
    return FileContext(str(path), module_for(path, source), source, tree)


def check_paths(
    paths: Sequence[Path],
    *,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> Tuple[List[Violation], List[str]]:
    """Check every ``*.py`` under ``paths`` as one program.

    Returns ``(violations, parse_errors)``; parse errors are fatal for
    the CLI (exit 2) because an unparseable file is unlintable.
    """
    violations: List[Violation] = []
    errors: List[str] = []
    summaries: List[ModuleSummary] = []
    # path -> line -> codes waived by ``# sflow: noqa[...]``
    suppressions: Dict[str, Dict[int, Set[str]]] = {}
    seen: Set[str] = set()
    for path in _iter_python_files(paths, excludes):
        if str(path) in seen:
            continue
        seen.add(str(path))
        ctx = _parse_file(path)
        if isinstance(ctx, str):
            errors.append(ctx)
            continue
        findings, suppressions[ctx.path] = _run_file_rules(ctx, select, ignore)
        violations.extend(findings)
        summaries.append(summarize_module(ctx))

    analysis = analyze_project(summaries)
    for rule in PROJECT_RULES:
        for violation in rule.check_project(analysis):
            per_line = suppressions.get(violation.path, {})
            if violation.code not in per_line.get(violation.line, ()):
                violations.append(violation)
    return _filter(violations, select, ignore), errors


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_codes(text: Optional[str]) -> Optional[Set[str]]:
    if not text:
        return None
    codes = {c.strip().upper() for c in text.split(",") if c.strip()}
    known = set(all_rule_codes())
    unknown = codes - known
    if unknown:
        raise SystemExit(
            f"sflow-check: unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def _rule_summaries() -> Dict[str, str]:
    index = {"SFL000": "suppression hygiene: noqa needs a justification"}
    for rule in RULES:
        index[rule.code] = rule.summary
    for rule in PROJECT_RULES:
        index[rule.code] = rule.summary
    return index


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sflow-check",
        description=(
            "Repo-specific static analysis: determinism, sim-time purity "
            "and oracle/metrics discipline for the sFlow reproduction."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to check"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--select", metavar="CODES", help="comma-separated codes to run exclusively"
    )
    parser.add_argument(
        "--ignore", metavar="CODES", help="comma-separated codes to skip"
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="GLOB",
        help=(
            "glob of paths to skip (repeatable); defaults to "
            + ", ".join(DEFAULT_EXCLUDES)
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, summary in sorted(_rule_summaries().items()):
            print(f"{code} {summary}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("sflow-check: no paths given", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"sflow-check: no such path: {p}", file=sys.stderr)
        return 2

    try:
        select = _parse_codes(args.select)
        ignore = _parse_codes(args.ignore)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    excludes = tuple(args.exclude) if args.exclude else DEFAULT_EXCLUDES
    violations, errors = check_paths(
        args.paths, select=select, ignore=ignore, excludes=excludes
    )

    if args.json:
        payload = {
            "violations": [v.as_dict() for v in violations],
            "errors": errors,
        }
        print(json.dumps(payload, indent=2))
    else:
        for violation in violations:
            print(violation.render())
        for error in errors:
            print(error, file=sys.stderr)
        if violations:
            counts: Dict[str, int] = {}
            for violation in violations:
                counts[violation.code] = counts.get(violation.code, 0) + 1
            summary = ", ".join(f"{c} x{n}" for c, n in sorted(counts.items()))
            print(f"found {len(violations)} violation(s): {summary}")

    if errors:
        return 2
    return 1 if violations else 0


__all__ = [
    "check_file",
    "check_paths",
    "check_source",
    "main",
    "rule_codes",
]
