"""Shared fixtures for the ``sflow-check`` tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.tools.check import check_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_lint():
    """``check_paths`` over ``src`` and ``tests``, linted once per session.

    The in-process repo-clean tests share this one pass instead of each
    linting the whole tree again.
    """
    return check_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
