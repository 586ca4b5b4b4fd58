"""Shared fixtures.

The expensive artifacts — a fast-path facility run big enough for the
analytics to be meaningful, and a slow-path (text-format) run of the tiny
test system — are built once per session and shared read-only across the
suite.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import RANGER, TEST_SYSTEM, Facility
from repro.xdmod.query import JobQuery

#: The repository root, and the environment for tests that start a
#: child interpreter (``python -m repro.cli.<tool>``) on this source tree.
ROOT = Path(__file__).resolve().parent.parent
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.fixture
def pool_cpus(monkeypatch):
    """Eight visible CPUs, so ``workers > 1`` runs a real process pool
    on any machine (:func:`repro.ingest.parallel.effective_workers`
    clamps to the CPU count)."""
    monkeypatch.setattr("repro.ingest.parallel.os.cpu_count", lambda: 8)


@pytest.fixture(scope="session")
def fast_run():
    """A 32-node, 20-day Ranger replica via the fast path."""
    cfg = RANGER.scaled(num_nodes=32, horizon_days=20, n_users=50)
    return Facility(cfg, seed=7).run()


@pytest.fixture(scope="session")
def fast_query(fast_run) -> JobQuery:
    return fast_run.query()


@pytest.fixture(scope="session")
def file_run(tmp_path_factory):
    """The tiny TEST_SYSTEM through the full text-format pipeline."""
    archive_dir = tmp_path_factory.mktemp("tacc_stats_archive")
    return Facility(TEST_SYSTEM, seed=11).run_with_files(str(archive_dir))
