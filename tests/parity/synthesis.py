"""The synthesis family: what synthesis writes, as data.

Each row replays one scaled system into a fresh archive and hashes the
tree (``repr`` of :func:`~tests.parity.tree`); an offline row also
hashes the data tables its ingest left in the warehouse (``repr`` of
the :func:`~tests.parity.tables` list).  The rows:

* offline ``run_with_files`` — Ranger, Lonestar4 and Stampede, each as
  text+gzip and as v2, with one replay worker and with two;
* one offline row with a user-programmed PMC at every other job begin
  (``USER_PROGRAMMED_PROB = 0.5``), so foreign counter programs sit
  inside multi-job blocks;
* a fleet row: one Stampede day at 64 nodes, straight to v2, two
  replay workers and two ingest workers (``test_synthesis.py`` checks
  it, with its counters).

The committed digests were captured at the last commit that shipped a
second, per-sample synthesis driver beside ``NodeSynth``, where both
were asserted equal.  A live replay writes the same day files, grown by
a unit a flush: ``test_properties_synthesis.py`` holds it to the scalar
path and to the offline replay.  :func:`capture` asserts, row by row, that the
kernels write what each collector's scalar path writes
(:func:`scalar_collectors`, one worker).
"""

from __future__ import annotations

from contextlib import ExitStack
from functools import partial
from pathlib import Path
from unittest import mock

from repro.config import LONESTAR4, RANGER, STAMPEDE
from repro.facility import Facility, FacilityRun
from repro.tacc_stats.collectors import amd64_pmc, intel_pmc
from tests.parity import sha, tables, tree
from tests.scalar_reference import scalar_collectors

SYSTEMS = {"ranger": RANGER, "lonestar4": LONESTAR4, "stampede": STAMPEDE}
FORMATS = ("text", "v2")
SEED = 17
OFFLINE = dict(num_nodes=4, horizon_days=1, n_users=8)


def hashed_tree(root: Path) -> str:
    """The hashed :func:`~tests.parity.tree` of *root*."""
    return sha(repr(tree(root)))


def digests(root: Path, run) -> dict[str, str]:
    """An offline run's hashed tree and data tables; closes its
    warehouse."""
    rows = list(tables(run.warehouse).values())
    run.warehouse.close()
    return {"tree": hashed_tree(root), "tables": sha(repr(rows))}


def offline(root: Path, system: str, fmt: str, workers: int = 1,
            pmc_prob: float | None = None) -> dict[str, str]:
    cfg = SYSTEMS[system].scaled(**OFFLINE)
    with ExitStack() as stack:
        if pmc_prob is not None:
            for module in (amd64_pmc, intel_pmc):
                stack.enter_context(mock.patch.object(
                    module, "USER_PROGRAMMED_PROB", pmc_prob))
        run = Facility(cfg, seed=SEED).run_with_files(
            str(root), archive_format=fmt, workers=workers)
    return digests(root, run)


def fleet(root: Path, workers: int = 2) -> FacilityRun:
    """One Stampede day at 64 nodes, straight to v2, with two replay
    workers and two ingest workers."""
    cfg = STAMPEDE.scaled(num_nodes=64, horizon_days=1, n_users=64)
    return Facility(cfg, seed=7).run_with_files(
        str(root), archive_format="v2", workers=workers, ingest_workers=2)


def _fleet_row(root: Path, workers: int) -> dict[str, str]:
    return digests(root, fleet(root, workers))


#: The row ``test_synthesis.py`` checks, with its counters.
FLEET = "fleet/stampede/v2/w2"
#: Label -> ``(root[, workers=]) -> {"tree": sha[, "tables": sha]}``.
ROWS = {
    **{f"offline/{s}/{f}/w{w}": partial(offline, system=s, fmt=f, workers=w)
       for s in SYSTEMS for f in FORMATS for w in (1, 2)},
    "offline/ranger/text/w1/pmc50": partial(
        offline, system="ranger", fmt="text", pmc_prob=0.5),
    FLEET: partial(_fleet_row, workers=2),
}


def outcomes(tmp: Path, skip=()) -> dict[str, dict[str, str]]:
    """The digests of every row not in *skip*, written by the kernels."""
    return {label: row(tmp / label) for label, row in ROWS.items()
            if label not in skip}


def capture(tmp: Path) -> dict[str, dict[str, str]]:
    """Every row's digests, written by the kernels and asserted equal
    to what each collector's scalar path writes."""
    out = outcomes(tmp / "kernels")
    with scalar_collectors():
        for label, row in ROWS.items():
            serial = {"workers": 1} if "workers" in row.keywords else {}
            assert row(tmp / "scalar" / label, **serial) == out[label], label
    return out
