"""What synthesis writes, as data: the rows behind
``test_synthesis_parity.py`` and the script that captured its digests.

Each row replays one scaled system into a fresh archive and hashes the
tree (``{relative path: sha256}``); an offline row also hashes the data
tables its ingest left in the warehouse.  The rows:

* offline ``run_with_files`` — Ranger, Lonestar4 and Stampede, each as
  text+gzip and as v2, with one replay worker and with two;
* an hourly ``LiveReplay`` of the same systems and formats, run to the
  horizon (``end``) and stopped mid-hour at 5 h + 1234.5 s (``stop``);
* one offline row with a user-programmed PMC at every other job begin
  (``USER_PROGRAMMED_PROB = 0.5``), so foreign counter programs sit
  inside multi-job blocks;
* a fleet row: one Stampede day at 64 nodes, straight to v2, two
  replay workers and two ingest workers (``test_synthesis.py`` checks
  it, with its counters).

The committed ``synthesis_parity_digests.json`` was captured at the last
commit that shipped a second, per-sample synthesis driver beside
``NodeSynth``.  The capture asserts, row by row, that the kernels write
what each collector's scalar path writes (:func:`scalar_collectors`,
one worker); against a checkout that still has the ``synthesis`` knob
it also asserts that they write what that driver wrote.  Rerun it
against any commit with::

    PYTHONPATH=<checkout>/src:. python tests/synthesis_parity.py \\
        > tests/synthesis_parity_digests.json
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import tempfile
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from unittest import mock

from repro.config import LONESTAR4, RANGER, STAMPEDE
from repro.facility import Facility, FacilityRun
from repro.live.runner import LiveReplay
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.collectors import amd64_pmc, intel_pmc
from repro.util.timeutil import HOUR
from tests.ingest.ingest_parity import _TABLES
from tests.scalar_reference import scalar_collectors

DIGESTS = Path(__file__).with_name("synthesis_parity_digests.json")

SYSTEMS = {"ranger": RANGER, "lonestar4": LONESTAR4, "stampede": STAMPEDE}
FORMATS = ("text", "v2")
SEED = 17
OFFLINE = dict(num_nodes=4, horizon_days=1, n_users=8)
LIVE = dict(num_nodes=2, horizon_days=1.5, n_users=6)
STOP = 5 * HOUR + 1234.5


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tree(root: Path) -> str:
    """The hashed ``{relative path: sha256}`` of every file under *root*."""
    return sha(repr({
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()}))


def digests(root: Path, run) -> dict[str, str]:
    """An offline run's hashed tree and data tables; closes its
    warehouse."""
    warehouse = run.warehouse
    warehouse.commit()
    tables = [warehouse.connection.execute(
        f"SELECT {cols} FROM {table} ORDER BY {cols}").fetchall()
        for table, cols in _TABLES]
    warehouse.close()
    return {"tree": tree(root), "tables": sha(repr(tables))}


def offline(root: Path, system: str, fmt: str, workers: int = 1,
            pmc_prob: float | None = None, **knob) -> dict[str, str]:
    cfg = SYSTEMS[system].scaled(**OFFLINE)
    with ExitStack() as stack:
        if pmc_prob is not None:
            for module in (amd64_pmc, intel_pmc):
                stack.enter_context(mock.patch.object(
                    module, "USER_PROGRAMMED_PROB", pmc_prob))
        run = Facility(cfg, seed=SEED).run_with_files(
            str(root), archive_format=fmt, workers=workers, **knob)
    return digests(root, run)


def fleet(root: Path, workers: int = 2, **knob) -> FacilityRun:
    """One Stampede day at 64 nodes, straight to v2, with two replay
    workers and two ingest workers."""
    cfg = STAMPEDE.scaled(num_nodes=64, horizon_days=1, n_users=64)
    return Facility(cfg, seed=7).run_with_files(
        str(root), archive_format="v2", workers=workers, ingest_workers=2,
        **knob)


def _fleet_row(root: Path, **kw) -> dict[str, str]:
    return digests(root, fleet(root, **kw))


def live(root: Path, system: str, fmt: str, until: float | None,
         **knob) -> dict[str, str]:
    """An hourly replay to *until* (None: the horizon)."""
    cfg = SYSTEMS[system].scaled(**LIVE)
    facility = Facility(cfg, seed=SEED)
    workload, sim, _outages, _cluster = facility._simulate()
    archive = HostArchive(root, rotate_seconds=HOUR, archive_format=fmt)
    replay = LiveReplay(cfg, SEED, *facility._behavior_context(workload),
                        sim.records, archive, **knob)
    until = cfg.horizon if until is None else until
    t = 0.0
    while t < until:
        t = min(t + HOUR, until)
        replay.advance(t)
        archive.flush_before(t)
    archive.close()
    return {"tree": tree(root)}


#: The row ``test_synthesis.py`` checks, with its counters.
FLEET = "fleet/stampede/v2/w2"
#: Label -> ``(root, **knob) -> {"tree": sha[, "tables": sha]}``.
ROWS = {
    **{f"offline/{s}/{f}/w{w}": partial(offline, system=s, fmt=f, workers=w)
       for s in SYSTEMS for f in FORMATS for w in (1, 2)},
    **{f"live/{s}/{f}/{name}": partial(live, system=s, fmt=f, until=until)
       for s in SYSTEMS for f in FORMATS
       for name, until in (("end", None), ("stop", STOP))},
    "offline/ranger/text/w1/pmc50": partial(
        offline, system="ranger", fmt="text", pmc_prob=0.5),
    FLEET: partial(_fleet_row, workers=2),
}


def outcomes(tmp: Path, skip=()) -> dict[str, dict[str, str]]:
    """The digests of every row not in *skip*, written by the kernels."""
    return {label: row(tmp / label) for label, row in ROWS.items()
            if label not in skip}


def capture() -> dict[str, dict[str, str]]:
    knob = "synthesis" in inspect.signature(Facility.run_with_files).parameters
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, row in ROWS.items():
            out[label] = row(Path(tmp, "kernels", label))
            serial = {"workers": 1} if "workers" in row.keywords else {}
            with scalar_collectors():
                ref = row(Path(tmp, "scalar", label), **serial)
            assert ref == out[label], label
            if knob:
                old = row(Path(tmp, "driver", label), synthesis="scalar")
                assert old == out[label], label
    return out


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
