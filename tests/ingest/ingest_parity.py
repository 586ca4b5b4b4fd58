"""What an ingest leaves behind, as data: the flows behind
``test_ingest_parity.py`` and the script that captured its digests.

Each row runs one sequence of ingests over one archive into a fresh
in-memory warehouse and hashes what the sequence left: the data tables,
the ledger's ``(host, day, sha256, status, open_jobs)`` rows, the kept
scan states, and each report's ``mode`` and ``delta`` (``None`` for a
full ingest).  Rows cover every way of deciding what to read — a full
ingest, a ``through_day=1`` seed, that seed then an append, an append
onto an empty warehouse, an append of day 0 then of the rest, and one
append of day 0 alone — over a text and a v2 copy of one archive, clean
under ``strict`` and with a ``bit_flip`` in one host's first file under
``repair`` and ``quarantine``.

The committed ``ingest_parity_digests.json`` was captured at the last
commit that decided a full and a windowed ingest apart from the append
planner.  Rerun the capture against any commit with::

    PYTHONPATH=<checkout>/src:. python tests/ingest/ingest_parity.py \\
        > tests/ingest/ingest_parity_digests.json
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.live.runner import LiveReplay
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.convert import convert_archive
from repro.testing.faults import inject_fault
from tests.ingest.lookback_oracle import grow, segment_labels

DIGESTS = Path(__file__).with_name("ingest_parity_digests.json")

CFG = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=3, n_users=6)
SEED = 11
FORMATS = ("text", "v2")
#: Error policy -> the fault injected into one host's first file.
POLICIES = {"strict": None, "repair": "bit_flip", "quarantine": "bit_flip"}
#: Flow -> its ingests, each ``(archive: "full" | "day0", keywords)``.
FLOWS = {
    "full": [("full", {})],
    "through1": [("full", {"through_day": 1})],
    "through1+append": [("full", {"through_day": 1}),
                        ("full", {"mode": "append"})],
    "append": [("full", {"mode": "append"})],
    "append_day0+append": [("day0", {"mode": "append"}),
                           ("full", {"mode": "append"})],
    "append_day0": [("day0", {"mode": "append"})],
}

_TABLES = [
    ("jobs", "system, jobid, user, account, science_field, app, queue, "
             "exit_status, submit_time, start_time, end_time, nodes, "
             "cores, node_hours"),
    ("job_metrics", "system, jobid, metric, value"),
    ("system_series", "system, metric, t, value"),
    ("syslog_events", "system, t, host, jobid, kind, severity"),
]


def build_sources(root: Path) -> tuple[dict[str, Path], SimpleNamespace]:
    """The day-rotated text archive of one replay, its v2 conversion,
    and the side logs a live session over the same facility holds."""
    text = root / "text"
    facility = Facility(CFG, seed=SEED)
    workload, sim, _outages, cluster = facility._simulate()
    archive = HostArchive(text)
    replay = LiveReplay(CFG, SEED, *facility._behavior_context(workload),
                        sim.records, archive)
    # LiveSession's recipe and order: side logs before the replay runs.
    accounting, lariat, syslog = facility._side_logs(
        sim, cluster, replay.behaviors)
    replay.advance(float(CFG.horizon))
    archive.close()
    v2 = root / "v2"
    convert_archive(str(text), "v2", out_root=str(v2))
    return {"text": text, "v2": v2}, SimpleNamespace(
        accounting_text=accounting, lariat=lariat, syslog=syslog)


def _archives(source: Path, fault: str | None, dest: Path) -> dict[str, Path]:
    """A private copy of *source* (with *fault* in its second host's
    first file) and its day-0 cut."""
    full = dest / "full"
    shutil.copytree(source, full)
    if fault is not None:
        host = sorted(p for p in full.iterdir() if p.is_dir())[1]
        victim = sorted(host.iterdir())[0]
        inject_fault(victim, fault, seed=5)
        if victim.suffix == ".gz":
            # The injector's gzip header stamps the wall clock; the
            # ledger's digest of the file must not.
            victim.write_bytes(gzip.compress(
                gzip.decompress(victim.read_bytes()), mtime=0))
    day0 = dest / "day0"
    grow(full, day0, segment_labels(full)[:1])
    return {"full": full, "day0": day0}


def state(warehouse: Warehouse, reports: list) -> str:
    """The hashed text of one flow's outcome."""
    warehouse.commit()
    tables = {
        table: warehouse.connection.execute(
            f"SELECT {cols} FROM {table} ORDER BY {cols}").fetchall()
        for table, cols in _TABLES
    }
    ledger = [
        (host, day, e.sha256, e.status,
         None if e.open_jobs is None else sorted(e.open_jobs))
        for (host, day), e in sorted(warehouse.ledger_map(CFG.name).items())
    ]
    states = [(host, jobid, hashlib.sha256(blob).hexdigest())
              for (host, jobid), blob in
              sorted(warehouse.scan_states(CFG.name).items())]
    runs = [(r.mode, None if r.delta is None else r.delta.to_dict())
            for r in reports]
    return repr((tables, ledger, states, runs))


def run_flow(logs: SimpleNamespace, archives: dict[str, Path], policy: str,
             flow: str) -> str:
    warehouse = Warehouse()
    try:
        reports = [
            IngestPipeline(warehouse).ingest(
                CFG, accounting_text=logs.accounting_text,
                archive=HostArchive(archives[which]),
                lariat_records=logs.lariat, syslog=logs.syslog,
                error_policy=policy, **kw)
            for which, kw in FLOWS[flow]
        ]
        return state(warehouse, reports)
    finally:
        warehouse.close()


def outcomes(tmp: Path) -> dict[str, str]:
    """``"format/policy/flow" -> hashed text`` over the whole matrix."""
    sources, logs = build_sources(tmp / "sources")
    out: dict[str, str] = {}
    for fmt in FORMATS:
        for policy, fault in POLICIES.items():
            for flow in FLOWS:
                archives = _archives(sources[fmt], fault,
                                     tmp / fmt / policy / flow)
                out[f"{fmt}/{policy}/{flow}"] = run_flow(
                    logs, archives, policy, flow)
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {k: sha(v) for k, v in outcomes(Path(tmp)).items()}


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
