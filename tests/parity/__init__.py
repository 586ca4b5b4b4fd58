"""One parity harness: the digest tables that pin what each path from
node counters to a served number writes, and the views they hash.

A *family* is a module here whose ``capture(tmp)`` returns its digests:
:mod:`.synthesis` (archive trees, offline warehouses), :mod:`.ingest`
(what every ingest flow leaves) and :mod:`.store` (every served body).
``digests.json`` holds each family's digests and the commit (``git
describe --always --dirty`` of the ``src`` run) they were captured at;
``test_parity.py`` checks them.  Recapture every family with::

    PYTHONPATH=src python -m tests.parity

A family whose digests do not move keeps its commit, so ``git diff
tests/parity/digests.json`` names exactly the rows a change moved.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

import repro

DIGESTS = Path(__file__).with_name("digests.json")
FAMILIES = ("synthesis", "ingest", "store")

#: Every analytics-visible table with its columns, in ``ORDER BY``
#: order.  The ledger and meta tables are left out: run ids and health
#: legitimately differ between a one-shot and a batched ingest.
TABLES = {
    "jobs": "system, jobid, user, account, science_field, app, queue, "
            "exit_status, submit_time, start_time, end_time, nodes, "
            "cores, node_hours",
    "job_metrics": "system, jobid, metric, value",
    "system_series": "system, metric, t, value",
    "syslog_events": "system, t, host, jobid, kind, severity",
}


def tables(warehouse) -> dict[str, list[tuple]]:
    """Every row of :data:`TABLES` in *warehouse*, ordered (commits
    first)."""
    warehouse.commit()
    return {table: warehouse.connection.execute(
                f"SELECT {cols} FROM {table} ORDER BY {cols}").fetchall()
            for table, cols in TABLES.items()}


def tree(root) -> dict[str, str]:
    """``{relative path: sha256}`` of every file under *root*."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected(family: str) -> dict:
    """The committed digests of *family*."""
    return json.loads(DIGESTS.read_text())[family]["digests"]


def describe() -> str:
    """``git describe --always --dirty`` of the ``repro`` being run."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=Path(repro.__file__).parent, capture_output=True, text=True,
        check=True).stdout.strip()


def capture(families: dict[str, Callable[[Path], dict]] | None = None,
            path: Path = DIGESTS) -> dict:
    """Run every family's capture and write *path*: each family's
    digests with the commit they were captured at, the recorded one
    when they did not move."""
    if families is None:
        families = {name: importlib.import_module(f"{__name__}.{name}").capture
                    for name in FAMILIES}
    commit = describe()
    recorded = json.loads(path.read_text()) if path.exists() else {}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in families.items():
            where = Path(tmp, name)
            where.mkdir()
            digests = run(where)
            before = recorded.get(name, {})
            out[name] = {"commit": before["commit"]
                         if before.get("digests") == digests else commit,
                         "digests": digests}
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return out
