"""SQLite-backed data warehouse (Netezza/MySQL substitute).

Star-ish schema:

* ``systems`` — one row per cluster (capacity facts for normalization);
* ``jobs`` — the fact table: one row per completed job with its identity
  dimensions (user, account, science field, application, queue, exit) and
  node-hour facts;
* ``job_metrics`` — (jobid, metric, value) long-form per-job summaries;
* ``system_series`` — 10-minute system-level aggregates (active nodes,
  total FLOPS, memory per node, filesystem rates) feeding Figures 8-12
  and the persistence analysis;
* ``syslog_events`` — rationalized failure events for the ANCOR linkage.

The query layer (:mod:`repro.xdmod.query` on top of
:mod:`repro.xdmod.snapshot`) builds on this; everything here is plain,
parameterized SQL.

Write path: all ``add_*`` calls buffer their rows and are flushed to
SQLite with one ``executemany`` per table (jobs before job_metrics, so
foreign keys hold) — either when a buffer reaches ``_WRITE_BATCH`` rows,
before any read, or on :meth:`Warehouse.commit`.

Generation stamp: the ``meta`` table carries a ``generation`` counter
that :meth:`commit` bumps whenever the commit actually wrote something.
:attr:`data_version` combines it with an in-process mutation counter;
the analytics snapshot layer uses it to invalidate its caches exactly
when the warehouse contents change.  The append-vs-rebuild change
state (destructive counter, per-system series epochs) is persisted
next to it under ``change_state``, so a long-lived reader adopting an
external commit (:meth:`Warehouse.reread_generation`) learns not just
*that* the file moved but *how*.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass

import numpy as np

from repro.ingest.vocabulary import SUMMARY_METRICS, JobSummary
from repro.scheduler.job import JobRecord
from repro.telemetry.metrics import get_registry

__all__ = ["Warehouse", "JobRow", "LedgerEntry"]

#: Bump when the SQL layout changes incompatibly; opening a file written
#: by a different layout fails loudly instead of misreading it.
SCHEMA_VERSION = 1

#: Buffered rows per table before an automatic executemany flush.
_WRITE_BATCH = 512

# Ledger of consumed archive host-days plus per-run row ranges.  Written
# with IF NOT EXISTS so it doubles as the on-open migration for files
# created before incremental ingest existed (same pattern as the
# covering index): older warehouses gain empty ledger tables and every
# archive-mode ingest from then on records what it consumed.
# ``open_jobs`` (added on open to ledgers that predate it) holds the
# comma-joined job ids the file mentions that were not loaded when the
# cell was last scanned; NULL = not known, any job may be in there.
# ``ingest_scan_state`` holds, per host, the mergeable scan state of
# each job that can still load (an opaque blob, see
# ``columnar_scan.JobScanState``): written and deleted in the
# transaction that writes the ledger rows, so an append folds a
# finishing job's new files onto it instead of reading the old ones.
_LEDGER_SCHEMA = """
CREATE TABLE IF NOT EXISTS ingest_ledger (
    system   TEXT NOT NULL,
    host     TEXT NOT NULL,
    day      TEXT NOT NULL,
    sha256   TEXT NOT NULL,
    size     INTEGER NOT NULL,
    mtime_ns INTEGER NOT NULL,
    status   TEXT NOT NULL,
    run_id   TEXT NOT NULL,
    open_jobs TEXT,
    PRIMARY KEY (system, host, day)
);
CREATE TABLE IF NOT EXISTS ingest_runs (
    system     TEXT NOT NULL,
    run_id     TEXT NOT NULL,
    mode       TEXT NOT NULL,
    row_ranges TEXT NOT NULL,
    PRIMARY KEY (system, run_id)
);
CREATE TABLE IF NOT EXISTS ingest_scan_state (
    system TEXT NOT NULL,
    host   TEXT NOT NULL,
    jobid  TEXT NOT NULL,
    state  BLOB NOT NULL,
    PRIMARY KEY (system, host, jobid)
);
"""

# Live-mode per-job cumulative counters: one row per (system, jobid,
# metric) holding the *latest* monotonic counter value and its sample
# time.  Deliberately outside the snapshot frame tables (jobs /
# job_metrics / system_series / syslog_events): live micro-batches
# upsert here at high cadence and readers (repro-top, /api/v1/live/*)
# go straight to SQL, so the columnar snapshot never rebuilds over it.
# Written with IF NOT EXISTS so it doubles as the on-open migration,
# same pattern as the ingest ledger.
_LIVE_SCHEMA = """
CREATE TABLE IF NOT EXISTS live_job_counters (
    system TEXT NOT NULL,
    jobid  TEXT NOT NULL,
    user   TEXT NOT NULL,
    app    TEXT NOT NULL,
    t      REAL NOT NULL,
    ended  INTEGER NOT NULL,
    metric TEXT NOT NULL,
    value  INTEGER NOT NULL,
    PRIMARY KEY (system, jobid, metric)
);
"""

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE systems (
    name            TEXT PRIMARY KEY,
    num_nodes       INTEGER NOT NULL,
    cores_per_node  INTEGER NOT NULL,
    mem_gb_per_node REAL NOT NULL,
    peak_tflops     REAL NOT NULL,
    sample_interval REAL NOT NULL
);
CREATE TABLE jobs (
    system        TEXT NOT NULL REFERENCES systems(name),
    jobid         TEXT NOT NULL,
    user          TEXT NOT NULL,
    account       TEXT NOT NULL,
    science_field TEXT NOT NULL,
    app           TEXT NOT NULL,
    queue         TEXT NOT NULL,
    submit_time   REAL NOT NULL,
    start_time    REAL NOT NULL,
    end_time      REAL NOT NULL,
    nodes         INTEGER NOT NULL,
    cores         INTEGER NOT NULL,
    exit_status   TEXT NOT NULL,
    node_hours    REAL NOT NULL,
    PRIMARY KEY (system, jobid)
);
CREATE TABLE job_metrics (
    system TEXT NOT NULL,
    jobid  TEXT NOT NULL,
    metric TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (system, jobid, metric),
    FOREIGN KEY (system, jobid) REFERENCES jobs(system, jobid)
);
CREATE TABLE system_series (
    system TEXT NOT NULL,
    metric TEXT NOT NULL,
    t      REAL NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (system, metric, t)
);
CREATE TABLE syslog_events (
    system TEXT NOT NULL,
    t      REAL NOT NULL,
    host   TEXT NOT NULL,
    jobid  TEXT,
    kind   TEXT NOT NULL,
    severity TEXT NOT NULL
);
CREATE INDEX idx_jobs_user ON jobs(system, user);
CREATE INDEX idx_jobs_app ON jobs(system, app);
CREATE INDEX idx_jobs_field ON jobs(system, science_field);
CREATE INDEX idx_metrics_metric ON job_metrics(system, metric);
CREATE INDEX idx_metrics_covering ON job_metrics(system, metric, jobid, value);
CREATE INDEX idx_syslog_job ON syslog_events(system, jobid);
""" + _LEDGER_SCHEMA + _LIVE_SCHEMA


@dataclass(frozen=True)
class LedgerEntry:
    """One consumed archive host-day, as recorded in ``ingest_ledger``.

    ``status`` mirrors the host's scan outcome when the file was
    consumed (``loaded`` / ``degraded`` / ``dropped``); ``run_id`` links
    to the ``ingest_runs`` row holding that run's appended row ranges.
    ``open_jobs`` are the job ids the file mentions that were not yet
    loaded when it was last scanned — the only jobs a later append can
    need this file for; ``None`` means the scan could not tell (a
    dropped host, a quarantined or repaired file, a ledger row written
    before the column existed) and any job may be in there.
    """

    host: str
    day: str
    sha256: str
    size: int
    mtime_ns: int
    status: str
    run_id: str
    open_jobs: frozenset[str] | None = None


@dataclass(frozen=True)
class JobRow:
    """One row of the ``jobs`` fact table."""

    system: str
    jobid: str
    user: str
    account: str
    science_field: str
    app: str
    queue: str
    submit_time: float
    start_time: float
    end_time: float
    nodes: int
    cores: int
    exit_status: str
    node_hours: float


class Warehouse:
    """A warehouse instance (in-memory by default, or a file path)."""

    def __init__(self, path: str = ":memory:", threadsafe: bool = False):
        # threadsafe=True lets the connection be shared across threads
        # (the service layer's lazy snapshot loads run on worker
        # threads).  CPython builds SQLite in serialized mode, so the
        # shared handle itself is safe; the snapshot layer additionally
        # serializes its bulk scans behind a load lock.
        self._conn = sqlite3.connect(path, check_same_thread=not threadsafe)
        self._conn.execute("PRAGMA foreign_keys = ON")
        #: Where this warehouse lives (shard identity in a federation).
        self.path = path
        have = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='jobs'"
        ).fetchone()
        if not have:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            self._conn.execute("INSERT INTO meta VALUES ('generation', '0')")
            self._conn.commit()
        else:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone() if self._has_table("meta") else None
            found = int(row[0]) if row else 0
            if found != SCHEMA_VERSION:
                self._conn.close()
                raise RuntimeError(
                    f"warehouse {path!r} has schema version {found}, this "
                    f"code expects {SCHEMA_VERSION}; re-run repro-simulate "
                    f"into a fresh file"
                )
            try:
                # Files written before the covering index existed get it
                # on open; harmless no-op everywhere else.
                self._conn.execute(
                    "CREATE INDEX IF NOT EXISTS idx_metrics_covering "
                    "ON job_metrics(system, metric, jobid, value)"
                )
                # Same deal for the incremental-ingest ledger tables
                # and the live-mode counter table.
                self._conn.executescript(_LEDGER_SCHEMA)
                if not self._ledger_has_open_jobs():
                    self._conn.execute("ALTER TABLE ingest_ledger "
                                       "ADD COLUMN open_jobs TEXT")
                self._conn.executescript(_LIVE_SCHEMA)
            except sqlite3.OperationalError:
                pass  # read-only file: queries still work, just slower

        # Write buffers (flushed by executemany) and the change stamp.
        self._pending_jobs: list[tuple] = []
        self._pending_metrics: list[tuple] = []
        self._pending_series: list[tuple] = []
        self._pending_syslog: list[tuple] = []
        self._seen_job_keys: set[tuple[str, str]] = set()
        self._mutations = 0
        self._dirty = False
        # Append-vs-rebuild signals for the snapshot layer: pure inserts
        # leave ``_destructive`` alone (rowid watermarks describe the
        # delta exactly); anything that rewrites existing rows bumps it.
        # Series appends can update tail bins in place, so series carry
        # a per-system epoch instead of a rowid watermark.  Both are
        # seeded from the persisted copy (written by :meth:`commit`
        # next to the generation) so the counters are monotonic across
        # processes and :meth:`reread_generation` can tell an external
        # series rewrite from a pure append.
        self._destructive = 0
        self._series_epochs: dict[str, int] = {}
        persisted = self._read_change_state()
        if persisted is not None:
            self._destructive = persisted[0]
            self._series_epochs = persisted[1]
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='generation'"
        ).fetchone()
        self._generation = int(row[0]) if row else 0
        #: Ingest bookkeeping as this handle last read or wrote it,
        #: keyed ``(table, system)``: the ledger, the loaded job ids and
        #: the kept scan states.  The SQL reads fill it, this handle's
        #: writes update it, and it is dropped whenever
        #: :meth:`commit_version` shows another connection committed.
        self._books: dict[tuple[str, str], dict | set] = {}
        self._books_version = self.commit_version()
        #: The columnar image of this warehouse, owned here so it dies
        #: with the warehouse; only :class:`~repro.xdmod.snapshot.
        #: WarehouseSnapshot` (``for_warehouse`` / ``invalidate``)
        #: reads or sets it, under its lock.
        self._snapshot = None

    def _has_table(self, name: str) -> bool:
        return self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name=?",
            (name,),
        ).fetchone() is not None

    def _ledger_has_open_jobs(self) -> bool:
        return any(row[1] == "open_jobs" for row in self._conn.execute(
            "PRAGMA table_info(ingest_ledger)"))

    def close(self) -> None:
        # The snapshot refers back to this warehouse: dropping it here
        # frees its frames now instead of at the next cycle collection.
        self._snapshot = None
        self._books.clear()
        self._conn.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """Escape hatch for custom reports (read-only use expected: a
        write through it bypasses the ingest bookkeeping this handle
        keeps in memory, so reopen the warehouse after one)."""
        self._flush()
        return self._conn

    def commit_version(self) -> int:
        """SQLite's ``PRAGMA data_version`` for this handle: it moves
        exactly when another connection commits to the file, under
        either journal mode, and never for this handle's own commits."""
        return self._conn.execute("PRAGMA data_version").fetchone()[0]

    def _book(self, table: str, system: str, load) -> dict | set:
        """The in-memory copy of one system's *table*, read by
        ``load(system)`` on first use and again after another
        connection committed."""
        version = self.commit_version()
        if version != self._books_version:
            self._books.clear()
            self._books_version = version
        book = self._books.get((table, system))
        if book is None:
            book = self._books[(table, system)] = load(system)
        return book

    # -- change tracking ---------------------------------------------------------

    @property
    def generation(self) -> int:
        """Persistent commit counter: bumped by every commit that wrote."""
        return self._generation

    @property
    def data_version(self) -> tuple[int, int]:
        """Changes exactly when the warehouse contents change (through
        this instance): ``(generation, uncommitted mutation count)``.
        The snapshot layer keys its caches on this."""
        return (self._generation, self._mutations)

    def _read_change_state(self) -> tuple[int, dict[str, int]] | None:
        """The persisted ``(destructive, series_epochs)`` pair written
        by :meth:`commit`, or ``None`` for files that predate it."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='change_state'"
        ).fetchone()
        if row is None:
            return None
        state = json.loads(row[0])
        return (int(state.get("destructive", 0)),
                {s: int(e) for s, e in
                 state.get("series_epochs", {}).items()})

    def reread_generation(self) -> int:
        """Re-read the persistent generation counter from the ``meta``
        table, adopting commits made by *other* processes.

        A long-lived reader (the service) watches one warehouse file
        while ingest runs elsewhere append to it.  Those commits bump
        the on-disk generation but not this instance's in-memory copy;
        calling this moves :attr:`data_version` so the snapshot layer
        notices and performs its usual O(delta) refresh off the rowid
        watermarks.  The persisted change-state rides along: an
        external series write or destructive commit moves the epochs /
        destructive counter too, so the snapshot layer reloads (or
        fully rebuilds for) exactly what the other process touched
        instead of delta-extending over rewritten rows.  Returns the
        (possibly updated) generation.
        """
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='generation'"
        ).fetchone()
        if row is None:
            return self._generation
        disk = int(row[0])
        if disk == self._generation:
            return self._generation
        self._generation = disk
        persisted = self._read_change_state()
        if persisted is None:
            # The commit came from code that predates the persisted
            # change-state: appends and rewrites are indistinguishable,
            # so force the conservative full rebuild.
            self._destructive += 1
        else:
            destructive, epochs = persisted
            # Element-wise max: the counters are monotonic and shared
            # (every process seeds from the persisted copy on open), so
            # max-merging adopts the writer's bumps without ever
            # rolling back this process's own.
            self._destructive = max(self._destructive, destructive)
            for system, epoch in epochs.items():
                self._series_epochs[system] = max(
                    self._series_epochs.get(system, 0), epoch)
        return self._generation

    def _mutated(self) -> None:
        self._mutations += 1
        self._dirty = True

    def mark_destructive(self) -> None:
        """Declare a non-append mutation (row rewrite/delete).

        The snapshot layer's delta refresh only extends its frozen
        arrays when nothing destructive happened since it was built;
        callers poking the raw :attr:`connection` for writes should call
        this so analytics fall back to a full rebuild.
        """
        self._destructive += 1
        self._mutated()

    def change_state(self) -> dict:
        """Append-vs-rebuild bookkeeping for the snapshot layer.

        Returns ``{"destructive": int, "series_epochs": {system: int}}``
        (copies — safe to hold across further writes).  Combined with
        per-table rowid watermarks this tells a snapshot exactly what an
        O(delta) refresh must reload.
        """
        return {
            "destructive": self._destructive,
            "series_epochs": dict(self._series_epochs),
        }

    def _max_rowid(self, table: str) -> int:
        """Current high-water rowid of *table* (0 when empty).

        Flushes first so buffered rows are visible; with an insert-only
        write path, rows above a recorded watermark are exactly the rows
        appended since it was taken.
        """
        if table not in ("jobs", "job_metrics", "system_series",
                         "syslog_events"):
            raise ValueError(f"unknown table {table!r}")
        self._flush()
        return self._conn.execute(
            f"SELECT COALESCE(MAX(rowid), 0) FROM {table}"
        ).fetchone()[0]

    # -- write buffering ---------------------------------------------------------

    def _flush(self) -> None:
        """Drain the write buffers with one executemany per table.

        Jobs land before their metric rows so the job_metrics foreign
        key holds within a single flush.
        """
        registry = get_registry()
        flushed = False
        if self._pending_jobs:
            rows, self._pending_jobs = self._pending_jobs, []
            self._conn.executemany(
                "INSERT INTO jobs VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?)", rows
            )
            registry.counter("warehouse.rows.jobs").inc(len(rows))
            flushed = True
        if self._pending_metrics:
            rows, self._pending_metrics = self._pending_metrics, []
            self._conn.executemany(
                "INSERT INTO job_metrics VALUES (?,?,?,?)", rows
            )
            registry.counter("warehouse.rows.job_metrics").inc(len(rows))
            flushed = True
        if self._pending_series:
            rows, self._pending_series = self._pending_series, []
            self._conn.executemany(
                "INSERT INTO system_series VALUES (?,?,?,?)", rows
            )
            registry.counter("warehouse.rows.system_series").inc(len(rows))
            flushed = True
        if self._pending_syslog:
            rows, self._pending_syslog = self._pending_syslog, []
            self._conn.executemany(
                "INSERT INTO syslog_events VALUES (?,?,?,?,?,?)", rows
            )
            registry.counter("warehouse.rows.syslog_events").inc(len(rows))
            flushed = True
        if flushed:
            registry.counter("warehouse.flushes").inc()

    # -- loading ---------------------------------------------------------------

    def add_system(self, name: str, num_nodes: int, cores_per_node: int,
                   mem_gb_per_node: float, peak_tflops: float,
                   sample_interval: float) -> None:
        self._conn.execute(
            "INSERT INTO systems VALUES (?,?,?,?,?,?)",
            (name, num_nodes, cores_per_node, mem_gb_per_node, peak_tflops,
             sample_interval),
        )
        self._mutated()
        self.commit()

    def add_job(self, system: str, record: JobRecord, cores_per_node: int,
                summary: JobSummary | None = None,
                app_override: str | None = None) -> None:
        """Insert one job fact (plus its metric summary if available)."""
        req = record.request
        key = (system, req.jobid)
        if key in self._seen_job_keys:
            # Same-session duplicates fail here, eagerly, exactly as the
            # unbuffered path did; cross-session duplicates still hit the
            # primary key at flush time.
            raise sqlite3.IntegrityError(
                f"UNIQUE constraint failed: jobs.system, jobs.jobid "
                f"({system!r}, {req.jobid!r})"
            )
        self._seen_job_keys.add(key)
        loaded = self._books.get(("jobs", system))
        if loaded is not None:
            loaded.add(req.jobid)
        self._pending_jobs.append(
            (
                system, req.jobid, req.user, req.account, req.science_field,
                app_override or req.app, req.queue, req.submit_time,
                record.start_time, record.end_time, req.nodes,
                req.nodes * cores_per_node, record.exit_status.value,
                record.node_hours,
            )
        )
        self._mutated()
        if summary is not None:
            self.add_summary(system, summary)
        elif len(self._pending_jobs) >= _WRITE_BATCH:
            self._flush()

    def add_summary(self, system: str, summary: JobSummary) -> None:
        self._pending_metrics.extend(
            (system, summary.jobid, m, v) for m, v in summary.metrics.items()
        )
        self._mutated()
        if (len(self._pending_metrics) >= _WRITE_BATCH
                or len(self._pending_jobs) >= _WRITE_BATCH):
            self._flush()

    def add_series(self, system: str, metric: str, times: np.ndarray,
                   values: np.ndarray) -> None:
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.shape != v.shape:
            raise ValueError("times/values shape mismatch")
        self._pending_series.extend(
            (system, metric, float(a), float(b)) for a, b in zip(t, v)
        )
        self._series_epochs[system] = self._series_epochs.get(system, 0) + 1
        self._mutated()
        if len(self._pending_series) >= _WRITE_BATCH:
            self._flush()

    def append_series(self, system: str, metric: str, times: np.ndarray,
                      values: np.ndarray) -> None:
        """Append series points, merging tail overlap deterministically.

        An incremental ingest recomputes the bins that straddle its
        watermark with strictly more data than the previous run had, so
        on a ``(system, metric, t)`` collision the incoming value wins
        (upsert).  Re-appending identical data is therefore idempotent,
        and K batched appends converge to the same rows as one one-shot
        ingest.
        """
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.shape != v.shape:
            raise ValueError("times/values shape mismatch")
        self._flush()  # keep plain inserts ahead of the upsert
        rows = [(system, metric, float(a), float(b)) for a, b in zip(t, v)]
        self._conn.executemany(
            "INSERT INTO system_series VALUES (?,?,?,?) "
            "ON CONFLICT(system, metric, t) DO UPDATE "
            "SET value = excluded.value", rows
        )
        get_registry().counter("warehouse.rows.system_series").inc(len(rows))
        self._series_epochs[system] = self._series_epochs.get(system, 0) + 1
        self._mutated()

    def add_syslog_event(self, system: str, t: float, host: str,
                         jobid: str | None, kind: str, severity: str) -> None:
        self._pending_syslog.append((system, t, host, jobid, kind, severity))
        self._mutated()
        if len(self._pending_syslog) >= _WRITE_BATCH:
            self._flush()

    def set_ingest_health(self, system: str, health) -> None:
        """Store a system's ingest-health accounting in the meta table.

        *health* is an :class:`~repro.errors.IngestHealth` (or anything
        with a ``to_dict()``); ``repro-diagnose --ingest-health`` reads
        it back with :meth:`ingest_health`, so operators can audit a
        degraded ingest from the warehouse alone, without the archive's
        sidecar report.
        """
        payload = json.dumps(health.to_dict(), sort_keys=True)
        self._conn.execute(
            "INSERT OR REPLACE INTO meta VALUES (?, ?)",
            (f"ingest_health:{system}", payload),
        )
        self._mutated()

    def ingest_health(self, system: str) -> dict | None:
        """The stored ingest-health dict for *system*, or ``None``."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?",
            (f"ingest_health:{system}",),
        ).fetchone()
        return json.loads(row[0]) if row else None

    # -- ingest ledger -----------------------------------------------------------

    def ledger_map(self, system: str) -> dict[tuple[str, str], LedgerEntry]:
        """Every consumed host-day, keyed ``(host, day)``.

        Empty for warehouses that predate the ledger (read-only legacy
        files where the on-open migration could not run; one that has
        the ledger but not its ``open_jobs`` column reads as unknown).
        """
        return dict(self._book("ledger", system, self._read_ledger))

    def _read_ledger(self, system: str) -> dict[tuple[str, str],
                                                LedgerEntry]:
        if not self._has_table("ingest_ledger"):
            return {}
        open_jobs = "open_jobs" if self._ledger_has_open_jobs() else "NULL"
        rows = self._conn.execute(
            f"SELECT host, day, sha256, size, mtime_ns, status, run_id, "
            f"{open_jobs} FROM ingest_ledger WHERE system=?", (system,)
        ).fetchall()
        return {(r[0], r[1]): LedgerEntry(
            *r[:7], None if r[7] is None
            else frozenset(filter(None, r[7].split(","))))
            for r in rows}

    def record_ledger(self, system: str,
                      entries: list[LedgerEntry]) -> None:
        """Upsert consumed host-days (a re-consumed day replaces its row)."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO ingest_ledger VALUES (?,?,?,?,?,?,?,?,?)",
            [(system, e.host, e.day, e.sha256, e.size, e.mtime_ns,
              e.status, e.run_id,
              None if e.open_jobs is None
              else ",".join(sorted(e.open_jobs))) for e in entries],
        )
        ledger = self._books.get(("ledger", system))
        if ledger is not None:
            ledger.update(((e.host, e.day), e) for e in entries)
        self._mutated()

    def scan_states(self, system: str) -> dict[tuple[str, str], bytes]:
        """The persisted scan-state blob of every open ``(host, jobid)``
        (empty for read-only files that predate the table)."""
        return dict(self._book("states", system, self._read_scan_states))

    def _read_scan_states(self, system: str) -> dict[tuple[str, str],
                                                     bytes]:
        if not self._has_table("ingest_scan_state"):
            return {}
        return {(host, jobid): state for host, jobid, state in
                self._conn.execute(
                    "SELECT host, jobid, state FROM ingest_scan_state "
                    "WHERE system=?", (system,))}

    def record_scan_states(self, system: str,
                           keep: dict[tuple[str, str], bytes],
                           drop: list[tuple[str, str]]) -> None:
        """Upsert the *keep* states and delete the *drop* keys."""
        self._conn.executemany(
            "DELETE FROM ingest_scan_state WHERE system=? AND host=? "
            "AND jobid=?", [(system, *key) for key in drop])
        self._conn.executemany(
            "INSERT OR REPLACE INTO ingest_scan_state VALUES (?,?,?,?)",
            [(system, *key, blob) for key, blob in keep.items()])
        states = self._books.get(("states", system))
        if states is not None:
            for key in drop:
                states.pop(key, None)
            states.update(keep)
        self._mutated()

    def record_ingest_run(self, system: str, run_id: str, mode: str,
                          row_ranges: dict[str, tuple[int, int]]) -> None:
        """Record one ingest run's appended rowid ranges per table.

        ``row_ranges`` maps table name to the half-open ``(lo, hi]``
        rowid span the run appended, so an operator can attribute any
        warehouse row back to the run (and archive files) it came from.
        """
        self._conn.execute(
            "INSERT OR REPLACE INTO ingest_runs VALUES (?,?,?,?)",
            (system, run_id, mode,
             json.dumps({k: list(v) for k, v in row_ranges.items()},
                        sort_keys=True)),
        )
        self._mutated()

    # -- live counters -----------------------------------------------------------

    def record_live_counters(self, system: str,
                             rows: list[tuple]) -> None:
        """Upsert the latest live counter sample per job metric.

        *rows* are ``(jobid, user, app, t, ended, metric, value)``
        tuples; ``value`` is a cumulative monotonic counter (wrapped at
        the rate engine's counter width), ``t`` the facility time it
        was observed, ``ended`` whether the job has finished (its final
        counters; ``t`` stops advancing, so rate engines age it out).
        """
        self._conn.executemany(
            "INSERT INTO live_job_counters VALUES (?,?,?,?,?,?,?,?) "
            "ON CONFLICT(system, jobid, metric) DO UPDATE SET "
            "t = excluded.t, ended = excluded.ended, "
            "value = excluded.value",
            [(system, *row) for row in rows],
        )
        get_registry().counter("warehouse.rows.live_counters").inc(
            len(rows))
        self._mutated()

    def live_counters(self, system: str) -> list[dict]:
        """Every job's latest live counter samples, one dict per job:
        ``{"jobid", "user", "app", "t", "ended", "counters": {metric:
        value}}``, sorted by jobid.  Empty for warehouses that predate
        live mode (read-only legacy files skip the migration)."""
        if not self._has_table("live_job_counters"):
            return []
        rows = self._conn.execute(
            "SELECT jobid, user, app, t, ended, metric, value "
            "FROM live_job_counters WHERE system=? ORDER BY jobid, metric",
            (system,),
        ).fetchall()
        out: dict[str, dict] = {}
        for jobid, user, app, t, ended, metric, value in rows:
            job = out.setdefault(jobid, {
                "jobid": jobid, "user": user, "app": app,
                "t": t, "ended": bool(ended), "counters": {},
            })
            job["counters"][metric] = int(value)
            job["t"] = max(job["t"], t)
            job["ended"] = job["ended"] or bool(ended)
        return list(out.values())

    def live_high_water(self, system: str) -> float:
        """The newest live counter sample time for *system* (0.0 when
        none) — what the long-poll watch endpoint compares against."""
        if not self._has_table("live_job_counters"):
            return 0.0
        row = self._conn.execute(
            "SELECT COALESCE(MAX(t), 0.0) FROM live_job_counters "
            "WHERE system=?", (system,),
        ).fetchone()
        return float(row[0])

    def ingest_runs(self, system: str) -> list[dict]:
        """All recorded ingest runs for *system*, oldest first."""
        if not self._has_table("ingest_runs"):
            return []
        rows = self._conn.execute(
            "SELECT run_id, mode, row_ranges FROM ingest_runs "
            "WHERE system=? ORDER BY rowid", (system,)
        ).fetchall()
        return [{"run_id": r[0], "mode": r[1],
                 "row_ranges": json.loads(r[2])} for r in rows]

    def commit(self) -> None:
        self._flush()
        if self._dirty:
            self._generation += 1
            self._conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('generation', ?)",
                (str(self._generation),),
            )
            # Persist the change-state in the same transaction so a
            # reader in another process that adopts this generation
            # (reread_generation) also sees which systems' series moved
            # and whether anything destructive happened.
            self._conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('change_state', ?)",
                (json.dumps({"destructive": self._destructive,
                             "series_epochs": self._series_epochs},
                            sort_keys=True),),
            )
            self._dirty = False
        self._conn.commit()
        get_registry().counter("warehouse.commits").inc()

    # -- reading ----------------------------------------------------------------

    def systems(self) -> list[str]:
        self._flush()
        rows = self._conn.execute("SELECT name FROM systems ORDER BY name")
        return [r[0] for r in rows]

    def system_info(self, system: str) -> dict:
        self._flush()
        row = self._conn.execute(
            "SELECT num_nodes, cores_per_node, mem_gb_per_node, peak_tflops,"
            " sample_interval FROM systems WHERE name=?", (system,)
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown system {system!r}")
        keys = ("num_nodes", "cores_per_node", "mem_gb_per_node",
                "peak_tflops", "sample_interval")
        return dict(zip(keys, row))

    def job_count(self, system: str) -> int:
        self._flush()
        return self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE system=?", (system,)
        ).fetchone()[0]

    def job_ids(self, system: str) -> set[str]:
        """All loaded jobids for *system* — the append path's watermark."""
        return set(self._book("jobs", system, self._read_job_ids))

    def _read_job_ids(self, system: str) -> set[str]:
        self._flush()
        rows = self._conn.execute(
            "SELECT jobid FROM jobs WHERE system=?", (system,)
        ).fetchall()
        return {r[0] for r in rows}

    def job_table(self, system: str,
                  metrics: tuple[str, ...] = SUMMARY_METRICS) -> dict[str, np.ndarray]:
        """The joined job+metrics table as column arrays.

        Jobs missing any requested metric are excluded (the paper's
        analyses operate on fully summarized jobs); object columns come
        back as numpy object arrays, numeric as float arrays.

        This is the compatibility/per-call path; interactive analytics
        go through :class:`repro.xdmod.snapshot.WarehouseSnapshot`, which
        loads each system once per warehouse generation.
        """
        self._flush()
        cols = ["jobid", "user", "account", "science_field", "app", "queue",
                "submit_time", "start_time", "end_time", "nodes", "cores",
                "exit_status", "node_hours"]
        metric_selects = ", ".join(
            f"(SELECT value FROM job_metrics m WHERE m.system=j.system AND "
            f"m.jobid=j.jobid AND m.metric='{m}') AS {m}"
            for m in metrics
        )
        for m in metrics:
            if m not in SUMMARY_METRICS:
                raise ValueError(f"unknown metric {m!r}")
        sql = (
            f"SELECT {', '.join(cols)}"
            + (f", {metric_selects}" if metrics else "")
            + " FROM jobs j WHERE system=? ORDER BY jobid"
        )
        rows = self._conn.execute(sql, (system,)).fetchall()
        all_cols = cols + list(metrics)
        out: dict[str, np.ndarray] = {}
        data = list(zip(*rows)) if rows else [[] for _ in all_cols]
        for name, values in zip(all_cols, data):
            if name in ("jobid", "user", "account", "science_field", "app",
                        "queue", "exit_status"):
                out[name] = np.array(values, dtype=object)
            else:
                out[name] = np.array(
                    [np.nan if v is None else v for v in values], dtype=float
                )
        if metrics:
            keep = np.ones(len(rows), dtype=bool)
            for m in metrics:
                keep &= ~np.isnan(out[m])
            for name in all_cols:
                out[name] = out[name][keep]
        return out

    def series(self, system: str, metric: str) -> tuple[np.ndarray, np.ndarray]:
        self._flush()
        rows = self._conn.execute(
            "SELECT t, value FROM system_series WHERE system=? AND metric=?"
            " ORDER BY t", (system, metric)
        ).fetchall()
        if not rows:
            raise KeyError(f"no series {metric!r} for system {system!r}")
        t, v = zip(*rows)
        return np.asarray(t), np.asarray(v)

    def series_metrics(self, system: str) -> list[str]:
        self._flush()
        rows = self._conn.execute(
            "SELECT DISTINCT metric FROM system_series WHERE system=?"
            " ORDER BY metric", (system,)
        )
        return [r[0] for r in rows]

    def syslog_events(self, system: str, jobid: str | None = None) -> list[tuple]:
        self._flush()
        if jobid is None:
            sql = ("SELECT t, host, jobid, kind, severity FROM syslog_events"
                   " WHERE system=? ORDER BY t")
            return self._conn.execute(sql, (system,)).fetchall()
        sql = ("SELECT t, host, jobid, kind, severity FROM syslog_events"
               " WHERE system=? AND jobid=? ORDER BY t")
        return self._conn.execute(sql, (system, jobid)).fetchall()
