"""End-to-end ingest: the paper's Figure 1 workflow as code.

``accounting log + TACC_Stats archive + Lariat log + rationalized syslog
→ match → summarize → attribute → warehouse``

Application attribution prefers the accounting app tag and falls back to
Lariat's executable/library fingerprint (production accounting tags are
frequently missing or wrong — job names like ``run.sh`` — which is exactly
why Lariat exists).

The engine streams: hosts are scanned one at a time (per worker), each
scan reduced immediately to its per-job views and metric partials, and
the parsed host data dropped before the next host is read.  Matching and
warehouse loading then operate on those small reductions, and the rows
and bookkeeping of a run reach the warehouse in one commit at its end:
a run killed anywhere leaves the warehouse it found.  Peak memory is
therefore bounded by the largest single host file plus the per-job
partials — not by the archive size — and ``workers>1`` fans the host
scans over a process pool (see :mod:`repro.ingest.parallel`) while
keeping the warehouse contents byte-identical to a serial run.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from repro.config import FacilityConfig
from repro.errors import QUARANTINE_DIRNAME, ErrorPolicy, IngestHealth
from repro.ingest.columnar_scan import JobScanState
from repro.ingest.matcher import HostJobView, MatchReport, match_job_views
from repro.ingest.parallel import effective_workers, scan_archive
from repro.ingest.summarize import (
    HostJobPartial,
    SummaryError,
    merge_job_partials,
)
from repro.ingest.warehouse import LedgerEntry, Warehouse
from repro.lariat.records import LariatRecord
from repro.scheduler.accounting import AccountingEntry, parse_accounting
from repro.scheduler.job import JobRecord, JobRequest
from repro.syslogr.rationalizer import RationalizedMessage
from repro.tacc_stats.archive import FileFingerprint, HostArchive
from repro.telemetry.log import current_run_id, get_logger, run_scope
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import span
from repro.util.timeutil import DAY, label_to_period_index

_log = get_logger("ingest.pipeline")

__all__ = ["DeltaSummary", "IngestPipeline", "IngestReport"]


@dataclass
class DeltaSummary:
    """What an append (or a windowed seed) decided to touch.

    ``files_new`` were parsed because the ledger had never seen them;
    ``files_lookback`` are ledgered files parsed again: a cell with no
    job record (a dropped host, a quarantined or repaired file, a
    legacy ledger row) whenever a pending job's span reaches its
    segment, and a cell holding a pending job whose scan state on that
    host was not kept — none on a host every file of which was kept
    whole; ``files_skipped`` were unchanged (or past the window end) and
    never opened.  ``jobs_deferred`` counts accounting entries left for
    a later append because their data reaches the window end.  The
    watermarks are facility seconds: syslog events in ``[before,
    after)`` were loaded by this run.
    """

    files_new: int = 0
    files_lookback: int = 0
    files_skipped: int = 0
    jobs_deferred: int = 0
    watermark_before: int = 0
    watermark_after: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form for the run manifest / JSON surfaces."""
        return asdict(self)

    def __str__(self) -> str:
        return (
            f"new={self.files_new} lookback={self.files_lookback} "
            f"(per cell) "
            f"skipped={self.files_skipped} deferred={self.jobs_deferred} "
            f"watermark={self.watermark_before}->{self.watermark_after}"
        )


@dataclass
class IngestReport:
    """What one ingest pass accomplished.

    ``health`` carries the fault-tolerance accounting (hosts ok /
    degraded / dropped, quarantined records, retry counts);
    ``summary_errors`` maps each failed job to the reason its summary
    could not be built.
    """

    system: str
    jobs_loaded: int = 0
    summaries_failed: list[str] = field(default_factory=list)
    summary_errors: dict[str, str] = field(default_factory=dict)
    lariat_attributed: int = 0
    unattributed: list[str] = field(default_factory=list)
    syslog_events_loaded: int = 0
    match: MatchReport | None = None
    health: IngestHealth | None = None
    effective_workers: int = 1
    run_id: str | None = None
    mode: str = "full"
    delta: DeltaSummary | None = None

    def __str__(self) -> str:
        m = self.match
        text = (
            f"[{self.system}] loaded={self.jobs_loaded} "
            f"matched={len(m.matched) if m else 0} "
            f"too_short={len(m.too_short) if m else 0} "
            f"no_stats={len(m.no_stats) if m else 0} "
            f"summary_failures={len(self.summaries_failed)} "
            f"lariat_attributed={self.lariat_attributed} "
            f"syslog={self.syslog_events_loaded}"
        )
        if self.delta is not None:
            text += f" | {self.mode}: {self.delta}"
        if self.health is not None:
            text += f" | {self.health}"
        return text


def _record_from_entry(entry: AccountingEntry, app: str) -> JobRecord:
    """Rebuild a JobRecord view of an accounting entry for warehouse load.

    Fields the accounting file does not carry (behaviour seed, intrinsic
    runtime) are filled with neutral values; the warehouse only persists
    what accounting knew.
    """
    request = JobRequest(
        jobid=entry.job_number,
        user=entry.owner,
        account=entry.account,
        science_field=entry.science_field,
        app=app,
        queue=entry.qname,
        submit_time=float(entry.submission_time),
        nodes=entry.granted_nodes,
        walltime_req=max(float(entry.wall_seconds), 1.0),
        runtime=max(float(entry.wall_seconds), 1.0),
    )
    return JobRecord(
        request=request,
        start_time=float(entry.start_time),
        end_time=float(entry.end_time),
        node_indices=tuple(range(entry.granted_nodes)),
        exit_status=entry.exit,
    )


def _span_segments(entry: AccountingEntry, period: int) -> tuple[int, int]:
    """Inclusive rotation-segment range an entry's stats blocks live in.

    The daemon routes a block at time ``t`` to the file for segment
    ``t // period`` (days under the default rotation), so a job's
    begin/periodic/end blocks span exactly
    ``segment(start_time) .. segment(end_time)``.
    """
    return (int(float(entry.start_time) // period),
            int(float(entry.end_time) // period))


@dataclass
class _DeltaPlan:
    """Everything an ingest decided before scanning.

    The plan is computable up front because *consumption* is decided by
    the plan alone — a scanned file is ledgered whatever its scan
    outcome (a quarantined host-day is consumed too, with its status
    recorded), so watermarks and the load gate never depend on parse
    results.  Every segment below ``consumed_through`` (the window end;
    infinite for a full ingest) is consumed once the run ends.
    ``revisit`` holds the ledgered cells whose row the run may have to
    rewrite (an open or unknown job set, or a touched file);
    ``unknown_hosts`` keep no scan states.
    """

    cells: set[tuple[str, str]]
    candidates: list[AccountingEntry]
    consumed_through: float
    watermark_before: float
    watermark_after: float
    delta: DeltaSummary
    period: int
    revisit: dict[tuple[str, str], LedgerEntry]
    unknown_hosts: set[str]

    def loadable(self, entry: AccountingEntry) -> bool:
        """True when no future archive file can change this job's match."""
        return _span_segments(entry, self.period)[1] < self.consumed_through


def _plan(period: int, manifest: dict[tuple[str, str], FileFingerprint],
          ledger: dict, entries: list[AccountingEntry], loaded: set[str],
          min_seconds: float, stored: Collection[tuple[str, str]],
          through: float) -> _DeltaPlan:
    """Diff the archive manifest against the ledger and pick what this
    run reads, loads and consumes: every segment below *through*.

    Ingest follows the nightly-ETL watermark model: host-day files
    accumulate in day order and never change once written.  A ledgered
    file whose hash drifted (or vanished) violates that contract and
    raises — the remedy is a full re-ingest into a fresh warehouse,
    never a silent partial reload.

    Files parsed = every never-ledgered file below the window end; a
    pending job's earlier files are not read again, its persisted scan
    state per host (a *stored* ``(host, jobid)``) is folded on.  What is
    left of *lookback* is the cells the ledger cannot vouch for: inside
    a pending job's span, a cell whose ``open_jobs`` is unknown
    (``None``: legacy ledger row, dropped host, quarantined or repaired
    file — it may mention anything), and a cell whose ``open_jobs`` name
    a pending job that has no stored state on that host (a host with an
    unknown cell keeps no states).  A job id stays in a cell's set until
    the job loads, so every file holding a block or mark of such a job
    is read.  A not-yet-loaded job is deferred while its span reaches
    the window end, and *finalized* (never revisited) once every file of
    its span was consumed by an earlier run.  Files at or past the
    window end are skipped and counted so.

    The guard is the one walk of the whole ledger; everything after it
    looks only at the new cells and the open or touched ones, so a run
    costs what it adds.  All of the "day" arithmetic actually runs at
    the archive's rotation period: a live archive cutting sub-day
    segments flows through the identical watermark/lookback/finalize
    logic, just with finer cells.
    """
    labels: set[str] = set()
    revisit: dict[tuple[str, str], LedgerEntry] = {}
    for key, led in ledger.items():
        fp = manifest.get(key)
        if fp is None:
            raise ValueError(
                f"append ingest: ledgered file {key[0]}/{key[1]} vanished "
                f"from the archive; the ledger no longer describes this "
                f"archive — re-ingest it in full into a fresh warehouse")
        if fp.sha256 != led.sha256:
            raise ValueError(
                f"append ingest: archived file {key[0]}/{key[1]} mutated "
                f"since it was ingested (content hash changed); append "
                f"mode only supports append-only archives — re-ingest in "
                f"full into a fresh warehouse")
        labels.add(key[1])
        if led.open_jobs is None or led.open_jobs or (
                fp.size, fp.mtime_ns) != (led.size, led.mtime_ns):
            revisit[key] = led
    unknown = {host for (host, _d), led in revisit.items()
               if led.open_jobs is None}

    # Every ledgered cell is on disk (the guard), so a segment holds an
    # unconsumed file exactly when it holds a new one.
    new = manifest.keys() - ledger.keys()
    index = {label: label_to_period_index(label, period)
             for label in labels | {day for _h, day in new}}
    new = {cell for cell in new if index[cell[1]] < through}
    new_segments = {index[day] for _h, day in new}
    max_ledger_day = max((index[label] for label in labels), default=-1)

    delta = DeltaSummary()
    candidates: list[AccountingEntry] = []
    pending: list[AccountingEntry] = []
    for entry in entries:
        if entry.job_number in loaded:
            continue
        d0, d1 = _span_segments(entry, period)
        if d1 <= max_ledger_day and new_segments.isdisjoint(
                range(d0, d1 + 1)):
            continue  # finalized: an earlier run saw everything it has
        if d1 >= through:
            delta.jobs_deferred += 1  # its data hasn't arrived yet
            continue
        candidates.append(entry)
        if float(entry.wall_seconds) >= min_seconds:
            pending.append(entry)

    needed: set[int] = set()
    for entry in pending:
        d0, d1 = _span_segments(entry, period)
        needed.update(range(d0, d1 + 1))
    pending_ids = {entry.job_number for entry in pending}

    # Only a cell with an open or unknown job set can be read again.
    scanned = set(new)
    for cell, led in revisit.items():
        host = cell[0]
        if index[cell[1]] in needed and (
                led.open_jobs is None
                or any(j in pending_ids and (
                    host in unknown or (host, j) not in stored)
                       for j in led.open_jobs)):
            scanned.add(cell)
            delta.files_lookback += 1
    delta.files_new = len(new)
    delta.files_skipped = len(manifest) - len(scanned)

    # Every segment below the window end is consumed after this run:
    # each of its cells is ledgered or new.  A segment with no file at
    # all (facility dark, or simply beyond any host's activity) is
    # vacuously consumed — nothing can arrive for it under the
    # day-ordered arrival contract once later segments exist.
    delta.watermark_before = min([*new_segments, max_ledger_day + 1]) * period
    delta.watermark_after = through * period
    return _DeltaPlan(
        cells=scanned, candidates=candidates, consumed_through=through,
        watermark_before=delta.watermark_before,
        watermark_after=delta.watermark_after,
        delta=delta, period=period, revisit=revisit, unknown_hosts=unknown,
    )


class IngestPipeline:
    """Drives the full ETL for one system into a shared warehouse."""

    def __init__(self, warehouse: Warehouse):
        self.warehouse = warehouse
        #: The scan states the last run kept, by the blob it persisted
        #: for each: the next append on this pipeline folds on from the
        #: state itself instead of decoding its blob (handed out once —
        #: the fold mutates it).
        self._kept: dict[bytes, JobScanState] = {}

    def register_system(self, config: FacilityConfig) -> None:
        """Add *config*'s ``systems`` row (committed at once) unless the
        warehouse has it already."""
        if config.name not in self.warehouse.systems():
            self.warehouse.add_system(
                config.name,
                num_nodes=config.num_nodes,
                cores_per_node=config.node.cores,
                mem_gb_per_node=config.node.memory_gb,
                peak_tflops=config.peak_tflops,
                sample_interval=config.sample_interval,
            )

    def ingest(
        self,
        config: FacilityConfig,
        accounting_text: str | Sequence[AccountingEntry],
        archive: HostArchive,
        lariat_records: list[LariatRecord] | None = None,
        syslog: list[RationalizedMessage] | None = None,
        workers: int = 1,
        error_policy: str = ErrorPolicy.STRICT,
        max_retries: int = 2,
        mode: str = "full",
        through_day: int | None = None,
    ) -> IngestReport:
        """Run the pipeline over the host files in *archive*.

        *accounting_text* is the accounting file's text, or its entries
        already parsed (a caller appending every hour parses it once).

        Every ingest is a ledger diff: the archive manifest is diffed
        against the warehouse's ingest ledger, the never-ledgered files
        before the window end are parsed — a still-unloaded job
        continues from the scan state its hosts persisted — and a job
        whose span reaches the window end is deferred.  The modes differ
        only in where the window ends:

        * ``mode="append"`` — after the newest segment on disk.  Loaded
          rows are never touched; the archive must be append-only and
          day-ordered (a ledgered file that mutated or vanished raises).
        * ``mode="full"`` with *through_day* — at facility day
          *through_day*: the seed later appends pick up from.
        * ``mode="full"`` — never, so every job loads and no delta is
          reported (``IngestReport.delta`` is ``None``).  A full ingest
          refuses a system the warehouse already holds jobs or ledger
          rows for.

        Every ingest records the consumed host-days in the ledger and
        its appended rowid ranges in ``ingest_runs``, and commits its
        rows and that bookkeeping together, once, at its end (a new
        system's ``systems`` row is committed on its own first).
        *workers* fans per-host parsing and summarization over a process
        pool (the count is clamped to the visible CPUs, see
        :func:`~repro.ingest.parallel.effective_workers`); any worker
        count produces a byte-identical warehouse.  Jobs shorter than
        the system's ``sample_interval`` are not matched.

        *error_policy* decides what malformed archive data does (see
        :class:`~repro.errors.ErrorPolicy`).
        Under a non-strict policy the report carries an
        :class:`~repro.errors.IngestHealth`, a sidecar quarantine report
        is written to ``<archive root>/quarantine/``, and the same
        accounting is stored in the warehouse for ``repro-diagnose``.
        *max_retries* bounds the transient-failure retry in the
        process-pool fan-out.
        """
        if mode not in ("full", "append"):
            raise ValueError(f"mode must be 'full' or 'append', got {mode!r}")
        if through_day is not None:
            if mode != "full":
                raise ValueError("through_day= only windows a full ingest; "
                                 "append mode derives its window from the "
                                 "ledger")
            if through_day < 1:
                raise ValueError(
                    f"through_day must be >= 1, got {through_day}")
        # Reuse the CLI's run id when one is ambient; otherwise this
        # ingest is its own run and mints one.
        scope = (nullcontext(current_run_id()) if current_run_id()
                 else run_scope())
        with scope as run_id, span("ingest", system=config.name,
                                   mode=mode):
            policy = ErrorPolicy(error_policy)
            all_entries = (list(parse_accounting(accounting_text))
                           if isinstance(accounting_text, str)
                           else list(accounting_text))
            # The entry spans and the ledger decide which archive files
            # are opened.
            with span("ingest.plan", mode=mode):
                ledger = self.warehouse.ledger_map(config.name)
                loaded = self.warehouse.job_ids(config.name)
                if mode == "full" and (ledger or loaded):
                    raise ValueError(
                        f"a full ingest loads {config.name} from nothing, "
                        f"but the warehouse already holds its jobs or "
                        f"ledger rows: use mode=\"append\" to add to it, "
                        f"or ingest into a fresh warehouse")
                stored = self.warehouse.scan_states(config.name)
                manifest = archive.manifest(trusted=ledger)
                period = archive.rotate_seconds
                if mode == "append":  # up to the newest segment on disk
                    through = 1 + max(
                        (label_to_period_index(day, period)
                         for day in {day for _h, day in manifest}),
                        default=-1)
                elif through_day is not None:
                    # Day-granular; on a sub-day archive it covers every
                    # whole segment inside those days.
                    through = through_day * DAY // period
                else:
                    through = math.inf
                plan = _plan(period, manifest, ledger, all_entries, loaded,
                             config.sample_interval, stored, through)
                # A host with a cell of unknown content keeps no states;
                # whatever is stored for one is not used.
                seeds: dict[str, dict[str, JobScanState]] = {}
                for (host, jobid), blob in stored.items():
                    if host not in plan.unknown_hosts:
                        state = self._kept.pop(blob, None)
                        seeds.setdefault(host, {})[jobid] = (
                            state if state is not None
                            else JobScanState.from_blob(blob))
                entries = plan.candidates
                # The scan reads the paths the manifest resolved.
                files_by_host: dict[str, list[str]] = {}
                for cell in sorted(plan.cells):
                    files_by_host.setdefault(cell[0], []).append(
                        manifest[cell].path)
            jobs = frozenset(e.job_number for e in entries)
            # A candidate's seed is heard even when its host has no file
            # to read this run.
            for host, by_job in seeds.items():
                if not jobs.isdisjoint(by_job):
                    files_by_host.setdefault(host, [])
            health = IngestHealth(policy=policy.value)
            n_workers = effective_workers(workers, len(files_by_host))
            scans = scan_archive(
                archive, workers=workers, allow_truncated=True,
                policy=policy, health=health,
                max_retries=max_retries, files_by_host=files_by_host,
                jobs=jobs, seeds=seeds)

            # A window that never closes has no delta to report.
            delta = None if through == math.inf else plan.delta
            report = IngestReport(system=config.name, health=health,
                                  effective_workers=n_workers, mode=mode,
                                  delta=delta)

            self.register_system(config)

            # Low-water rowids per table: with an insert-only load, rows
            # above these after the final commit are exactly what this run
            # appended (recorded in ingest_runs for provenance).
            _TABLES = ("jobs", "job_metrics", "system_series",
                       "syslog_events")
            row_lo = {t: self.warehouse._max_rowid(t) for t in _TABLES}

            # Drain the scan stream: per-host parsed data dies inside the
            # generator; only views and partials accumulate here.
            views: list[HostJobView] = []
            partials_by_host: dict[str, dict[str, HostJobPartial]] = {}
            mentioned: dict[tuple[str, str], frozenset[str]] = {}
            states: dict[str, dict[str, JobScanState]] = {}
            with span("ingest.scan", workers=n_workers):
                for scan in scans:
                    views.extend(scan.views)
                    partials_by_host[scan.hostname] = scan.partials
                    states[scan.hostname] = scan.states
                    for label, ids in scan.jobs_by_file.items():
                        mentioned[(scan.hostname, label)] = ids

            if policy is not ErrorPolicy.STRICT:
                # The scan stream is fully drained, so the health accounting
                # is complete: persist it where operators will look — the
                # sidecar next to the archive and the warehouse meta table.
                health.write_sidecar(archive.root / QUARANTINE_DIRNAME)
                self.warehouse.set_ingest_health(config.name, health)

            with span("ingest.match"):
                matched, match = match_job_views(
                    entries, views, min_seconds=config.sample_interval)
            report.match = match

            lariat_by_job = {r.jobid: r for r in (lariat_records or [])}

            with span("ingest.load"):
                for mj in matched:
                    entry = mj.entry
                    if not plan.loadable(entry):
                        # Safety net: a candidate's span days are always
                        # fully consumed by construction (new + lookback
                        # cover them), so this should never fire — but a
                        # deferred load is recoverable, a premature one is
                        # not.
                        plan.delta.jobs_deferred += 1
                        continue
                    app = entry.app_tag
                    if not app or app == "-":
                        lar = lariat_by_job.get(entry.job_number)
                        guess = lar.guess_app() if lar else None
                        if guess:
                            app = guess
                            report.lariat_attributed += 1
                        else:
                            app = "unknown"
                            report.unattributed.append(entry.job_number)
                    job_partials = [
                        p for p in (
                            partials_by_host.get(n, {}).get(entry.job_number)
                            for n in mj.hostnames
                        ) if p is not None
                    ]
                    try:
                        summary = merge_job_partials(
                            entry.job_number, job_partials,
                            wall_seconds=float(entry.wall_seconds),
                        )
                    except SummaryError as e:
                        # Narrow by design: SummaryError means the job had no
                        # usable stats (expected for short/degraded jobs) and
                        # is recorded with its reason.  Any other ValueError
                        # from the summarize layer is a real bug and
                        # propagates.
                        report.summaries_failed.append(entry.job_number)
                        report.summary_errors[entry.job_number] = str(e)
                        summary = None
                    self.warehouse.add_job(
                        config.name,
                        _record_from_entry(entry, app),
                        cores_per_node=config.node.cores,
                        summary=summary,
                    )
                    report.jobs_loaded += 1

            with span("ingest.syslog"):
                for msg in syslog or []:
                    if not (plan.watermark_before <= msg.time
                            < plan.watermark_after):
                        continue  # outside this run's consumed-day window
                    self.warehouse.add_syslog_event(
                        config.name, msg.time, msg.host, msg.jobid,
                        msg.kind.value, msg.severity,
                    )
                    report.syslog_events_loaded += 1

            # Never to load: every file of the job's span is consumed.
            given_up = {e.job_number for e in all_entries
                        if plan.loadable(e)}
            self._record_provenance(
                config.name, manifest, plan.revisit, set(files_by_host),
                plan.cells, health, mode, row_lo, mentioned, states, seeds,
                stored, given_up)

            self.warehouse.commit()
            registry = get_registry()
            registry.counter("ingest.jobs_loaded").inc(report.jobs_loaded)
            registry.counter("ingest.summaries_failed").inc(
                len(report.summaries_failed))
            registry.counter("ingest.lariat_attributed").inc(
                report.lariat_attributed)
            registry.counter("ingest.syslog_events").inc(
                report.syslog_events_loaded)
            if delta is not None:
                registry.counter("ingest.delta.files_new").inc(
                    delta.files_new)
                registry.counter("ingest.delta.files_lookback").inc(
                    delta.files_lookback)
                registry.counter("ingest.delta.files_skipped").inc(
                    delta.files_skipped)
                registry.counter("ingest.delta.jobs_deferred").inc(
                    delta.jobs_deferred)
            report.run_id = run_id
            _log.info("ingest_done", system=config.name,
                      jobs=report.jobs_loaded,
                      workers=report.effective_workers)
            return report

    def _record_provenance(self, system: str, manifest: dict,
                           revisit: dict[tuple[str, str], LedgerEntry],
                           visited: set[str],
                           consumed: set[tuple[str, str]],
                           health: IngestHealth, mode: str,
                           row_lo: dict[str, int],
                           mentioned: dict[tuple[str, str], frozenset[str]],
                           states: dict[str, dict[str, JobScanState]],
                           seeds: dict[str, dict[str, JobScanState]],
                           stored: dict[tuple[str, str], bytes],
                           given_up: set[str]) -> None:
        """Ledger the consumed host-days, keep the scan states of the
        jobs still open, and record this run's row ranges — one
        transaction, so the ledger and the states never disagree.

        Every ingest — full, windowed, or append — records what
        it consumed, so a later ``mode="append"`` can diff against it
        and ``repro-diagnose --ledger`` can attribute rows to runs.  A
        host-day is ledgered whatever its scan outcome: a dropped
        (quarantined) host's files are consumed too, with the outcome in
        ``status``.  *mentioned* holds the job ids of every file the
        scan kept whole; what of them is still unloaded now is the
        cell's ``open_jobs``, and a consumed cell the scan could not
        vouch for records ``None``.  A ledger row this run did not scan
        is rewritten when one of its open jobs loaded, or when the file
        was touched (re-hashed to the same digest) — only the *revisit*
        rows can be either, so no other row is looked at.

        A *states* entry is kept when its job can still load (it is
        neither loaded nor *given_up*) and the fold behind it is
        complete: every file of its host was kept whole, and it either
        continued a seed or no ledgered cell the run left unread names
        the job.  States of the *visited* hosts that are not kept, and
        any state of a closed job, are deleted from *stored*.
        """
        status_of = dict.fromkeys(health.hosts_degraded, "degraded")
        status_of.update(dict.fromkeys(health.hosts_dropped, "dropped"))
        run_id = current_run_id() or "unscoped"
        loaded = self.warehouse.job_ids(system)
        rows = [
            LedgerEntry(host=host, day=day,
                        sha256=manifest[(host, day)].sha256,
                        size=manifest[(host, day)].size,
                        mtime_ns=manifest[(host, day)].mtime_ns,
                        status=status_of.get(host, "loaded"),
                        run_id=run_id,
                        open_jobs=mentioned[(host, day)] - loaded
                        if (host, day) in mentioned else None)
            for (host, day) in sorted(consumed)
        ]
        #: Hosts some cell of which nobody can vouch for after this
        #: run, and the open jobs of the cells each host left unread.
        unknown = {host for host, day in consumed
                   if (host, day) not in mentioned}
        elsewhere: dict[str, set[str]] = {}
        for cell, led in revisit.items():
            if cell in consumed:
                continue
            if led.open_jobs is None:
                unknown.add(cell[0])
                still_open = None
            else:
                still_open = led.open_jobs - loaded
                elsewhere.setdefault(cell[0], set()).update(still_open)
            fp = manifest[cell]
            if still_open != led.open_jobs or (fp.size, fp.mtime_ns) != (
                    led.size, led.mtime_ns):
                rows.append(replace(led, size=fp.size, mtime_ns=fp.mtime_ns,
                                    open_jobs=still_open))
        closed = loaded | given_up
        kept = {
            (host, jobid): state
            for host, by_job in states.items() if host not in unknown
            for jobid, state in by_job.items()
            if jobid not in closed and (
                jobid in seeds.get(host, ())
                or jobid not in elsewhere.get(host, ()))
        }
        keep = {key: state.to_blob() for key, state in kept.items()}
        self._kept = {blob: kept[key] for key, blob in keep.items()}
        self.warehouse.record_scan_states(system, keep, [
            key for key in stored if key not in keep and (
                key[0] in visited or key[0] in unknown or key[1] in closed)])
        self.warehouse.record_ledger(system, rows)
        self.warehouse.record_ingest_run(system, run_id, mode, {
            t: (lo, self.warehouse._max_rowid(t))
            for t, lo in row_lo.items()
        })
