"""The streaming runner and micro-batcher behind live mode.

:class:`LiveReplay` is the incremental driver of the per-node replay
units defined in :mod:`repro.facility`: it holds one
:class:`~repro.facility.NodeReplay` per node and moves them all forward
with each :meth:`LiveReplay.advance` call instead of taking each to the
horizon in one pass.  The units are the offline path's own, so every
day file decodes to an offline replay's — which is what makes live
micro-batch ingest byte-identical to a one-shot append (property-tested
in ``tests/live``).

:class:`LiveSession` wraps the replay in the operator loop: advance to
the next flush time, append what each host's day file gained to it as
one v2 unit, stage per-job cumulative counters for the rate views, push
the new units through the ordinary watermark ledger
(``ingest(mode="append")``, whose one commit carries the counters too),
and refresh the rolling warehouse snapshot in place.  Telemetry lands under ``live.*``
(batches, rows appended, counter rows, refresh latency histogram).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from repro.config import FacilityConfig
from repro.facility import Facility, _build_behaviors, node_replays
from repro.ingest.pipeline import DeltaSummary, IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.live.rates import COUNTER_WRAP_BITS, LIVE_COUNTER_METRICS
from repro.scheduler.accounting import parse_accounting
from repro.scheduler.job import JobRecord
from repro.tacc_stats.archive import HostArchive
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import span
from repro.util.timeutil import HOUR
from repro.workload.applications import RATE_INDEX
from repro.xdmod.snapshot import WarehouseSnapshot

__all__ = ["LIVE_COUNTER_METRICS", "LIVE_REFRESH_BUCKETS",
           "LiveBatchReport", "LiveReplay", "LiveSession"]

#: Snapshot-refresh latency buckets: a rolling refresh is O(delta), so
#: resolution concentrates well below a second.
LIVE_REFRESH_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
)


class LiveReplay:
    """Drive every node's replay unit incrementally into a shared
    archive: :meth:`advance` moves each node's cursor up to and
    including a time bound, so successive calls replay the horizon in
    monotonic slices."""

    def __init__(self, cfg: FacilityConfig, seed: int, users: dict,
                 util_scale: float, phase_calibration: dict | None,
                 regressions: tuple, records: list[JobRecord],
                 archive: HostArchive):
        #: jobid -> behaviour; the session's side logs and counters too.
        self.behaviors = _build_behaviors(
            cfg, users, util_scale, phase_calibration, regressions, records)
        self._nodes = list(node_replays(
            cfg, seed, records, list(range(cfg.num_nodes)), self.behaviors,
            archive))
        self.clock = 0.0

    def advance(self, until: float) -> int:
        """Process every node's events with ``t <= until``; returns how
        many events fired.  *until* must not move backwards."""
        if until < self.clock:
            raise ValueError(
                f"cannot advance backwards ({until} < {self.clock})")
        fired = sum(unit.advance(until) for unit in self._nodes)
        self.clock = until
        get_registry().gauge("synth.rows_held").set(
            sum(unit.engine.rows_held for unit in self._nodes))
        return fired


@dataclass
class LiveBatchReport:
    """What one micro-batch accomplished.

    ``snapshot_rows`` is the rolling snapshot's job-row count after the
    in-place refresh — the number CI asserts grows monotonically.
    """

    batch: int
    t_start: float
    t_end: float
    segments: int
    jobs_loaded: int
    jobs_total: int
    syslog_loaded: int
    counter_rows: int
    snapshot_rows: int
    refresh_seconds: float
    delta: DeltaSummary | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["delta"] = self.delta.to_dict() if self.delta else None
        return out

    def __str__(self) -> str:
        return (
            f"[live] batch={self.batch} t={self.t_start:.0f}"
            f"->{self.t_end:.0f} segments={self.segments} "
            f"jobs+={self.jobs_loaded} jobs={self.jobs_total} "
            f"snapshot_rows={self.snapshot_rows} "
            f"refresh_ms={self.refresh_seconds * 1e3:.1f}"
        )


class LiveSession:
    """The live micro-batch loop over one facility.

    Each :meth:`run_batch` call advances the replay by
    ``batch_segments`` flush periods of ``segment_seconds``, appends
    one unit per host-day file (:meth:`HostArchive.flush_before`),
    upserts the per-job cumulative counters, appends the new units
    through the watermark ledger — one commit for all of it — and
    refreshes the rolling snapshot.
    The accounting/Lariat/syslog side logs are produced once up front
    (exactly as the offline path would have) — the ledger's watermarks
    and job deferral are what window them per batch.
    """

    def __init__(self, facility: Facility, archive_dir: str,
                 warehouse: Warehouse | None = None,
                 segment_seconds: int = HOUR, batch_segments: int = 1):
        seg = int(segment_seconds)
        if seg <= 0 or seg != segment_seconds:
            raise ValueError(f"segment_seconds must be a positive whole "
                             f"number, got {segment_seconds!r}")
        if batch_segments < 1:
            raise ValueError(
                f"batch_segments must be >= 1, got {batch_segments}")
        cfg = facility.config
        self.config = cfg
        self.segment_seconds = seg
        self.batch_segments = batch_segments
        self.warehouse = warehouse or Warehouse()
        workload, sim, outages, cluster = facility._simulate()
        self.sim = sim
        self.archive = HostArchive(archive_dir, archive_format="v2")
        self.replay = LiveReplay(
            cfg, facility.seed, *facility._behavior_context(workload),
            sim.records, self.archive)

        self.accounting_text, self.lariat, self.syslog = \
            facility._side_logs(sim, cluster, self.replay.behaviors)
        #: Parsed once; every batch's append takes the entries.
        self.accounting_entries = list(parse_accounting(self.accounting_text))

        self.pipeline = IngestPipeline(self.warehouse)
        # Registered up front, so that no batch commits twice.
        self.pipeline.register_system(cfg)
        self.n_segments = int(cfg.horizon // seg) + 1
        self.snapshot: WarehouseSnapshot | None = None
        self._next_seg = 0
        self._batch = 0
        #: Indices into ``sim.records`` of the jobs not yet started, the
        #: earliest start last, and of the started jobs whose final
        #: counters are not yet published.
        self._unstarted = sorted(range(len(sim.records)), reverse=True,
                                 key=lambda i: sim.records[i].start_time)
        self._running: set[int] = set()
        self._wrap = 1 << COUNTER_WRAP_BITS
        self._cum_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def done(self) -> bool:
        return self._next_seg >= self.n_segments

    def _counters_at(self, record: JobRecord, t: float) -> list[int]:
        """The job's cumulative counters at facility time *t*.

        Integrates the behaviour's per-bin rates (× nodes) over the
        elapsed wall time and floors to integers — nondecreasing in
        *t*, wrapped at the rate engine's counter width.
        """
        interval = self.config.sample_interval
        cached = self._cum_cache.get(record.jobid)
        if cached is None:
            behavior = self.replay.behaviors[record.jobid]
            m = max(1, int(np.ceil(record.wall_seconds / interval)))
            idx = [RATE_INDEX[name] for name in LIVE_COUNTER_METRICS]
            per_bin = (behavior.rates_matrix(m)[:, idx]
                       * record.request.nodes)
            cum = np.vstack([np.zeros(len(idx)),
                             np.cumsum(per_bin, axis=0)]) * interval
            cached = (cum, per_bin)
            self._cum_cache[record.jobid] = cached
        cum, per_bin = cached
        elapsed = max(0.0, min(t, record.end_time) - record.start_time)
        full = min(int(elapsed // interval), per_bin.shape[0])
        vals = cum[full]
        frac = elapsed - full * interval
        if frac > 0 and full < per_bin.shape[0]:
            vals = vals + per_bin[full] * frac
        return [int(v) % self._wrap for v in vals]

    def _publish_counters(self, t1: float) -> int:
        """Upsert every started job's counters as of *t1*, uncommitted;
        a job's final (end-time) counters are published exactly once.
        Only the running jobs are looked at."""
        records = self.sim.records
        while self._unstarted and \
                records[self._unstarted[-1]].start_time < t1:
            self._running.add(self._unstarted.pop())
        rows: list[tuple] = []
        for i in sorted(self._running):
            record = records[i]
            t_sample = min(t1, record.end_time)
            ended = record.end_time <= t1
            req = record.request
            rows.extend(
                (record.jobid, req.user, req.app, t_sample, int(ended),
                 metric, value)
                for metric, value in zip(LIVE_COUNTER_METRICS,
                                         self._counters_at(record,
                                                           t_sample))
            )
            if ended:
                self._running.discard(i)
        if rows:
            self.warehouse.record_live_counters(self.config.name, rows)
        return len(rows)

    def run_batch(self) -> LiveBatchReport | None:
        """Advance one micro-batch; ``None`` once the horizon is done."""
        if self.done:
            return None
        cfg = self.config
        hi = min(self._next_seg + self.batch_segments, self.n_segments)
        final = hi >= self.n_segments
        t_start = float(self._next_seg * self.segment_seconds)
        t_end = float(cfg.horizon) if final \
            else float(hi * self.segment_seconds)
        registry = get_registry()
        with span("live.batch", batch=self._batch, t_end=t_end):
            self.replay.advance(t_end)
            if final:
                self.archive.close()
            else:
                self.archive.flush_before(t_end)
            # The counters ride the ingest's one commit: a reader sees
            # the batch's jobs, ledger rows and counters together or not
            # at all.
            counter_rows = self._publish_counters(t_end)
            report = self.pipeline.ingest(
                cfg,
                accounting_text=self.accounting_entries,
                archive=self.archive,
                lariat_records=self.lariat,
                syslog=self.syslog,
                mode="append",
            )
            start = time.perf_counter()
            self.snapshot = WarehouseSnapshot.for_warehouse(
                self.warehouse)
            refresh_seconds = time.perf_counter() - start
            snapshot_rows = self.snapshot.frame(cfg.name).n_rows
            registry.counter("live.batches").inc()
            registry.counter("live.rows_appended").inc(
                report.jobs_loaded + report.syslog_events_loaded)
            registry.counter("live.counter_rows").inc(counter_rows)
            registry.histogram("live.refresh.seconds",
                               LIVE_REFRESH_BUCKETS).observe(
                refresh_seconds)
        out = LiveBatchReport(
            batch=self._batch, t_start=t_start, t_end=t_end,
            segments=hi - self._next_seg,
            jobs_loaded=report.jobs_loaded,
            jobs_total=self.warehouse.job_count(cfg.name),
            syslog_loaded=report.syslog_events_loaded,
            counter_rows=counter_rows,
            snapshot_rows=snapshot_rows,
            refresh_seconds=refresh_seconds,
            delta=report.delta,
        )
        self._next_seg = hi
        self._batch += 1
        return out

    def run(self, max_batches: int | None = None) -> list[LiveBatchReport]:
        """Run micro-batches until the horizon (or *max_batches*)."""
        return list(islice(iter(self.run_batch, None), max_batches))
