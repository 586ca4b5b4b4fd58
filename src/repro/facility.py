"""Facility driver: simulate → collect → ingest → analyze, in one call.

Two measurement paths produce the same warehouse contents:

* :meth:`Facility.run` (fast path) — the behaviour model's rate matrices
  are reduced to job summaries and system series directly, vectorized
  per job.  Used for study-period-scale runs (thousands of jobs) behind
  the figure/table benchmarks.
* :meth:`Facility.run_with_files` (slow path) — per-node TACC_Stats
  samplers serialize the real self-describing text format to a rotating
  archive, and the ingest pipeline parses, matches, and summarizes it
  back.  Used at smaller scale to prove the production pipeline
  end-to-end and to measure the paper's volume/overhead claims.

Both paths construct each job's :class:`~repro.workload.JobBehavior` from
the same seed, so they agree statistically (asserted by integration
tests).

The slow path's write side is defined once (DESIGN.md, "The write
path"): a :class:`NodeReplay` per node, taken one at a time to the
horizon by the in-process replay and each pool worker, or all together
to each segment edge by :mod:`repro.live.runner` — the same synthesis
engine (:class:`~repro.tacc_stats.synth.NodeSynth`), the same ordering,
hence the same archive bytes — and one side-log recipe,
:meth:`Facility._side_logs`.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, node_hostname
from repro.cluster.outages import Outage, OutageGenerator
from repro.config import FacilityConfig
from repro.ingest.pipeline import IngestPipeline, IngestReport
from repro.ingest.summarize import JobSummary, summarize_job_from_rates
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import LariatRecord, lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.scheduler.engine import SchedulerEngine, SimulationResult
from repro.scheduler.job import JobRecord
from repro.scheduler.policies import EasyBackfillPolicy, SchedulingPolicy
from repro.syslogr.generator import SyslogGenerator
from repro.syslogr.rationalizer import Rationalizer
from repro.tacc_stats.archive import ArchiveStats, HostArchive
from repro.tacc_stats.synth import NodeSynth
from repro.telemetry.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    use_registry,
)
from repro.telemetry.trace import span
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, HOUR, aligned_samples
from repro.workload.applications import APP_CATALOG, RATE_INDEX
from repro.workload.behavior import DerivedRates, JobBehavior
from repro.workload.generator import GeneratedWorkload, WorkloadGenerator
from repro.xdmod.query import JobQuery

__all__ = ["Facility", "FacilityRun", "NodeReplay", "node_replays"]

_I_MEM = RATE_INDEX["mem_used_gb"]
_I_FLOPS = RATE_INDEX["flops_gf"]


def _build_behavior(cfg: FacilityConfig, users: dict, util_scale: float,
                    phase_calibration: dict | None, regressions: tuple,
                    record: JobRecord) -> JobBehavior:
    """Reconstruct a job's behaviour from picklable inputs only.

    Module-level (not a method) so multiprocessing workers can rebuild
    behaviours independently: a behaviour is fully determined by the
    request's seed and the facility context, so shipping the large rate
    matrices between processes is never necessary.
    """
    req = record.request
    flops_scale = 1.0
    for regression in regressions:
        if regression.applies(req.app, record.start_time):
            flops_scale *= regression.flops_factor
    # Application kernels are fixed benchmark inputs: a few percent of
    # run-to-run variance, not the workload's job-level spread.
    variability = 0.12 if req.queue == "appkernel" else 1.0
    return JobBehavior(
        app=APP_CATALOG[req.app],
        user=users[req.user],
        node_hw=cfg.node,
        n_nodes=req.nodes,
        duration=max(record.wall_seconds, cfg.sample_interval),
        sample_interval=cfg.sample_interval,
        behavior_seed=req.behavior_seed,
        util_scale=util_scale,
        calibration=phase_calibration,
        flops_scale=flops_scale,
        variability_scale=variability,
    )


def _build_behaviors(cfg: FacilityConfig, users: dict, util_scale: float,
                     phase_calibration: dict | None, regressions: tuple,
                     records: list[JobRecord]) -> dict[str, JobBehavior]:
    """``{jobid: behaviour}`` for *records* — built once per process and
    handed to both the replay and the side-log recipe."""
    return {
        r.jobid: _build_behavior(cfg, users, util_scale,
                                 phase_calibration, regressions, r)
        for r in records
    }


def _rates_summary(cfg: FacilityConfig, record: JobRecord,
                   behavior: JobBehavior) -> tuple[np.ndarray, JobSummary]:
    """The job's per-interval node-average rate matrix and the summary
    the in-memory path reduces it to (memory capped at node capacity)."""
    m = max(1, int(np.ceil(record.wall_seconds / cfg.sample_interval)))
    rates = behavior.rates_matrix(m)
    return rates, summarize_job_from_rates(
        record, rates, mem_capacity_gb=cfg.node.memory_gb)


def _node_chunks(num_nodes: int, workers: int) -> list[list[int]]:
    """Split node indices across *workers*, one non-empty chunk each.

    Workers are clamped to the node count: strided splitting with more
    workers than nodes would produce empty chunks, and dispatching a
    pool task that opens an archive handle only to write nothing is
    pure overhead.  The stride keeps each chunk's cost balanced when
    job placement favours low node indices.
    """
    n_workers = min(max(workers, 1), max(num_nodes, 1))
    all_nodes = list(range(num_nodes))
    return [all_nodes[i::n_workers] for i in range(n_workers) if
            all_nodes[i::n_workers]]


class NodeReplay:
    """One node's replay — its engine, its time-sorted event list and a
    cursor: the unit every driver of a study period shares, so the
    events fire identically however the horizon is sliced."""

    def __init__(self, engine: NodeSynth,
                 ticks: list[float], allocations: list[tuple[JobRecord, int]],
                 behaviors: dict[str, JobBehavior]):
        self.engine = engine
        self.behaviors = behaviors
        # (t, kind, record, slot).  Same-instant ordering: end (0) <
        # periodic tick (1) < begin (2), so a back-to-back allocation (a
        # job starts the second the last one left) replays correctly.
        events: list[tuple] = [(t, 1, None, 0) for t in ticks]
        for record, slot in allocations:
            events.append((record.start_time, 2, record, slot))
            if record.end_time > record.start_time:
                events.append((record.end_time, 0, record, slot))
        events.sort(key=lambda e: e[:2])
        self.events = events
        #: Next event to hand the engine | to fall due: the engine is
        #: fed ahead of the clock, so the two differ.
        self.cursor = 0
        self.due = 0

    def advance(self, until: float) -> int:
        """Fire this node's events with ``t <= until``; returns how many."""
        engine, events, ptr = self.engine, self.events, self.cursor
        fire_to = until
        if ptr < len(events) and events[ptr][0] <= until:
            # It only queues, and the simulation is over, so it is fed
            # ahead of the clock: a synthesis block runs to the later of
            # *until* and this node's next day edge — a day however
            # finely the driver slices, staggered an hour a node so that
            # a fleet's blocks do not all fall due in one micro-batch.
            # An event is due, so the held block is spent: out it goes.
            engine.flush(until)
            phase = engine.node.index * HOUR % DAY
            fire_to = max(-(-(events[ptr][0] - phase) // DAY) * DAY + phase,
                          until)
        while ptr < len(events) and events[ptr][0] <= fire_to:
            t, kind, record, slot = events[ptr]
            if kind == 1:
                engine.sample(t)
            elif kind == 0:
                engine.end_job(record.jobid, t)
            else:
                engine.begin_job(record.jobid, t,
                                 self.behaviors[record.jobid], slot)
                if record.end_time <= t:
                    # "beginend": a zero-duration allocation (truncated
                    # at the horizon) has no end event — it would sort
                    # *before* its begin — so both fire back to back.
                    engine.end_job(record.jobid, t)
            ptr += 1
        self.cursor = ptr
        # One kernel round per block, then rows out as the clock passes
        # them; the caller may close files after this slice.
        engine.flush(until)
        first = self.due
        self.due = bisect_right(events, until, lo=first, key=itemgetter(0))
        return self.due - first


def node_replays(cfg: FacilityConfig, seed: int, records: list[JobRecord],
                 node_indices: list[int], behaviors: dict[str, JobBehavior],
                 archive: HostArchive) -> Iterator[NodeReplay]:
    """Yield the :class:`NodeReplay` of each node in *node_indices*,
    built only when asked for — so a caller that finishes one unit
    before taking the next keeps a single node's state alive."""
    rng_factory = RngFactory(seed)
    wanted = set(node_indices)
    per_node: dict[int, list[tuple[JobRecord, int]]] = {}
    for record in records:
        for slot, ni in enumerate(record.node_indices):
            if ni in wanted:
                per_node.setdefault(ni, []).append((record, slot))
    ticks = aligned_samples(0.0, cfg.horizon, cfg.sample_interval)
    lustre = tuple(
        fs.name for fs in cfg.filesystems if fs.kind == "lustre"
    ) or ("scratch",)
    nfs = tuple(fs.name for fs in cfg.filesystems if fs.kind == "nfs")
    for ni in node_indices:
        node = Node(index=ni, hostname=node_hostname(ni, cfg.name),
                    hardware=cfg.node)
        # Noise streams are keyed (seed, node, collector): each draw
        # sequence is independent of its siblings and of how nodes are
        # chunked across workers.
        def noise(name: str, ni: int = ni) -> np.random.Generator:
            return rng_factory.stream(f"{cfg.stream_prefix}/noise/{ni}/{name}")
        engine = NodeSynth(node, noise, archive,
                           lustre_mounts=lustre, nfs_mounts=nfs)
        yield NodeReplay(engine, ticks, per_node.get(ni, []), behaviors)


def _replay_chunk(cfg: FacilityConfig, seed: int, records: list[JobRecord],
                  node_indices: list[int], behaviors: dict[str, JobBehavior],
                  archive_dir: str, compress: bool,
                  archive_format: str) -> tuple[ArchiveStats, MetricsSnapshot]:
    """Open the archive, take each node's unit to the horizon a day at
    a time — a slice that long is its own synthesis block, so none is
    held past the call that made it — and close.
    Returns the volume accounting and the replay's telemetry — kept in a
    private registry so write-side counters merge to the same totals
    whether this ran in-process or in a pool worker."""
    local = MetricsRegistry()
    with use_registry(local):
        # resume_stats=False: each worker reports a session-scoped tally
        # the coordinator sums; resuming from the shared, concurrently-
        # growing directory would double-count sibling workers' files.
        archive = HostArchive(archive_dir, compress=compress,
                              resume_stats=False,
                              archive_format=archive_format)
        edges = aligned_samples(0.0, cfg.horizon, DAY)[1:]
        held = 0
        for unit in node_replays(cfg, seed, records, node_indices,
                                 behaviors, archive):
            for edge in edges:
                unit.advance(edge)
            held += unit.engine.rows_held
        local.gauge("synth.rows_held").set(held)
        stats = archive.close()
    return stats, local.snapshot()


def _replay_nodes(
    cfg: FacilityConfig,
    seed: int,
    users: dict,
    util_scale: float,
    phase_calibration: dict | None,
    regressions: tuple,
    records: list[JobRecord],
    node_indices: list[int],
    archive_dir: str,
    compress: bool,
    archive_format: str = "text",
) -> tuple[ArchiveStats, MetricsSnapshot]:
    """Pool-worker entry: replay *node_indices* into the shared archive
    directory — a node's files are written only by the worker owning it,
    so concurrent workers never touch the same path — rebuilding in this
    process the behaviours of just the jobs that touch those nodes."""
    wanted = set(node_indices)
    behaviors = _build_behaviors(
        cfg, users, util_scale, phase_calibration, regressions,
        [r for r in records if not wanted.isdisjoint(r.node_indices)])
    return _replay_chunk(cfg, seed, records, node_indices, behaviors,
                         archive_dir, compress, archive_format)


@dataclass
class FacilityRun:
    """Everything one simulated study period produced."""

    config: FacilityConfig
    warehouse: Warehouse
    workload: GeneratedWorkload
    sim: SimulationResult
    outages: list[Outage]
    ingest_report: IngestReport | None = None
    archive_stats: ArchiveStats | None = None

    def query(self) -> JobQuery:
        return JobQuery(self.warehouse, self.config.name)

    @property
    def records(self) -> list[JobRecord]:
        return self.sim.records


class Facility:
    """One simulated system, reproducible from (config, seed)."""

    def __init__(self, config: FacilityConfig, seed: int = 0,
                 policy: SchedulingPolicy | None = None,
                 phase_calibration: dict | None = None,
                 appkernels: tuple | None = None,
                 regressions: tuple | None = None):
        """*appkernels* is a tuple of
        :class:`repro.xdmod.appkernels.AppKernelSpec` to submit on their
        cadences; *regressions* a tuple of
        :class:`repro.xdmod.appkernels.PerfRegression` faults to inject."""
        self.config = config
        self.seed = seed
        self.rng_factory = RngFactory(seed)
        self.policy = policy or EasyBackfillPolicy()
        self.phase_calibration = phase_calibration
        self.appkernels = tuple(appkernels or ())
        self.regressions = tuple(regressions or ())

    def _stream(self, name: str) -> np.random.Generator:
        return self.rng_factory.stream(f"{self.config.stream_prefix}/{name}")

    # -- shared simulation front half ----------------------------------------

    def _simulate(self) -> tuple[GeneratedWorkload, SimulationResult,
                                 list[Outage], Cluster]:
        """Workload generation + scheduling, under one timed span."""
        cfg = self.config
        with span("facility.simulate", system=cfg.name):
            workload = WorkloadGenerator(cfg, self.rng_factory).generate()
            if self.appkernels:
                from repro.xdmod.appkernels import (
                    kernel_requests,
                    kernel_user_profile,
                )
                kernels = kernel_requests(self.appkernels, cfg, self.seed)
                merged = sorted(workload.requests + kernels,
                                key=lambda r: r.submit_time)
                users = dict(workload.users)
                users[kernel_user_profile().username] = kernel_user_profile()
                workload = GeneratedWorkload(
                    requests=merged, users=users,
                    util_scale=workload.util_scale,
                )
            cluster = Cluster(cfg.name, cfg.num_nodes, cfg.node,
                              cfg.filesystems, cfg.interconnect)
            outages = OutageGenerator(cfg.num_nodes).generate(
                cfg.horizon, self._stream("outages")
            )
            sim = SchedulerEngine(cluster, self.policy).run(
                workload.requests, outages, horizon=cfg.horizon
            )
            return workload, sim, outages, cluster

    def _behavior_context(self, workload: GeneratedWorkload) -> tuple:
        """What, beside the config and a record, determines a behaviour
        — picklable, in :func:`_build_behavior`'s argument order."""
        return (workload.users, workload.util_scale,
                self.phase_calibration, self.regressions)

    def _side_logs(self, sim: SimulationResult, cluster: Cluster,
                   behaviors: dict[str, JobBehavior],
                   ) -> tuple[str, list[LariatRecord], list]:
        """``(accounting text, Lariat records, rationalized syslog)`` of
        one simulated period — the one recipe behind the offline file
        path and the live session, so the two agree bytewise."""
        cfg = self.config
        acct_buf = io.StringIO()
        AccountingWriter(acct_buf, cfg.node.cores,
                         cfg.name).write_all(sim.records)
        lariat = [lariat_record_for(r, cfg.node.cores) for r in sim.records]
        summaries = [_rates_summary(cfg, r, behaviors[r.jobid])[1]
                     for r in sim.records]
        return (acct_buf.getvalue(), lariat,
                self._syslog(sim, cluster, summaries, background=False))

    def _syslog(self, sim: SimulationResult, cluster: Cluster,
                summaries: list[JobSummary], background: bool) -> list:
        """The period's rationalized syslog: the lines each job's summary
        gives rise to, then (*background*: the in-memory path only)
        hardware noise, each tagged with the job occupying its host."""
        cfg = self.config
        gen = SyslogGenerator(self._stream("syslog"), cfg.name)
        raw = []
        for record, summary in zip(sim.records, summaries):
            raw.extend(gen.generate_for_job(
                record,
                mem_frac_max=summary.get("mem_used_max")
                / cfg.node.memory_gb,
                scratch_write_mb=summary.get("io_scratch_write"),
                cpu_idle_frac=summary.get("cpu_idle"),
            ))
        if background:
            raw.extend(gen.generate_background(cfg.num_nodes, cfg.horizon))
        rationalizer = Rationalizer()
        for record in sim.records:
            for ni in record.node_indices:
                rationalizer.add_occupancy(
                    cluster.nodes[ni].hostname, record.start_time,
                    record.end_time, record.jobid,
                )
        rationalizer.finalize()
        messages, _unknown = rationalizer.rationalize_stream(raw)
        return messages

    # -- fast path ----------------------------------------------------------------

    def run(self, warehouse: Warehouse | None = None,
            with_syslog: bool = True) -> FacilityRun:
        """Fast path: behaviour → summaries + series → warehouse."""
        cfg = self.config
        workload, sim, outages, cluster = self._simulate()
        warehouse = warehouse or Warehouse()
        warehouse.add_system(
            cfg.name, num_nodes=cfg.num_nodes,
            cores_per_node=cfg.node.cores,
            mem_gb_per_node=cfg.node.memory_gb,
            peak_tflops=cfg.peak_tflops,
            sample_interval=cfg.sample_interval,
        )

        interval = cfg.sample_interval
        n_bins = int(cfg.horizon // interval) + 1
        bin_times = np.arange(n_bins) * interval
        acc = {
            name: np.zeros(n_bins)
            for name in ("flops_gf", "mem_gb", "idle_nodes_equiv",
                         "user_nodes_equiv", "sys_nodes_equiv",
                         "io_scratch_write_mb", "io_work_write_mb",
                         "io_share_write_mb", "ib_tx_mb", "busy_nodes")
        }

        summaries: list[JobSummary] = []
        context = self._behavior_context(workload)
        with span("facility.summarize", system=cfg.name):
            for record in sim.records:
                rates, summary = _rates_summary(
                    cfg, record, _build_behavior(cfg, *context, record))
                summaries.append(summary)
                warehouse.add_job(cfg.name, record, cfg.node.cores,
                                  summary=summary)

                nodes = record.request.nodes
                bin0 = int(record.start_time // interval)
                bins = bin0 + np.arange(rates.shape[0])
                ok = bins < n_bins
                bins, r = bins[ok], rates[ok]
                if bins.size == 0:
                    continue
                idle = DerivedRates.cpu_idle(r)
                np.add.at(acc["flops_gf"], bins, r[:, _I_FLOPS] * nodes)
                np.add.at(acc["mem_gb"], bins, r[:, _I_MEM] * nodes)
                np.add.at(acc["idle_nodes_equiv"], bins, idle * nodes)
                np.add.at(acc["user_nodes_equiv"], bins,
                          r[:, RATE_INDEX["cpu_user_frac"]] * nodes)
                np.add.at(acc["sys_nodes_equiv"], bins,
                          r[:, RATE_INDEX["cpu_sys_frac"]] * nodes)
                for fs in ("scratch", "work", "share"):
                    np.add.at(acc[f"io_{fs}_write_mb"], bins,
                              r[:, RATE_INDEX[f"io_{fs}_write_mb"]] * nodes)
                np.add.at(acc["ib_tx_mb"], bins,
                          DerivedRates.ib_tx_mb(r) * nodes)
                np.add.at(acc["busy_nodes"], bins, float(nodes))

        # Active-node step function sampled on the bin grid.
        tl_t = np.array([t for t, _ in sim.active_node_timeline])
        tl_n = np.array([n for _, n in sim.active_node_timeline])
        idx = np.clip(np.searchsorted(tl_t, bin_times, side="right") - 1,
                      0, len(tl_n) - 1)
        active = tl_n[idx].astype(float)

        busy = acc["busy_nodes"]
        free = np.maximum(active - busy, 0.0)
        denom = np.maximum(active, 1.0)
        idle_frac = np.where(
            active > 0, (acc["idle_nodes_equiv"] + free) / denom, 1.0
        )
        user_frac = np.where(active > 0, acc["user_nodes_equiv"] / denom, 0.0)
        sys_frac = np.where(active > 0, acc["sys_nodes_equiv"] / denom, 0.0)
        # Every up node carries the OS's resident footprint; job memory
        # adds on top (the mem collector reports the same decomposition).
        from repro.ingest.summarize import BASE_OS_GB
        mem_per_node = np.where(
            active > 0, acc["mem_gb"] / denom + BASE_OS_GB, 0.0
        )
        ib_per_node = np.where(active > 0, acc["ib_tx_mb"] / denom, 0.0)

        series = {
            "active_nodes": active,
            "busy_nodes": busy,
            "flops_tf": acc["flops_gf"] / 1000.0,
            "mem_used_gb_per_node": mem_per_node,
            "cpu_idle_frac": idle_frac,
            "cpu_user_frac": user_frac,
            "cpu_sys_frac": sys_frac,
            "io_scratch_write_mb": acc["io_scratch_write_mb"],
            "io_work_write_mb": acc["io_work_write_mb"],
            "io_share_write_mb": acc["io_share_write_mb"],
            "net_ib_tx_mb": ib_per_node,
        }
        with span("facility.series", system=cfg.name):
            for name, values in series.items():
                warehouse.add_series(cfg.name, name, bin_times, values)

        if with_syslog and summaries:
            for msg in self._syslog(sim, cluster, summaries,
                                    background=True):
                warehouse.add_syslog_event(
                    cfg.name, msg.time, msg.host, msg.jobid,
                    msg.kind.value, msg.severity,
                )

        warehouse.commit()
        return FacilityRun(
            config=cfg, warehouse=warehouse, workload=workload, sim=sim,
            outages=outages,
        )

    # -- slow (file-format) path ---------------------------------------------------

    def run_with_files(
        self,
        archive_dir: str,
        warehouse: Warehouse | None = None,
        compress: bool = True,
        workers: int = 1,
        ingest_workers: int = 1,
        batch_size: int = 256,
        error_policy: str = "strict",
        max_retries: int = 2,
        ingest_mode: str = "full",
        ingest_through_day: int | None = None,
        archive_format: str = "text",
    ) -> FacilityRun:
        """Slow path: NodeSynth writes the archive; ingest parses it back.

        Intended for small configs (``TEST_SYSTEM``-scale): cost is
        O(nodes × samples × collectors).  The per-node replay is
        embarrassingly parallel — every node owns its own files and RNG
        stream — so ``workers > 1`` fans it out over a process pool with
        byte-identical output (asserted by tests).  ``ingest_workers``
        and ``batch_size`` are forwarded to
        :meth:`~repro.ingest.pipeline.IngestPipeline.ingest`, which makes
        the same determinism promise for the read-back side.
        *error_policy* and *max_retries* select the ingest's
        fault-tolerance behaviour (see :class:`repro.errors.ErrorPolicy`
        and ``docs/ROBUSTNESS.md``); the default is strict, exactly as
        before.  *ingest_mode* / *ingest_through_day* set where the
        ingest's window ends (``docs/PERFORMANCE.md``, "An ingest is a
        ledger diff"): the replay always writes the full horizon, but
        ``ingest_through_day=N`` consumes only the first N facility
        days, and a later ``ingest_mode="append"`` run folds in just the
        remainder.  A full ingest into a *warehouse* that already holds
        this system's jobs raises ``ValueError`` before reading a file.
        *archive_format* selects the on-disk format (``"text"`` or
        ``"v2"`` columnar); ingest autodetects per file, and both
        formats produce byte-identical warehouses (asserted by tests).
        Every node is synthesized by
        :class:`~repro.tacc_stats.synth.NodeSynth` — batched collector
        kernels, direct-to-v2 column writes — whose archives equal, byte
        for byte, each collector's scalar path driven through the same
        engine (``tests/scalar_reference.py``).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        cfg = self.config
        workload, sim, outages, cluster = self._simulate()

        context = self._behavior_context(workload)
        behaviors = _build_behaviors(cfg, *context, sim.records)
        with span("facility.replay", system=cfg.name, workers=workers):
            if workers == 1:
                partials = [_replay_chunk(
                    cfg, self.seed, sim.records, list(range(cfg.num_nodes)),
                    behaviors, archive_dir, compress, archive_format)]
            else:
                import multiprocessing

                chunks = _node_chunks(cfg.num_nodes, workers)
                with multiprocessing.Pool(len(chunks)) as pool:
                    partials = pool.starmap(_replay_nodes, [
                        (cfg, self.seed, *context, sim.records, chunk,
                         archive_dir, compress, archive_format)
                        for chunk in chunks
                    ])
            archive_stats = ArchiveStats()
            for p, snap in partials:
                archive_stats.raw_bytes += p.raw_bytes
                archive_stats.compressed_bytes += p.compressed_bytes
                archive_stats.file_count += p.file_count
                archive_stats.host_days += p.host_days
                get_registry().merge_snapshot(snap)
        archive = HostArchive(archive_dir, compress=compress)
        accounting_text, lariat_records, messages = self._side_logs(
            sim, cluster, behaviors)
        del behaviors  # ingest reads files, not the rate matrices

        warehouse = warehouse or Warehouse()
        pipeline = IngestPipeline(warehouse)
        report = pipeline.ingest(
            cfg,
            accounting_text=accounting_text,
            archive=archive,
            lariat_records=lariat_records,
            syslog=messages,
            workers=ingest_workers,
            batch_size=batch_size,
            error_policy=error_policy,
            max_retries=max_retries,
            mode=ingest_mode,
            through_day=ingest_through_day,
        )
        return FacilityRun(
            config=cfg, warehouse=warehouse, workload=workload, sim=sim,
            outages=outages, ingest_report=report,
            archive_stats=archive_stats,
        )
