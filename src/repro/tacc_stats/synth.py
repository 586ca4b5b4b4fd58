"""The per-node synthesis engine: the one code that turns a node's
events into archive rows.

:class:`NodeSynth` is TACC_Stats on one node (paper §3: invoked at job
begin, every ten minutes and at job end).  Instead of emitting one text
block per invocation, it queues the invocation metadata (time, dt,
prevailing rates source, job tags, marks) — a whole day of it, whoever
drives, however many jobs begin meanwhile — and the first
:meth:`NodeSynth.flush` that finds a queued row due materializes the
whole queue as one :class:`~repro.tacc_stats.collectors.base.BlockContext`,
calling every collector's batched ``sample_block`` kernel once.  The resulting
``[T, devices, values]`` uint64 arrays are held, and each ``flush(until)``
releases the rows the clock has passed: rendered to text in bulk for a
text archive; for a v2 archive kept as they are and handed to
:func:`~repro.tacc_stats.columnar.encode_host_blocks` when the file
closes — no row or block text is made on that path.

Each collector's scalar ``sample()`` / ``advance()`` is the kernels'
reference, and byte-identity with it is a hard contract, not an
approximation: collectors draw from per-collector RNG streams keyed by
``(seed, node, collector)``, every kernel consumes its stream in scalar
draw order and preserves the scalar float association.  Tests run this
same engine with every collector on the base
:meth:`~repro.tacc_stats.collectors.base.Collector.sample_block` — the
scalar loop — and diff the two archives end to end, text and v2.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Callable

import numpy as np

from repro.cluster.node import Node
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.collectors import Collector, build_collectors
from repro.tacc_stats.collectors.base import BlockContext
from repro.tacc_stats.columnar import encode_host_blocks
from repro.tacc_stats.format import StatsWriter
from repro.telemetry.metrics import get_registry
from repro.workload.applications import RATE_FIELDS
from repro.workload.behavior import JobBehavior

__all__ = ["NodeSynth"]


class _Pending:
    """One queued collector invocation awaiting its block flush."""

    __slots__ = ("t", "dt", "jobids", "mark", "rate_src")

    def __init__(self, t: float, dt: float, jobids: tuple[str, ...],
                 mark: tuple[str, str] | None,
                 rate_src: tuple[JobBehavior, int, float] | None):
        self.t = t
        self.dt = dt
        self.jobids = jobids
        self.mark = mark
        #: (behavior, node_slot, elapsed) the interval's rates come
        #: from, or None for an idle interval.
        self.rate_src = rate_src

    @property
    def tag(self) -> str:
        """The block's job-tag field."""
        return ",".join(self.jobids) if self.jobids else "-"


class _V2Accum:
    """Per-open-file accumulation of synthesized v2 columns."""

    __slots__ = ("writer", "times", "tags", "marks", "values")

    def __init__(self, writer: StatsWriter, n_collectors: int):
        self.writer = writer
        self.times: list[float] = []
        self.tags: list[str] = []
        self.marks: list[tuple[int, str, str]] = []
        self.values: list[list[np.ndarray]] = [
            [] for _ in range(n_collectors)
        ]


class NodeSynth:
    """One node's batched collector suite: the job lifecycle
    (``begin_job`` / ``end_job`` / ``sample``) plus an explicit
    :meth:`flush` the driver calls with its clock: the job state here
    runs ahead of that clock, by up to a day.

    Writes go straight to a :class:`HostArchive` — rotation, schema
    re-registration on fresh files, and (for v2 archives) direct column
    encoding are all handled here.
    """

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator | Callable[[str], np.random.Generator],
        archive: HostArchive,
        lustre_mounts: tuple[str, ...] = ("scratch", "work", "share"),
        nfs_mounts: tuple[str, ...] = (),
    ):
        self.node = node
        self.collectors: list[Collector] = build_collectors(
            node, rng, lustre_mounts, nfs_mounts
        )
        self.archive = archive
        self._last_time: float | None = None
        # (jobid, behavior, node_slot, job_start) of the current job.
        self._job: tuple[str, JobBehavior, int, float] | None = None
        self._pending: list[_Pending] = []
        #: The block the clock is inside: (invocations, per-collector
        #: arrays); its rows before ``_released`` are in the archive.
        self._held: tuple[list[_Pending], list[np.ndarray]] | None = None
        self._released = 0
        self._rows_per_sample = sum(len(c.devices) for c in self.collectors)
        self._v2 = archive.archive_format == "v2"
        #: id(writer) -> accumulated columns; the accum holds a strong
        #: reference to its writer (checked with ``is``) so a recycled
        #: id can never alias a rotated-away file.
        self._accums: dict[int, _V2Accum] = {}
        get_registry().counter("synth.nodes").inc()

    # -- job lifecycle -------------------------------------------------------

    def begin_job(self, jobid: str, t: float, behavior: JobBehavior,
                  node_slot: int) -> None:
        """Job launches: queue the baseline ``%begin`` sample — the row
        at which :meth:`flush` tells the collectors the job began."""
        if self._job is not None:
            raise RuntimeError(
                f"{self.node.hostname}: job {self._job[0]} still active"
            )
        self._queue(t, jobids=(jobid,), mark=("begin", jobid))
        self._job = (jobid, behavior, node_slot, t)

    def end_job(self, jobid: str, t: float) -> None:
        """Job leaves this node: queue the final ``%end`` sample."""
        if self._job is None or self._job[0] != jobid:
            raise RuntimeError(
                f"{self.node.hostname}: end_job({jobid}) but current is "
                f"{self._job[0] if self._job else None}"
            )
        self._queue(t, jobids=(jobid,), mark=("end", jobid))
        self._job = None

    def sample(self, t: float) -> None:
        """Periodic (cron) invocation."""
        jobids = (self._job[0],) if self._job else ()
        self._queue(t, jobids=jobids, mark=None)

    @property
    def rows_held(self) -> int:
        """Value rows materialized and not yet released to the archive."""
        if self._held is None:
            return 0
        return (len(self._held[0]) - self._released) * self._rows_per_sample

    # -- queueing -----------------------------------------------------------

    def _queue(self, t: float, jobids: tuple[str, ...],
               mark: tuple[str, str] | None) -> None:
        if self._last_time is not None and t < self._last_time:
            raise ValueError(
                f"{self.node.hostname}: sample time moved backwards "
                f"({t} < {self._last_time})"
            )
        dt = 0.0 if self._last_time is None else t - self._last_time
        # A begin-mark sample accounts the *previous* interval (idle, or
        # a job that already emitted its end sample).
        if self._job is None:
            src = None
        else:
            _jobid, behavior, slot, start = self._job
            ref = self._last_time if self._last_time is not None else t
            src = (behavior, slot, max(ref - start, 0.0))
        self._pending.append(_Pending(t, dt, jobids, mark, src))
        self._last_time = t

    # -- block materialization ----------------------------------------------

    def flush(self, until: float) -> None:
        """Release every queued row with ``t <= until`` to the archive.
        With no block held the whole queue goes through the batched
        kernels, once; rows past *until* stay held — invocations and
        ``[T, devices, values]`` arrays, never text — for later calls to
        release, and reach no file or row counter before.  A block must
        be out before the next is queued."""
        if self._held is None:
            if not self._pending:
                return
            self._held = self._materialize()
            self._released = 0
        pending, vals_by_collector = self._held
        i0 = self._released
        i1 = bisect_right(pending, until, lo=i0, key=attrgetter("t"))
        if i1 > i0:
            self._write_runs(pending, vals_by_collector, i0, i1)
            self._released = i1
            registry = get_registry()
            registry.counter("synth.samples").inc(i1 - i0)
            registry.counter("synth.rows").inc(
                (i1 - i0) * self._rows_per_sample)
        if i1 == len(pending):
            self._held = None

    def _materialize(self) -> tuple[list[_Pending], list[np.ndarray]]:
        """Every queued invocation through the kernels, as one block."""
        pending, self._pending = self._pending, []
        n = len(pending)

        times = np.array([p.t for p in pending], dtype=np.float64)
        dts = np.array([p.dt for p in pending], dtype=np.float64)
        idle = np.array([p.rate_src is None for p in pending], dtype=bool)
        rates = np.zeros((n, len(RATE_FIELDS)), dtype=np.float64)
        # Group job rows by their (behavior, slot) source: one group
        # per job that ran on this node during the block.
        groups: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(pending):
            if p.rate_src is not None:
                behavior, slot, _ = p.rate_src
                groups.setdefault((id(behavior), slot), []).append(i)
        for rows in groups.values():
            behavior, slot, _ = pending[rows[0]].rate_src
            elapsed = np.array([pending[i].rate_src[2] for i in rows])
            steps = behavior.steps_of(elapsed)
            rates[rows] = behavior.node_rates_block(steps, slot)

        block = BlockContext(
            times=times, dts=dts, rates=rates, idle=idle,
            jobids=tuple(p.jobids for p in pending),
            begins=tuple((i, p.mark[1], p.t) for i, p in enumerate(pending)
                         if p.mark is not None and p.mark[0] == "begin"),
        )
        get_registry().counter("synth.chunks").inc()
        return pending, [c.sample_block(block) for c in self.collectors]

    def _render_rows(self, vals_by_collector: list[np.ndarray],
                     lo: int, hi: int) -> list[list[str]]:
        """Every (collector, device) row stream of rows ``[lo, hi)`` as
        text lines, in bulk: uint64 .tolist() yields Python ints whose
        str() matches the scalar writer's str(int(v)) exactly."""
        line_lists: list[list[str]] = []
        for c, vals in zip(self.collectors, vals_by_collector):
            for d, dev in enumerate(c.devices):
                prefix = f"{c.type_name} {dev} "
                line_lists.append([
                    prefix + " ".join(map(str, row)) + "\n"
                    for row in vals[lo:hi, d, :].tolist()
                ])
        return line_lists

    def _write_runs(self, pending: list[_Pending],
                    vals_by_collector: list[np.ndarray],
                    lo: int, hi: int) -> None:
        """Write block rows ``[lo, hi)`` to the archive, splitting the run
        at rotation-segment boundaries (each segment is its own file).  A
        text archive gets the rendered blocks; a v2 archive gets no
        text at all — the columns are kept for the file's close."""
        rot = self.archive.rotate_seconds
        hostname = self.node.hostname
        line_lists = ([] if self._v2
                      else self._render_rows(vals_by_collector, lo, hi))
        i0 = lo
        while i0 < hi:
            seg = int(pending[i0].t // rot)
            i1 = i0 + 1
            while i1 < hi and int(pending[i1].t // rot) == seg:
                i1 += 1
            w = self.archive.writer(hostname, pending[i0].t)
            # Rotation starts a fresh file with its own header: its
            # schemas are registered again.
            if self.collectors[0].schema.type_name not in w.schemas:
                for c in self.collectors:
                    w.register_schema(c.schema)
            parts: list[str] = []
            if self._v2:
                self._accumulate_v2(w, pending, i0, i1, vals_by_collector)
            else:
                for i in range(i0, i1):
                    p = pending[i]
                    parts.append(f"{int(p.t)} {p.tag}\n")
                    if p.mark is not None:
                        parts.append(f"%{p.mark[0]} {p.mark[1]}\n")
                    for lines in line_lists:
                        parts.append(lines[i - lo])
            # With no parts the writer still flushes its header and
            # enforces monotonic time.
            w.append_rendered(pending[i0].t, pending[i1 - 1].t,
                              "".join(parts))
            i0 = i1

    # -- direct v2 encoding --------------------------------------------------

    def _accumulate_v2(self, w: StatsWriter, pending: list[_Pending],
                       i0: int, i1: int,
                       vals_by_collector: list[np.ndarray]) -> None:
        accum = self._accums.get(id(w))
        if accum is None or accum.writer is not w:
            accum = self._accums[id(w)] = _V2Accum(
                w, len(self.collectors))
            self.archive.set_v2_encoder(self.node.hostname, self._encode_v2)
        base = len(accum.times)
        for off, p in enumerate(pending[i0:i1]):
            # begin_block serializes int(t), so the re-parsed text path
            # would store float(int(t)) — match it exactly.
            accum.times.append(float(int(p.t)))
            accum.tags.append(p.tag)
            if p.mark is not None:
                accum.marks.append((base + off, p.mark[0], p.mark[1]))
        # A file owns its rows unless it took the block whole: a view of
        # rows released from a block that feeds other files, or is still
        # held, would pin the whole block until this file closes.
        whole = i0 == 0 and i1 == len(pending)
        for ci, vals in enumerate(vals_by_collector):
            accum.values[ci].append(vals if whole else vals[i0:i1].copy())

    def _encode_v2(self, writer: StatsWriter) -> tuple[bytes, int] | None:
        """Archive close callback: encode this file's accumulated
        columns to ``(v2 bytes, text_bytes)``; None (fall back to the
        writer's text) when the file was not produced by this engine."""
        accum = self._accums.pop(id(writer), None)
        if accum is None or accum.writer is not writer or not accum.times:
            return None
        values = [
            chunks[0] if len(chunks) == 1
            else np.concatenate(chunks, axis=0)
            for chunks in accum.values
        ]
        return encode_host_blocks(
            hostname=writer.hostname,
            properties=writer.properties,
            schemas=[c.schema for c in self.collectors],
            devices_by_type=[c.devices for c in self.collectors],
            times=np.array(accum.times, dtype=np.float64),
            tags=accum.tags,
            marks=accum.marks,
            values_by_type=values,
        )
