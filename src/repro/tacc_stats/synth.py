"""The per-node synthesis engine: the one code that turns a node's
events into archive rows.

:class:`NodeSynth` is TACC_Stats on one node (paper §3: invoked at job
begin, every ten minutes and at job end).  Instead of emitting one text
block per invocation, it queues the invocation metadata (time, job
tags, prevailing rates source, marks) — a whole day of it, whoever
drives, however many jobs begin meanwhile — and the first
:meth:`NodeSynth.flush` that finds a queued row due materializes the
whole queue as one :class:`~repro.tacc_stats.collectors.base.BlockContext`,
calling every collector's batched ``sample_block`` kernel once.  The resulting
``[T, devices, values]`` uint64 arrays are held, and each ``flush(until)``
releases the rows the clock has passed to the open :class:`HostFile` of
their day, as they are.  Rows become bytes only when the archive flushes
or closes the file: an appended v2 unit, or the text a whole day's
columns render to.

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

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from functools import partial
from itertools import groupby
from typing import Callable

import numpy as np

from repro.cluster.node import Node
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.collectors import Collector, build_collectors
from repro.tacc_stats.collectors.base import BlockContext
from repro.tacc_stats.columnar import block_columns, encode_host_blocks
from repro.tacc_stats.format import header_properties
from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.types import HostColumns
from repro.telemetry.metrics import get_registry
from repro.util.timeutil import DAY
from repro.workload.applications import RATE_FIELDS
from repro.workload.behavior import JobBehavior

__all__ = ["HostFile", "NodeSynth"]


class HostFile:
    """One archive file while it is open: its header, how far its
    units reach on disk, and the column chunks of every block released
    to it and not yet written.

    Its blocks become bytes when :class:`HostArchive` flushes or closes
    it — :meth:`encode_v2` appends them as the file's next unit, the
    text :meth:`columns` render to is a text archive's whole file.  A
    fresh file (a new day) carries the whole header again, as the real
    tool does on its daily restart.
    """

    __slots__ = ("hostname", "properties", "schemas", "devices", "times",
                 "tags", "marks", "values", "size", "fingerprint", "_last")

    def __init__(self, hostname: str, schemas: Sequence[TypeSchema],
                 devices_by_type: Sequence[tuple[str, ...]]):
        self.properties = header_properties(hostname, None)
        self.hostname = hostname
        self.schemas = schemas
        self.devices = devices_by_type
        self.times: list[float] = []
        self.tags: list[str] = []
        self.marks: list[tuple[int, str, str]] = []
        self.values: list[list[np.ndarray]] = [[] for _ in schemas]
        #: Bytes of the units on disk, and the last one's fingerprint.
        self.size = 0
        self.fingerprint = ""
        self._last: list[float] = []

    def append(self, times: Sequence[float],
               jobids: Sequence[tuple[str, ...]],
               marks: Iterable[tuple[int, str, str]],
               values_by_type: Sequence[np.ndarray]) -> None:
        """Add a run of blocks: their times and job-id tuples, their
        marks as ``(block in the run, kind, jobid)``, and per type a
        ``[blocks, devices, values]`` uint64 array, which the file
        keeps as given.  A block time before the one ahead of it in
        the file is refused."""
        # The text holds int(t), so its re-parse does too.
        stamps = [float(int(t)) for t in times]
        seq = self._last + stamps
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise ValueError(f"{self.hostname}: non-monotonic block time")
        base = len(self.times)
        self.times += stamps
        self._last = seq[-1:]
        self.tags += [",".join(ids) if ids else "-" for ids in jobids]
        self.marks += [(base + b, kind, jobid) for b, kind, jobid in marks]
        for chunks, vals in zip(self.values, values_by_type):
            chunks.append(np.asarray(vals, dtype=np.uint64))

    def _blocks(self, n: int) -> tuple:
        """The first *n* unwritten blocks as :func:`block_columns` takes
        them, after the hostname, properties and type tables."""
        self.values = [[chunks[0] if len(chunks) == 1
                        else np.concatenate(chunks) if chunks
                        else np.empty((0, len(devs), s.n_values), np.uint64)]
                       for chunks, s, devs in zip(self.values, self.schemas,
                                                  self.devices)]
        return (np.array(self.times[:n], dtype=np.float64), self.tags[:n],
                [m for m in self.marks if m[0] < n],
                [chunks[0][:n] for chunks in self.values])

    def columns(self) -> HostColumns:
        """The unwritten blocks as the columns their bytes decode to."""
        return block_columns(self.hostname, self.properties, self.schemas,
                             self.devices, *self._blocks(len(self.times)))

    def encode_v2(self, before: float = math.inf,
                  until: float | None = None) -> tuple[bytes, int] | None:
        """The unwritten blocks before time *before* as the file's next
        v2 unit (its first: the whole header), with its
        ``text_bytes``; *until* is the flush time the unit records.
        The blocks leave the file; ``None`` when there are none."""
        n = bisect_left(self.times, before)
        if not n:
            return None
        data, text_bytes, self.fingerprint = encode_host_blocks(
            self.hostname, self.properties, self.schemas, self.devices,
            *self._blocks(n), until,
            (self.fingerprint, self.size) if self.size else None)
        self.size += len(data)
        self.times, self.tags = self.times[n:], self.tags[n:]
        self.marks = [(b - n, kind, jobid) for b, kind, jobid in self.marks
                      if b >= n]
        self.values = [[chunks[0][n:].copy()] if self.times else []
                       for chunks in self.values]
        return data, text_bytes


class NodeSynth:
    """One node's batched collector suite: the job lifecycle
    (``begin_job`` / ``end_job`` / ``sample``) plus an explicit
    :meth:`flush` the driver calls with its clock: the job state here
    runs ahead of that clock, by up to a day.

    Released rows go to the :class:`HostFile` the archive has open for
    their day; the archive starts one with this node's suite when the
    day changes.
    """

    def __init__(
        self,
        node: Node,
        stream: Callable[[str], np.random.Generator],
        archive: HostArchive,
        lustre_mounts: tuple[str, ...] = ("scratch", "work", "share"),
        nfs_mounts: tuple[str, ...] = (),
    ):
        self.node = node
        self.collectors: list[Collector] = build_collectors(
            node, stream, lustre_mounts, nfs_mounts
        )
        self.archive = archive
        self._last_time: float | None = None
        # (jobid, behavior, node_slot, job_start) of the current job.
        self._job: tuple[str, JobBehavior, int, float] | None = None
        # The queue, one entry per invocation in each list: its time,
        # job tags and the job whose rates the interval has (None:
        # idle); ``_marks`` holds ``(entry, kind, jobid)`` of the begin
        # and end entries, ``_since`` the invocation before the first
        # entry (None at daemon start).
        self._times: list[float] = []
        self._tags: list[tuple[str, ...]] = []
        self._sources: list[tuple[str, JobBehavior, int, float] | None] = []
        self._marks: list[tuple[int, str, str]] = []
        self._since: float | None = None
        #: The block the clock is inside: (times, tags, marks,
        #: per-collector arrays); its rows before ``_released`` are in
        #: the archive.
        self._held: tuple | None = None
        self._released = 0
        self._rows_per_sample = sum(len(c.devices) for c in self.collectors)
        self._new_file = partial(
            HostFile, node.hostname,
            tuple(c.schema for c in self.collectors),
            tuple(c.devices for c in self.collectors))
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
        if not self._times:
            self._since = self._last_time
        if mark is not None:
            self._marks.append((len(self._times), *mark))
        self._times.append(t)
        self._tags.append(jobids)
        # A begin-mark sample accounts the *previous* interval (idle, or
        # a job that already emitted its end sample).
        self._sources.append(self._job)
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
            if not self._times:
                return
            self._held = self._materialize()
            self._released = 0
        times = self._held[0]
        i0 = self._released
        i1 = bisect_right(times, until, lo=i0)
        if i1 > i0:
            self._write_runs(i0, i1)
            self._released = i1
            registry = get_registry()
            registry.counter("synth.samples").inc(i1 - i0)
            registry.counter("synth.rows").inc(
                (i1 - i0) * self._rows_per_sample)
        if i1 == len(times):
            self._held = None

    def _materialize(self) -> tuple:
        """Every queued invocation through the kernels, as one block:
        ``(times, tags, marks, per-collector arrays)``."""
        times, tags, marks = self._times, self._tags, self._marks
        sources = self._sources
        stamps = np.array(times, dtype=np.float64)
        # Each interval runs from the invocation before it (from itself,
        # dt 0, at daemon start).
        before = np.concatenate([
            stamps[:1] if self._since is None else [self._since],
            stamps[:-1]])
        block = BlockContext(
            times=stamps, dts=stamps - before,
            rates=np.zeros((len(times), len(RATE_FIELDS)), dtype=np.float64),
            idle=np.array([src is None for src in sources], dtype=bool),
            jobids=tuple(tags),
            begins=tuple((row, jobid, times[row])
                         for row, kind, jobid in marks if kind == "begin"),
        )
        # One job at a time on a node: each job's entries are one run.
        lo = 0
        for _job, run in groupby(sources, key=id):
            hi = lo + sum(1 for _ in run)
            job = sources[lo]
            if job is not None:
                _jobid, behavior, slot, start = job
                elapsed = np.maximum(before[lo:hi] - start, 0.0)
                block.rates[lo:hi] = behavior.node_rates_block(
                    behavior.steps_of(elapsed), slot)
            lo = hi
        self._times, self._tags, self._sources, self._marks = [], [], [], []
        get_registry().counter("synth.chunks").inc()
        return (times, tags, marks,
                [c.sample_block(block) for c in self.collectors])

    def _write_runs(self, lo: int, hi: int) -> None:
        """Append held rows ``[lo, hi)`` to the archive's open files,
        splitting the run at day boundaries (each day is its own
        file)."""
        times, tags, marks, vals_by_collector = self._held
        i0 = lo
        while i0 < hi:
            day = int(times[i0] // DAY)
            i1 = i0 + 1
            while i1 < hi and int(times[i1] // DAY) == day:
                i1 += 1
            # A file owns its rows unless it took the block whole: a
            # view of rows released from a block that feeds other
            # files, or is still held, would pin the whole block until
            # this file closes.
            whole = i0 == 0 and i1 == len(times)
            file = self.archive.writer(self.node.hostname, times[i0],
                                       self._new_file)
            file.append(
                times[i0:i1], tags[i0:i1],
                [(row - i0, kind, jobid) for row, kind, jobid in marks
                 if i0 <= row < i1],
                [vals if whole else vals[i0:i1].copy()
                 for vals in vals_by_collector])
            i0 = i1
