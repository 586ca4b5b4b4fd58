"""The per-node TACC_Stats daemon.

Mirrors the original tool's invocation discipline (paper §3):

* at **job begin** — reprogram the performance counters, then record a
  baseline sample tagged ``%begin jobid``;
* **periodically** (cron, every 10 minutes, aligned across the cluster) —
  read all collectors without reprogramming anything;
* at **job end** — record a final sample tagged ``%end jobid``.

Counter increments over an interval are driven by the node state that
prevailed *during* that interval, so a sample taken at job begin still
accounts the preceding idle time correctly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cluster.node import Node
from repro.tacc_stats.collectors import (
    Collector,
    SampleContext,
    build_collectors,
)
from repro.tacc_stats.format import StatsWriter
from repro.util.timeutil import format_epoch
from repro.workload.behavior import JobBehavior

__all__ = ["TaccStatsDaemon", "SampleContext"]


class TaccStatsDaemon:
    """One node's collector suite plus serialization and job tracking.

    Parameters
    ----------
    node:
        The node being measured.
    rng:
        Measurement-noise source for this node: a shared generator, or a
        stream factory ``name -> Generator`` giving every collector its
        own stream keyed by ``(seed, node, collector)`` (what the
        replay paths pass, and what the vectorized synthesis engine
        requires for byte-identity with this scalar path).
    writer:
        Either a fixed :class:`StatsWriter` or a factory ``(time) ->
        StatsWriter`` (the archive's rotating provider).  A new writer from
        the factory gets this daemon's schemas registered automatically.
    lustre_mounts:
        Mount names the llite collector reports.
    """

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator | Callable[[str], np.random.Generator],
        writer: StatsWriter | Callable[[float], StatsWriter],
        lustre_mounts: tuple[str, ...] = ("scratch", "work", "share"),
        nfs_mounts: tuple[str, ...] = (),
    ):
        self.node = node
        self.collectors: list[Collector] = build_collectors(
            node, rng, lustre_mounts, nfs_mounts
        )
        self._writer_arg = writer
        self._last_time: float | None = None
        # (jobid, behavior, node_slot, job_start) of the current job.
        self._job: tuple[str, JobBehavior, int, float] | None = None
        self.samples_taken = 0

    # -- writer plumbing ----------------------------------------------------

    def _writer_at(self, t: float) -> StatsWriter:
        w = self._writer_arg(t) if callable(self._writer_arg) else self._writer_arg
        # Identity tracking (id()) is unsafe here: a rotated-away writer
        # can be garbage collected and its address reused by the next
        # day's writer.  The writer's own schema registry is the truth.
        if self.collectors[0].schema.type_name not in w.schemas:
            for c in self.collectors:
                w.register_schema(c.schema)
        return w

    # -- job lifecycle --------------------------------------------------------

    def begin_job(self, jobid: str, t: float, behavior: JobBehavior,
                  node_slot: int) -> None:
        """Job launches on this node: reprogram PMCs, record baseline."""
        if self._job is not None:
            raise RuntimeError(
                f"{self.node.hostname}: job {self._job[0]} still active"
            )
        for c in self.collectors:
            c.on_job_begin(jobid, t)
        # The baseline sample accounts the preceding (idle) interval, and
        # is tagged with the new job so downstream matching sees a sample
        # at the exact start time.
        self._emit(t, jobids=(jobid,), mark=("begin", jobid))
        self._job = (jobid, behavior, node_slot, t)

    def end_job(self, jobid: str, t: float) -> None:
        """Job leaves this node: record final sample tagged ``%end``."""
        if self._job is None or self._job[0] != jobid:
            raise RuntimeError(
                f"{self.node.hostname}: end_job({jobid}) but current is "
                f"{self._job[0] if self._job else None}"
            )
        self._emit(t, jobids=(jobid,), mark=("end", jobid))
        self._job = None

    def sample(self, t: float) -> None:
        """Periodic (cron) invocation."""
        jobids = (self._job[0],) if self._job else ()
        self._emit(t, jobids=jobids, mark=None)

    # -- internals -------------------------------------------------------------

    def _interval_rates(self, t: float):
        """Rates prevailing over [last_time, t] (None = idle interval)."""
        if self._job is None:
            return None
        jobid, behavior, slot, start = self._job
        ref = self._last_time if self._last_time is not None else t
        elapsed = max(ref - start, 0.0)
        return behavior.node_rates_at(elapsed, slot)

    def _emit(self, t: float, jobids: tuple[str, ...],
              mark: tuple[str, str] | None) -> None:
        if self._last_time is not None and t < self._last_time:
            raise ValueError(
                f"{self.node.hostname}: sample time moved backwards "
                f"({t} < {self._last_time})"
            )
        dt = 0.0 if self._last_time is None else t - self._last_time
        # A begin-mark sample accounts the *previous* interval, which was
        # idle (or a different job that already emitted its end sample).
        rates = self._interval_rates(t)
        ctx = SampleContext(time=t, dt=dt, rates=rates, jobids=jobids)
        writer = self._writer_at(t)
        writer.begin_block(t, jobids)
        if mark is not None:
            writer.write_mark(*mark)
        for c in self.collectors:
            for device, values in c.sample(ctx):
                writer.write_row(c.type_name, device, values)
        self._last_time = t
        self.samples_taken += 1

    @property
    def current_jobid(self) -> str | None:
        return self._job[0] if self._job else None

    def header_properties(self, boot_time: float = 0.0) -> dict[str, str]:
        """Standard ``$``-property block for this node's files."""
        hw = self.node.hardware
        return {
            "uname": f"Linux x86_64 2.6.18-194 {hw.processor.model.replace(' ', '_')}",
            "uptime": str(int(max(0.0, (self._last_time or 0.0) - boot_time))),
            "cores": str(hw.cores),
            "booted": format_epoch(boot_time),
        }
