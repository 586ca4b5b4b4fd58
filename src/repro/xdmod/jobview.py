"""Per-job drill-down: the SUPReMM "job viewer".

TACC_Stats' defining feature is that samples are "tagged with a batch job
id to enable offline job-by-job profile analysis" (§3).  This module does
that analysis for a single job from a host's decoded files: per-interval
series of every job metric, per-host comparison (is one node the
straggler?), and a rendered text timeline.

A series is the job summary's own metric, interval by interval: the
job's block *k* is retagged as belonging to intervals *k − 1* and *k*,
and the ingest fold and partial kernel
(:mod:`repro.ingest.columnar_scan`) reduce every interval as they
reduce a job — one formula per :data:`~repro.ingest.vocabulary.METRICS`
row, the PMC guard and the share→nfs fallback included.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from repro.ingest.columnar_scan import _HostFold, host_partials
from repro.ingest.vocabulary import METRICS
from repro.tacc_stats.types import HostColumns
from repro.util.tables import render_kv
from repro.util.textchart import series_text

__all__ = ["JobTimeline", "job_timeline"]


@dataclass
class JobTimeline:
    """Per-interval metric series of one job on one or more hosts.

    ``series[name]`` (a :data:`METRICS` name) has one row per host that
    provides the metric and a column per interval; ``times`` holds the
    interval midpoints.
    """

    jobid: str
    hostnames: tuple[str, ...]
    times: np.ndarray
    series: dict[str, np.ndarray]

    @property
    def n_intervals(self) -> int:
        return self.times.size

    def host_mean(self, name: str) -> np.ndarray:
        """Across-host mean series for one quantity."""
        return self.series[name].mean(axis=0)

    def straggler(self, name: str = "cpu_user") -> tuple[str, float]:
        """(hostname, relative deviation) of the most deviant host —
        load-imbalance debugging, a classic job-viewer use."""
        per_host = self.series[name].mean(axis=1)
        overall = per_host.mean()
        if overall == 0:
            raise ValueError(f"no signal in {name}")
        idx = int(np.argmax(np.abs(per_host - overall)))
        return self.hostnames[idx], float(per_host[idx] / overall - 1.0)

    def render(self) -> str:
        """Text rendering: one sparkline per quantity (host means)."""
        lines = [render_kv({
            "job": self.jobid,
            "hosts": len(self.hostnames),
            "intervals": self.n_intervals,
            "window": f"{self.times[0]:.0f} .. {self.times[-1]:.0f}",
        }, title=f"Job timeline — {self.jobid}")]
        width = max(len(n) for n in self.series)
        for name, mat in self.series.items():
            lines.append(series_text(self.times, mat.mean(axis=0),
                                     label=f"{name:<{width}}", fmt=".2f"))
        return "\n".join(lines)


def _host_series(jobid: str, days: list[HostColumns],
                 ) -> tuple[np.ndarray, dict[str, np.ndarray]] | None:
    """Interval midpoints and per-metric series of *jobid* on one host
    (its *days*, any order), or None when the host has < 2 of its
    samples.  A metric is left out when an interval lacks it."""
    spots = [(i, b) for i, day in enumerate(days)
             for b, jobids in enumerate(day.block_jobids()) if jobid in jobids]
    if len(spots) < 2:
        return None
    times = np.array([days[i].times[b] for i, b in spots])
    order = np.argsort(times, kind="stable")
    times, n = times[order], len(spots) - 1
    tags = [["-"] * len(day.times) for day in days]
    for k, at in enumerate(order.tolist()):
        i, b = spots[at]
        tags[i][b] = ",".join(str(j) for j in (k - 1, k) if 0 <= j < n)
    fold = _HostFold()
    fold.add_days([replace(
        day, tags=np.arange(len(day.times)), jobid_tags=day_tags, marks=[])
        for day, day_tags in zip(days, tags)])
    partials = host_partials(days[0].hostname, fold.states)
    intervals = [partials[str(k)].metrics if str(k) in partials else {}
                 for k in range(n)]
    series = {metric: np.array([got[metric] for got in intervals])
              for metric in METRICS
              if all(metric in got for got in intervals)}
    return 0.5 * (times[:-1] + times[1:]), series


def job_timeline(jobid: str, days: Iterable[HostColumns]) -> JobTimeline:
    """Build the drill-down timeline of one job from its hosts' decoded
    files (a host's rotated files are read as one stream).

    Hosts whose streams lack a quantity (e.g. foreign PMCs) are skipped
    for that quantity only; at least one host must provide each series.
    """
    by_host: dict[str, list[HostColumns]] = {}
    for day in days:
        by_host.setdefault(day.hostname, []).append(day)
    if not by_host:
        raise ValueError("no host data")
    per_host: list[tuple[str, np.ndarray, dict]] = []
    for hostname, host_days in by_host.items():
        # Streams that never carried the job (or saw only its begin
        # sample) are simply not part of this job's timeline.
        got = _host_series(jobid, host_days)
        if got is not None:
            per_host.append((hostname, *got))
    if not per_host:
        raise ValueError(f"job {jobid}: no host stream with >= 2 samples")

    # Align on the shortest common interval count (a crashed host may
    # have fewer samples).
    n = min(mids.size for _, mids, _ in per_host)
    times = per_host[0][1][:n]

    series: dict[str, np.ndarray] = {}
    for name in METRICS:
        rows = [s[name][:n] for _, _, s in per_host if name in s]
        if rows:
            series[name] = np.vstack(rows)
    if not series:
        raise ValueError(f"job {jobid}: no extractable series")
    return JobTimeline(
        jobid=jobid,
        hostnames=tuple(h for h, _, _ in per_host),
        times=times,
        series=series,
    )
