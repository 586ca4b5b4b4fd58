"""Per-metric job anomaly detection.

A job is anomalous when a metric deviates strongly from the *application's
own* distribution (robust z-score on the median/MAD), not the facility's:
NAMD writing 10 MB/s is strange, WRF writing 10 MB/s is Tuesday.  This is
the report behind "jobs with anomalous or inefficient resource use
patterns" offered to users, developers and support staff (§4.3.1-4.3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ingest.vocabulary import KEY_METRICS
from repro.xdmod.query import JobQuery

__all__ = ["AnomalousJob", "AnomalyDetector"]

#: MAD -> sigma for a normal distribution.
_MAD_SCALE = 1.4826


@dataclass(frozen=True)
class AnomalousJob:
    """One flagged job."""

    jobid: str
    user: str
    app: str
    metric: str
    value: float
    robust_z: float
    baseline_median: float

    @property
    def direction(self) -> str:
        return "high" if self.robust_z > 0 else "low"


class AnomalyDetector:
    """Flags jobs anomalous relative to their application baseline.

    Parameters
    ----------
    query:
        The system's job query.
    metrics:
        Metrics to scan (default: the eight key metrics).
    z_threshold:
        |robust z| above which a job is flagged.
    min_app_jobs:
        Applications with fewer jobs than this are skipped (no baseline).
    """

    def __init__(
        self,
        query: JobQuery,
        metrics: tuple[str, ...] = KEY_METRICS,
        z_threshold: float = 4.0,
        min_app_jobs: int = 10,
    ):
        if z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        self.query = query
        self.metrics = metrics
        self.z_threshold = z_threshold
        self.min_app_jobs = min_app_jobs

    def detect(self) -> list[AnomalousJob]:
        """Scan all applications; returns flags sorted by |z| descending."""
        out: list[AnomalousJob] = []
        apps = np.unique(self.query.column("app"))
        for app in apps:
            sub = self.query.filter(app=str(app))
            if len(sub) < self.min_app_jobs:
                continue
            jobids = sub.column("jobid")
            users = sub.column("user")
            for metric in self.metrics:
                v = sub.column(metric)
                med = float(np.median(v))
                mad = float(np.median(np.abs(v - med))) * _MAD_SCALE
                if mad <= 0:
                    # Degenerate spread: fall back to std, skip if constant.
                    mad = float(v.std())
                    if mad <= 0:
                        continue
                z = (v - med) / mad
                for i in np.nonzero(np.abs(z) >= self.z_threshold)[0]:
                    out.append(AnomalousJob(
                        jobid=str(jobids[i]),
                        user=str(users[i]),
                        app=str(app),
                        metric=metric,
                        value=float(v[i]),
                        robust_z=float(z[i]),
                        baseline_median=med,
                    ))
        out.sort(key=lambda a: -abs(a.robust_z))
        return out

    def by_job(self) -> dict[str, list[AnomalousJob]]:
        """Flags grouped by job id (multi-metric anomalies surface first)."""
        grouped: dict[str, list[AnomalousJob]] = {}
        for a in self.detect():
            grouped.setdefault(a.jobid, []).append(a)
        return dict(
            sorted(grouped.items(), key=lambda kv: -len(kv[1]))
        )
