"""Normalized usage profiles — the radar charts of Figures 2, 3 and 5.

A profile divides an entity's node-hour-weighted mean of each key metric
by the facility-wide weighted mean, so "the typical user/application is a
perfect octagon at 1.0": values above one indicate heavier-than-average
use of that resource.

The weighted means behind each profile come from :class:`JobQuery` and
are memoized on the shared warehouse snapshot, so building many profiles
(or the same profile from several reports) computes each facility and
per-entity mean once per warehouse generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ingest.vocabulary import KEY_METRICS
from repro.xdmod.query import JobQuery

__all__ = ["Profile", "UsageProfiler"]


@dataclass(frozen=True)
class Profile:
    """One entity's normalized usage profile."""

    entity: str
    dimension: str
    values: dict[str, float]      # metric -> ratio vs facility average
    raw: dict[str, float]         # metric -> weighted mean (native units)
    node_hours: float
    job_count: int

    def dominant_metric(self) -> str:
        """The metric this entity uses most heavily relative to average."""
        return max(self.values, key=lambda m: self.values[m])

    def anomalous(self, threshold: float = 3.0) -> dict[str, float]:
        """Metrics at least *threshold* times the facility average."""
        return {m: v for m, v in self.values.items() if v >= threshold}


class UsageProfiler:
    """Builds normalized profiles against one system's job mix.

    Parameters
    ----------
    query:
        Base query (already filtered if a sub-population is intended —
        e.g. normalize MD codes against all jobs, as the paper does).
    metrics:
        Metric set; defaults to the paper's eight key metrics.
    """

    def __init__(self, query: JobQuery, metrics: tuple[str, ...] = KEY_METRICS):
        self.query = query
        self.metrics = metrics
        self.facility_means = query.weighted_means(metrics)
        for m, v in self.facility_means.items():
            if v == 0:
                raise ValueError(
                    f"facility mean of {m} is zero; profiles undefined"
                )

    def profile(self, dimension: str, value: str) -> Profile:
        """Normalized profile of one user/app/field/account."""
        sub = self.query.filter(**{dimension: value})
        if len(sub) == 0:
            raise ValueError(f"no jobs for {dimension}={value!r}")
        raw = sub.weighted_means(self.metrics)
        return Profile(
            entity=value,
            dimension=dimension,
            values={m: raw[m] / self.facility_means[m] for m in self.metrics},
            raw=raw,
            node_hours=sub.node_hours,
            job_count=len(sub),
        )

    def top_profiles(self, dimension: str, n: int) -> list[Profile]:
        """Profiles of the *n* heaviest consumers (Figure 2: 5 heavy
        users of Ranger)."""
        return [
            self.profile(dimension, key)
            for key in self.query.top(dimension, n)
        ]

    def compare(self, dimension: str, values: tuple[str, ...]) -> dict[str, Profile]:
        """Side-by-side profiles (Figure 3: NAMD vs AMBER vs GROMACS)."""
        return {v: self.profile(dimension, v) for v in values}
