"""The SUPReMM "realm": XDMoD's generic dimension × statistic interface.

XDMoD's analysis surface is a catalog of *dimensions* (group-bys) and
*statistics* (aggregates) from which stakeholders compose standard and
custom reports (§4.3: "a powerful and flexible analysis interface that has
many analyses reports preprogrammed and also the option ... to define
custom reports").  This module is that catalog: every chart in the
stakeholder reports can be expressed as ``realm.aggregate(dimension,
statistic)``, and users can register custom statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ingest.vocabulary import SUMMARY_METRICS
from repro.xdmod.query import DIMENSIONS, JobQuery

__all__ = ["Statistic", "SupremmRealm"]


@dataclass(frozen=True)
class Statistic:
    """One aggregate: a label plus a function of a (filtered) JobQuery."""

    name: str
    label: str
    unit: str
    compute: Callable[[JobQuery], float]


def _builtin_statistics() -> dict[str, Statistic]:
    stats: dict[str, Statistic] = {}

    def add(name: str, label: str, unit: str,
            fn: Callable[[JobQuery], float]) -> None:
        stats[name] = Statistic(name, label, unit, fn)

    add("job_count", "Number of jobs", "jobs", lambda q: float(len(q)))
    add("node_hours", "Node hours", "node-hours", lambda q: q.node_hours)
    add("avg_nodes", "Mean job size", "nodes",
        lambda q: float(q.column("nodes").mean()))
    add("avg_wall_hours", "Mean wall time", "hours",
        lambda q: float(
            (q.column("end_time") - q.column("start_time")).mean() / 3600.0
        ))
    add("avg_wait_hours", "Mean queue wait", "hours",
        lambda q: float(
            (q.column("start_time") - q.column("submit_time")).mean() / 3600.0
        ))
    add("failure_rate", "Abnormal-exit fraction", "fraction",
        lambda q: float((q.column("exit_status") != "completed").mean()))
    for m in SUMMARY_METRICS:
        add(
            f"avg_{m}",
            f"Weighted mean {m}",
            "native",
            (lambda metric: lambda q: q.weighted_mean(metric))(m),
        )
    add("wasted_node_hours", "Idle (wasted) node hours", "node-hours",
        lambda q: q.node_hours * q.weighted_mean("cpu_idle"))
    return stats


class SupremmRealm:
    """Dimension × statistic aggregation over one system."""

    def __init__(self, query: JobQuery):
        self.query = query
        self._stats = _builtin_statistics()

    @property
    def dimensions(self) -> tuple[str, ...]:
        return DIMENSIONS

    @property
    def statistics(self) -> tuple[str, ...]:
        return tuple(sorted(self._stats))

    def register_statistic(self, stat: Statistic) -> None:
        """Add a custom statistic (the paper's "custom reports")."""
        if stat.name in self._stats:
            raise ValueError(f"statistic {stat.name!r} already registered")
        self._stats[stat.name] = stat

    def aggregate(
        self,
        dimension: str,
        statistic: str,
        filters: dict | None = None,
        limit: int | None = None,
    ) -> list[tuple[str, float]]:
        """``(group, value)`` pairs ordered by descending node-hours."""
        if dimension not in DIMENSIONS:
            raise ValueError(f"unknown dimension {dimension!r}")
        stat = self._stats.get(statistic)
        if stat is None:
            raise ValueError(
                f"unknown statistic {statistic!r}; known: {self.statistics}"
            )
        q = self.query.filter(**filters) if filters else self.query
        groups = q.group_by(dimension, metrics=())
        out: list[tuple[str, float]] = []
        for g in groups[: limit if limit else len(groups)]:
            sub = q.filter(**{dimension: g.key})
            out.append((g.key, stat.compute(sub)))
        return out

    def value(self, statistic: str, filters: dict | None = None) -> float:
        """A single aggregate over the (optionally filtered) system."""
        stat = self._stats.get(statistic)
        if stat is None:
            raise ValueError(f"unknown statistic {statistic!r}")
        q = self.query.filter(**filters) if filters else self.query
        return stat.compute(q)
