"""The per-job metric vocabulary and summary row: what the warehouse
stores and every reader of it names.

A leaf module (standard library only).  The write side produces
:class:`JobSummary` rows (:mod:`repro.ingest.summarize`, which
re-exports these names); the read side — warehouse, snapshot, query,
reports, federation, service — needs only their names and shape, and
importing them from here keeps a serving or reporting process clear of
the collectors, parser and workload model that *computing* a summary
needs.

``SUMMARY_METRICS`` is the canonical job-level metric set stored in the
warehouse: the paper's eight key metrics (§4.2, ``KEY_METRICS``) plus
the supporting metrics the system-level reports need (cpu_user /
cpu_sys for Figure 7b, reads and the share mount for Figure 7c, rx sides
of the networks).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SUMMARY_METRICS", "KEY_METRICS", "JobSummary"]

SUMMARY_METRICS: tuple[str, ...] = (
    "cpu_idle",
    "cpu_user",
    "cpu_sys",
    "cpu_flops",
    "mem_used",
    "mem_used_max",
    "io_scratch_write",
    "io_scratch_read",
    "io_work_write",
    "io_work_read",
    "io_share_write",
    "io_share_read",
    "net_ib_tx",
    "net_ib_rx",
    "net_lnet_tx",
    "net_lnet_rx",
)

#: The paper's eight key metrics (§4.2), in radar-chart order.
KEY_METRICS: tuple[str, ...] = (
    "cpu_idle",
    "mem_used",
    "mem_used_max",
    "cpu_flops",
    "io_scratch_write",
    "io_work_write",
    "net_ib_tx",
    "net_lnet_tx",
)


@dataclass(frozen=True)
class JobSummary:
    """One job's reduced metrics.

    ``missing`` lists metrics that could not be computed (e.g. the PMCs
    carried user-programmed events, or a node's file was truncated); those
    keys are absent from ``metrics``.
    """

    jobid: str
    metrics: dict[str, float]
    n_nodes: int
    wall_seconds: float
    n_samples: int
    missing: tuple[str, ...] = ()

    def __post_init__(self):
        unknown = set(self.metrics) - set(SUMMARY_METRICS)
        if unknown:
            raise ValueError(f"job {self.jobid}: unknown metrics {unknown}")
        overlap = set(self.metrics) & set(self.missing)
        if overlap:
            raise ValueError(
                f"job {self.jobid}: metrics both present and missing: {overlap}"
            )

    @property
    def node_hours(self) -> float:
        return self.n_nodes * self.wall_seconds / 3600.0

    def get(self, metric: str, default: float = float("nan")) -> float:
        return self.metrics.get(metric, default)
