"""Metric metadata registry.

The paper's §4.2 defines eight key metrics chosen as "the smallest
independent set of metrics that describe the execution behavior of the job
mix"; ``KEY_METRICS`` (re-exported from the summarizer, which owns the
storage keys) lists them in radar-chart order.  This module adds display
metadata and the system-series naming used by the time-series analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ingest.vocabulary import KEY_METRICS, SUMMARY_METRICS

__all__ = ["MetricInfo", "METRIC_INFO", "KEY_METRICS", "SERIES_NAMES"]


@dataclass(frozen=True)
class MetricInfo:
    """Display metadata for one job-level metric."""

    name: str
    label: str
    unit: str
    description: str
    lower_is_better: bool = False


METRIC_INFO: dict[str, MetricInfo] = {
    m.name: m
    for m in [
        MetricInfo(
            "cpu_idle", "CPU idle", "fraction",
            "Fraction of CPU time not used by the job in user space or by "
            "the system.", lower_is_better=True,
        ),
        MetricInfo("cpu_user", "CPU user", "fraction",
                   "Fraction of CPU time in user space."),
        MetricInfo("cpu_sys", "CPU system", "fraction",
                   "Fraction of CPU time in the kernel."),
        MetricInfo("cpu_flops", "FLOPS", "GF/s/node",
                   "Floating-point rate from the hardware counters "
                   "(SSE FLOPS on AMD; FP_COMP_OPS-derived on Intel)."),
        MetricInfo("mem_used", "Memory used", "GB/node",
                   "Per-node memory used, including OS buffer/page cache."),
        MetricInfo("mem_used_max", "Memory used (max)", "GB/node",
                   "Peak observed memory over all nodes and samples."),
        MetricInfo("io_scratch_write", "Scratch write", "MB/s/node",
                   "Write rate to the purged, large-quota Lustre scratch."),
        MetricInfo("io_scratch_read", "Scratch read", "MB/s/node",
                   "Read rate from Lustre scratch."),
        MetricInfo("io_work_write", "Work write", "MB/s/node",
                   "Write rate to the non-purged, 200 GB-quota Lustre work."),
        MetricInfo("io_work_read", "Work read", "MB/s/node",
                   "Read rate from Lustre work."),
        MetricInfo("io_share_write", "Share write", "MB/s/node",
                   "Write rate to the shared Lustre mount."),
        MetricInfo("io_share_read", "Share read", "MB/s/node",
                   "Read rate from the shared Lustre mount."),
        MetricInfo("net_ib_tx", "IB transmit", "MB/s/node",
                   "InfiniBand port transmit rate (MPI + Lustre)."),
        MetricInfo("net_ib_rx", "IB receive", "MB/s/node",
                   "InfiniBand port receive rate."),
        MetricInfo("net_lnet_tx", "lnet transmit", "MB/s/node",
                   "Lustre networking transmit rate."),
        MetricInfo("net_lnet_rx", "lnet receive", "MB/s/node",
                   "Lustre networking receive rate."),
    ]
}

_missing = set(SUMMARY_METRICS) - set(METRIC_INFO)
if _missing:  # pragma: no cover - import-time schema guard
    raise RuntimeError(f"metrics without registry info: {_missing}")

#: Canonical system-series names stored in the warehouse.
SERIES_NAMES: dict[str, str] = {
    "active_nodes": "count of up nodes (Figure 8)",
    "flops_tf": "system FLOPS in TF (Figures 9/10)",
    "mem_used_gb_per_node": "mean memory per active node, GB (Figure 11)",
    "cpu_idle_frac": "system CPU idle fraction",
    "cpu_user_frac": "system CPU user fraction",
    "cpu_sys_frac": "system CPU system fraction",
    "io_scratch_write_mb": "aggregate scratch write, MB/s (Figure 7c)",
    "io_work_write_mb": "aggregate work write, MB/s (Figure 7c)",
    "io_share_write_mb": "aggregate share write, MB/s (Figure 7c)",
    "net_ib_tx_mb": "mean per-node IB transmit, MB/s",
    "busy_nodes": "count of nodes running jobs",
}
