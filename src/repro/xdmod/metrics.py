"""Metric names for the analyses.

The paper's §4.2 defines eight key metrics chosen as "the smallest
independent set of metrics that describe the execution behavior of the job
mix"; ``KEY_METRICS`` (re-exported from the vocabulary, whose
:data:`~repro.ingest.vocabulary.METRICS` table also holds every job
metric's label, unit and description) lists them in radar-chart order.
This module adds the system-series naming used by the time-series
analyses.
"""

from __future__ import annotations

from repro.ingest.vocabulary import KEY_METRICS

__all__ = ["KEY_METRICS", "SERIES_NAMES"]


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
