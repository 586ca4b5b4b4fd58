"""The per-job metric vocabulary and summary row: what the warehouse
stores and every reader of it names.

A leaf module (standard library only).  The write side produces
:class:`JobSummary` rows (:mod:`repro.ingest.summarize`, which
re-exports these names); the read side — warehouse, snapshot, query,
reports, federation, service — needs only their names and shape, and
importing them from here keeps a serving or reporting process clear of
the collectors, parser and workload model that *computing* a summary
needs.

:data:`METRICS` is the one metric table.  The ingest kernel
(:func:`repro.ingest.columnar_scan.host_partials`) is the only code that
turns its rows into numbers, for a job summary and, interval by
interval, for the job view (:mod:`repro.xdmod.jobview`) alike.  It holds
the paper's eight key metrics (§4.2, ``KEY_METRICS``) plus the
supporting metrics the system-level reports need (cpu_user / cpu_sys for
Figure 7b, reads and the share mount for Figure 7c, rx sides of the
networks).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["METRICS", "Metric", "SUMMARY_METRICS", "KEY_METRICS",
           "JobSummary"]


@dataclass(frozen=True)
class Metric:
    """One job-level metric: its counters, its reduction, its display.

    ``type`` is a TACC_Stats record type (``"pmc"``: whichever PMC type
    the host declares); ``keys`` are its columns, summed over its
    devices or read on ``device`` alone.  ``reduce`` is ``"delta"`` (each
    key's first→last counter delta ``* scale / seconds``, the keys added
    left to right), ``"chain"`` (the same, the delta accumulated block
    to block: a narrow counter may wrap more than once over a job),
    ``"cpu_fraction"`` (the keys' rates added left to right, over the
    rate of all cpu time) or ``"gauge_mean"`` / ``"gauge_max"`` (the
    time mean / peak of the per-block device sum, ``* scale``; merged
    across hosts by mean / max, every other metric by mean).  The value
    is then divided by each of ``divisors`` in order.  ``fallback`` is
    the type whose device sum stands in when ``device`` gives no value
    (the "share" slot is Lustre on Ranger, the NFS home on Lonestar4).
    ``guard``: a PMC control register holding a code TACC_Stats never
    programs poisons the metric for the whole job, since the same batch
    script reprogrammed every node.  The kernel, which knows the
    collectors, corrects Intel's ``FP_COMP_OPS`` over-count.

    Units: fractions for cpu_*, GF/s/node for cpu_flops, GB/node for
    memory, MB/s/node for I/O and network.  Every mean is time-weighted
    over the job's samples and node-averaged, matching the paper's
    node-hour weighting when aggregated (each node of a job contributes
    equally for the same wall window).
    """

    type: str
    keys: tuple[str, ...]
    reduce: str
    label: str
    unit: str
    description: str
    device: str | None = None
    fallback: str | None = None
    scale: float = 1.0
    divisors: tuple[float, ...] = ()
    guard: bool = False
    lower_is_better: bool = False


_KB, _GB = 1024, 1024**3  # repro.util.units' KB and GB (a leaf imports none)


def _mount(mount: str, op: str, what: str) -> Metric:
    return Metric("llite", (f"{op}_bytes",), "delta", f"{mount.title()} {op}",
                  "MB/s/node", what, device=mount, divisors=(1e6,),
                  fallback="nfs" if mount == "share" else None)


#: Every job-level metric, in warehouse order.
METRICS: dict[str, Metric] = {
    "cpu_idle": Metric(
        "cpu", ("idle",), "cpu_fraction", "CPU idle", "fraction",
        "Fraction of CPU time not used by the job in user space or by "
        "the system.", lower_is_better=True),
    "cpu_user": Metric("cpu", ("user", "nice"), "cpu_fraction", "CPU user",
                       "fraction", "Fraction of CPU time in user space."),
    "cpu_sys": Metric("cpu", ("system", "irq", "softirq"), "cpu_fraction",
                      "CPU system", "fraction",
                      "Fraction of CPU time in the kernel."),
    "cpu_flops": Metric(
        "pmc", ("ctr0",), "delta", "FLOPS", "GF/s/node",
        "Floating-point rate from the hardware counters "
        "(SSE FLOPS on AMD; FP_COMP_OPS-derived on Intel).",
        divisors=(1e9,), guard=True),
    "mem_used": Metric(
        "mem", ("MemUsed",), "gauge_mean", "Memory used", "GB/node",
        "Per-node memory used, including OS buffer/page cache.",
        scale=_KB, divisors=(_GB,)),
    "mem_used_max": Metric(
        "mem", ("MemUsed",), "gauge_max", "Memory used (max)", "GB/node",
        "Peak observed memory over all nodes and samples.",
        scale=_KB, divisors=(_GB,)),
    "io_scratch_write": _mount(
        "scratch", "write",
        "Write rate to the purged, large-quota Lustre scratch."),
    "io_scratch_read": _mount("scratch", "read",
                              "Read rate from Lustre scratch."),
    "io_work_write": _mount(
        "work", "write",
        "Write rate to the non-purged, 200 GB-quota Lustre work."),
    "io_work_read": _mount("work", "read", "Read rate from Lustre work."),
    "io_share_write": _mount("share", "write",
                             "Write rate to the shared Lustre mount."),
    "io_share_read": _mount("share", "read",
                            "Read rate from the shared Lustre mount."),
    "net_ib_tx": Metric(
        "ib", ("port_xmit_data",), "chain", "IB transmit", "MB/s/node",
        "InfiniBand port transmit rate (MPI + Lustre).",
        scale=4.0, divisors=(1e6,)),
    "net_ib_rx": Metric(
        "ib", ("port_rcv_data",), "chain", "IB receive", "MB/s/node",
        "InfiniBand port receive rate.", scale=4.0, divisors=(1e6,)),
    "net_lnet_tx": Metric(
        "lnet", ("tx_bytes",), "delta", "lnet transmit", "MB/s/node",
        "Lustre networking transmit rate.", divisors=(1e6,)),
    "net_lnet_rx": Metric(
        "lnet", ("rx_bytes",), "delta", "lnet receive", "MB/s/node",
        "Lustre networking receive rate.", divisors=(1e6,)),
}

SUMMARY_METRICS: tuple[str, ...] = tuple(METRICS)

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
        unknown = self.metrics.keys() - METRICS.keys()
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
