"""Per-job metric summaries.

The metric names and the :class:`JobSummary` row live in
:mod:`repro.ingest.vocabulary` (a leaf the read side imports without
this module's collectors, parser and workload model) and are
re-exported here.

Summaries are built per host and merged per job, so the ingest engine
can compute :class:`HostJobPartial` values for each host independently
(including in worker processes — partials are small and picklable) and
merge them deterministically with :func:`merge_job_partials`:

    host files ──fold──> {job: scan state} ──> {job: partial}
                                                    (columnar_scan)
    {job: [partials across hosts]} ──merge_job_partials──> JobSummary

:func:`summarize_job_from_rates` is the fast synthesis path used for
large-scale benchmarks, consuming the behaviour model's rate matrix
directly.

The dict reducers here (``_delta_rate`` … :func:`host_job_partials`,
:func:`summarize_job_from_hosts`) compute the same partials from a
:class:`HostData`.  No ingest path calls them: they are the reference
the tests compare :mod:`repro.ingest.columnar_scan` against, which is
why they share no code with it.

A metric is ``missing`` from the merged summary only when *no* host
produced it; a single degraded node (truncated file, absent collector)
no longer discards the values every other node supplied.  The one
exception is a *poisoned* metric — user-reprogrammed performance
counters make ``cpu_flops`` untrustworthy for the whole job, because
the same batch script reprogrammed every node it touched.

Units: fractions for cpu_*, GF/s/node for cpu_flops, GB/node for memory,
MB/s/node for I/O and network.  All "mean" metrics are time-weighted over
the job's samples and node-averaged, matching the paper's node-hour
weighting when aggregated (each node of a job contributes equally for the
same wall window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ingest.vocabulary import KEY_METRICS, SUMMARY_METRICS, JobSummary
from repro.scheduler.job import JobRecord
from repro.tacc_stats.collectors.intel_pmc import FP_OVERCOUNT
from repro.tacc_stats.parser import event_delta
from repro.tacc_stats.types import HostData
from repro.util.units import GB, KB
from repro.workload.applications import RATE_INDEX
from repro.workload.behavior import DerivedRates

__all__ = [
    "SUMMARY_METRICS",
    "KEY_METRICS",
    "HostJobPartial",
    "JobSummary",
    "SummaryError",
    "host_job_partials",
    "merge_job_partials",
    "summarize_job_from_hosts",
    "summarize_job_from_rates",
]


class SummaryError(ValueError):
    """A job has no usable stats to summarize (every node's window was
    empty, truncated away, or quarantined).

    Subclasses :class:`ValueError` for backward compatibility, but the
    pipeline catches *this* type only — a plain ``ValueError`` out of
    the summarize layer (unknown metric keys, present-and-missing
    overlap) is a real bug and must propagate.
    """


# ---------------------------------------------------------------------------
# Per-host partials, and their reference reducers over HostData.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostJobPartial:
    """One host's contribution to one job's summary.

    ``metrics`` holds the metrics this host could compute; ``poisoned``
    names metrics this host invalidates for the *whole job* (currently
    only ``cpu_flops`` under user-reprogrammed PMCs).  Partials are tiny
    and picklable, so worker processes can ship them back to the merge
    step without ever serializing parsed host data.
    """

    hostname: str
    jobid: str
    metrics: dict[str, float]
    poisoned: tuple[str, ...]
    n_blocks: int
    seconds: float


def _delta_rate(host: HostData, blocks, type_name: str, key: str,
                scale: float, seconds: float) -> float | None:
    """Summed per-device counter delta (first→last block) as a rate."""
    schema = host.schemas.get(type_name)
    if schema is None:
        return None
    try:
        col, width = schema.column(key)
    except KeyError:
        # Degraded or older collector build: the type exists but this
        # column does not — the metric is simply absent on this host.
        return None
    first, last = blocks[0], blocks[-1]
    devs_first = first.rows.get(type_name)
    devs_last = last.rows.get(type_name)
    if not devs_first or not devs_last:
        return None
    total = 0
    for dev, v_last in devs_last.items():
        v_first = devs_first.get(dev)
        if v_first is None:
            return None
        total += event_delta(int(v_first[col]), int(v_last[col]), width)
    return total * scale / seconds


def _gauge_stats(host: HostData, blocks, type_name: str, key: str,
                 agg_devices: str = "sum") -> tuple[float, float] | None:
    """(time-mean, max) of a gauge across the job's blocks.

    Gauges are summed (or averaged) across devices per block first.
    """
    schema = host.schemas.get(type_name)
    if schema is None:
        return None
    try:
        col = schema.index_of(key)
    except KeyError:
        return None
    vals = []
    for b in blocks:
        devs = b.rows.get(type_name)
        if not devs:
            continue
        per_dev = np.array([float(v[col]) for v in devs.values()])
        vals.append(per_dev.sum() if agg_devices == "sum" else per_dev.mean())
    if not vals:
        return None
    arr = np.asarray(vals)
    return float(arr.mean()), float(arr.max())


def _flops_rate(host: HostData, blocks, seconds: float) -> float | None:
    """GF/s from whichever PMC type the host carries, None if unusable."""
    if "amd64_pmc" in host.schemas:
        rate = _delta_rate(host, blocks, "amd64_pmc", "ctr0", 1.0, seconds)
        if rate is None:
            return None
        return rate / 1e9
    if "intel_pmc" in host.schemas:
        rate = _delta_rate(host, blocks, "intel_pmc", "ctr0", 1.0, seconds)
        if rate is None:
            return None
        # FP_COMP_OPS over-counts; correct to FLOP/s (the paper does not —
        # it simply declares the two systems incomparable — but storing a
        # corrected value keeps our warehouse internally consistent, and
        # the raw counter remains available in the archive).
        return rate / FP_OVERCOUNT / 1e9
    return None


def _pmc_is_foreign(host: HostData, blocks) -> bool:
    """True when the job's PMC control registers carry non-TACC codes."""
    from repro.tacc_stats.collectors.amd64_pmc import AMD64_EVENT_CODES
    from repro.tacc_stats.collectors.intel_pmc import INTEL_EVENT_CODES

    for type_name, codes in (
        ("amd64_pmc", set(AMD64_EVENT_CODES.values())),
        ("intel_pmc", set(INTEL_EVENT_CODES.values())),
    ):
        schema = host.schemas.get(type_name)
        if schema is None:
            continue
        ctl_cols = [i for i, e in enumerate(schema.entries)
                    if e.key.startswith("ctl")]
        for b in blocks:
            devs = b.rows.get(type_name)
            if not devs:
                continue
            for v in devs.values():
                for c in ctl_cols:
                    # uint64 scalars hash/compare like ints; no int()
                    # conversion needed in this triple loop.
                    if v[c] not in codes:
                        return True
    return False


def _host_partial(host: HostData, jobid: str,
                  blocks: list) -> HostJobPartial | None:
    """One host's metric contributions for one job, or None if unusable."""
    if len(blocks) < 2:
        return None
    seconds = blocks[-1].time - blocks[0].time
    if seconds <= 0:
        return None
    h: dict[str, float] = {}
    poisoned: tuple[str, ...] = ()

    # CPU fractions from per-core centisecond counters.
    parts = {}
    for key in ("user", "system", "idle", "iowait", "irq", "softirq",
                "nice"):
        r = _delta_rate(host, blocks, "cpu", key, 1.0, seconds)
        if r is None:
            parts = None
            break
        parts[key] = r
    if parts is not None:
        total = sum(parts.values())
        if total > 0:
            h["cpu_idle"] = parts["idle"] / total
            h["cpu_user"] = (parts["user"] + parts["nice"]) / total
            h["cpu_sys"] = (
                parts["system"] + parts["irq"] + parts["softirq"]
            ) / total

    # FLOPS.  A user-reprogrammed PMC invalidates the metric for the
    # whole job (the same batch script touched every node), so it is
    # poisoned rather than merely absent on this host.
    if _pmc_is_foreign(host, blocks):
        poisoned = ("cpu_flops",)
    else:
        flops = _flops_rate(host, blocks, seconds)
        if flops is not None:
            h["cpu_flops"] = flops

    # Memory gauges (KB per socket; summed across sockets = node).
    mem = _gauge_stats(host, blocks, "mem", "MemUsed", "sum")
    if mem is not None:
        h["mem_used"] = mem[0] * KB / GB
        h["mem_used_max"] = mem[1] * KB / GB

    # Shared-filesystem per-mount traffic.  scratch/work are always
    # Lustre; the "share" slot is the Lustre share mount on Ranger but
    # the NFS home on Lonestar4, so fall back to the nfs collector
    # (summing its mounts) when llite has no such device.
    for mount in ("scratch", "work", "share"):
        for op, key in (("write", "write_bytes"), ("read", "read_bytes")):
            rate = _mount_delta_rate(host, blocks, "llite", mount, key,
                                     seconds)
            if rate is None and mount == "share":
                rate = _delta_rate(host, blocks, "nfs", key, 1.0, seconds)
            if rate is not None:
                h[f"io_{mount}_{op}"] = rate / 1e6

    # InfiniBand port counters (32-bit words; rollover handled by
    # per-interval accumulation: delta across *consecutive* blocks).
    for direction, key in (("tx", "port_xmit_data"), ("rx", "port_rcv_data")):
        rate = _chained_delta_rate(host, blocks, "ib", key, 4.0, seconds)
        if rate is not None:
            h[f"net_ib_{direction}"] = rate / 1e6

    # lnet.
    for direction, key in (("tx", "tx_bytes"), ("rx", "rx_bytes")):
        rate = _delta_rate(host, blocks, "lnet", key, 1.0, seconds)
        if rate is not None:
            h[f"net_lnet_{direction}"] = rate / 1e6

    return HostJobPartial(
        hostname=host.hostname,
        jobid=jobid,
        metrics=h,
        poisoned=poisoned,
        n_blocks=len(blocks),
        seconds=seconds,
    )


def host_job_partials(
    host: HostData,
    jobids: tuple[str, ...] | None = None,
) -> dict[str, HostJobPartial]:
    """Per-job partial summaries for every job this host's stream tagged.

    The map step of the ingest engine: one pass groups the host's blocks
    by job, then each job's window is reduced independently.  Restrict to
    *jobids* to skip jobs the caller already knows it does not need.
    """
    by_job: dict[str, list] = {}
    wanted = set(jobids) if jobids is not None else None
    for b in host.blocks:
        for jid in b.jobids:
            if wanted is None or jid in wanted:
                by_job.setdefault(jid, []).append(b)
    out: dict[str, HostJobPartial] = {}
    for jid, blocks in by_job.items():
        partial = _host_partial(host, jid, blocks)
        if partial is not None:
            out[jid] = partial
    return out


def merge_job_partials(
    jobid: str,
    partials: list[HostJobPartial],
    wall_seconds: float | None = None,
) -> JobSummary:
    """Reduce per-host partials to the job's summary (deterministic).

    Pass partials in a stable host order — metric means are accumulated
    in list order, so the same partials in the same order produce
    bit-identical floats regardless of which process computed them.
    Each metric is ``np.mean`` (``np.max``: ``mem_used_max``) of its host
    values: one row each of a C-contiguous matrix, summed as 1-D arrays.
    """
    if not partials:
        raise SummaryError(f"job {jobid}: no usable host windows")
    poisoned: set[str] = set()
    for p in partials:
        poisoned.update(p.poisoned)
    vals = {m: [p.metrics[m] for p in partials if m in p.metrics]
            for m in SUMMARY_METRICS if m not in poisoned}
    missing = poisoned | {m for m, v in vals.items() if not v}
    reduced: dict[str, float] = {}
    for n in {len(v) for v in vals.values() if v}:
        names = [m for m, v in vals.items() if len(v) == n]
        grid = np.array([vals[m] for m in names], dtype=np.float64)
        for m, mean, peak in zip(names, grid.mean(axis=1).tolist(),
                                 grid.max(axis=1).tolist()):
            reduced[m] = peak if m == "mem_used_max" else mean
    metrics = {m: reduced[m] for m in vals if m in reduced}
    return JobSummary(
        jobid=jobid,
        metrics=metrics,
        n_nodes=len(partials),
        wall_seconds=wall_seconds if wall_seconds is not None
        else float(np.median([p.seconds for p in partials])),
        n_samples=sum(p.n_blocks for p in partials),
        missing=tuple(sorted(missing)),
    )


def summarize_job_from_hosts(
    jobid: str,
    hosts: list[HostData],
    wall_seconds: float | None = None,
) -> JobSummary:
    """Reduce the parsed stats of all of a job's nodes to one summary.

    Equivalent to mapping :func:`host_job_partials` over *hosts* (in
    order) and reducing with :func:`merge_job_partials`; the ingest
    engine uses those pieces directly so the map step can run in worker
    processes.
    """
    if not hosts:
        raise SummaryError(f"job {jobid}: no host data")
    wanted = (jobid,)
    partials = []
    for host in hosts:
        partial = host_job_partials(host, wanted).get(jobid)
        if partial is not None:
            partials.append(partial)
    return merge_job_partials(jobid, partials, wall_seconds)


def _mount_delta_rate(host: HostData, blocks, type_name: str, device: str,
                      key: str, seconds: float) -> float | None:
    """Counter delta for one specific device of a type, as a rate."""
    schema = host.schemas.get(type_name)
    if schema is None:
        return None
    try:
        col, width = schema.column(key)
    except KeyError:
        # Degraded or older collector build: the type exists but this
        # column does not — the metric is simply absent on this host.
        return None
    dev_first = blocks[0].rows.get(type_name, {}).get(device)
    dev_last = blocks[-1].rows.get(type_name, {}).get(device)
    if dev_first is None or dev_last is None:
        return None
    return event_delta(int(dev_first[col]), int(dev_last[col]),
                       width) / seconds


def _chained_delta_rate(host: HostData, blocks, type_name: str, key: str,
                        scale: float, seconds: float) -> float | None:
    """Counter delta accumulated interval-by-interval.

    Narrow (32-bit) counters can wrap more than once over a whole job but
    at most once per 10-minute interval at physical rates; summing
    per-interval rollover-corrected deltas recovers the true total.  This
    is exactly why TACC_Stats samples periodically rather than only at job
    begin/end.
    """
    schema = host.schemas.get(type_name)
    if schema is None:
        return None
    try:
        col, width = schema.column(key)
    except KeyError:
        # Degraded or older collector build: the type exists but this
        # column does not — the metric is simply absent on this host.
        return None
    total = 0
    for prev, cur in zip(blocks, blocks[1:]):
        devs_prev = prev.rows.get(type_name)
        devs_cur = cur.rows.get(type_name)
        if not devs_prev or not devs_cur:
            return None
        for dev, v_cur in devs_cur.items():
            v_prev = devs_prev.get(dev)
            if v_prev is None:
                return None
            total += event_delta(int(v_prev[col]), int(v_cur[col]), width)
    return total * scale / seconds


# ---------------------------------------------------------------------------
# Fast path: from the behaviour model's rate matrix.
# ---------------------------------------------------------------------------


#: Kernel + daemon memory resident on every node (mirrors the mem
#: collector's base so both summary paths measure the same quantity —
#: the paper's mem_used includes everything the OS holds).
BASE_OS_GB = 1.2


def summarize_job_from_rates(
    record: JobRecord,
    rates: np.ndarray,
    mem_spread_max: float = 1.25,
    mem_capacity_gb: float | None = None,
) -> JobSummary:
    """Summary straight from a (n_samples, n_fields) node-average rate
    matrix — what the text-format path would have produced, minus
    measurement noise.

    ``mem_spread_max`` models the heaviest node's memory relative to the
    node average (rank 0 holds extra buffers), so ``mem_used_max`` keeps
    its meaning of "peak over all nodes and samples".
    """
    if rates.ndim != 2 or rates.shape[0] < 1:
        raise ValueError("rates must be a non-empty 2-D matrix")
    r = rates
    idx = RATE_INDEX
    n_nodes = record.request.nodes
    # Mean static per-node memory spread: node 0 carries 1.25x.
    mem_spread_mean = (mem_spread_max + (n_nodes - 1)) / n_nodes
    # One pass over the matrix for all column means (profiling: 16
    # separate .mean() calls per job dominate large fast-path runs).
    col_mean = r.mean(axis=0)
    idle_mean = float(np.clip(
        1.0 - col_mean[idx["cpu_user_frac"]] - col_mean[idx["cpu_sys_frac"]]
        - col_mean[idx["cpu_iowait_frac"]], 0.0, 1.0,
    ))
    lnet_tx = float(DerivedRates.lnet_tx_mb(col_mean))
    lnet_rx = float(DerivedRates.lnet_rx_mb(col_mean))
    mpi = float(col_mean[idx["net_mpi_mb"]])
    metrics = {
        "cpu_idle": idle_mean,
        "cpu_user": float(col_mean[idx["cpu_user_frac"]]),
        "cpu_sys": float(col_mean[idx["cpu_sys_frac"]]),
        "cpu_flops": float(col_mean[idx["flops_gf"]]),
        "mem_used": float(
            col_mean[idx["mem_used_gb"]] * mem_spread_mean + BASE_OS_GB
        ),
        "mem_used_max": float(
            r[:, idx["mem_used_gb"]].max() * mem_spread_max + BASE_OS_GB
        ),
        "io_scratch_write": float(col_mean[idx["io_scratch_write_mb"]]),
        "io_scratch_read": float(col_mean[idx["io_scratch_read_mb"]]),
        "io_work_write": float(col_mean[idx["io_work_write_mb"]]),
        "io_work_read": float(col_mean[idx["io_work_read_mb"]]),
        "io_share_write": float(col_mean[idx["io_share_write_mb"]]),
        "io_share_read": float(col_mean[idx["io_share_read_mb"]]),
        "net_ib_tx": mpi + lnet_tx,
        "net_ib_rx": mpi + lnet_rx,
        "net_lnet_tx": lnet_tx,
        "net_lnet_rx": lnet_rx,
    }
    if mem_capacity_gb is not None:
        cap = 0.995 * mem_capacity_gb
        metrics["mem_used"] = min(metrics["mem_used"], cap)
        metrics["mem_used_max"] = min(metrics["mem_used_max"], cap)
    return JobSummary(
        jobid=record.jobid,
        metrics=metrics,
        n_nodes=record.request.nodes,
        wall_seconds=record.wall_seconds,
        n_samples=r.shape[0],
    )
