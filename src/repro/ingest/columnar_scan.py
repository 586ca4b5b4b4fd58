"""The ingest scan: one host's decoded day files to a :class:`HostScan`.

Every archived host-day — text, gzip or v2 — decodes to the same
:class:`~repro.tacc_stats.types.HostColumns`
(:meth:`HostArchive.read_host_days` also applies the per-file error
policy).  This module merges a host's kept days into one
:class:`ColumnarHost` and reduces it to the matcher views and per-job
metric partials the pipeline loads, without ever building per-row
dicts.

The reductions keep the arithmetic of the dict reducers in
:mod:`repro.ingest.summarize` / :mod:`repro.ingest.matcher` (the
reference the tests compare this module against), float for float:

* counter deltas (:func:`event_delta`) are integer math — order-free, so
  they vectorize freely;
* gauge statistics sum devices per block and then average blocks with
  the same numpy reductions over the same values in the same order
  (pairwise summation over an axis of a contiguous array is identical
  to summing each row separately);
* PMC-foreignness is a boolean — ``np.isin`` replaces the triple loop.

Shapes the vectorized forms cannot express (device sets changing
mid-job, a type missing from some block) take a per-block loop inside
the same function — slower for the odd host, never different.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ErrorPolicy, QuarantinedRecord
from repro.ingest.matcher import HostJobView
from repro.ingest.summarize import HostJobPartial
from repro.tacc_stats.archive import HostArchive, _file_day
from repro.tacc_stats.collectors.amd64_pmc import AMD64_EVENT_CODES
from repro.tacc_stats.collectors.intel_pmc import (
    FP_OVERCOUNT,
    INTEL_EVENT_CODES,
)
from repro.tacc_stats.parser import event_delta
from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.types import HostColumns, Mark, mark_window
from repro.util.units import GB, KB

__all__ = ["ColumnarHost", "HostScan", "build_columnar_host", "scan_host"]


@dataclass(frozen=True)
class HostScan:
    """Everything downstream ingest needs from one host's stream.

    ``views`` feed the accounting matcher; ``partials`` (keyed by jobid)
    feed the per-job merge.  ``jobs_by_file`` maps the label of every
    file that was kept *whole* to the job ids it mentions (block tags
    and marks) — what the ledger records so a later append re-reads
    only the files holding a pending job.  A file with any quarantined
    record is left out: lines the repair skipped may have named a job.
    It is provenance, not content, so it takes no part in equality
    (the dict reference reducers see merged streams, not files).  All
    three are small and picklable.
    """

    hostname: str
    views: tuple[HostJobView, ...]
    partials: dict[str, HostJobPartial]
    jobs_by_file: dict[str, frozenset[str]] = field(
        default_factory=dict, compare=False)


@dataclass
class _TypeCols:
    """One record type's merged columns across a host's day files."""

    schema: TypeSchema
    dev_map: dict[str, int]
    dev_idx: np.ndarray   # i8[Rt] unified device index per row
    values: np.ndarray    # u8[Rt, K] value matrix
    seg: np.ndarray       # i8[N+1]: rows of block b are seg[b]:seg[b+1]


class ColumnarHost:
    """A host's merged day files as columns."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        self.times: list[float] = []
        self.jobids: list[tuple[str, ...]] = []
        self.marks: list[Mark] = []
        self.types: dict[str, _TypeCols] = {}


def build_columnar_host(hostname: str,
                        days: list[HostColumns]) -> ColumnarHost:
    """Merge one host's decoded day files into a :class:`ColumnarHost`.

    The caller has already applied the per-file policy
    (:meth:`HostArchive.read_host_days`), so *days* agree on hostname
    and schemas.  Days are concatenated in file order; when files
    overlap in time the merged blocks, marks and each type's rows are
    put in time order by a stable sort, as :meth:`HostData.merge_from`
    does.  A single day is taken as it is.
    """
    ch = ColumnarHost(hostname)
    schemas: dict[str, TypeSchema] = {}
    for day in days:
        for t in day.types:
            schemas.setdefault(t.name, t.schema)

    per_type: dict[str, list] = {name: [] for name in schemas}
    n_blocks = 0
    for day in days:
        times = day.times.tolist()
        ch.times.extend(times)
        ch.jobids.extend(day.block_jobids())
        ch.marks.extend(
            Mark(time=times[b], kind=kind, jobid=jobid)
            for b, kind, jobid in day.marks
        )
        for tc in day.types:
            if tc.values.shape[0]:
                per_type[tc.name].append((n_blocks, tc))
        n_blocks += len(times)

    #: new block index of each concatenated block, when files overlap.
    moved: np.ndarray | None = None
    if len(days) > 1:
        order = np.argsort(np.asarray(ch.times), kind="stable")
        if (order[1:] < order[:-1]).any():
            ch.times = [ch.times[i] for i in order]
            ch.jobids = [ch.jobids[i] for i in order]
            ch.marks.sort(key=lambda m: m.time)
            moved = np.empty(n_blocks, dtype=np.int64)
            moved[order] = np.arange(n_blocks)

    for name, schema in schemas.items():
        dev_map: dict[str, int] = {}
        dev_parts = [np.empty(0, dtype=np.int64)]
        val_parts = [np.empty((0, schema.n_values), dtype=np.uint64)]
        blk_parts = [np.empty(0, dtype=np.int64)]
        for block_off, tc in per_type[name]:
            remap = np.array([dev_map.setdefault(dev, len(dev_map))
                              for dev in tc.devices], dtype=np.int64)
            dev_parts.append(remap[tc.dev_idx])
            val_parts.append(tc.values)
            blk_parts.append(tc.block_idx.astype(np.int64) + block_off)
        dev_idx = np.concatenate(dev_parts)
        values = np.vstack(val_parts)
        block_of = np.concatenate(blk_parts)
        if moved is not None:
            block_of = moved[block_of]
            rows = np.argsort(block_of, kind="stable")
            dev_idx, values, block_of = (dev_idx[rows], values[rows],
                                         block_of[rows])
        seg = np.searchsorted(block_of, np.arange(n_blocks + 1))
        ch.types[name] = _TypeCols(
            schema=schema, dev_map=dev_map, dev_idx=dev_idx,
            values=values, seg=seg)
    return ch


# ---------------------------------------------------------------------------
# Metric reductions (parity-exact counterparts of summarize._*, the
# reference).
# ---------------------------------------------------------------------------


def _delta_rate(ch: ColumnarHost, bidx, type_name: str, key: str,
                scale: float, seconds: float) -> float | None:
    """Columnar :func:`summarize._delta_rate` (first->last, summed)."""
    tc = ch.types.get(type_name)
    if tc is None:
        return None
    try:
        col, width = tc.schema.column(key)
    except KeyError:
        return None
    s0, e0 = tc.seg[bidx[0]], tc.seg[bidx[0] + 1]
    s1, e1 = tc.seg[bidx[-1]], tc.seg[bidx[-1] + 1]
    if e0 == s0 or e1 == s1:
        return None
    d0 = tc.dev_idx[s0:e0]
    v0 = tc.values[s0:e0, col]
    v1 = tc.values[s1:e1, col]
    if np.array_equal(d0, tc.dev_idx[s1:e1]):
        pairs = zip(v0.tolist(), v1.tolist())
    else:
        first_pos = {d: i for i, d in enumerate(d0.tolist())}
        v0l, v1l = v0.tolist(), v1.tolist()
        pairs = []
        for j, d in enumerate(tc.dev_idx[s1:e1].tolist()):
            i = first_pos.get(d)
            if i is None:
                return None  # device present at the end, absent at start
            pairs.append((v0l[i], v1l[j]))
    total = 0
    for first, last in pairs:
        total += event_delta(first, last, width)
    return total * scale / seconds


def _mount_delta_rate(ch: ColumnarHost, bidx, type_name: str, device: str,
                      key: str, seconds: float) -> float | None:
    """Columnar :func:`summarize._mount_delta_rate` (one device)."""
    tc = ch.types.get(type_name)
    if tc is None:
        return None
    try:
        col, width = tc.schema.column(key)
    except KeyError:
        return None
    di = tc.dev_map.get(device)
    if di is None:
        return None
    s0, e0 = tc.seg[bidx[0]], tc.seg[bidx[0] + 1]
    s1, e1 = tc.seg[bidx[-1]], tc.seg[bidx[-1] + 1]
    p0 = np.flatnonzero(tc.dev_idx[s0:e0] == di)
    p1 = np.flatnonzero(tc.dev_idx[s1:e1] == di)
    if p0.size == 0 or p1.size == 0:
        return None
    return event_delta(int(tc.values[s0 + p0[0], col]),
                       int(tc.values[s1 + p1[0], col]), width) / seconds


def _chained_delta_rate(ch: ColumnarHost, bidx, type_name: str, key: str,
                        scale: float, seconds: float) -> float | None:
    """Columnar :func:`summarize._chained_delta_rate` (per-interval)."""
    tc = ch.types.get(type_name)
    if tc is None:
        return None
    try:
        col, width = tc.schema.column(key)
    except KeyError:
        return None
    starts = tc.seg[bidx]
    ends = tc.seg[bidx + 1]
    counts = ends - starts
    if (counts == 0).any():
        return None  # some block lacks the type entirely
    d = int(counts[0])
    uniform = bool((counts == d).all())
    contiguous = bool((starts[1:] == ends[:-1]).all())
    if uniform and contiguous:
        rows = slice(int(starts[0]), int(ends[-1]))
        dev2d = tc.dev_idx[rows].reshape(-1, d)
        same_devs = bool((dev2d == dev2d[0]).all())
        if same_devs:
            vals = tc.values[rows, col].reshape(-1, d)
            mod = 1 << width
            if width < 64 and bool((vals >= mod).any()):
                # event_delta's range check, message included.
                raise ValueError(
                    f"counter value out of range for width {width}")
            # (last - first) mod 2**width == event_delta for every
            # branch of its single-rollover correction; u8 subtraction
            # wraps mod 2**64 natively.
            deltas = vals[1:] - vals[:-1]
            if width < 64:
                deltas &= np.uint64(mod - 1)
            # Exact integer total: each delta < 2**width and the bench
            # corpus is far from 2**64 aggregate, but keep Python ints
            # to make overflow impossible rather than unlikely.
            total = int(np.sum(deltas, dtype=object))
            return total * scale / seconds
    # Rare shapes: per-block device dicts, interval by interval.
    total = 0
    prev = None
    for b in bidx.tolist():
        s, e = tc.seg[b], tc.seg[b + 1]
        cur = dict(zip(tc.dev_idx[s:e].tolist(),
                       tc.values[s:e, col].tolist()))
        if prev is not None:
            for dev, v_cur in cur.items():
                v_prev = prev.get(dev)
                if v_prev is None:
                    return None
                total += event_delta(v_prev, v_cur, width)
        prev = cur
    return total * scale / seconds


def _gauge_stats(ch: ColumnarHost, bidx, type_name: str, key: str,
                 agg_devices: str = "sum") -> tuple[float, float] | None:
    """Columnar :func:`summarize._gauge_stats` ((time-mean, max))."""
    tc = ch.types.get(type_name)
    if tc is None:
        return None
    try:
        col = tc.schema.index_of(key)
    except KeyError:
        return None
    starts = tc.seg[bidx]
    ends = tc.seg[bidx + 1]
    counts = ends - starts
    have = counts > 0
    if not have.any():
        return None
    d = int(counts[have][0])
    if bool((counts == d).all()) and bool(
            (starts[1:] == ends[:-1]).all()):
        # Uniform device count, contiguous rows: one reshape, one
        # axis-reduction.  Summing along the last axis of a contiguous
        # f8 array applies the same pairwise reduction to the same
        # values in the same order as the dict path's per-block
        # ``np.array([...]).sum()``.
        per = tc.values[int(starts[0]):int(ends[-1]), col] \
            .reshape(-1, d).astype(np.float64)
        arr = per.sum(axis=1) if agg_devices == "sum" else per.mean(axis=1)
    else:
        vals = []
        for b in bidx.tolist():
            s, e = int(tc.seg[b]), int(tc.seg[b + 1])
            if e == s:
                continue
            per_dev = tc.values[s:e, col].astype(np.float64)
            vals.append(per_dev.sum() if agg_devices == "sum"
                        else per_dev.mean())
        arr = np.asarray(vals)
    return float(arr.mean()), float(arr.max())


_AMD_CODES = np.array(sorted(set(AMD64_EVENT_CODES.values())),
                      dtype=np.uint64)
_INTEL_CODES = np.array(sorted(set(INTEL_EVENT_CODES.values())),
                        dtype=np.uint64)


def _pmc_is_foreign(ch: ColumnarHost, bidx) -> bool:
    """Columnar :func:`summarize._pmc_is_foreign` (pure boolean)."""
    for type_name, codes in (("amd64_pmc", _AMD_CODES),
                             ("intel_pmc", _INTEL_CODES)):
        tc = ch.types.get(type_name)
        if tc is None:
            continue
        ctl_cols = [i for i, e in enumerate(tc.schema.entries)
                    if e.key.startswith("ctl")]
        if not ctl_cols:
            continue
        starts = tc.seg[bidx]
        ends = tc.seg[bidx + 1]
        if bool((starts[1:] == ends[:-1]).all()):
            ctl = tc.values[int(starts[0]):int(ends[-1])][:, ctl_cols]
        else:
            parts = [tc.values[int(s):int(e), :][:, ctl_cols]
                     for s, e in zip(starts, ends) if e > s]
            if not parts:
                continue
            ctl = np.concatenate(parts)
        if ctl.size and not bool(np.isin(ctl, codes).all()):
            return True
    return False


def _flops_rate(ch: ColumnarHost, bidx, seconds: float) -> float | None:
    """Columnar :func:`summarize._flops_rate`."""
    if "amd64_pmc" in ch.types:
        rate = _delta_rate(ch, bidx, "amd64_pmc", "ctr0", 1.0, seconds)
        if rate is None:
            return None
        return rate / 1e9
    if "intel_pmc" in ch.types:
        rate = _delta_rate(ch, bidx, "intel_pmc", "ctr0", 1.0, seconds)
        if rate is None:
            return None
        return rate / FP_OVERCOUNT / 1e9
    return None


def _host_partial(ch: ColumnarHost, jobid: str,
                  bidx: np.ndarray) -> HostJobPartial | None:
    """Columnar :func:`summarize._host_partial` — same metrics, same
    None conditions, same float operations in the same order."""
    if len(bidx) < 2:
        return None
    seconds = ch.times[int(bidx[-1])] - ch.times[int(bidx[0])]
    if seconds <= 0:
        return None
    h: dict[str, float] = {}
    poisoned: tuple[str, ...] = ()

    parts = {}
    for key in ("user", "system", "idle", "iowait", "irq", "softirq",
                "nice"):
        r = _delta_rate(ch, bidx, "cpu", key, 1.0, seconds)
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

    if _pmc_is_foreign(ch, bidx):
        poisoned = ("cpu_flops",)
    else:
        flops = _flops_rate(ch, bidx, seconds)
        if flops is not None:
            h["cpu_flops"] = flops

    mem = _gauge_stats(ch, bidx, "mem", "MemUsed", "sum")
    if mem is not None:
        h["mem_used"] = mem[0] * KB / GB
        h["mem_used_max"] = mem[1] * KB / GB

    for mount in ("scratch", "work", "share"):
        for op, key in (("write", "write_bytes"), ("read", "read_bytes")):
            rate = _mount_delta_rate(ch, bidx, "llite", mount, key,
                                     seconds)
            if rate is None and mount == "share":
                rate = _delta_rate(ch, bidx, "nfs", key, 1.0, seconds)
            if rate is not None:
                h[f"io_{mount}_{op}"] = rate / 1e6

    for direction, key in (("tx", "port_xmit_data"),
                           ("rx", "port_rcv_data")):
        rate = _chained_delta_rate(ch, bidx, "ib", key, 4.0, seconds)
        if rate is not None:
            h[f"net_ib_{direction}"] = rate / 1e6

    for direction, key in (("tx", "tx_bytes"), ("rx", "rx_bytes")):
        rate = _delta_rate(ch, bidx, "lnet", key, 1.0, seconds)
        if rate is not None:
            h[f"net_lnet_{direction}"] = rate / 1e6

    return HostJobPartial(
        hostname=ch.hostname,
        jobid=jobid,
        metrics=h,
        poisoned=poisoned,
        n_blocks=len(bidx),
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# Scan assembly (views + partials).
# ---------------------------------------------------------------------------


def columnar_views(ch: ColumnarHost) -> dict[str, HostJobView]:
    """Columnar :func:`matcher.host_job_views`."""
    span_first: dict[str, float] = {}
    span_last: dict[str, float] = {}
    for t, jids in zip(ch.times, ch.jobids):
        for jid in jids:
            if jid not in span_first:
                span_first[jid] = t
            span_last[jid] = t
    seen = {m.jobid for m in ch.marks}
    seen.update(span_first)
    out: dict[str, HostJobView] = {}
    for jid in seen:
        span = ((span_first[jid], span_last[jid])
                if jid in span_first else None)
        out[jid] = HostJobView(
            hostname=ch.hostname,
            jobid=jid,
            mark_window=mark_window(ch.marks, jid),
            block_span=span,
        )
    return out


def columnar_partials(ch: ColumnarHost,
                      jobs: Collection[str] | None = None,
                      ) -> dict[str, HostJobPartial]:
    """Columnar :func:`summarize.host_job_partials`, for the job ids in
    *jobs* only (``None`` = every job on the host)."""
    by_job: dict[str, list[int]] = {}
    for bi, jids in enumerate(ch.jobids):
        for jid in jids:
            if jobs is None or jid in jobs:
                by_job.setdefault(jid, []).append(bi)
    out: dict[str, HostJobPartial] = {}
    for jid, blocks in by_job.items():
        partial = _host_partial(ch, jid, np.asarray(blocks,
                                                    dtype=np.int64))
        if partial is not None:
            out[jid] = partial
    return out


def scan_host(archive: HostArchive, hostname: str,
              allow_truncated: bool = False,
              policy: str = ErrorPolicy.STRICT,
              days=None,
              jobs: Collection[str] | None = None,
              ) -> tuple[HostScan | None, tuple[QuarantinedRecord, ...],
                         str]:
    """Read and scan one host: ``(HostScan | None, records, status)``.

    :meth:`HostArchive.read_host_days` decodes the host's files (any
    mix of text, gzip and v2) and applies the error policy — under
    ``strict`` it raises for malformed data, otherwise the quarantine
    *records* say what was set aside; the scan is ``None`` when the
    host was dropped.  The kept days are merged and reduced here;
    *jobs* (an append's candidates; ``None`` = all) limits the metric
    partials to the jobs that can load — views always cover every job.
    """
    kept, records, status = archive.read_host_days(
        hostname, allow_truncated=allow_truncated, policy=policy,
        days=days)
    if status == "dropped":
        return None, records, status
    ch = build_columnar_host(hostname, kept)
    faulted = {_file_day(Path(r.path)) for r in records}
    scan = HostScan(
        hostname=hostname,
        views=tuple(columnar_views(ch).values()),
        partials=columnar_partials(ch, jobs),
        jobs_by_file={day.label: day.job_ids() for day in kept
                      if day.label not in faulted},
    )
    return scan, records, status
