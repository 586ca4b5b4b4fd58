"""The ingest scan: one host's decoded files folded into per-job state.

Every archived host-day — text, gzip or v2 — decodes to the same
:class:`~repro.tacc_stats.types.HostColumns`
(:meth:`HostArchive.read_host_days` also applies the per-file error
policy).  This module folds a host's kept files, one file at a time in
label order, into one small :class:`JobScanState` per job the host
mentions, and derives from those the matcher views and per-job metric
partials the pipeline loads — without ever building per-row dicts, and
without ever holding more than one file's columns.

The state is *mergeable*: folding files A then B gives the same state
as folding their concatenation, because everything the partial needs is
order-free or bridged exactly at the file boundary —

* first→last counter deltas (:func:`event_delta`) need only the job's
  first and last counter rows;
* the chained (per-interval) InfiniBand deltas are integers, and the
  delta across a file boundary is taken from the previous file's last
  row to this file's first;
* the ``MemUsed`` gauge keeps the integer ``(Σ, n, max)`` of its
  per-block sums, exact while a sum stays below 2**53 (a node's memory
  in KB over any job is ~2**40);
* PMC-foreignness is a boolean OR.

Floats are formed once, from the final state (:func:`host_partial`), so
any segmentation of the same samples — one-shot, nightly, hourly, any
worker split — stores bit-identical rows, and an append continues from
the persisted state of a still-open job (*seeds*) instead of re-reading
its earlier files.  The arithmetic is that of the dict reducers in
:mod:`repro.ingest.summarize` / :mod:`repro.ingest.matcher` (the
reference the tests compare this module against), float for float.

Shapes the vectorized forms cannot express (device sets changing
mid-job, a type missing from some block, files that overlap in time)
take a per-block loop inside the same fold — slower for the odd host,
never different.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Collection, Mapping, Sequence
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
from repro.tacc_stats.types import HostColumns, TypeColumns
from repro.util.units import GB, KB

__all__ = ["HostScan", "JobScanState", "host_partial", "scan_host"]

#: The counter columns a partial reads, per record type; ``ib`` is
#: chained block to block, the rest are first→last.
_EDGE_COLUMNS: dict[str, tuple[str, ...]] = {
    "cpu": ("user", "system", "idle", "iowait", "irq", "softirq", "nice"),
    "amd64_pmc": ("ctr0",),
    "intel_pmc": ("ctr0",),
    "llite": ("write_bytes", "read_bytes"),
    "nfs": ("write_bytes", "read_bytes"),
    "lnet": ("tx_bytes", "rx_bytes"),
    "ib": ("port_xmit_data", "port_rcv_data"),
}
_PMC_CODES = {
    "amd64_pmc": np.array(sorted(set(AMD64_EVENT_CODES.values())),
                          dtype=np.uint64),
    "intel_pmc": np.array(sorted(set(INTEL_EVENT_CODES.values())),
                          dtype=np.uint64),
}


@dataclass
class JobScanState:
    """One host's scan of one job so far — all a partial and a matcher
    view need, in JSON types only so it persists as it is.

    ``first``/``last`` map a record type to the counter row of the
    job's first/last tagged block, ``[devices, {key: values}]`` over the
    :data:`_EDGE_COLUMNS` the file's schema has (a type with no row in
    that block is absent); ``widths`` holds each such column's counter
    width as ``"type.key"``.  ``chain`` is the running sum of the ``ib``
    block-to-block deltas per key, ``None`` once a block or device was
    missing; ``gauge`` the ``[Σ, n, max]`` of the ``MemUsed`` block
    sums; ``pmc`` the PMC type the host's files declare.  ``begin`` /
    ``end`` are the first ``%begin`` and last ``%end`` mark times.
    ``through`` is the label of the last file folded in: a state read
    back as a seed skips files up to it.
    """

    t_first: float | None = None
    t_last: float | None = None
    n_blocks: int = 0
    begin: float | None = None
    end: float | None = None
    through: str = ""
    foreign: bool = False
    pmc: str | None = None
    gauge: list[int] | None = None
    chain: dict[str, int] | None = field(default_factory=dict)
    first: dict[str, list] = field(default_factory=dict)
    last: dict[str, list] = field(default_factory=dict)
    widths: dict[str, int] = field(default_factory=dict)

    def to_blob(self) -> bytes:
        """The persisted form (compressed JSON; see :meth:`from_blob`)."""
        return zlib.compress(json.dumps(
            vars(self), separators=(",", ":")).encode())

    @classmethod
    def from_blob(cls, blob: bytes) -> "JobScanState":
        return cls(**json.loads(zlib.decompress(blob)))


@dataclass(frozen=True)
class HostScan:
    """Everything downstream ingest needs from one host's stream.

    ``views`` feed the accounting matcher; ``partials`` (keyed by jobid)
    feed the per-job merge.  ``jobs_by_file`` maps the label of every
    file that was kept *whole* to the job ids it mentions (block tags
    and marks) — what the ledger records as the cell's open jobs — and
    ``states`` holds the scan state of every job the host mentions
    that the run cannot load, which the pipeline persists for the jobs
    still open.  A file with
    any quarantined record is left out of the first, and its host
    reports no states: lines the repair skipped may have named a job.
    Both are provenance, not content, so they take no part in equality
    (the dict reference reducers see merged streams, not files).
    Everything here is small and picklable.
    """

    hostname: str
    views: tuple[HostJobView, ...]
    partials: dict[str, HostJobPartial]
    jobs_by_file: dict[str, frozenset[str]] = field(
        default_factory=dict, compare=False)
    states: dict[str, JobScanState] = field(
        default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# The fold: files -> JobScanState.
# ---------------------------------------------------------------------------


def _edge_row(tc: TypeColumns, seg: np.ndarray, b: int) -> list | None:
    """The ``[devices, {key: values}]`` row of type *tc* at block *b*."""
    s, e = int(seg[b]), int(seg[b + 1])
    if e == s:
        return None
    cols = {}
    for key in _EDGE_COLUMNS[tc.name]:
        try:
            cols[key] = tc.values[s:e, tc.schema.index_of(key)].tolist()
        except KeyError:
            pass  # degraded or older collector build: no such column
    return [[tc.devices[i] for i in tc.dev_idx[s:e].tolist()], cols]


def _job_rows(seg: np.ndarray, bidx: np.ndarray):
    """``(row index, per-block row counts)`` of blocks *bidx*."""
    starts, ends = seg[bidx], seg[bidx + 1]
    if bool((starts[1:] == ends[:-1]).all()):
        rows = slice(int(starts[0]), int(ends[-1]))
    else:
        rows = np.concatenate([np.arange(s, e)
                               for s, e in zip(starts, ends)])
    return rows, ends - starts


def _chain_pair(st: JobScanState, prev: list | None,
                cur: list | None) -> None:
    """Add one block-to-block ``ib`` delta, device by device."""
    if st.chain is None:
        return
    if prev is None or cur is None:
        st.chain = None  # a block without the type
        return
    for key, values in cur[1].items():
        before = dict(zip(prev[0], prev[1].get(key, ())))
        width = st.widths[f"ib.{key}"]
        for dev, value in zip(cur[0], values):
            if dev not in before:
                st.chain = None
                return
            st.chain[key] = st.chain.get(key, 0) + event_delta(
                before[dev], value, width)


def _chain_blocks(st: JobScanState, tc: TypeColumns, seg: np.ndarray,
                  bidx: np.ndarray) -> None:
    """Add the ``ib`` deltas between consecutive blocks of *bidx*."""
    rows, counts = _job_rows(seg, bidx)
    if bool((counts == 0).any()):
        st.chain = None
        return
    d = int(counts[0])
    if bool((counts == d).all()):
        dev2d = tc.dev_idx[rows].reshape(-1, d)
        if bool((dev2d == dev2d[0]).all()):
            for key in st.chain:
                col, width = tc.schema.column(key)
                vals = tc.values[rows, col].reshape(-1, d)
                mod = 1 << width
                if width < 64 and bool((vals >= mod).any()):
                    # event_delta's range check, message included.
                    raise ValueError(
                        f"counter value out of range for width {width}")
                # (last - first) mod 2**width == event_delta for every
                # branch of its single-rollover correction; u8
                # subtraction wraps mod 2**64 natively.
                deltas = vals[1:] - vals[:-1]
                if width < 64:
                    deltas &= np.uint64(mod - 1)
                # Python ints: overflow impossible, not just unlikely.
                st.chain[key] += int(np.sum(deltas, dtype=object))
            return
    # Rare shapes: device by device, interval by interval.
    edges = [_edge_row(tc, seg, b) for b in bidx.tolist()]
    for prev, cur in zip(edges, edges[1:]):
        _chain_pair(st, prev, cur)


class _HostFold:
    """Folds one host's files into ``{jobid: JobScanState}``.

    *seeds* are the persisted states of the host's open jobs: each
    continues with the files after its ``through`` label.  ``marked``
    and ``spanned`` remember in which order jobs first showed up in a
    mark and in a block tag, which fixes the order of :meth:`views`.
    """

    def __init__(self, seeds: Mapping[str, JobScanState] | None = None):
        self.states: dict[str, JobScanState] = dict(seeds or {})
        self._seeded = {jid: st.through for jid, st in self.states.items()}
        self.marked = {jid: None for jid, st in self.states.items()
                       if st.begin is not None or st.end is not None}
        self.spanned = {jid: None for jid, st in self.states.items()
                        if st.n_blocks}

    def add_days(self, days: Sequence[HostColumns]) -> None:
        """Fold *days* (in label order).  Files that overlap in time
        are folded as their maximal in-file runs of blocks, in the time
        order a stable merge of the files gives."""
        sizes = [len(day.times) for day in days]
        if len(days) > 1:
            order = np.argsort(np.concatenate([d.times for d in days]),
                               kind="stable")
            if bool((order[1:] < order[:-1]).any()):
                offsets = np.cumsum([0, *sizes])
                file_of = np.searchsorted(offsets, order, side="right") - 1
                cuts = np.flatnonzero((np.diff(order) != 1)
                                      | (np.diff(file_of) != 0)) + 1
                for lo, hi in zip([0, *cuts], [*cuts, len(order)]):
                    f = int(file_of[lo])
                    self._add(days[f], int(order[lo] - offsets[f]),
                              int(order[hi - 1] - offsets[f]) + 1)
                return
        for day, n in zip(days, sizes):
            self._add(day, 0, n)

    def _state(self, jobid: str, label: str) -> JobScanState | None:
        """The state blocks/marks of file *label* fold into, or None
        when the job's seed already holds that file."""
        if label <= self._seeded.get(jobid, ""):
            return None
        st = self.states.get(jobid)
        if st is None:
            st = self.states[jobid] = JobScanState()
        st.through = max(st.through, label)
        return st

    def _add(self, day: HostColumns, lo: int, hi: int) -> None:
        """Fold blocks ``lo..hi-1`` of one file."""
        times = day.times
        for b, kind, jobid in day.marks:
            if lo <= b < hi:
                st = self._state(jobid, day.label)
                if st is None:
                    continue
                self.marked[jobid] = None
                if kind == "end":
                    st.end = float(times[b])
                elif st.begin is None:
                    st.begin = float(times[b])
        tuples = [() if tag == "-" else tuple(tag.split(","))
                  for tag in day.jobid_tags]
        by_job: dict[str, list[int]] = {}
        for b, g in enumerate(day.tags[lo:hi].tolist(), lo):
            for jobid in tuples[g]:
                by_job.setdefault(jobid, []).append(b)
        if not by_job:
            return
        types = {tc.name: tc for tc in day.types}
        segs = {name: np.searchsorted(tc.block_idx,
                                      np.arange(len(times) + 1))
                for name, tc in types.items()
                if name in _EDGE_COLUMNS or name == "mem"}
        edge_types = [tc for name, tc in types.items()
                      if name in _EDGE_COLUMNS]
        for jobid, blocks in by_job.items():
            st = self._state(jobid, day.label)
            if st is None:
                continue
            self.spanned[jobid] = None
            self._add_blocks(st, np.asarray(blocks, dtype=np.int64),
                             times, types, segs, edge_types)

    @staticmethod
    def _add_blocks(st: JobScanState, bidx: np.ndarray, times: np.ndarray,
                    types: dict[str, TypeColumns],
                    segs: dict[str, np.ndarray],
                    edge_types: list[TypeColumns]) -> None:
        """Fold one job's blocks *bidx* of one file into *st*."""
        b0, b1 = int(bidx[0]), int(bidx[-1])
        for tc in edge_types:
            for key in _EDGE_COLUMNS[tc.name]:
                try:
                    st.widths[f"{tc.name}.{key}"] = tc.schema.column(key)[1]
                except KeyError:
                    pass
        if "amd64_pmc" in types:
            st.pmc = "amd64_pmc"
        elif st.pmc is None and "intel_pmc" in types:
            st.pmc = "intel_pmc"

        def edge(b: int) -> dict[str, list]:
            rows = ((tc.name, _edge_row(tc, segs[tc.name], b))
                    for tc in edge_types)
            return {name: row for name, row in rows if row is not None}

        fresh = not st.n_blocks
        if fresh:
            st.t_first, st.first = float(times[b0]), edge(b0)
        if st.chain is not None:
            ib = types.get("ib")
            if ib is None:
                st.chain = None
            else:
                for key in _EDGE_COLUMNS["ib"]:
                    if key in ib.schema.keys:
                        st.chain.setdefault(key, 0)
                if not fresh:  # bridge the file boundary
                    _chain_pair(st, st.last.get("ib"),
                                _edge_row(ib, segs["ib"], b0))
                if st.chain is not None and len(bidx) > 1:
                    _chain_blocks(st, ib, segs["ib"], bidx)
        st.t_last = float(times[b1])
        st.last = st.first if fresh and b1 == b0 else edge(b1)
        st.n_blocks += len(bidx)

        mem = types.get("mem")
        if mem is not None and "MemUsed" in mem.schema.keys:
            rows, counts = _job_rows(segs["mem"], bidx)
            counts = counts[counts > 0]
            if counts.size:
                sums = np.add.reduceat(
                    mem.values[rows, mem.schema.index_of("MemUsed")],
                    np.cumsum(counts) - counts).tolist()
                total, n, peak = st.gauge or (0, 0, 0)
                st.gauge = [total + sum(sums), n + len(sums),
                            max(peak, *sums)]

        for name, codes in _PMC_CODES.items():
            tc = types.get(name)
            if tc is None or st.foreign:
                continue
            ctl_cols = [i for i, e in enumerate(tc.schema.entries)
                        if e.key.startswith("ctl")]
            if ctl_cols:
                rows, _counts = _job_rows(segs[name], bidx)
                ctl = tc.values[rows][:, ctl_cols]
                st.foreign = bool(ctl.size
                                  and not np.isin(ctl, codes).all())

    def views(self, hostname: str) -> tuple[HostJobView, ...]:
        """One matcher view per job, in the order
        :func:`matcher.host_job_views` lists them."""
        # Built the way the reference builds it (one add per mark, then
        # one update): a set's iteration order follows its history.
        seen = {jobid for jobid in self.marked}  # noqa: C416
        seen.update(self.spanned)
        out = []
        for jobid in seen:
            st = self.states[jobid]
            out.append(HostJobView(
                hostname=hostname, jobid=jobid,
                mark_window=None if st.begin is None or st.end is None
                else (st.begin, st.end),
                block_span=(st.t_first, st.t_last) if st.n_blocks
                else None))
        return tuple(out)


# ---------------------------------------------------------------------------
# Metrics from a state (parity-exact with summarize._host_partial, the
# reference).
# ---------------------------------------------------------------------------


def _delta(st: JobScanState, type_name: str, key: str,
           device: str | None = None) -> int | None:
    """Summed per-device first→last counter delta of one column (of one
    *device* when given); None where the reference has no rate."""
    first, last = st.first.get(type_name), st.last.get(type_name)
    if first is None or last is None or key not in last[1] \
            or (device is not None and device not in last[0]):
        return None
    before = dict(zip(first[0], first[1][key]))
    width = st.widths[f"{type_name}.{key}"]
    total = 0
    for dev, value in zip(last[0], last[1][key]):
        if device is not None and dev != device:
            continue
        if dev not in before:
            return None  # device present at the end, absent at start
        total += event_delta(before[dev], value, width)
    return total


def host_partial(hostname: str, jobid: str,
                 st: JobScanState) -> HostJobPartial | None:
    """The :class:`HostJobPartial` of a finished fold — the metrics,
    None conditions and float operations of
    :func:`summarize._host_partial`, in the same order."""
    if st.n_blocks < 2:
        return None
    seconds = st.t_last - st.t_first
    if seconds <= 0:
        return None
    h: dict[str, float] = {}

    def rate(type_name: str, key: str, device: str | None = None):
        total = _delta(st, type_name, key, device)
        return None if total is None else total * 1.0 / seconds

    parts = {key: rate("cpu", key) for key in _EDGE_COLUMNS["cpu"]}
    if None not in parts.values():
        total = sum(parts.values())
        if total > 0:
            h["cpu_idle"] = parts["idle"] / total
            h["cpu_user"] = (parts["user"] + parts["nice"]) / total
            h["cpu_sys"] = (
                parts["system"] + parts["irq"] + parts["softirq"]
            ) / total

    if not st.foreign and st.pmc is not None:
        flops = rate(st.pmc, "ctr0")
        if flops is not None:
            if st.pmc == "intel_pmc":
                flops = flops / FP_OVERCOUNT
            h["cpu_flops"] = flops / 1e9

    if st.gauge is not None:
        total, n, peak = st.gauge
        h["mem_used"] = float(total) / n * KB / GB
        h["mem_used_max"] = float(peak) * KB / GB

    for mount in ("scratch", "work", "share"):
        for op, key in (("write", "write_bytes"), ("read", "read_bytes")):
            r = rate("llite", key, mount)
            if r is None and mount == "share":
                r = rate("nfs", key)
            if r is not None:
                h[f"io_{mount}_{op}"] = r / 1e6

    for direction, key in (("tx", "port_xmit_data"),
                           ("rx", "port_rcv_data")):
        if st.chain is not None and key in st.chain:
            h[f"net_ib_{direction}"] = st.chain[key] * 4.0 / seconds / 1e6

    for direction, key in (("tx", "tx_bytes"), ("rx", "rx_bytes")):
        r = rate("lnet", key)
        if r is not None:
            h[f"net_lnet_{direction}"] = r / 1e6

    return HostJobPartial(
        hostname=hostname,
        jobid=jobid,
        metrics=h,
        poisoned=("cpu_flops",) if st.foreign else (),
        n_blocks=st.n_blocks,
        seconds=seconds,
    )


def scan_host(archive: HostArchive, hostname: str,
              allow_truncated: bool = False,
              policy: str = ErrorPolicy.STRICT,
              paths: Sequence[str] | None = None,
              jobs: Collection[str] | None = None,
              seeds: Mapping[str, JobScanState] | None = None,
              ) -> tuple[HostScan | None, tuple[QuarantinedRecord, ...],
                         str]:
    """Read and scan one host: ``(HostScan | None, records, status)``.

    :meth:`HostArchive.read_host_days` decodes the host's files (any
    mix of text, gzip and v2; only *paths* when given, which may be
    empty when the host is visited for its *seeds* alone) and applies
    the error policy — under ``strict`` it raises for malformed data,
    otherwise the quarantine *records* say what was set aside; the scan
    is ``None`` when the host was dropped.  The kept files are folded
    onto *seeds* (the persisted states of the host's open jobs).
    *jobs* (the run's candidates; ``None`` = no selection) limits the
    metric partials to the jobs that can load and the states to those
    that cannot — a candidate is closed by the run, one way or the
    other; views always cover every job.
    """
    files = (archive.host_files(hostname) if paths is None
             else [Path(p) for p in paths])
    kept, records, status = archive.read_host_days(
        hostname, allow_truncated=allow_truncated, policy=policy,
        paths=files) if files or paths is None else ([], (), "ok")
    if status == "dropped":
        return None, records, status
    fold = _HostFold(seeds)
    fold.add_days(kept)
    partials = {}
    for jobid, st in fold.states.items():
        if jobs is None or jobid in jobs:
            partial = host_partial(hostname, jobid, st)
            if partial is not None:
                partials[jobid] = partial
    # An empty file (the node was down) is kept out of *kept* but is
    # whole all the same: it mentions no job.
    mentions = dict.fromkeys(map(_file_day, files), frozenset())
    mentions.update((day.label, day.job_ids()) for day in kept)
    for record in records:
        mentions.pop(_file_day(Path(record.path)), None)
    scan = HostScan(
        hostname=hostname,
        views=fold.views(hostname),
        partials=partials,
        jobs_by_file=mentions,
        states={} if records else fold.states if jobs is None else {
            jobid: st for jobid, st in fold.states.items()
            if jobid not in jobs},
    )
    return scan, records, status
