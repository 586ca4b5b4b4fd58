"""The ingest scan: one host's decoded files folded into per-job state.

Every archived host-day — text, gzip or v2 — decodes to the same
:class:`~repro.tacc_stats.types.HostColumns`
(:meth:`HostArchive.read_host_days` also applies the per-file error
policy).  This module folds a host's kept files, one file at a time in
label order, into one small :class:`JobScanState` per job the host
mentions, and derives from those the matcher views and per-job metric
partials the pipeline loads — without ever building per-row dicts, and
without ever holding more than one file's columns.

A file is folded once for all of its jobs: its blocks are grouped by
job, and every quantity a state keeps is taken for all of them from
whole-file arrays before the states are updated job by job.

The state is *mergeable*: folding files A then B gives the same state
as folding their concatenation, because everything the partial needs is
order-free or bridged exactly at the file boundary —

* first→last counter deltas need only the job's first and last counter
  rows, kept as arrays;
* the chained (per-interval) InfiniBand deltas are integers, and the
  delta across a file boundary is taken from the previous file's last
  row to this file's first;
* the ``MemUsed`` gauge keeps the integer ``(Σ, n, max)`` of its
  per-block sums, exact while a sum stays below 2**53 (a node's memory
  in KB over any job is ~2**40);
* PMC-foreignness is a boolean OR.

Floats are formed once, from the final states (:func:`host_partials`,
one kernel over all of a host's jobs), so any segmentation of the same
samples — one-shot, nightly, hourly, any worker split — stores
bit-identical rows, and an append continues from the persisted state of
a still-open job (*seeds*) instead of re-reading its earlier files.
The arithmetic is that of the dict reducers in
:mod:`repro.ingest.summarize` / :mod:`repro.ingest.matcher` (the
reference the tests compare this module against), float for float.

Shapes the whole-file forms cannot express (device sets changing
mid-job, a type missing from some block, files that overlap in time)
take a per-block loop inside the same fold, and a presence mask in the
partial kernel — slower for the odd host, never different.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from pathlib import Path

import numpy as np

from repro.errors import ErrorPolicy, QuarantinedRecord
from repro.ingest.matcher import HostJobView
from repro.ingest.summarize import HostJobPartial
from repro.ingest.vocabulary import METRICS
from repro.tacc_stats.archive import HostArchive, _file_day
from repro.tacc_stats.collectors.amd64_pmc import AMD64_EVENT_CODES
from repro.tacc_stats.collectors.intel_pmc import (
    FP_OVERCOUNT,
    INTEL_EVENT_CODES,
)
from repro.tacc_stats.parser import event_delta
from repro.tacc_stats.types import HostColumns, TypeColumns
from repro.telemetry.trace import span

__all__ = ["HostScan", "JobScanState", "host_partials", "scan_host"]

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
#: The gauge a partial reads: its ``(Σ, n, max)`` over a job's blocks.
_GAUGE = ("mem", "MemUsed")
_PMC_CODES = {"amd64_pmc": frozenset(AMD64_EVENT_CODES.values()),
              "intel_pmc": frozenset(INTEL_EVENT_CODES.values())}


#: A counter row: the block's devices, the :data:`_EDGE_COLUMNS` keys its
#: file's schema has, and their ``u8[keys, devices]`` values.
Row = tuple[tuple[str, ...], tuple[str, ...], np.ndarray]


@dataclass(eq=False)
class JobScanState:
    """One host's scan of one job so far — all a partial and a matcher
    view need.  States compare field for field.

    ``first``/``last`` map a record type to the :data:`Row` of the
    job's first/last tagged block (a type with no row in that block is
    absent); the values are a copy, never a view of a mapped file, as a
    live session keeps states across batches.  ``widths`` holds each
    such column's counter width as ``"type.key"``.  ``chain`` is the
    running sum of the ``ib`` block-to-block deltas per key, ``None``
    once a block or device was missing; ``gauge`` the ``[Σ, n, max]``
    of the ``MemUsed`` block sums; ``pmc`` the PMC type the host's files
    declare.  ``begin`` / ``end`` are the first ``%begin`` and last
    ``%end`` mark times.  ``through`` is the label of the last file
    folded in: a state read back as a seed skips files up to it.
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
    first: dict[str, Row] = field(default_factory=dict)
    last: dict[str, Row] = field(default_factory=dict)
    widths: dict[str, int] = field(default_factory=dict)

    def to_blob(self) -> bytes:
        """The persisted form: compressed JSON, each row as ``[devices,
        {key: values}]`` (see :meth:`from_blob`)."""
        doc = dict(vars(self))
        for side in ("first", "last"):
            doc[side] = {name: [devs, dict(zip(keys, values.tolist()))]
                         for name, (devs, keys, values) in doc[side].items()}
        return zlib.compress(json.dumps(doc, separators=(",", ":")).encode())

    @classmethod
    def from_blob(cls, blob: bytes) -> "JobScanState":
        doc = json.loads(zlib.decompress(blob))
        for side in ("first", "last"):
            doc[side] = {name: (tuple(devs), tuple(by_key), np.array(
                list(by_key.values()), dtype=np.uint64).reshape(
                    len(by_key), len(devs)))
                for name, (devs, by_key) in doc[side].items()}
        return cls(**doc)

    def __eq__(self, other: object) -> bool:
        def fields(st: JobScanState) -> dict:  # a row's values as a list
            return {k: {name: (*row[:2], row[2].dtype, row[2].tolist())
                        for name, row in v.items()}
                    if k in ("first", "last") else v for k, v in vars(st).items()}
        return fields(self) == fields(other) if isinstance(
            other, JobScanState) else NotImplemented


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


def _edge_row(tc: TypeColumns, seg: np.ndarray, b: int,
              cols: list[tuple[str, int, int]]) -> Row | None:
    """The :data:`Row` of type *tc* at block *b* over its ``(key,
    column, width)`` *cols*."""
    s, e = int(seg[b]), int(seg[b + 1])
    if e == s:
        return None
    return (tuple([tc.devices[i] for i in tc.dev_idx[s:e].tolist()]),
            tuple(key for key, _c, _w in cols),
            tc.values[s:e, [col for _k, col, _w in cols]].T)


def _grid(tc: TypeColumns, n_blocks: int) -> int:
    """*d* when every one of the file's blocks holds the same *d* > 0
    devices in the same order (row ``b * d + i``: device i of block b),
    else 0."""
    d, rest = divmod(len(tc.block_idx), n_blocks)
    if d and not rest and bool((tc.block_idx.reshape(-1, d) == np.arange(
            n_blocks)[:, None]).all()) and bool(
            (tc.dev_idx.reshape(-1, d) == tc.dev_idx[:d]).all()):
        return d
    return 0


def _edge_rows(tc: TypeColumns, cols: list[tuple[str, int, int]],
               d: int, blocks: np.ndarray) -> list[Row]:
    """:func:`_edge_row` of *blocks* on a :func:`_grid` of *d* devices,
    in one gather (rows are never mutated)."""
    devices = tuple([tc.devices[i] for i in tc.dev_idx[:d].tolist()])
    keys = tuple(key for key, _c, _w in cols)
    values = tc.values.reshape(-1, d, tc.values.shape[1])[
        blocks[:, None], :, [col for _k, col, _w in cols]]
    return [(devices, keys, vals) for vals in values]


def _sums(values: np.ndarray, starts: np.ndarray) -> list[int]:
    """Exact sums of the non-empty runs of uint64 *values* that begin
    at *starts*, as Python ints (in objects where u8 could overflow)."""
    if int(values.max()).bit_length() + values.size.bit_length() > 64:
        values = values.astype(object)
    return np.add.reduceat(values, starts).tolist()


def _chain_pair(st: JobScanState, prev: Row | None,
                cur: Row | None) -> None:
    """Add one block-to-block ``ib`` delta, device by device."""
    if st.chain is None:
        return
    if prev is None or cur is None:
        st.chain = None  # a block without the type
        return
    if not cur[1]:
        return
    at = {dev: i for i, dev in enumerate(prev[0])}
    if not (set(prev[1]) >= set(cur[1]) and at.keys() >= set(cur[0])):
        st.chain = None  # a key or a device the block before lacks
        return
    before = prev[2][[prev[1].index(key) for key in cur[1]]][
        :, [at[dev] for dev in cur[0]]]
    for key, old, new in zip(cur[1], before.tolist(), cur[2].tolist()):
        width = st.widths[f"ib.{key}"]
        st.chain[key] = st.chain.get(key, 0) + sum(
            event_delta(a, b, width) for a, b in zip(old, new))


def _foreign(types: dict[str, TypeColumns], n_file_blocks: int,
             flat: np.ndarray, starts: np.ndarray) -> list[bool]:
    """Per job, whether a PMC control register of one of its blocks
    holds a code TACC_Stats does not program."""
    bad = np.zeros(n_file_blocks, dtype=bool)
    for name, codes in _PMC_CODES.items():
        tc = types.get(name)
        ctl = [] if tc is None else [i for i, e in enumerate(
            tc.schema.entries) if e.key.startswith("ctl")]
        if ctl and len(tc.values):
            regs = tc.values[:, ctl]
            if bool((regs == regs[0]).all()):  # one programming all file
                bad[tc.block_idx] |= not codes.issuperset(regs[0].tolist())
            else:
                bad[tc.block_idx[~np.isin(regs, list(codes)).all(1)]] = True
    return np.logical_or.reduceat(bad[flat], starts).tolist()


def _fold_file(day: HostColumns, states: list[JobScanState],
               blocks: list[list[int]]) -> None:
    """Fold each job's *blocks* (ascending) of *day* into its state in
    *states*: each quantity for all jobs at once, then the states."""
    types = {tc.name: tc for tc in day.types}
    n = np.array([len(bs) for bs in blocks])
    starts = np.cumsum(n) - n
    ends = starts + n - 1
    flat = np.fromiter(chain.from_iterable(blocks), dtype=np.int64,
                       count=int(n.sum()))
    # (key, column, width) of the edge columns a type has (maybe not all)
    cols = {name: [(key, *tc.schema.column(key)) for keys in [tc.schema.keys]
                   for key in _EDGE_COLUMNS[name] if key in keys]
            for name, tc in types.items() if name in _EDGE_COLUMNS}
    grids = {name: _grid(types[name], len(day.times)) for name in cols}
    segs = {name: np.searchsorted(tc.block_idx,
                                  np.arange(len(day.times) + 1))
            for name, tc in types.items()
            if name == _GAUGE[0] or grids.get(name) == 0}
    # Every job's first and last block's row of each type.
    edge_blocks = flat[np.concatenate((starts, ends))]
    found = {name: [_edge_row(types[name], segs[name], b, cols[name])
                    for b in edge_blocks.tolist()] if not d
             else _edge_rows(types[name], cols[name], d, edge_blocks)
             for name, d in grids.items()}
    firsts, lasts = ([{name: got[j] for name, got in found.items()
                       if got[j] is not None} for j in range(k, k + len(n))]
                     for k in (0, len(n)))
    widths = {f"{name}.{key}": width for name, edge in cols.items()
              for key, _col, width in edge}
    pmc = next((name for name in _PMC_CODES if name in types), None)
    ib, steps = types.get("ib"), {}
    if ib is not None and grids["ib"]:
        # (last - first) mod 2**width is event_delta (u8 wraps natively),
        # per key x block x device; zero from a job's last block on.
        values = ib.values[:, [c for _k, c, _w in cols["ib"]]].T.reshape(
            len(cols["ib"]), -1, grids["ib"])[:, flat]
        deltas = np.zeros_like(values)
        deltas[:, :-1] = values[:, 1:] - values[:, :-1]
        deltas &= np.array([(1 << w) - 1 for *_k, w in cols["ib"]],
                           dtype=np.uint64)[:, None, None]
        deltas[:, ends] = 0
        for (key, _c, _w), per_key in zip(cols["ib"], deltas):
            steps[key] = _sums(per_key.ravel(), starts * grids["ib"])
    foreign = _foreign(types, len(day.times), flat, starts)
    t_first, t_last = (day.times[flat[at]].tolist() for at in (starts, ends))

    for j, st in enumerate(states):
        st.widths.update(widths)
        if pmc is not None and (st.pmc is None or pmc == "amd64_pmc"):
            st.pmc = pmc
        fresh = not st.n_blocks
        if fresh:
            st.t_first, st.first = t_first[j], firsts[j]
        if st.chain is not None and ib is None:
            st.chain = None
        elif st.chain is not None:
            for key, _col, _w in cols["ib"]:
                st.chain.setdefault(key, 0)
            if not fresh:  # bridge the file boundary
                _chain_pair(st, st.last.get("ib"), firsts[j].get("ib"))
            if not grids["ib"]:  # rare shapes: device by device
                rows = [_edge_row(ib, segs["ib"], b, cols["ib"])
                        for b in blocks[j]]
                for prev, cur in zip(rows, rows[1:]):
                    _chain_pair(st, prev, cur)
            elif st.chain is not None:
                for key, sums in steps.items():
                    st.chain[key] += sums[j]
        st.t_last = t_last[j]
        st.last = st.first if fresh and n[j] == 1 else lasts[j]
        st.n_blocks += int(n[j])
        st.foreign = st.foreign or foreign[j]
    name, key = _GAUGE
    gauge = types.get(name)
    if gauge is None or key not in gauge.schema.keys:
        return
    # Per job, the (Σ, n, max) of the gauge's device sums of its blocks
    # with rows (reduceat's value at an empty block is masked away).
    counts = np.diff(segs[name])
    sums = np.add.reduceat(np.append(gauge.values[:, gauge.schema.index_of(
        key)], np.uint64(0)), segs[name][:-1]) * (counts > 0)
    for st, total, count, peak in zip(
            states, _sums(sums[flat], starts),
            np.add.reduceat(counts[flat] > 0, starts, dtype=np.int64).tolist(),
            np.maximum.reduceat(sums[flat], starts).tolist()):
        if count:
            total0, n0, peak0 = st.gauge or (0, 0, 0)
            st.gauge = [total0 + total, n0 + count, max(peak0, peak)]


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
        if jobid in self._seeded and label <= self._seeded[jobid]:
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
        by_job: dict[str, list[int]] = {}
        for b, jobids in enumerate(day.block_jobids()[lo:hi], lo):
            for jobid in jobids:
                by_job.setdefault(jobid, []).append(b)
        states, blocks = [], []
        for jobid, bs in by_job.items():
            st = self._state(jobid, day.label)
            if st is not None:
                self.spanned[jobid] = None
                states.append(st)
                blocks.append(bs)
        if states:
            _fold_file(day, states, blocks)

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
# Metrics from the states (parity-exact with summarize._host_partial, the
# reference).
# ---------------------------------------------------------------------------


def _edge_deltas(name: str, todo: list[JobScanState],
                 devices: Collection[str] = ()) -> dict:
    """Per state of *todo*, the first→last delta of each key of type
    *name* summed over its devices — and under ``(name, device)``, that
    of each of *devices* alone — as one job-major list over the keys of
    :data:`_EDGE_COLUMNS`, None where the reference has no value (a key
    or a row missing, a device of the last row not in the first).

    Every job's rows are stacked over the host's device table with a
    presence mask; ``(last - first) & (2**width - 1)`` is
    :func:`event_delta`, range check and message included, and a job's
    sum over its devices is exact (u8, or Python ints past 2**64)."""
    keys, n = _EDGE_COLUMNS[name], len(todo)
    rows = [st.first.get(name) for st in todo] + [
        st.last.get(name) for st in todo]
    groups: dict[tuple, list[int]] = {}
    for j, row in enumerate(rows):
        if row is not None:
            groups.setdefault(row[:2], []).append(j)
    if not groups:
        return {}
    table = {dev: i for i, dev in enumerate(dict.fromkeys(chain.from_iterable(
        devs for devs, _k in groups)))}
    # The usual case: one shape, every row, key and device.
    full = None not in rows and list(groups) == [(rows[0][0], keys)]
    has_key = np.full((2 * n, len(keys)), full)
    has_dev = np.full((2 * n, len(table)), full)
    if full:
        values = np.array([row[2] for row in rows], dtype=np.uint64)
    else:
        values = np.zeros((2 * n, len(keys), len(table)), dtype=np.uint64)
        for (devs, ks), js in groups.items():
            values[np.ix_(js, [keys.index(k) for k in ks],
                          [table[d] for d in devs])] = np.array(
                [rows[j][2] for j in js], dtype=np.uint64)
            has_key[js] = [k in ks for k in keys]
            has_dev[js] = [d in devs for d in table]
    names = [f"{name}.{k}" for k in keys]
    width = np.array([[st.widths.get(k, 64) for k in names] for st in todo])
    # 2**width - 1, for a width of 64 too (u8 wraps)
    mask = ((np.uint64(2) << (width - 1).astype(np.uint64)) - np.uint64(1))[
        ..., None]
    first, last = values[:n], values[n:]
    key_ok = has_key[:n] & has_key[n:]
    included = key_ok[..., None] & (has_dev[:n] & has_dev[n:])[:, None]
    if (wide := (((first > mask) | (last > mask)) & included).any(2)).any():
        raise ValueError(
            f"counter value out of range for width {width[wide][0]}")
    deltas = ((last - first) & mask) * included
    exact = deltas.astype(object) if int(deltas.max()).bit_length() + len(
        table).bit_length() > 64 else deltas
    whole = key_ok & ~(has_dev[n:] & ~has_dev[:n]).any(1)[:, None]
    out = {name: np.where(whole, exact.sum(2).astype(object), None)}
    for dev in devices:
        if dev in table:
            d = table[dev]
            out[name, dev] = np.where(included[..., d],
                                      deltas[..., d].astype(object), None)
    return {what: got.ravel().tolist() for what, got in out.items()}


def host_partials(hostname: str, states: Mapping[str, JobScanState],
                  jobs: Collection[str] | None = None,
                  ) -> dict[str, HostJobPartial]:
    """The :class:`HostJobPartial` of every finished fold in *states*
    (of *jobs* only, when given): one value per :data:`METRICS` row —
    the metrics, None conditions and float operations of
    :func:`summarize._host_partial`, in the same order.  The integer
    work is one :func:`_edge_deltas` per record type over all of the
    host's jobs; the floats are formed row by row, job by job."""
    todo = {jobid: st for jobid, st in states.items()
            if (jobs is None or jobid in jobs) and st.n_blocks >= 2
            and st.t_last - st.t_first > 0}
    if not todo:  # most hosts of a live batch: no job can load yet
        return {}
    sts = list(todo.values())
    mounts = {(m.type, m.device) for m in METRICS.values() if m.device}
    totals = {what: (keys, flat) for name, keys in _EDGE_COLUMNS.items()
              if name != "ib" for what, flat in _edge_deltas(
                  name, sts, [dev for t, dev in mounts if t == name]).items()}
    seconds = [st.t_last - st.t_first for st in sts]
    none = [None] * len(sts)

    def rates(what, key: str, scale: float = 1.0) -> list:
        """Per job, the *key* total of *what* (a type, or ``(type,
        device)``) ``* scale / seconds``; None where there is none."""
        keys, flat = totals.get(what, ((), ()))
        if key not in keys:
            return none
        return [None if total is None else total * scale / s for total, s
                in zip(flat[keys.index(key)::len(keys)], seconds)]

    def added(columns) -> list:  # per job, left to right; None if any is
        return [None if None in job else reduce(add, job)
                for job in zip(*columns)]

    cpu = None
    values = {}
    for metric, m in METRICS.items():
        if m.reduce in ("gauge_mean", "gauge_max"):
            got = [None if st.gauge is None else (
                float(st.gauge[0]) / st.gauge[1] if m.reduce == "gauge_mean"
                else float(st.gauge[2])) * m.scale for st in sts]
        elif m.reduce == "chain":
            got = added([None if st.chain is None or key not in st.chain
                         else st.chain[key] * m.scale / s
                         for st, s in zip(sts, seconds)] for key in m.keys)
        elif m.reduce == "cpu_fraction":
            if cpu is None:  # per job, the rate of every cpu key, and Σ
                keys = _EDGE_COLUMNS["cpu"]
                cpu = [None if None in job else (dict(zip(keys, job)),
                                                 sum(job))
                       for job in zip(*(rates("cpu", key) for key in keys))]
            got = [None if job is None or not job[1] > 0 else reduce(
                add, [job[0][key] for key in m.keys]) / job[1] for job in cpu]
        elif m.type == "pmc":  # the host's PMC type; Intel over-counts
            by_type = {name: added(rates(name, key, m.scale)
                                   for key in m.keys) for name in _PMC_CODES}
            got = [None if st.pmc is None else by_type[st.pmc][j]
                   for j, st in enumerate(sts)]
            got = [v / FP_OVERCOUNT if v is not None
                   and st.pmc == "intel_pmc" else v
                   for st, v in zip(sts, got)]
        else:
            got = added(rates((m.type, m.device) if m.device else m.type,
                              key, m.scale) for key in m.keys)
            if m.fallback is not None:
                alt = added(rates(m.fallback, key, m.scale) for key in m.keys)
                got = [a if v is None else v for v, a in zip(got, alt)]
        if m.guard:
            got = [None if st.foreign else v for st, v in zip(sts, got)]
        for divisor in m.divisors:
            got = [None if v is None else v / divisor for v in got]
        values[metric] = got
    guarded = tuple(metric for metric, m in METRICS.items() if m.guard)
    return {jobid: HostJobPartial(
        hostname=hostname,
        jobid=jobid,
        metrics={metric: got[j] for metric, got in values.items()
                 if got[j] is not None},
        poisoned=guarded if st.foreign else (),
        n_blocks=st.n_blocks,
        seconds=seconds[j],
    ) for j, (jobid, st) in enumerate(todo.items())}


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
    onto *seeds* (the persisted states of the host's open jobs) in the
    span ``ingest.fold``, beside the decode's ``ingest.parse``.
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
    with span("ingest.fold", host=hostname):
        fold = _HostFold(seeds)
        fold.add_days(kept)
        partials = host_partials(hostname, fold.states, jobs)
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
