"""Columnar analytics engine: one shared, immutable warehouse snapshot.

Every report and figure bench used to re-open the SQLite warehouse and
re-pivot the long-form ``job_metrics`` table independently.  The
job-specific monitoring literature (MPCDF, LIKWID Monitoring Stack) is
blunt that the *reporting* tier, not collection, is what must scale to
interactive many-user traffic — so this module makes the whole analytics
surface share one columnar image of the warehouse:

* :class:`SystemFrame` — one system's joined job+metrics table as column
  arrays, loaded with two bulk ``SELECT``\\ s (jobs, then one pass over
  ``job_metrics`` served by the covering index) instead of a correlated
  subquery per metric per job.  Dimension columns are
  dictionary-encoded: an ``int32`` code array plus the sorted unique
  values, so equality filters and group-bys run on integer arrays.
* :class:`WarehouseSnapshot` — the per-warehouse container: frames and
  series are loaded lazily, once, and memoized together with query and
  report results.  A snapshot is pinned to the warehouse's
  ``data_version`` (generation stamp + in-process mutation counter);
  any ingest commit bumps the stamp, and the next analytics access
  rebuilds from scratch.  Until then, every :class:`~repro.xdmod.query.
  JobQuery`, report, and figure bench on the same warehouse shares one
  scan.

The memo cache is keyed by ``(system, filter spec, group spec,
metrics)`` tuples supplied by the query layer; keys never embed array
data.

Concurrency contract (the query service runs thousands of dashboard
sessions over one snapshot):

* a *published* snapshot is never mutated — :meth:`WarehouseSnapshot.
  refresh` builds a replacement object and :meth:`for_warehouse` swaps
  it in atomically, so a reader that grabbed the old handle keeps one
  consistent frozen view for its whole request (no half-extended
  frames, no memo entries pruned out from under it);
* lazy loads (frames, series, system info) serialize on a load lock —
  both because the SQLite connection is shared and so two threads never
  duplicate a bulk scan;
* memo bookkeeping (hit/miss counts and the entry store) serializes on
  a second, short-hold lock; the compute itself runs outside it, so
  distinct keys compute concurrently.  Two threads racing the same
  cold key may both compute (both count as misses; the first store
  wins), which keeps ``hits + misses == calls`` exact under contention.
"""

from __future__ import annotations

import threading
from itertools import chain, groupby
from operator import itemgetter
from typing import Any, Callable

import numpy as np

from repro.ingest.vocabulary import SUMMARY_METRICS
from repro.ingest.warehouse import Warehouse
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import span

__all__ = [
    "DIMENSIONS",
    "FACT_COLUMNS",
    "SystemFrame",
    "WarehouseSnapshot",
]

#: The categorical job dimensions, dictionary-encoded in every frame.
DIMENSIONS = ("user", "account", "science_field", "app", "queue",
              "exit_status")

#: Numeric per-job facts carried by the ``jobs`` table itself.
FACT_COLUMNS = ("submit_time", "start_time", "end_time", "nodes", "cores",
                "node_hours")

def _freeze(a: np.ndarray) -> np.ndarray:
    """Snapshot arrays are shared across every consumer: make writes
    fail loudly instead of corrupting a neighbour's report."""
    a.flags.writeable = False
    return a


def _encode(values) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Dictionary-encode one dimension column: its sorted unique
    values, an ``int32`` code per row, and the value -> code map."""
    uniq = sorted(set(values))
    code_of = {v: c for c, v in enumerate(uniq)}
    codes = np.fromiter(map(code_of.__getitem__, values), np.int32,
                        len(values))
    return np.array(uniq, dtype=object), codes, code_of


def _pivot_metrics(conn, system: str, jobid: np.ndarray, lo: int, hi: int,
                   columns: dict[str, np.ndarray]) -> int:
    """Write the ``job_metrics`` rows of *system* with ``lo < rowid <=
    hi`` into *columns* (metric -> array aligned with the sorted
    *jobid*); returns how many rows landed.

    A window wide enough to hold a whole column is read one metric at
    a time in ``idx_metrics_covering`` order, ``(metric, jobid)`` — the
    order *jobid* is in, both BINARY — so the values of a metric that
    every job carries *are* its column, and only a metric some job
    lacks also fetches its job ids.  A narrower window (a delta) is one
    pass over the rowid range itself, ids and all: O(delta), no index
    walk.  Either way cursors drain through C iterators — no Python
    statement runs per row — and the window makes the statements agree
    with each other and with the ``jobs`` read when another process
    appends meanwhile.
    """
    n = len(jobid)

    def by_index():
        rows = ("FROM job_metrics WHERE system=? AND metric=?"
                " AND rowid>? AND rowid<=? ORDER BY jobid")
        for metric in columns:
            args = (system, metric, lo, hi)
            values = np.fromiter(chain.from_iterable(
                conn.execute(f"SELECT value {rows}", args)), float)
            if len(values) == n:
                yield metric, None, values
            elif len(values):
                yield metric, chain.from_iterable(
                    conn.execute(f"SELECT jobid {rows}", args)), values

    def by_rowid():
        rows = conn.execute(
            "SELECT metric, jobid, value FROM job_metrics NOT INDEXED"
            " WHERE rowid>? AND rowid<=? AND system=? ORDER BY metric",
            (lo, hi, system)).fetchall()
        for metric, run in groupby(rows, key=itemgetter(0)):
            _, ids, values = zip(*run)
            yield metric, ids, values

    pos = None
    n_read = 0
    for metric, ids, values in (by_index() if hi - lo >= n else by_rowid()):
        col = columns.get(metric)
        if col is None:
            continue  # a metric name the frame does not carry
        n_read += len(values)
        if ids is None:
            col[:] = values
        else:
            if pos is None:
                pos = dict(zip(jobid.tolist(), range(n)))
            col[np.fromiter(map(pos.__getitem__, ids), np.intp,
                            len(values))] = values
    return n_read


class SystemFrame:
    """One system's jobs as immutable column arrays.

    Rows are ordered by ``jobid`` (string sort), matching
    :meth:`Warehouse.job_table`.  All :data:`SUMMARY_METRICS` are loaded
    (NaN where a job has no stored value); the query layer selects the
    completeness subset it needs via :meth:`complete_mask`.
    """

    __slots__ = ("system", "n_rows", "jobid", "numeric", "codes", "uniques",
                 "_code_of", "_decoded", "_complete", "_jobs_hi",
                 "_metrics_hi")

    def __init__(self, warehouse: Warehouse, system: str):
        self.system = system
        conn = warehouse.connection
        # Rowid watermarks taken before the reads, and the reads stop
        # at them: rows above are exactly what :meth:`extended` must
        # fetch later (the warehouse write path is insert-only unless
        # it declares destruction).  Metrics first — a job row commits
        # with or before its metric rows, so every metric row under
        # its watermark has its job under the other.
        self._metrics_hi = warehouse._max_rowid("job_metrics")
        self._jobs_hi = warehouse._max_rowid("jobs")
        dim_cols = ", ".join(DIMENSIONS)
        fact_cols = ", ".join(FACT_COLUMNS)
        rows = conn.execute(
            f"SELECT jobid, {dim_cols}, {fact_cols} FROM jobs"
            f" WHERE system=? AND rowid<=? ORDER BY jobid",
            (system, self._jobs_hi),
        ).fetchall()
        n = self.n_rows = len(rows)
        cols = list(zip(*rows)) if rows else [
            [] for _ in range(1 + len(DIMENSIONS) + len(FACT_COLUMNS))
        ]
        self.jobid = _freeze(np.array(cols[0], dtype=object))

        self.codes: dict[str, np.ndarray] = {}
        self.uniques: dict[str, np.ndarray] = {}
        self._code_of: dict[str, dict[str, int]] = {}
        for i, dim in enumerate(DIMENSIONS, start=1):
            uniq, codes, self._code_of[dim] = _encode(cols[i])
            self.uniques[dim] = _freeze(uniq)
            self.codes[dim] = _freeze(codes)

        self.numeric: dict[str, np.ndarray] = {}
        for i, name in enumerate(FACT_COLUMNS, start=1 + len(DIMENSIONS)):
            self.numeric[name] = _freeze(np.array(cols[i], dtype=float))

        # The long-form metrics table, pivoted in index order (the
        # covering index idx_metrics_covering serves this without
        # touching the heap) instead of a correlated subquery per
        # metric per job.
        metric_cols = {m: np.full(n, np.nan) for m in SUMMARY_METRICS}
        n_metric_rows = _pivot_metrics(conn, system, self.jobid, 0,
                                       self._metrics_hi, metric_cols)
        for m, col in metric_cols.items():
            self.numeric[m] = _freeze(col)
        get_registry().counter("analytics.frame_rows_scanned").inc(
            n + n_metric_rows)

        self._decoded: dict[str, np.ndarray] = {}
        self._complete: dict[tuple[str, ...], np.ndarray] = {}

    # -- access ------------------------------------------------------------

    def decode(self, dim: str) -> np.ndarray:
        """The dimension as an object array (materialized once)."""
        out = self._decoded.get(dim)
        if out is None:
            out = self._decoded[dim] = _freeze(
                self.uniques[dim][self.codes[dim]]
            )
        return out

    def code_of(self, dim: str, value: str) -> int:
        """The integer code of one dimension value, or -1 if the value
        never occurs on this system."""
        return self._code_of[dim].get(value, -1)

    def complete_mask(self, metrics: tuple[str, ...]) -> np.ndarray:
        """Rows carrying every requested metric (the paper's analyses
        operate on fully summarized jobs)."""
        key = tuple(metrics)
        mask = self._complete.get(key)
        if mask is None:
            mask = np.ones(self.n_rows, dtype=bool)
            for m in key:
                mask &= ~np.isnan(self.numeric[m])
            self._complete[key] = _freeze(mask)
        return mask

    # -- delta refresh -----------------------------------------------------

    def extended(self, warehouse: Warehouse) -> "SystemFrame":
        """This frame plus every row appended since it was loaded.

        O(delta) by construction: only rows above the recorded rowid
        watermarks are fetched (the ``analytics.frame_rows_scanned``
        counter proves it); pre-existing rows are merged in from this
        frame's already-frozen arrays, never re-read from SQLite.
        Returns ``self`` (with advanced watermarks) when nothing was
        appended, else a new frame — the old one stays valid for any
        consumer still holding it.
        """
        conn = warehouse.connection
        metrics_hi = warehouse._max_rowid("job_metrics")
        jobs_hi = warehouse._max_rowid("jobs")
        dim_cols = ", ".join(DIMENSIONS)
        fact_cols = ", ".join(FACT_COLUMNS)
        rows = conn.execute(
            f"SELECT jobid, {dim_cols}, {fact_cols} FROM jobs"
            f" WHERE system=? AND rowid>? AND rowid<=? ORDER BY jobid",
            (self.system, self._jobs_hi, jobs_hi),
        ).fetchall()

        n_new = len(rows)
        cols = list(zip(*rows)) if rows else [
            [] for _ in range(1 + len(DIMENSIONS) + len(FACT_COLUMNS))
        ]
        # Both halves are jobid-sorted, so a stable argsort of the
        # concatenation is a merge; the same permutation reorders every
        # column.
        jobid = np.concatenate([self.jobid, np.array(cols[0], dtype=object)])
        order = np.argsort(jobid, kind="stable")
        jobid = jobid[order]
        pad = np.full(n_new, np.nan)
        metric_cols = {
            m: np.concatenate([self.numeric[m], pad])[order]
            for m in SUMMARY_METRICS
        }
        n_metric_rows = _pivot_metrics(conn, self.system, jobid,
                                       self._metrics_hi, metrics_hi,
                                       metric_cols)
        get_registry().counter("analytics.frame_rows_scanned").inc(
            n_new + n_metric_rows)
        if not n_new and not n_metric_rows:
            self._jobs_hi, self._metrics_hi = jobs_hi, metrics_hi
            return self

        new = object.__new__(SystemFrame)
        new.system = self.system
        new.n_rows = self.n_rows + n_new
        new._jobs_hi, new._metrics_hi = jobs_hi, metrics_hi
        new.jobid = _freeze(jobid)

        new.codes = {}
        new.uniques = {}
        new._code_of = {}
        for i, dim in enumerate(DIMENSIONS, start=1):
            vals = np.array(cols[i], dtype=object)
            uniq = np.unique(np.concatenate([self.uniques[dim], vals]))
            remap = np.searchsorted(uniq, self.uniques[dim])
            old_codes = (remap[self.codes[dim]] if self.n_rows
                         else np.empty(0, dtype=np.int64))
            codes = np.concatenate(
                [old_codes, np.searchsorted(uniq, vals)])[order]
            new.uniques[dim] = _freeze(uniq)
            new.codes[dim] = _freeze(codes.astype(np.int32))
            new._code_of[dim] = {v: c for c, v in enumerate(uniq)}

        new.numeric = {}
        for i, name in enumerate(FACT_COLUMNS, start=1 + len(DIMENSIONS)):
            col = np.concatenate(
                [self.numeric[name], np.array(cols[i], dtype=float)])
            new.numeric[name] = _freeze(col[order])
        for m, col in metric_cols.items():
            new.numeric[m] = _freeze(col)

        new._decoded = {}
        new._complete = {}
        return new


#: Numeric job columns that carry facility time — the only columns a
#: range step can use to prove itself disjoint from appended data.
_TIME_COLUMNS = ("submit_time", "start_time", "end_time")


def _key_parts(key):
    """Every leaf value in a (possibly nested) memo key tuple."""
    for part in key:
        if isinstance(part, tuple):
            yield from _key_parts(part)
        else:
            yield part


def _time_range_steps(key):
    """Every ``("range", <time column>, lo, hi)`` step inside *key*."""
    if isinstance(key, tuple):
        if (len(key) == 4 and key[0] == "range"
                and key[1] in _TIME_COLUMNS):
            yield key
        for part in key:
            if isinstance(part, tuple):
                yield from _time_range_steps(part)


def _memo_survives(key, affected: set, series_changed: set,
                   spans: dict) -> bool:
    """Whether a memo entry provably cannot see the appended rows.

    Conservative by construction: a key survives only when it names no
    affected system at all, or when every affected system it names has
    an inclusive time-range filter step disjoint from that system's
    appended time span.  (System names are matched against every string
    in the key — a dimension *value* that collides with a system name
    merely over-drops, never under-drops.)
    """
    names = {p for p in _key_parts(key) if isinstance(p, str)}
    hit = affected & names
    if not hit:
        return True
    if hit & series_changed:
        return False
    steps = list(_time_range_steps(key))
    for system in hit:
        colspans = spans[system]
        # One disjoint step suffices: if every appended row fails that
        # filter, the memoized result cannot have changed.
        if not any((hi is not None and hi < colspans[col][0])
                   or (lo is not None and lo > colspans[col][1])
                   for _op, col, lo, hi in steps):
            return False
    return True


#: Serializes snapshot lookup/refresh/publication on
#: ``Warehouse._snapshot``: concurrent readers that find it stale must
#: not race two refreshes.
_SNAP_LOCK = threading.Lock()


class WarehouseSnapshot:
    """The shared columnar image of one warehouse at one data version."""

    def __init__(self, warehouse: Warehouse):
        self._warehouse = warehouse
        self.stamp = warehouse.data_version
        self.generation = warehouse.generation
        self._frames: dict[str, SystemFrame] = {}
        self._series: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self._series_names: dict[str, list[str]] = {}
        self._info: dict[str, dict] = {}
        self._memo: dict[tuple, Any] = {}
        self.hits = 0
        self.misses = 0
        # Load lock: serializes lazy SQLite scans (shared connection,
        # no duplicated bulk work).  Memo lock: short-hold bookkeeping
        # for the entry store and hit/miss counts.
        self._load_lock = threading.RLock()
        self._memo_lock = threading.Lock()
        # Append-vs-rebuild bookkeeping: rowid high-waters plus the
        # warehouse's destruction counter and per-system series epochs.
        # If only rows above these appear later, :meth:`refresh` extends
        # in O(delta) instead of rebuilding.
        self._jobs_hi = warehouse._max_rowid("jobs")
        self._metrics_hi = warehouse._max_rowid("job_metrics")
        self._syslog_hi = warehouse._max_rowid("syslog_events")
        state = warehouse.change_state()
        self._destructive = state["destructive"]
        self._series_epochs = state["series_epochs"]

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def for_warehouse(cls, warehouse: Warehouse) -> "WarehouseSnapshot":
        """The memoized snapshot for *warehouse*, replaced iff its
        ``data_version`` moved since the last call (i.e. on ingest
        commit or any buffered write).  A stale snapshot is superseded
        by :meth:`refresh` — O(delta) after an append-only ingest, full
        rebuild after destructive writes — and the replacement is
        published atomically under one lock, so concurrent callers
        always get either the old consistent snapshot or the new one,
        never a half-refreshed hybrid."""
        with _SNAP_LOCK:
            snap = warehouse._snapshot
            if snap is None:
                snap = cls(warehouse)
            elif snap.stamp != warehouse.data_version:
                snap = snap.refresh(warehouse)
            warehouse._snapshot = snap
            return snap

    def refresh(self, warehouse: Warehouse) -> "WarehouseSnapshot":
        """The snapshot brought up to *warehouse*'s current data
        version — a **new object**; ``self`` is never mutated.

        Append-only delta (the common post-ingest case): every loaded
        frame is extended with just the appended rows, series whose
        epoch did not move stay loaded, and memo entries survive when
        their key provably cannot see the appended data — either no
        affected system appears in the key, or an inclusive time-range
        step is disjoint from the appended time span.  Anything
        destructive (row rewrites/deletes) falls back to a fresh
        snapshot.

        Returning a replacement instead of extending in place is the
        concurrency contract: a reader that resolved ``self`` before
        the refresh keeps one frozen, mutually consistent set of
        frames/series/memo entries for as long as it holds the
        reference — it can never observe frame A extended while frame
        B (or the memo pruned against the new rows) still describes
        the old generation.  Unchanged frames and surviving entries
        are shared by reference, so the O(delta) cost is unchanged.
        Returns ``self`` only when already current.
        """
        if self.stamp == warehouse.data_version:
            return self
        state = warehouse.change_state()
        if state["destructive"] != self._destructive:
            get_registry().counter("analytics.snapshot_rebuild").inc()
            return WarehouseSnapshot(warehouse)
        with span("analytics.snapshot_refresh"):
            conn = warehouse.connection
            jobs_hi = warehouse._max_rowid("jobs")
            metrics_hi = warehouse._max_rowid("job_metrics")
            syslog_hi = warehouse._max_rowid("syslog_events")

            # Appended-data time span per system and per time column,
            # from the rows above the old high-waters (GROUP BY keeps
            # this one indexed pass per table regardless of system
            # count).  Per-column spans matter: a lookback job can be
            # submitted days before it ends, and a union span would
            # needlessly kill entries filtered on a single column.
            spans: dict[str, dict[str, tuple[float, float]]] = {}

            def widen(system: str, col: str, lo: float, hi: float
                      ) -> None:
                cur = spans.setdefault(system, {}).get(col)
                spans[system][col] = (
                    (lo, hi) if cur is None
                    else (min(cur[0], lo), max(cur[1], hi)))

            frame_affected: set[str] = set()
            for system, *bounds in conn.execute(
                "SELECT system, MIN(submit_time), MAX(submit_time),"
                " MIN(start_time), MAX(start_time),"
                " MIN(end_time), MAX(end_time)"
                " FROM jobs WHERE rowid>? GROUP BY system",
                (self._jobs_hi,),
            ):
                for i, col in enumerate(_TIME_COLUMNS):
                    widen(system, col, bounds[2 * i], bounds[2 * i + 1])
                frame_affected.add(system)
            for (system,) in conn.execute(
                "SELECT DISTINCT system FROM job_metrics WHERE rowid>?",
                (self._metrics_hi,),
            ):
                if system not in frame_affected:
                    # Metrics without their job row cannot happen via
                    # the pipeline; treat as touching all of time.
                    for col in _TIME_COLUMNS:
                        widen(system, col, float("-inf"), float("inf"))
                    frame_affected.add(system)
            for system, lo, hi in conn.execute(
                "SELECT system, MIN(t), MAX(t) FROM syslog_events"
                " WHERE rowid>? GROUP BY system",
                (self._syslog_hi,),
            ):
                for col in _TIME_COLUMNS:
                    widen(system, col, lo, hi)

            series_changed = {
                s for s, epoch in state["series_epochs"].items()
                if epoch != self._series_epochs.get(s, 0)
            }
            affected = set(spans) | series_changed

            # Assemble the replacement without touching self: extended
            # frames for affected systems, everything else shared by
            # reference, memo filtered into a fresh dict.
            new = WarehouseSnapshot.__new__(WarehouseSnapshot)
            new._warehouse = warehouse
            with self._load_lock:
                new._frames = {
                    system: (frame.extended(warehouse)
                             if system in frame_affected else frame)
                    for system, frame in self._frames.items()
                }
                new._series = {
                    key: pair for key, pair in self._series.items()
                    if key[0] not in series_changed
                }
                new._series_names = {
                    system: names
                    for system, names in self._series_names.items()
                    if system not in series_changed
                }
                new._info = dict(self._info)
            with self._memo_lock:
                new._memo = {
                    key: value for key, value in self._memo.items()
                    if _memo_survives(key, affected, series_changed,
                                      spans)
                }
                new.hits = self.hits
                new.misses = self.misses
            new._load_lock = threading.RLock()
            new._memo_lock = threading.Lock()
            new._jobs_hi = jobs_hi
            new._metrics_hi = metrics_hi
            new._syslog_hi = syslog_hi
            new._destructive = state["destructive"]
            new._series_epochs = state["series_epochs"]
            new.stamp = warehouse.data_version
            new.generation = warehouse.generation
            get_registry().counter("analytics.snapshot_refresh").inc()
        return new

    @classmethod
    def invalidate(cls, warehouse: Warehouse) -> None:
        """Explicitly drop the cached snapshot (benchmarks use this to
        measure the cold path; ingest does not need it — commits move
        the data version, which invalidates implicitly)."""
        with _SNAP_LOCK:
            warehouse._snapshot = None

    # -- data --------------------------------------------------------------

    def frame(self, system: str) -> SystemFrame:
        """The (lazily loaded) frame for *system*; double-checked under
        the load lock so concurrent readers share one bulk scan."""
        frame = self._frames.get(system)
        if frame is None:
            with self._load_lock:
                frame = self._frames.get(system)
                if frame is None:
                    with span("analytics.frame_load", system=system):
                        frame = SystemFrame(self._warehouse, system)
                    self._frames[system] = frame
        return frame

    def system_info(self, system: str) -> dict:
        """System facts (nodes, cores, peak TF), loaded once."""
        info = self._info.get(system)
        if info is None:
            with self._load_lock:
                info = self._info.get(system)
                if info is None:
                    info = self._warehouse.system_info(system)
                    self._info[system] = info
        return info

    def series(self, system: str,
               metric: str) -> tuple[np.ndarray, np.ndarray]:
        """One stored system series, loaded once and shared read-only."""
        key = (system, metric)
        pair = self._series.get(key)
        if pair is None:
            with self._load_lock:
                pair = self._series.get(key)
                if pair is None:
                    t, v = self._warehouse.series(system, metric)
                    pair = (_freeze(t), _freeze(v))
                    self._series[key] = pair
        return pair

    def series_metrics(self, system: str) -> list[str]:
        """The names of *system*'s stored series, sorted, loaded once
        and dropped with its series when its series epoch moves, so a
        name check and the series it admits read one generation.
        Shared: callers must not mutate the list."""
        names = self._series_names.get(system)
        if names is None:
            with self._load_lock:
                names = self._series_names.get(system)
                if names is None:
                    names = self._warehouse.series_metrics(system)
                    self._series_names[system] = names
        return names

    # -- memoization -------------------------------------------------------

    def cached(self, key: tuple, compute: Callable[[], Any]) -> Any:
        """Memoize *compute* under *key* for this snapshot's lifetime.

        Keys are built by callers as flat tuples of hashables — e.g.
        ``("group_by", system, base metrics, filter spec, group dims,
        metrics)``.  The warehouse generation is implicit: a new
        generation means a new snapshot, so stale entries can never be
        served.

        Thread-safe: lookup and hit/miss accounting happen under the
        memo lock, *compute* runs outside it (so concurrent misses on
        distinct keys don't serialize), and the store uses
        ``setdefault`` so the first finisher wins and every caller
        returns the same object.  ``hits + misses`` equals the number
        of calls exactly, under any interleaving.
        """
        registry = get_registry()
        with self._memo_lock:
            try:
                value = self._memo[key]
            except KeyError:
                self.misses += 1
            else:
                self.hits += 1
                registry.counter("analytics.cache_hits").inc()
                return value
        registry.counter("analytics.cache_misses").inc()
        value = compute()
        with self._memo_lock:
            return self._memo.setdefault(key, value)

    @property
    def cache_stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._memo)}
