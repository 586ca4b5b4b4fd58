"""Job-level query engine: filter / group-by / weighted statistics.

This is the analytical core under every report.  Since the columnar
engine landed, a query is a *view* over the shared
:class:`~repro.xdmod.snapshot.WarehouseSnapshot`: dimension columns are
dictionary-encoded ``int32`` code arrays, so equality filters compare
integers and :meth:`JobQuery.group_by` is an ``np.bincount``-based
weighted-aggregation kernel over the code arrays (one pass per metric)
instead of a boolean mask per group.  All metric averages are node-hour
weighted, per the paper's §4.1 ("values were calculated by the job
weighted by node*hour").

Group-by, weighted-mean and node-hour results are memoized on the
snapshot, keyed by ``(operation, system, base metrics, filter spec,
group spec, metrics)``; the filter spec is the canonical chain of
``filter``/``filter_range`` steps that produced this view.  A new ingest
commit moves the warehouse's data version, which replaces the snapshot
and with it every cached result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ingest.vocabulary import SUMMARY_METRICS
from repro.ingest.warehouse import Warehouse
from repro.telemetry.metrics import get_registry
from repro.xdmod.snapshot import DIMENSIONS, SystemFrame, WarehouseSnapshot

__all__ = ["JobQuery", "GroupResult", "DIMENSIONS"]


@dataclass(frozen=True)
class GroupResult:
    """One group's aggregates from :meth:`JobQuery.group_by`.

    ``key`` is the display key ("namd", or "namd|completed" for a
    multi-dimension group-by); ``keys`` carries the per-dimension parts.
    """

    key: str
    job_count: int
    node_hours: float
    weighted_means: dict[str, float]
    keys: tuple[str, ...] = ()

    def mean(self, metric: str) -> float:
        return self.weighted_means[metric]


class JobQuery:
    """A filterable view over one system's jobs.

    Filters return *new* queries (the underlying snapshot arrays are
    shared), so a base query can branch cheaply into per-report
    variants.  Construction does not rescan the warehouse: all queries
    on the same warehouse generation share one
    :class:`~repro.xdmod.snapshot.SystemFrame` per system.
    """

    def __init__(self, warehouse: Warehouse, system: str,
                 metrics: tuple[str, ...] = SUMMARY_METRICS,
                 _mask: np.ndarray | None = None,
                 snapshot: WarehouseSnapshot | None = None):
        for m in metrics:
            if m not in SUMMARY_METRICS:
                raise ValueError(f"unknown metric {m!r}")
        self.system = system
        self.metrics = tuple(metrics)
        # An explicit snapshot pins the query to one frozen view (the
        # service layer resolves the handle once per request so every
        # sub-query of a report sees the same generation); otherwise
        # the process-wide current snapshot is used.
        self._snapshot = (snapshot if snapshot is not None
                          else WarehouseSnapshot.for_warehouse(warehouse))
        self._frame: SystemFrame = self._snapshot.frame(system)
        if _mask is not None:
            self._mask = _mask
            self._spec: tuple | None = None  # custom mask: not cacheable
        else:
            self._mask = self._frame.complete_mask(self.metrics)
            self._spec = ()

    # -- plumbing ------------------------------------------------------------

    def _derive(self, mask: np.ndarray, spec: tuple | None) -> "JobQuery":
        q = object.__new__(JobQuery)
        q.system = self.system
        q.metrics = self.metrics
        q._snapshot = self._snapshot
        q._frame = self._frame
        q._mask = mask
        q._spec = spec
        return q

    def _cached(self, op: str, key_tail: tuple, compute):
        """Memoize on the snapshot when this view has a canonical spec."""
        if self._spec is None:
            return compute()
        key = (op, self.system, self.metrics, self._spec) + key_tail
        return self._snapshot.cached(key, compute)

    def _column_raw(self, name: str) -> np.ndarray:
        """A full-frame column (dimensions decoded to object arrays)."""
        if name == "jobid":
            return self._frame.jobid
        if name in DIMENSIONS:
            return self._frame.decode(name)
        if name in SUMMARY_METRICS and name not in self.metrics:
            # Metrics outside the query's completeness set would leak
            # NaN rows; requesting them was a KeyError before the
            # columnar engine and stays one.
            raise KeyError(name)
        return self._frame.numeric[name]

    def column(self, name: str) -> np.ndarray:
        """A column restricted to the current filter."""
        return self._column_raw(name)[self._mask]

    def __len__(self) -> int:
        return int(self._mask.sum())

    # -- filtering -------------------------------------------------------------

    def filter(self, **dims: str | tuple[str, ...]) -> "JobQuery":
        """Filter on dimension equality, e.g. ``filter(user="user0042")``
        or ``filter(app=("namd", "amber"))``.

        Runs on the int32 code arrays; a value that never occurs on this
        system short-circuits to an empty view, and further filters on
        an already-empty view reuse the mask without re-materializing
        anything.
        """
        mask = self._mask
        spec = self._spec
        fresh = False  # may we &= in place (mask not shared yet)?
        for dim, value in sorted(dims.items()):
            if dim not in DIMENSIONS:
                raise ValueError(f"unknown dimension {dim!r}")
            if spec is not None:
                spec = spec + (("eq", dim, value),)
            if not mask.any():
                continue  # already empty: the result is decided
            codes = self._frame.codes[dim]
            if isinstance(value, tuple):
                wanted = [c for c in (self._frame.code_of(dim, v)
                                      for v in value) if c >= 0]
                if not wanted:
                    sub = np.zeros(self._frame.n_rows, dtype=bool)
                else:
                    sub = np.isin(codes, np.array(wanted, dtype=np.int32))
            else:
                code = self._frame.code_of(dim, value)
                if code < 0:
                    sub = np.zeros(self._frame.n_rows, dtype=bool)
                else:
                    sub = codes == code
            if fresh:
                mask &= sub
            else:
                mask = mask & sub
                fresh = True
        return self._derive(mask, spec)

    def filter_range(self, column: str, lo: float | None = None,
                     hi: float | None = None) -> "JobQuery":
        """Filter on a numeric column range (inclusive bounds)."""
        col = self._column_raw(column)
        spec = self._spec
        if spec is not None:
            spec = spec + (("range", column, lo, hi),)
        mask = self._mask
        if mask.any():
            if lo is not None:
                mask = mask & (col >= lo)
                if hi is not None:
                    mask &= col <= hi
            elif hi is not None:
                mask = mask & (col <= hi)
        return self._derive(mask, spec)

    # -- statistics --------------------------------------------------------------

    @property
    def node_hours(self) -> float:
        return self._cached("node_hours", (), lambda: float(
            self.column("node_hours").sum()))

    def weighted_mean(self, metric: str) -> float:
        """Node-hour-weighted mean of a metric over the filtered jobs."""
        def compute() -> float:
            v = self.column(metric)
            w = self.column("node_hours")
            if v.size == 0:
                raise ValueError(f"no jobs in filter for metric {metric!r}")
            wsum = w.sum()
            if wsum <= 0:
                raise ValueError("zero node-hours in filter")
            return float(np.sum(v * w) / wsum)
        return self._cached("wmean", (metric,), compute)

    def weighted_means(self, metrics: tuple[str, ...] | None = None) -> dict[str, float]:
        return {
            m: self.weighted_mean(m)
            for m in (self.metrics if metrics is None else metrics)
        }

    def group_by(self, dimension: str | tuple[str, ...],
                 metrics: tuple[str, ...] | None = None) -> list[GroupResult]:
        """Aggregate by one dimension — or several at once, e.g.
        ``group_by(("app", "exit_status"))`` — ordered by descending
        node-hours.

        The kernel is ``np.bincount`` over the dictionary codes: one
        weighted pass per metric regardless of the group count.  Pass
        ``metrics=()`` for counts and node-hours only.
        """
        dims = (dimension,) if isinstance(dimension, str) else tuple(dimension)
        if not dims:
            raise ValueError("group_by needs at least one dimension")
        for d in dims:
            if d not in DIMENSIONS:
                raise ValueError(f"unknown dimension {d!r}")
        metrics = self.metrics if metrics is None else tuple(metrics)
        for m in metrics:
            if m in SUMMARY_METRICS and m not in self.metrics:
                raise KeyError(m)
        # A counter, not a span: group_by is called per report cell and
        # a span each would balloon the run's trace tree.
        get_registry().counter("analytics.group_by_calls").inc()
        result = self._cached(
            "group_by", (dims, metrics),
            lambda: self._group_by_kernel(dims, metrics),
        )
        return list(result)  # callers may re-sort/slice their copy

    def _group_by_kernel(self, dims: tuple[str, ...],
                         metrics: tuple[str, ...]) -> list[GroupResult]:
        frame = self._frame
        idx = np.flatnonzero(self._mask)
        sizes = [len(frame.uniques[d]) for d in dims]
        combined = frame.codes[dims[0]][idx].astype(np.int64)
        nbins = sizes[0] if sizes else 0
        for d, size in zip(dims[1:], sizes[1:]):
            combined = combined * size + frame.codes[d][idx]
            nbins *= size
        w = frame.numeric["node_hours"][idx]

        counts = np.bincount(combined, minlength=nbins)
        wsums = np.bincount(combined, weights=w, minlength=nbins)
        present = np.flatnonzero(counts)
        means: dict[str, np.ndarray] = {}
        with np.errstate(divide="ignore", invalid="ignore"):
            for m in metrics:
                sums = np.bincount(combined,
                                   weights=frame.numeric[m][idx] * w,
                                   minlength=nbins)
                means[m] = np.where(wsums > 0, sums / wsums, np.nan)

        out: list[GroupResult] = []
        for b in present:
            parts = []
            rest = int(b)
            for size in reversed(sizes[1:]):
                rest, part = divmod(rest, size)
                parts.append(part)
            parts.append(rest)
            keys = tuple(
                str(frame.uniques[d][c])
                for d, c in zip(dims, reversed(parts))
            )
            out.append(GroupResult(
                key="|".join(keys) if len(keys) > 1 else keys[0],
                job_count=int(counts[b]),
                node_hours=float(wsums[b]),
                weighted_means={m: float(means[m][b]) for m in metrics},
                keys=keys,
            ))
        out.sort(key=lambda g: -g.node_hours)
        return out

    def top(self, dimension: str, n: int) -> list[str]:
        """The *n* heaviest values of a dimension by node-hours."""
        return [g.key for g in self.group_by(dimension, metrics=())[:n]]
