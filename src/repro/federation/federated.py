"""`FederatedWarehouse`: scatter-gather queries over warehouse shards.

One federation = a set of named shards, each a complete
:class:`~repro.ingest.warehouse.Warehouse` with its own ingest ledger
and generation stamp.  Queries scatter to every relevant shard's
:class:`~repro.xdmod.snapshot.WarehouseSnapshot` — so each shard's
columnar frames, memo cache and O(delta) refresh keep working exactly
as on a single warehouse — and the partial results gather through
:mod:`repro.federation.merge`.

The ``cluster`` dimension is virtual: it never exists inside a shard's
frame.  The scatter step knows which shard produced which partial, so
``group_by(("cluster", "app"))`` tags per-shard groups with their
cluster name, while ``group_by("app")`` collapses the dimension by
merging per-shard partials with the node-hour-weighted algebra.

Single-shard federations degenerate to the classic path: the scatter
set has one member, the gather is the identity, and every query result
(and the shard file itself) is identical to the single-warehouse
output.
"""

from __future__ import annotations

from contextlib import ExitStack, closing
from pathlib import Path
from typing import Mapping

from repro.federation.layout import FederationLayout
from repro.federation.merge import (
    CLUSTER_DIM,
    merge_group_results,
    merge_series,
    series_merge_mode,
)
from repro.ingest.vocabulary import SUMMARY_METRICS
from repro.ingest.warehouse import Warehouse
from repro.telemetry.metrics import get_registry
from repro.util.tables import render_table
from repro.xdmod.query import DIMENSIONS, GroupResult, JobQuery
from repro.xdmod.snapshot import WarehouseSnapshot

__all__ = ["FederatedWarehouse"]


class FederatedWarehouse:
    """A queryable set of named warehouse shards."""

    def __init__(self, shards: Mapping[str, Warehouse]):
        if not shards:
            raise ValueError("a federation needs at least one shard")
        #: cluster name -> warehouse, iterated in sorted-name order.
        self.shards: dict[str, Warehouse] = {
            name: shards[name] for name in sorted(shards)
        }
        #: (the shards' data versions, system -> cluster) as read at
        #: those versions; see :meth:`_routing`.
        self._routes: tuple[list | None, dict[str, str]] = (None, {})

    @classmethod
    def open(cls, root: str | Path, threadsafe: bool = False,
             missing_ok: bool = False) -> "FederatedWarehouse":
        """Open every shard of the federation directory at *root*.

        With ``missing_ok`` a cluster whose shard file does not exist
        (e.g. its first ingest crashed) is skipped instead of failing
        the whole federation — degraded-shard operation.
        """
        layout = FederationLayout.open(root)
        shards: dict[str, Warehouse] = {}
        # A shard that is missing or fails to open must not leave the
        # ones before it open: the stack closes them unless all opened.
        with ExitStack() as opened:
            for cluster in layout.clusters:
                path = layout.warehouse_path(cluster)
                if not Path(path).exists():
                    if missing_ok:
                        continue
                    raise FileNotFoundError(f"shard warehouse missing for "
                                            f"cluster {cluster!r}: {path}")
                shards[cluster] = opened.enter_context(
                    closing(Warehouse(path, threadsafe=threadsafe)))
            opened.pop_all()
        return cls(shards)

    @classmethod
    def open_file(cls, path: str | Path,
                  threadsafe: bool = False) -> "FederatedWarehouse":
        """Open one warehouse file as the one-shard federation it is,
        the shard named after the file.  The caller knows it has a file
        (from its flag or argument) and never guesses from the path:
        SQLite *creates* a path that does not exist."""
        return cls({Path(path).stem: Warehouse(str(path),
                                               threadsafe=threadsafe)})

    def close(self) -> None:
        """Release every shard connection."""
        for wh in self.shards.values():
            wh.close()

    # -- topology ---------------------------------------------------------

    @property
    def clusters(self) -> list[str]:
        """Shard names, sorted — the canonical scatter order."""
        return list(self.shards)

    def shard(self, cluster: str) -> Warehouse:
        """The warehouse of one shard."""
        if cluster not in self.shards:
            raise KeyError(f"unknown cluster {cluster!r}; federation "
                           f"has {self.clusters}")
        return self.shards[cluster]

    def systems(self) -> dict[str, list[str]]:
        """Cluster name -> systems stored in that shard."""
        return {name: wh.systems() for name, wh in self.shards.items()}

    def all_systems(self) -> list[str]:
        """Every system across every shard, in scatter order."""
        return [s for systems in self.systems().values()
                for s in sorted(systems)]

    def _routing(self, reread: bool = False) -> dict[str, str]:
        """System -> the cluster whose shard stores it, in scatter
        order.  Read from the shards again only when one of them moved
        (a write, a commit, an adopted external commit) or on *reread*,
        so a request over unchanged shards runs no SQL for it.

        A system may live in exactly one shard; duplicates are a
        configuration error surfaced here.
        """
        versions = [wh.data_version for wh in self.shards.values()]
        seen, mapping = self._routes
        if reread or versions != seen:
            mapping = {}
            for cluster, systems in self.systems().items():
                for system_name in systems:
                    if system_name in mapping:
                        raise ValueError(
                            f"system {system_name!r} present in shards "
                            f"{mapping[system_name]!r} and {cluster!r}")
                    mapping[system_name] = cluster
            self._routes = (versions, mapping)
        return mapping

    def shard_of(self, system: str) -> str:
        """The cluster whose shard stores *system*."""
        mapping = self._routing()
        if system not in mapping:
            # A system another process has just committed is routable
            # without a refresh().
            mapping = self._routing(reread=True)
        if system not in mapping:
            raise KeyError(f"unknown system {system!r}; federation has "
                           f"{self.all_systems()}")
        return mapping[system]

    # -- snapshots --------------------------------------------------------

    def snapshots(self) -> dict[str, WarehouseSnapshot]:
        """The current frozen view of every shard, resolved once.

        Callers pass the returned dict through a whole logical request
        so each of its sub-queries sees one generation per shard, the
        same pinning contract the service layer applies to a single
        warehouse.
        """
        return {
            name: WarehouseSnapshot.for_warehouse(wh)
            for name, wh in self.shards.items()
        }

    def stamp(self, snapshots: dict[str, WarehouseSnapshot] | None = None,
              ) -> tuple:
        """A combined cache stamp: any shard moving moves the stamp."""
        snaps = snapshots or self.snapshots()
        return tuple((name, snaps[name].stamp) for name in snaps)

    def generations(self) -> dict[str, int]:
        """Per-shard warehouse generation (shard identity for clients)."""
        return {name: wh.generation for name, wh in self.shards.items()}

    def refresh(self) -> dict[str, int]:
        """Adopt external commits on every shard; returns generations."""
        for wh in self.shards.values():
            wh.reread_generation()
        return self.generations()

    # -- scatter-gather queries ------------------------------------------

    def query(self, system: str,
              snapshots: dict[str, WarehouseSnapshot] | None = None,
              ) -> JobQuery:
        """A single-system query, routed to the owning shard.

        This *is* the classic path — same class, same snapshot, same
        memoization — which is what makes one-cluster federations
        answer-identical to a plain warehouse.
        """
        cluster = self.shard_of(system)
        snap = (snapshots or {}).get(cluster)
        return JobQuery(self.shards[cluster], system, snapshot=snap)

    def _scatter_units(self, systems: list[str] | None,
                       ) -> list[tuple[str, str]]:
        """(cluster, system) pairs to scatter over, in canonical order."""
        if systems is None:
            return [(cluster, s) for s, cluster in self._routing().items()]
        return [(self.shard_of(s), s) for s in sorted(systems)]

    def group_by(self, dimension: str | tuple[str, ...],
                 metrics: tuple[str, ...] = SUMMARY_METRICS,
                 systems: list[str] | None = None,
                 snapshots: dict[str, WarehouseSnapshot] | None = None,
                 ) -> list[GroupResult]:
        """Cross-cluster weighted aggregation, ``cluster``-dimension aware.

        Scatter: each member system runs the ordinary per-shard
        :meth:`~repro.xdmod.query.JobQuery.group_by` (hitting that
        shard's snapshot memo).  Gather: if ``"cluster"`` is among the
        dimensions the per-shard groups are tagged with their cluster
        name at that key position; otherwise partials merge across
        clusters with the node-hour-weighted kernels.
        """
        dims = ((dimension,) if isinstance(dimension, str)
                else tuple(dimension))
        if not dims:
            raise ValueError("group_by needs at least one dimension")
        for d in dims:
            if d != CLUSTER_DIM and d not in DIMENSIONS:
                raise ValueError(f"unknown dimension {d!r}")
        if dims.count(CLUSTER_DIM) > 1:
            raise ValueError("duplicate 'cluster' dimension")
        rest = tuple(d for d in dims if d != CLUSTER_DIM)
        cluster_pos = dims.index(CLUSTER_DIM) if CLUSTER_DIM in dims else None

        registry = get_registry()
        registry.counter("federation.scatter.group_by").inc()
        parts: list[list[GroupResult]] = []
        for cluster, system in self._scatter_units(systems):
            registry.counter(f"federation.shard_queries.{cluster}").inc()
            q = self.query(system, snapshots)
            if rest:
                groups = q.group_by(rest if len(rest) > 1 else rest[0],
                                    metrics=metrics)
            elif len(q) == 0:
                groups = []
            else:
                groups = [GroupResult(
                    key=system, job_count=len(q),
                    node_hours=q.node_hours,
                    weighted_means=q.weighted_means(metrics),
                    keys=(system,),
                )]
            if cluster_pos is not None and rest:
                groups = [self._tag_cluster(g, system, cluster_pos)
                          for g in groups]
            parts.append(groups)
        merged = merge_group_results(parts)
        registry.counter("federation.merge.groups").inc(len(merged))
        return merged

    @staticmethod
    def _tag_cluster(g: GroupResult, cluster: str, pos: int) -> GroupResult:
        """Insert the cluster name into a group key at position *pos*."""
        keys = g.keys[:pos] + (cluster,) + g.keys[pos:]
        return GroupResult(
            key="|".join(keys) if len(keys) > 1 else keys[0],
            job_count=g.job_count, node_hours=g.node_hours,
            weighted_means=g.weighted_means, keys=keys,
        )

    def series_metrics(self,
                       snapshots: dict[str, WarehouseSnapshot] | None = None,
                       ) -> list[str]:
        """Series names stored by at least one member system, as the
        pinned *snapshots* (default: the current ones) know them."""
        snaps = snapshots or self.snapshots()
        names: set[str] = set()
        for cluster, system in self._scatter_units(None):
            names.update(snaps[cluster].series_metrics(system))
        return sorted(names)

    def timeseries(self, series: str,
                   snapshots: dict[str, WarehouseSnapshot] | None = None,
                   ):
        """One series merged across clusters onto the union time grid.

        Extensive series sum; intensive ones merge as active-node-
        weighted means (see :func:`repro.federation.merge.series_merge_mode`).
        Systems without the series (e.g. no ``share`` mount) contribute
        nothing.  Returns ``(times, values)``.
        """
        snaps = snapshots or self.snapshots()
        get_registry().counter("federation.scatter.timeseries").inc()
        parts, weights = [], []
        mode = series_merge_mode(series)
        for cluster, system in self._scatter_units(None):
            snap = snaps[cluster]
            try:
                t, v = snap.series(system, series)
            except KeyError:
                continue
            parts.append((t, v))
            if mode == "mean":
                weights.append(snap.series(system, "active_nodes"))
        if not parts:
            raise KeyError(f"no series {series!r} in any shard")
        return merge_series(parts, mode=mode,
                            weights=weights if mode == "mean" else None)

    # -- cross-cluster rollup --------------------------------------------

    def overview(self,
                 snapshots: dict[str, WarehouseSnapshot] | None = None,
                 ) -> dict:
        """The federation rollup: per-cluster facts plus merged totals.

        The totals row is the ``cluster`` dimension collapsed — the
        same weighted merge every cross-cluster ``group_by`` uses.
        """
        snaps = snapshots or self.snapshots()
        per_cluster = self.group_by(CLUSTER_DIM, snapshots=snaps)
        total = None
        if per_cluster:
            total = merge_group_results([[
                GroupResult(key="all", job_count=g.job_count,
                            node_hours=g.node_hours,
                            weighted_means=g.weighted_means, keys=("all",))
                for g in per_cluster]])[0]
        clusters = {}
        for g in sorted(per_cluster, key=lambda g: g.keys):
            system = g.keys[0]
            cluster = self.shard_of(system)
            info = snaps[cluster].system_info(system)
            clusters[system] = {
                "cluster": cluster,
                "jobs": g.job_count,
                "node_hours": g.node_hours,
                "efficiency": 1.0 - g.weighted_means["cpu_idle"],
                "nodes": info["num_nodes"],
                "peak_tflops": info["peak_tflops"],
                "generation": self.shards[cluster].generation,
            }
        return {
            "clusters": clusters,
            "total": {
                "jobs": total.job_count if total else 0,
                "node_hours": total.node_hours if total else 0.0,
                "efficiency": (1.0 - total.weighted_means["cpu_idle"]
                               if total else 0.0),
            },
        }

    def render_overview(self) -> str:
        """The federation rollup as a text table (CLI and smoke jobs)."""
        data = self.overview()
        rows = [
            {"cluster": name, "nodes": f"{facts['nodes']:,}",
             "jobs": f"{facts['jobs']:,}",
             "node-hours": f"{facts['node_hours']:,.0f}",
             "efficiency": f"{facts['efficiency']:.1%}"}
            for name, facts in data["clusters"].items()
        ]
        total = data["total"]
        rows.append({
            "cluster": "TOTAL", "nodes": "",
            "jobs": f"{total['jobs']:,}",
            "node-hours": f"{total['node_hours']:,.0f}",
            "efficiency": f"{total['efficiency']:.1%}",
        })
        return render_table(
            rows, ["cluster", "nodes", "jobs", "node-hours", "efficiency"],
            title=f"FEDERATION OVERVIEW — {len(self.clusters)} clusters",
        )
