"""The process-wide service state and endpoint compute logic.

One :class:`ServiceState` owns the warehouse handle (opened
``threadsafe=True`` so handler threads share the serialized SQLite
connection), resolves the current
:class:`~repro.xdmod.snapshot.WarehouseSnapshot` *once per request*
(pinning the whole request to one frozen view, even mid-refresh), and
layers the service caching stack over the PR 2 memo:

1. **L1** — :class:`~repro.service.cache.TenantReportCache`, keyed by
   ``(endpoint key..., snapshot stamp)``;
2. **single-flight** — concurrent identical misses coalesce into one
   computation (:class:`~repro.service.coalesce.SingleFlight`);
3. **L2** — the snapshot memo itself, shared with CLI consumers.

Everything here is transport-agnostic: methods take plain arguments
and return JSON-able dicts or raise
:class:`~repro.service.protocol.ServiceError`; the HTTP front end in
:mod:`repro.service.server` is a thin routing shim over it.  Report
text is byte-identical to ``repro-report`` output for the same query —
both run the same report classes over the same snapshot machinery.

The live view endpoints (``/api/v1/live/top``, ``/api/v1/live/watch``)
sit outside that stack on purpose: their responses depend on the
calling client's previous poll (per-client
:class:`~repro.live.rates.RateEngine` state) or on blocking for new
data, so they bypass the L1 cache and read the live counter table
directly.  See docs/OBSERVABILITY.md ("Live monitoring").

Federation mode (``federation_root=``) serves a directory of warehouse
shards through the same stack: single-system requests route to the
owning shard (same code path, so responses match single-warehouse
serving exactly), while ``system=all`` scatter-gathers a query across
every shard and merges with the federation kernels — cached in L1 and
coalesced in single-flight under a combined all-shard stamp, so a
cross-cluster dashboard burst costs one scatter.  See
docs/FEDERATION.md.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.federation.federated import FederatedWarehouse
from repro.ingest.vocabulary import SUMMARY_METRICS
from repro.ingest.warehouse import Warehouse
from repro.live.rates import (
    LIVE_COUNTER_METRICS,
    RateEngine,
    top_jobs,
    total_rates,
)
from repro.service.cache import TenantReportCache
from repro.service.coalesce import SingleFlight
from repro.service.protocol import ServiceError
from repro.telemetry.metrics import get_registry
from repro.xdmod.query import DIMENSIONS, JobQuery
from repro.xdmod.reports import (
    AdminReport,
    DeveloperReport,
    FundingAgencyReport,
    ResourceManagerReport,
    SupportStaffReport,
    UserReport,
)
from repro.xdmod.snapshot import WarehouseSnapshot

__all__ = ["ServiceState", "REPORT_KINDS", "DEFAULT_TENANT"]

#: report realm -> generator class (same vocabulary as ``repro-report``).
REPORT_KINDS = {
    "user": UserReport,
    "developer": DeveloperReport,
    "support": SupportStaffReport,
    "admin": AdminReport,
    "manager": ResourceManagerReport,
    "funding": FundingAgencyReport,
}

#: report realms whose render needs a target argument.
NEEDS_TARGET = {"user": "a username", "developer": "an application tag"}

DEFAULT_TENANT = "public"

#: The ``system`` parameter value that targets the whole federation.
ALL_SYSTEMS = "all"


class ServiceState:
    """Shared state behind every handler thread of one server."""

    def __init__(self, warehouse_path: str | None = None,
                 cache_capacity: int = 256,
                 report_cache: bool = True, max_tenants: int = 64,
                 federation_root: str | None = None):
        if (warehouse_path is None) == (federation_root is None):
            raise ValueError("pass exactly one of warehouse_path / "
                             "federation_root")
        self.federation = None
        self.federation_root = None
        self.warehouse = None
        self.warehouse_path = warehouse_path
        if federation_root is not None:
            self.federation = FederatedWarehouse.open(federation_root,
                                                     threadsafe=True)
            self.federation_root = str(federation_root)
        else:
            self.warehouse = Warehouse(warehouse_path, threadsafe=True)
        self._flight = SingleFlight()
        self._cache = (TenantReportCache(cache_capacity,
                                         max_tenants=max_tenants)
                       if report_cache else None)
        self._refresh_lock = threading.Lock()
        # Snapshot staleness: when the served stamp last changed.
        self._stamp_lock = threading.Lock()
        self._last_stamp: object = None
        self._stamp_time = time.monotonic()
        # Live view state: one RateEngine per (client, system) — the
        # between-query windows belong to that client's poll cadence,
        # so engines are never shared.  LRU-bounded like the tenant
        # cache so an open endpoint can't grow state without bound.
        self._engines_lock = threading.Lock()
        self._engines: OrderedDict[tuple[str, str], RateEngine] = \
            OrderedDict()
        self._max_engines = max(max_tenants, 1)
        self._watchers_lock = threading.Lock()
        self._watchers = 0

    def close(self) -> None:
        """Release the warehouse (or every shard) connection."""
        if self.federation is not None:
            self.federation.close()
        else:
            self.warehouse.close()

    # -- snapshot resolution ----------------------------------------------

    def snapshot(self) -> WarehouseSnapshot:
        """The current frozen view; resolved once per request so every
        sub-query of that request sees one generation."""
        return WarehouseSnapshot.for_warehouse(self.warehouse)

    def _all_systems(self) -> list[str]:
        """Every servable system (across every shard when federated)."""
        if self.federation is not None:
            return self.federation.all_systems()
        return self.warehouse.systems()

    def _resolve(self, system: str) -> tuple[Warehouse, WarehouseSnapshot]:
        """The warehouse + pinned snapshot answering for *system*.

        Single-warehouse mode returns the one warehouse; federation
        mode routes to the owning shard — the same classes either way,
        which is what keeps shard responses identical to single-
        warehouse serving.
        """
        if self.federation is None:
            return self.warehouse, self.snapshot()
        wh = self.federation.shard(self.federation.shard_of(system))
        return wh, WarehouseSnapshot.for_warehouse(wh)

    def refresh(self) -> dict:
        """Adopt external commits: re-read the on-disk generation and
        swap in a delta-refreshed snapshot (``POST /api/v1/refresh``).

        In-flight requests keep the snapshot they already resolved;
        only requests arriving after the swap see the new data.  In
        federation mode every shard re-reads its own generation.
        """
        with self._refresh_lock:
            get_registry().counter("service.refreshes").inc()
            if self.federation is not None:
                before = self.federation.generations()
                after = self.federation.refresh()
                return {
                    "generations": after,
                    "changed": after != before,
                }
            before = self.warehouse.generation
            self.warehouse.reread_generation()
            snap = self.snapshot()
            return {
                "generation": snap.generation,
                "changed": snap.generation != before,
            }

    def snapshot_age_seconds(self) -> float:
        """Seconds since the served snapshot stamp last changed.

        Dashboards alert on this: a live deployment refreshing every
        few minutes should never see it grow past a couple of batch
        periods.  Updating the observation also publishes the
        ``service.snapshot.age_seconds`` gauge, so both ``/metrics``
        scrapes and ``/api/v1/health`` keep it current.
        """
        if self.federation is not None:
            stamp: object = tuple(sorted(
                self.federation.generations().items()))
        else:
            stamp = self.warehouse.data_version
        now = time.monotonic()
        with self._stamp_lock:
            if stamp != self._last_stamp:
                self._last_stamp = stamp
                self._stamp_time = now
            age = now - self._stamp_time
        get_registry().gauge("service.snapshot.age_seconds").set(age)
        return age

    # -- endpoints ----------------------------------------------------------

    def health(self) -> dict:
        """``GET /api/v1/health``: liveness plus warehouse identity."""
        age = round(self.snapshot_age_seconds(), 3)
        if self.federation is not None:
            return {
                "status": "ok",
                "federation": self.federation_root,
                "clusters": self.federation.clusters,
                "systems": self.federation.all_systems(),
                "generations": self.federation.generations(),
                "snapshot_age_seconds": age,
            }
        return {
            "status": "ok",
            "warehouse": self.warehouse_path,
            "systems": self.warehouse.systems(),
            "generation": self.warehouse.generation,
            "snapshot_age_seconds": age,
        }

    def systems(self) -> dict:
        """``GET /api/v1/systems``: per-system configuration facts."""
        out = {}
        for name in self._all_systems():
            _wh, snap = self._resolve(name)
            out[name] = snap.system_info(name)
        return {"systems": out}

    def clusters(self, cluster: str | None = None) -> dict:
        """``GET /api/v1/clusters``: the federation's shard topology
        (optionally filtered to one member cluster)."""
        if self.federation is None:
            raise ServiceError("not_federated",
                               "server is not serving a federation")
        names = self.federation.clusters
        if cluster is not None:
            if cluster not in names:
                raise ServiceError(
                    "unknown_cluster", f"unknown cluster {cluster!r}",
                    {"known": names})
            names = [cluster]
        return {
            "clusters": {
                name: {
                    "systems": self.federation.shards[name].systems(),
                    "generation": self.federation.shards[name].generation,
                    "warehouse": self.federation.shards[name].path,
                }
                for name in names
            }
        }

    def _check_system(self, system: str | None) -> str:
        if not system:
            raise ServiceError("missing_param",
                               "missing required parameter 'system'")
        if system not in self._all_systems():
            raise ServiceError(
                "unknown_system", f"unknown system {system!r}",
                {"known": self._all_systems()})
        return system

    def report(self, kind: str, system: str | None,
               target: str | None = None,
               tenant: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/report/{kind}``: one rendered stakeholder
        report, served through L1 -> single-flight -> snapshot memo."""
        cls = REPORT_KINDS.get(kind)
        if cls is None:
            raise ServiceError(
                "unknown_realm", f"unknown report realm {kind!r}",
                {"known": sorted(REPORT_KINDS)})
        system = self._check_system(system)
        if kind in NEEDS_TARGET:
            if not target:
                raise ServiceError(
                    "missing_target",
                    f"report {kind!r} needs {NEEDS_TARGET[kind]}")
            target_args: tuple[str, ...] = (target,)
        else:
            if target:
                raise ServiceError("unexpected_target",
                                   f"report {kind!r} takes no target")
            target_args = ()

        warehouse, snap = self._resolve(system)
        # Same shape as the snapshot-memo report key (PR 2), extended
        # with the stamp: identical in-flight requests coalesce, and a
        # key can never alias across generations.
        key = ("report", cls.__name__, system, target_args, snap.stamp)
        body = {
            "kind": kind,
            "system": system,
            "target": target,
            "generation": snap.generation,
        }
        if self._cache is not None:
            hit = self._cache.get(tenant, key)
            if hit is not None:
                return {**body, "report": hit, "cached": True}

        def compute() -> str:
            try:
                return cls(warehouse, system,
                           snapshot=snap).render(*target_args)
            except (KeyError, ValueError) as exc:
                # Unknown user/app inside a valid realm: a client
                # error, not an internal one.
                raise ServiceError("bad_request", str(exc)) from exc

        text, coalesced = self._flight.do(key, compute)
        if self._cache is not None:
            self._cache.put(tenant, key, text)
        return {**body, "report": text, "cached": False,
                "coalesced": coalesced}

    @staticmethod
    def _check_dims(dims: tuple[str, ...], allow_cluster: bool) -> None:
        for d in dims:
            if d in DIMENSIONS or (allow_cluster and d == "cluster"):
                continue
            known = list(DIMENSIONS) + (["cluster"] if allow_cluster
                                        else [])
            raise ServiceError(
                "unknown_dimension", f"unknown dimension {d!r}",
                {"known": known})

    @staticmethod
    def _check_metrics(metrics: tuple[str, ...] | None) -> tuple[str, ...]:
        metrics = SUMMARY_METRICS if metrics is None else metrics
        for m in metrics:
            if m not in SUMMARY_METRICS:
                raise ServiceError(
                    "unknown_metric", f"unknown metric {m!r}",
                    {"known": list(SUMMARY_METRICS)})
        return metrics

    def group_by(self, system: str | None, dimension: str | None,
                 metrics: tuple[str, ...] | None = None,
                 tenant: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/query/group_by``: weighted aggregation by one
        or more dimensions (comma-separated).

        In federation mode ``system=all`` scatter-gathers across every
        shard; the dimension list may then include the virtual
        ``cluster`` dimension.
        """
        if self.federation is not None and system == ALL_SYSTEMS:
            return self._federated_group_by(dimension, metrics, tenant)
        system = self._check_system(system)
        if not dimension:
            raise ServiceError("missing_param",
                               "missing required parameter 'dimension'")
        dims = tuple(d for d in dimension.split(",") if d)
        self._check_dims(dims, allow_cluster=False)
        metrics = self._check_metrics(metrics)

        warehouse, snap = self._resolve(system)
        key = ("service.group_by", system, dims, metrics, snap.stamp)
        body = {"system": system, "dimension": list(dims),
                "metrics": list(metrics), "generation": snap.generation}
        if self._cache is not None:
            hit = self._cache.get(tenant, key)
            if hit is not None:
                return {**body, "groups": hit, "cached": True}

        def compute() -> list[dict]:
            query = JobQuery(warehouse, system, snapshot=snap)
            return [
                {
                    "key": g.key,
                    "keys": list(g.keys),
                    "job_count": g.job_count,
                    "node_hours": g.node_hours,
                    "weighted_means": g.weighted_means,
                }
                for g in query.group_by(
                    dims if len(dims) > 1 else dims[0], metrics=metrics)
            ]

        groups, coalesced = self._flight.do(key, compute)
        if self._cache is not None:
            self._cache.put(tenant, key, groups)
        return {**body, "groups": groups, "cached": False,
                "coalesced": coalesced}

    def _federated_group_by(self, dimension: str | None,
                            metrics: tuple[str, ...] | None,
                            tenant: str) -> dict:
        """The ``system=all`` scatter-gather behind :meth:`group_by`."""
        if not dimension:
            raise ServiceError("missing_param",
                               "missing required parameter 'dimension'")
        dims = tuple(d for d in dimension.split(",") if d)
        self._check_dims(dims, allow_cluster=True)
        metrics = self._check_metrics(metrics)

        snaps = self.federation.snapshots()
        stamp = self.federation.stamp(snaps)
        key = ("federation.group_by", dims, metrics, stamp)
        body = {"system": ALL_SYSTEMS, "dimension": list(dims),
                "metrics": list(metrics),
                "clusters": self.federation.clusters,
                "generations": self.federation.generations()}
        if self._cache is not None:
            hit = self._cache.get(tenant, key)
            if hit is not None:
                return {**body, "groups": hit, "cached": True}

        def compute() -> list[dict]:
            return [
                {
                    "key": g.key,
                    "keys": list(g.keys),
                    "job_count": g.job_count,
                    "node_hours": g.node_hours,
                    "weighted_means": g.weighted_means,
                }
                for g in self.federation.group_by(
                    dims if len(dims) > 1 else dims[0],
                    metrics=metrics, snapshots=snaps)
            ]

        groups, coalesced = self._flight.do(key, compute)
        if self._cache is not None:
            self._cache.put(tenant, key, groups)
        return {**body, "groups": groups, "cached": False,
                "coalesced": coalesced}

    def federation_overview(self, tenant: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/federation/overview``: the cross-cluster
        rollup (per-cluster facts, merged totals, rendered table),
        served through the same L1/single-flight stack."""
        if self.federation is None:
            raise ServiceError("not_federated",
                               "server is not serving a federation")
        snaps = self.federation.snapshots()
        stamp = self.federation.stamp(snaps)
        key = ("federation.overview", stamp)
        body = {"clusters": self.federation.clusters,
                "generations": self.federation.generations()}
        if self._cache is not None:
            hit = self._cache.get(tenant, key)
            if hit is not None:
                return {**body, **hit, "cached": True}

        def compute() -> dict:
            overview = self.federation.overview(snapshots=snaps)
            return {**overview, "report": self.federation.render_overview()}

        payload, coalesced = self._flight.do(key, compute)
        if self._cache is not None:
            self._cache.put(tenant, key, payload)
        return {**body, **payload, "cached": False, "coalesced": coalesced}

    def timeseries(self, system: str | None, series: str | None,
                   tenant: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/timeseries/{series}``: one stored system
        series as parallel time/value arrays.

        In federation mode ``system=all`` returns the series merged
        across every cluster (sums for extensive series, active-node-
        weighted means for intensive ones).
        """
        if self.federation is not None and system == ALL_SYSTEMS:
            return self._federated_timeseries(series, tenant)
        system = self._check_system(system)
        if not series:
            raise ServiceError("missing_param", "missing series name")
        warehouse, snap = self._resolve(system)
        known = warehouse.series_metrics(system)
        if series not in known:
            raise ServiceError(
                "unknown_series",
                f"no series {series!r} for system {system!r}",
                {"known": known})

        key = ("service.timeseries", system, series, snap.stamp)
        body = {"system": system, "series": series,
                "generation": snap.generation}
        if self._cache is not None:
            hit = self._cache.get(tenant, key)
            if hit is not None:
                return {**body, **hit, "cached": True}

        def compute() -> dict:
            t, v = snap.series(system, series)
            return {"times": t.tolist(), "values": v.tolist(),
                    "mean": float(v.mean()) if v.size else 0.0}

        payload, coalesced = self._flight.do(key, compute)
        if self._cache is not None:
            self._cache.put(tenant, key, payload)
        return {**body, **payload, "cached": False, "coalesced": coalesced}

    # -- live view ----------------------------------------------------------

    def _live_warehouse(self, system: str) -> Warehouse:
        if self.federation is None:
            return self.warehouse
        return self.federation.shard(self.federation.shard_of(system))

    def _engine_for(self, client: str, system: str) -> RateEngine:
        """The *client*'s rate engine for *system* (LRU-bounded)."""
        key = (client, system)
        with self._engines_lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = self._engines[key] = RateEngine()
                while len(self._engines) > self._max_engines:
                    self._engines.popitem(last=False)
            else:
                self._engines.move_to_end(key)
            return engine

    def live_top(self, system: str | None, n: int = 5,
                 order_by: str = "flops_gf", user: str | None = None,
                 app: str | None = None,
                 client: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/live/top``: top-N jobs by between-query rate.

        Deliberately **bypasses the L1 cache**: the response is a
        function of the calling client's previous poll (its rate
        engine state), so a cached body would hand one client another
        client's window — and the underlying counter read is a single
        indexed SQL scan, far cheaper than a report render.  The
        ``client`` parameter (defaulting to the tenant) names the
        engine; a client polling at its own cadence always gets rates
        over *its* windows.  The first poll only baselines
        (``baseline: true``, no rates yet), exactly like glljobstat's
        first interval.
        """
        system = self._check_system(system)
        if order_by not in LIVE_COUNTER_METRICS:
            raise ServiceError(
                "unknown_metric", f"unknown live metric {order_by!r}",
                {"known": list(LIVE_COUNTER_METRICS)})
        if not 1 <= n <= 1000:
            raise ServiceError("bad_request",
                               f"n must be in 1..1000, got {n}")
        warehouse = self._live_warehouse(system)
        samples = warehouse.live_counters(system)
        engine = self._engine_for(client, system)
        # Engines serialize their own observe: two in-flight polls
        # from one client must not interleave window state.
        with self._engines_lock:
            rates = engine.observe(samples)
        top = top_jobs(rates, n=n, order_by=order_by, user=user,
                       app=app)
        get_registry().counter("live.top_requests").inc()
        return {
            "system": system,
            "order_by": order_by,
            "n": n,
            "t": max((s["t"] for s in samples), default=0.0),
            "jobs_observed": len(samples),
            "baseline": bool(samples) and not rates,
            "total": total_rates(rates),
            "jobs": [r.to_dict() for r in top],
        }

    def live_watch(self, system: str | None, since: float | None = None,
                   timeout: float = 15.0) -> dict:
        """``GET /api/v1/live/watch``: long-poll for new live samples.

        Blocks (up to *timeout* seconds, clamped to 30) until the
        system's live counter high-water time advances past *since*,
        re-reading the on-disk generation each poll so external
        micro-batch commits are seen.  With no *since* it returns the
        current high-water immediately — the bootstrap call.  Never
        cached (it is a synchronization primitive, not a query); the
        ``live.watchers`` gauge counts blocked watchers.
        """
        system = self._check_system(system)
        timeout = min(max(float(timeout), 0.0), 30.0)
        warehouse = self._live_warehouse(system)
        registry = get_registry()
        registry.counter("live.watch_requests").inc()
        gauge = registry.gauge("live.watchers")

        def high_water() -> float:
            warehouse.reread_generation()
            return warehouse.live_high_water(system)

        hw = high_water()
        if since is None or hw > since:
            return {"system": system, "changed": since is not None,
                    "t": hw, "generation": warehouse.generation}
        with self._watchers_lock:
            self._watchers += 1
            gauge.set(float(self._watchers))
        try:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                time.sleep(min(0.05, max(deadline - time.monotonic(),
                                         0.0)))
                hw = high_water()
                if hw > since:
                    return {"system": system, "changed": True, "t": hw,
                            "generation": warehouse.generation}
            return {"system": system, "changed": False, "t": hw,
                    "generation": warehouse.generation}
        finally:
            with self._watchers_lock:
                self._watchers -= 1
                gauge.set(float(self._watchers))

    def _federated_timeseries(self, series: str | None,
                              tenant: str) -> dict:
        """The ``system=all`` merged-series behind :meth:`timeseries`."""
        if not series:
            raise ServiceError("missing_param", "missing series name")
        known = self.federation.series_metrics()
        if series not in known:
            raise ServiceError(
                "unknown_series",
                f"no series {series!r} in any federation shard",
                {"known": known})

        snaps = self.federation.snapshots()
        stamp = self.federation.stamp(snaps)
        key = ("federation.timeseries", series, stamp)
        body = {"system": ALL_SYSTEMS, "series": series,
                "clusters": self.federation.clusters,
                "generations": self.federation.generations()}
        if self._cache is not None:
            hit = self._cache.get(tenant, key)
            if hit is not None:
                return {**body, **hit, "cached": True}

        def compute() -> dict:
            t, v = self.federation.timeseries(series, snapshots=snaps)
            return {"times": t.tolist(), "values": v.tolist(),
                    "mean": float(v.mean()) if v.size else 0.0}

        payload, coalesced = self._flight.do(key, compute)
        if self._cache is not None:
            self._cache.put(tenant, key, payload)
        return {**body, **payload, "cached": False, "coalesced": coalesced}
