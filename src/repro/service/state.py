"""The process-wide service state and endpoint compute logic.

One :class:`ServiceState` owns the one store handle, a
:class:`~repro.federation.federated.FederatedWarehouse` (a warehouse
file is served as the one-shard federation it is; shards are opened
``threadsafe=True`` so handler threads share the serialized SQLite
connections).  It routes each request to the shard that stores its
system, resolves that shard's current
:class:`~repro.xdmod.snapshot.WarehouseSnapshot` *once per request*
(pinning the whole request to one frozen view, even mid-refresh), and
layers the service caching stack over the PR 2 memo:

1. **L1** — :class:`~repro.service.cache.TenantReportCache`, keyed by
   ``(endpoint key..., snapshot stamp)``;
2. **single-flight** — concurrent identical misses coalesce into one
   computation (:class:`~repro.service.coalesce.SingleFlight`);
3. **L2** — the snapshot memo itself, shared with CLI consumers.

A computed payload is JSON-encoded once, value by value, and the L1
entry keeps the encoding beside the values (:class:`Answer`): an L1
hit or a coalesced follower sends bytes that were made for the first
request (``service.payload_encodes`` counts the encodes).

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

A directory of shards (``federation_root=``) and a single file
(``warehouse_path=``) are the same store with a different shard count:
single-system requests route to the owning shard (one code path, so a
routed response matches serving the shard file exactly), while a
directory also answers ``system=all`` — a query scatter-gathered across
every shard and merged with the federation kernels, cached in L1 and
coalesced in single-flight under a combined all-shard stamp, so a
cross-cluster dashboard burst costs one scatter.  What a file server
still says differently (its ``health``/``refresh`` identity fields, and
``not_federated``/``unknown_system`` for the cross-cluster requests) is
listed in docs/FEDERATION.md.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any

from repro.federation.federated import FederatedWarehouse
from repro.ingest.vocabulary import SUMMARY_METRICS
from repro.ingest.warehouse import Warehouse
from repro.live.rates import LIVE_COUNTER_METRICS, RateEngine, live_top_body
from repro.service.cache import TenantReportCache
from repro.service.coalesce import SingleFlight
from repro.service.protocol import ServiceError
from repro.telemetry.metrics import get_registry
from repro.xdmod.query import DIMENSIONS, JobQuery
from repro.xdmod.reports import NEEDS_TARGET, REPORT_KINDS
from repro.xdmod.snapshot import WarehouseSnapshot

__all__ = ["ServiceState", "Answer", "encode_payload", "REPORT_KINDS",
           "DEFAULT_TENANT"]

DEFAULT_TENANT = "public"

#: The ``system`` parameter value that targets the whole federation.
ALL_SYSTEMS = "all"

#: Seconds between a blocked ``live/watch``'s looks at the shard's
#: commit version (one ``PRAGMA data_version``, no table read).
WATCH_TICK_SECONDS = 0.005


class Answer(dict):
    """A response body that carries its payload's JSON.

    The dict is ``{**body, **payload, **flags}`` (a key in both *body*
    and the payload keeps the body's place and takes the payload's
    value, as that literal does).  :attr:`encoded` maps each payload
    key to ``(value, json.dumps(value) as bytes)``; the HTTP encoder
    joins that text for a key whose value is still that object and
    encodes every other value itself.
    """

    __slots__ = ("encoded",)

    def __init__(self, body: dict, encoded: dict[str, tuple[Any, bytes]],
                 **flags):
        super().__init__(body)
        for key, (value, _text) in encoded.items():
            self[key] = value
        self.update(flags)
        self.encoded = encoded


def encode_payload(payload: dict) -> dict[str, tuple[Any, bytes]]:
    """*payload* with each value beside its JSON: what an L1 entry
    holds and single-flight followers share."""
    get_registry().counter("service.payload_encodes").inc()
    return {key: (value, json.dumps(value).encode())
            for key, value in payload.items()}


def _groups_payload(groups) -> dict:
    """``group_by`` results (one shard's or merged) as served."""
    return {"groups": [
        {
            "key": g.key,
            "keys": list(g.keys),
            "job_count": g.job_count,
            "node_hours": g.node_hours,
            "weighted_means": g.weighted_means,
        }
        for g in groups
    ]}


def _series_payload(t, v) -> dict:
    """One series (one system's or merged) as served."""
    return {"times": t.tolist(), "values": v.tolist(),
            "mean": float(v.mean()) if v.size else 0.0}


class ServiceState:
    """Shared state behind every handler thread of one server."""

    def __init__(self, warehouse_path: str | None = None,
                 cache_capacity: int = 256, max_tenants: int = 64,
                 federation_root: str | None = None):
        if (warehouse_path is None) == (federation_root is None):
            raise ValueError("pass exactly one of warehouse_path / "
                             "federation_root")
        self.warehouse_path = warehouse_path
        #: The served directory, ``None`` when one file is served: the
        #: one thing that tells the two kinds of store apart, read only
        #: where a response names the store (``health``, ``refresh``)
        #: or is refused to a file (``_need_federation``, ``_is_all``).
        self.federation_root = (None if federation_root is None
                                else str(federation_root))
        self._flight = SingleFlight()
        self._cache = TenantReportCache(cache_capacity,
                                        max_tenants=max_tenants)
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
        #: The one store handle: the shards of the directory, or the
        #: file as the one-shard federation it is.  Opened last, so a
        #: constructor that raises has nothing to close.
        self.store = (
            FederatedWarehouse.open_file(warehouse_path, threadsafe=True)
            if federation_root is None else
            FederatedWarehouse.open(federation_root, threadsafe=True))

    def close(self) -> None:
        """Release every shard connection."""
        self.store.close()

    # -- routing ------------------------------------------------------------

    def _shard(self, system: str | None) -> Warehouse:
        """The shard that stores *system*, from the store's routing map
        (which re-reads the shards only on a miss).  Routing, not a
        one-unit scatter: the gather kernels re-weight (``mean × hours
        ÷ hours``), which is not the same float."""
        if not system:
            raise ServiceError("missing_param",
                               "missing required parameter 'system'")
        try:
            return self.store.shard(self.store.shard_of(system))
        except KeyError:
            raise ServiceError(
                "unknown_system", f"unknown system {system!r}",
                {"known": self.store.all_systems()}) from None

    def _resolve(self, system: str | None,
                 ) -> tuple[Warehouse, WarehouseSnapshot]:
        """The shard + pinned snapshot answering for *system*, resolved
        once per request so every sub-query of that request sees one
        generation.  The same classes whatever the store, which is what
        keeps a routed response identical to serving the shard file."""
        shard = self._shard(system)
        return shard, WarehouseSnapshot.for_warehouse(shard)

    def _need_federation(self) -> None:
        if self.federation_root is None:
            raise ServiceError("not_federated",
                               "server is not serving a federation")

    def _is_all(self, system: str | None) -> bool:
        """Does *system* name the whole federation?  ``all`` is not
        special to a server of one file (it answers ``unknown_system``)."""
        return self.federation_root is not None and system == ALL_SYSTEMS

    def _topology(self) -> dict:
        """The identity fields of a cross-cluster response."""
        return {"clusters": self.store.clusters,
                "generations": self.store.generations()}

    def _serve(self, tenant: str, key: tuple, body: dict,
               compute) -> Answer:
        """*body* plus the payload dict of *compute*, through the cache
        stack: L1 hit, else single-flight compute (and encode) and L1
        put.  *key* ends in the snapshot stamp, so identical in-flight
        requests coalesce and a key can never alias across
        generations."""
        hit = self._cache.get(tenant, key)
        if hit is not None:
            return Answer(body, hit, cached=True)
        encoded, coalesced = self._flight.do(
            key, lambda: encode_payload(compute()))
        self._cache.put(tenant, key, encoded)
        return Answer(body, encoded, cached=False, coalesced=coalesced)

    def refresh(self) -> dict:
        """Adopt external commits (``POST /api/v1/refresh``): every
        shard re-reads its on-disk generation, and the next reader of a
        shard that moved extends its snapshot by the delta.

        In-flight requests keep the snapshot they already resolved;
        only requests arriving after see the new data.
        """
        with self._refresh_lock:
            get_registry().counter("service.refreshes").inc()
            before = self.store.generations()
            after = self.store.refresh()
            if self.federation_root is None:
                (generation,) = after.values()
                return {"generation": generation,
                        "changed": after != before}
            return {"generations": after, "changed": after != before}

    def snapshot_age_seconds(self) -> float:
        """Seconds since the served snapshot stamp last changed.

        Dashboards alert on this: a live deployment refreshing every
        few minutes should never see it grow past a couple of batch
        periods.  Updating the observation also publishes the
        ``service.snapshot.age_seconds`` gauge, so both ``/metrics``
        scrapes and ``/api/v1/health`` keep it current.
        """
        stamp = tuple(shard.data_version
                      for shard in self.store.shards.values())
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
        """``GET /api/v1/health``: liveness plus the store's identity."""
        age = round(self.snapshot_age_seconds(), 3)
        if self.federation_root is None:
            (generation,) = self.store.generations().values()
            identity = {"warehouse": self.warehouse_path,
                        "systems": self.store.all_systems(),
                        "generation": generation}
        else:
            identity = {"federation": self.federation_root,
                        "clusters": self.store.clusters,
                        "systems": self.store.all_systems(),
                        "generations": self.store.generations()}
        return {"status": "ok", **identity, "snapshot_age_seconds": age}

    def systems(self) -> dict:
        """``GET /api/v1/systems``: per-system configuration facts."""
        out = {}
        for name in self.store.all_systems():
            _shard, snap = self._resolve(name)
            out[name] = snap.system_info(name)
        return {"systems": out}

    def clusters(self, cluster: str | None = None) -> dict:
        """``GET /api/v1/clusters``: the federation's shard topology
        (optionally filtered to one member cluster)."""
        self._need_federation()
        names = self.store.clusters
        if cluster is not None:
            if cluster not in names:
                raise ServiceError(
                    "unknown_cluster", f"unknown cluster {cluster!r}",
                    {"known": names})
            names = [cluster]
        return {
            "clusters": {
                name: {
                    "systems": self.store.shards[name].systems(),
                    "generation": self.store.shards[name].generation,
                    "warehouse": self.store.shards[name].path,
                }
                for name in names
            }
        }

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
        shard, snap = self._resolve(system)
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

        def compute() -> dict:
            try:
                return {"report": cls(shard, system,
                                      snapshot=snap).render(*target_args)}
            except (KeyError, ValueError) as exc:
                # Unknown user/app inside a valid realm: a client
                # error, not an internal one.
                raise ServiceError("bad_request", str(exc)) from exc

        # Same shape as the snapshot-memo report key (PR 2), extended
        # with the stamp.
        return self._serve(
            tenant,
            ("report", cls.__name__, system, target_args, snap.stamp),
            {"kind": kind, "system": system, "target": target,
             "generation": snap.generation},
            compute)

    def group_by(self, system: str | None, dimension: str | None,
                 metrics: tuple[str, ...] | None = None,
                 tenant: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/query/group_by``: weighted aggregation by one
        or more dimensions (comma-separated).

        A federation also answers ``system=all``, scatter-gathered
        across every shard; the dimension list may then include the
        virtual ``cluster`` dimension.
        """
        everything = self._is_all(system)
        if not everything:
            shard, snap = self._resolve(system)
        if not dimension:
            raise ServiceError("missing_param",
                               "missing required parameter 'dimension'")
        dims = tuple(d for d in dimension.split(",") if d)
        known = list(DIMENSIONS) + (["cluster"] if everything else [])
        for d in dims:
            if d not in known:
                raise ServiceError(
                    "unknown_dimension", f"unknown dimension {d!r}",
                    {"known": known})
        metrics = SUMMARY_METRICS if metrics is None else metrics
        for m in metrics:
            if m not in SUMMARY_METRICS:
                raise ServiceError(
                    "unknown_metric", f"unknown metric {m!r}",
                    {"known": list(SUMMARY_METRICS)})
        by = dims if len(dims) > 1 else dims[0]

        if everything:
            snaps = self.store.snapshots()
            key = ("federation.group_by", dims, metrics,
                   self.store.stamp(snaps))
            identity = self._topology()

            def compute() -> dict:
                return _groups_payload(self.store.group_by(
                    by, metrics=metrics, snapshots=snaps))
        else:
            key = ("service.group_by", system, dims, metrics, snap.stamp)
            identity = {"generation": snap.generation}

            def compute() -> dict:
                return _groups_payload(JobQuery(
                    shard, system, snapshot=snap).group_by(
                        by, metrics=metrics))

        return self._serve(
            tenant, key,
            {"system": system, "dimension": list(dims),
             "metrics": list(metrics), **identity},
            compute)

    def federation_overview(self, tenant: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/federation/overview``: the cross-cluster
        rollup (per-cluster facts, merged totals, rendered table),
        served through the same L1/single-flight stack."""
        self._need_federation()
        snaps = self.store.snapshots()

        def compute() -> dict:
            overview = self.store.overview(snapshots=snaps)
            return {**overview, "report": self.store.render_overview()}

        return self._serve(
            tenant, ("federation.overview", self.store.stamp(snaps)),
            self._topology(), compute)

    def timeseries(self, system: str | None, series: str | None,
                   tenant: str = DEFAULT_TENANT) -> dict:
        """``GET /api/v1/timeseries/{series}``: one stored system
        series as parallel time/value arrays.

        A federation also answers ``system=all`` with the series merged
        across every cluster (sums for extensive series, active-node-
        weighted means for intensive ones).
        """
        everything = self._is_all(system)
        if not everything:
            _shard, snap = self._resolve(system)
        if not series:
            raise ServiceError("missing_param", "missing series name")
        if everything:
            snaps = self.store.snapshots()
            known, where = (self.store.series_metrics(snaps),
                            "in any federation shard")
            key = ("federation.timeseries", series,
                   self.store.stamp(snaps))
            identity = self._topology()

            def compute() -> dict:
                return _series_payload(*self.store.timeseries(
                    series, snapshots=snaps))
        else:
            known, where = (snap.series_metrics(system),
                            f"for system {system!r}")
            key = ("service.timeseries", system, series, snap.stamp)
            identity = {"generation": snap.generation}

            def compute() -> dict:
                return _series_payload(*snap.series(system, series))

        if series not in known:
            raise ServiceError(
                "unknown_series", f"no series {series!r} {where}",
                {"known": known})
        return self._serve(
            tenant, key,
            {"system": system, "series": series, **identity}, compute)

    # -- live view ----------------------------------------------------------

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
        warehouse = self._shard(system)
        if order_by not in LIVE_COUNTER_METRICS:
            raise ServiceError(
                "unknown_metric", f"unknown live metric {order_by!r}",
                {"known": list(LIVE_COUNTER_METRICS)})
        if not 1 <= n <= 1000:
            raise ServiceError("bad_request",
                               f"n must be in 1..1000, got {n}")
        samples = warehouse.live_counters(system)
        engine = self._engine_for(client, system)
        # Engines serialize their own observe: two in-flight polls
        # from one client must not interleave window state.
        with self._engines_lock:
            rates = engine.observe(samples)
        get_registry().counter("live.top_requests").inc()
        return live_top_body(system, samples, rates, n=n,
                             order_by=order_by, user=user, app=app)

    def live_watch(self, system: str | None, since: float | None = None,
                   timeout: float = 15.0) -> dict:
        """``GET /api/v1/live/watch``: long-poll for new live samples.

        Blocks (up to *timeout* seconds, clamped to 30) until the
        system's live counter high-water time advances past *since*.
        Every :data:`WATCH_TICK_SECONDS` it looks at the shard's
        :meth:`~repro.ingest.warehouse.Warehouse.commit_version`, and
        only when another connection committed does it re-read the
        on-disk generation and the high-water, so an external
        micro-batch is seen within a tick of its commit.  With no
        *since* it returns the current high-water immediately — the
        bootstrap call.  Never cached (it is a synchronization
        primitive, not a query); the ``live.watchers`` gauge counts
        blocked watchers.
        """
        warehouse = self._shard(system)
        timeout = min(max(float(timeout), 0.0), 30.0)
        registry = get_registry()
        registry.counter("live.watch_requests").inc()
        gauge = registry.gauge("live.watchers")

        def high_water() -> float:
            warehouse.reread_generation()
            return warehouse.live_high_water(system)

        # Read before the high-water, so a commit between the two is
        # seen on the first tick.
        version = warehouse.commit_version()
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
                time.sleep(min(WATCH_TICK_SECONDS,
                               max(deadline - time.monotonic(), 0.0)))
                seen = warehouse.commit_version()
                if seen == version:
                    continue
                version = seen
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
