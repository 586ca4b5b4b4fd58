"""Analytics service layer: a concurrent XDMoD-style query server.

The paper's end state is dashboards that facility staff and users hit
interactively; this package puts a stateless HTTP/JSON API in front of
the shared :class:`~repro.xdmod.snapshot.WarehouseSnapshot` so
thousands of dashboard sessions share one frozen columnar view, one
report cache, and one in-flight computation per distinct query.

Layout (one concern per module):

* :mod:`repro.service.protocol` — the request/response envelope:
  structured JSON errors, parameter parsing and validation;
* :mod:`repro.service.coalesce` — single-flight request coalescing
  (identical in-flight queries compute once, the result fans out);
* :mod:`repro.service.cache` — the per-tenant LRU report cache layered
  over the snapshot memo;
* :mod:`repro.service.state` — the process-wide service state: the
  one store handle, routing to a shard and its snapshot, and the
  endpoint compute logic;
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer``
  front end and URL routing.

See ``docs/SERVICE.md`` for the protocol and deployment knobs, and the
``dashboard`` workload of ``benchmarks/e2e/`` for the served latency,
cold start and coalescing counts.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.cache": ("TenantReportCache",),
    "repro.service.coalesce": ("SingleFlight",),
    "repro.service.protocol": ("ServiceError",),
    "repro.service.server": ("ReproServer", "make_server"),
    "repro.service.state": ("ServiceState",),
})
