"""First-class telemetry for the pipeline that measures the facility.

The paper demands ~0.1 % overhead and self-describing records from its
collector; this package holds the pipeline that reproduces it to the
same standard.  Four cooperating layers, all process-local and
dependency-free:

* :mod:`repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms in a swappable :class:`MetricsRegistry`, with picklable
  :class:`MetricsSnapshot` images that merge associatively (the
  map/reduce contract parallel ingest workers rely on);
* :mod:`repro.telemetry.trace` — nested ``span()`` context managers
  building a per-run trace tree, feeding per-stage latency histograms;
* :mod:`repro.telemetry.log` — ``get_logger(stage)`` structured
  key=value logging tagged with the ambient run id;
* :mod:`repro.telemetry.manifest` / :mod:`repro.telemetry.export` —
  the :class:`RunManifest` JSON artifact written next to the warehouse
  and the Prometheus text exporter.

Metric catalogue, manifest schema, and CLI usage: ``docs/OBSERVABILITY.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.telemetry.export": ("to_prometheus",),
    "repro.telemetry.log": (
        "current_run_id", "get_logger", "new_run_id", "run_scope"
    ),
    "repro.telemetry.manifest": (
        "RunManifest", "build_manifest", "slowest_hosts", "validate_manifest"
    ),
    "repro.telemetry.metrics": (
        "MetricsRegistry", "MetricsSnapshot", "get_registry", "set_enabled",
        "telemetry_enabled", "use_registry"
    ),
    "repro.telemetry.trace": (
        "Span", "Tracer", "get_tracer", "render_span_tree", "span",
        "use_tracer"
    ),
})
