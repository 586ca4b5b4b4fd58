"""Live streaming mode: continuous sampling, micro-batch ingest, and
between-query rate views.

The batch pipeline turns a finished study period into a warehouse; this
package turns the same machinery into something an operator *watches*:

* :class:`~repro.live.runner.LiveReplay` drives the per-node daemons
  incrementally, emitting samples into rolling archive segments
  (sub-day ``rotate_seconds`` cadence) instead of one offline pass.
* :class:`~repro.live.runner.LiveSession` micro-batches each completed
  segment through the ordinary watermark ledger
  (``ingest(mode="append")``), refreshes the rolling snapshot in
  place, and publishes per-job cumulative counters for rate views.
* :class:`~repro.live.rates.RateEngine` computes per-job rates
  *between successive queries* from those monotonic counters
  (wrap-safe deltas, glljobstat-style), with top-N ranking and
  user/app/metric filters — consumed by ``repro-top`` and the
  ``/api/v1/live/*`` service endpoints.

See ``docs/OBSERVABILITY.md`` ("Live monitoring") for the
architecture and cadence knobs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.live.rates": (
        "COUNTER_WRAP_BITS", "LIVE_COUNTER_METRICS", "JobRates", "RateEngine",
        "top_jobs", "total_rates"
    ),
    "repro.live.runner": ("LiveBatchReport", "LiveReplay", "LiveSession"),
})
