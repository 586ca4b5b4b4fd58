"""Telemetry overhead: the cost of leaving instrumentation on.

The paper's collector is sold on ~0.1 % overhead (§2.1); our budget for
the pipeline's own telemetry is <1 % of end-to-end ingest wall time,
and it is a *gated* number, not an aspiration: this bench measures the
instrumentation cost of a real archive ingest, writes the result to
``benchmarks/out/telemetry_overhead.txt``, and fails (one step of CI's
``e2e-harness`` job) when the overhead climbs past the budget.

Why not a plain wall-clock A/B?  The instrumentation adds ~1 ms to a
~350 ms ingest, while run-to-run noise on the same machine is tens of
milliseconds (CPU frequency scaling, SQLite page allocation, GC
timing) — the effect is an order of magnitude below the noise floor,
so an A/B gate would alarm on scheduler jitter and sleep through real
regressions alike.  Instead the gated figure is built from two
noise-immune measurements:

* **Exact operation counts** from one real ingest: a counting
  :class:`~repro.telemetry.metrics.MetricsRegistry` subclass tallies
  every instrument lookup (call sites always pair one lookup with one
  mutation).  It is also injected as the per-host scan's private
  registry class, so worker-side parse counters are tallied too, and
  spans are counted exactly from the merged ``span.*.seconds``
  histograms (every closed span feeds one observation).
* **Per-operation costs** from tight-loop microbenches of the same
  call shapes the pipeline uses (``registry.counter(name).inc()`` —
  lookup included — and a full ``span()`` enter/exit).

``overhead = Σ(count × cost) / uninstrumented wall time``.  This is a
slight *over*-estimate (a span's cost already contains its histogram
observation, which the lookup tally counts again), which is the right
direction for a budget gate.  A wall-clock A/B is still run and
reported as a sanity line — it should straddle zero — but is not the
gated number.
"""

from __future__ import annotations

import gc
import io
import time

import pytest

from repro import TEST_SYSTEM, Facility
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.tacc_stats.archive import HostArchive
from repro.telemetry.metrics import (
    MetricsRegistry,
    set_enabled,
    use_registry,
)
from repro.telemetry.trace import Tracer, use_tracer


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """A finished archive + accounting text, built once."""
    cfg = TEST_SYSTEM.scaled(num_nodes=8, horizon_days=2, n_users=10)
    archive_dir = str(tmp_path_factory.mktemp("telemetry_bench"))
    run = Facility(cfg, seed=21).run_with_files(archive_dir)
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    return cfg, archive_dir, buf.getvalue(), lariat


class _CountingRegistry(MetricsRegistry):
    """Tallies instrument lookups; call sites pair each with a mutation.

    The tally is class-level so every instance — the ambient registry
    and each per-host private one the scan path constructs — feeds one
    shared count.  Lookups made by :meth:`merge_snapshot` are excluded:
    they are bookkeeping, not call-site instrumentation.
    """

    tally: dict[str, int] = {}
    _merging = False

    def counter(self, name):
        if not self._merging:
            type(self).tally["counter"] += 1
        return super().counter(name)

    def gauge(self, name):
        if not self._merging:
            type(self).tally["gauge"] += 1
        return super().gauge(name)

    def histogram(self, name, bounds=None):
        if not self._merging:
            type(self).tally["histogram"] += 1
        if bounds is None:
            return super().histogram(name)
        return super().histogram(name, bounds)

    def merge_snapshot(self, snap):
        self._merging = True
        try:
            super().merge_snapshot(snap)
        finally:
            self._merging = False


def _count_spans(merged) -> int:
    """Total spans across coordinator and workers, from the merged
    ``span.<name>.seconds`` histograms (one observation per span)."""
    return sum(h.count for name, h in merged.histograms.items()
               if name.startswith("span.") and name.endswith(".seconds"))


def _one_pass(prepared, enabled: bool,
              registry: MetricsRegistry | None = None,
              tracer: Tracer | None = None) -> float:
    """One full serial ingest; returns wall seconds."""
    cfg, archive_dir, accounting, lariat = prepared
    gc.collect()
    set_enabled(enabled)
    try:
        with use_registry(registry or MetricsRegistry()), \
                use_tracer(tracer or Tracer()):
            t0 = time.perf_counter()
            report = IngestPipeline(Warehouse()).ingest(
                cfg, accounting_text=accounting,
                archive=HostArchive(archive_dir), lariat_records=lariat)
            elapsed = time.perf_counter() - t0
    finally:
        set_enabled(True)
    assert report.jobs_loaded > 0
    return elapsed


def _per_op_seconds() -> dict[str, float]:
    """Tight-loop cost of each instrumentation shape, per operation."""
    n = 20_000
    registry, tracer = MetricsRegistry(), Tracer()
    costs: dict[str, float] = {}
    with use_registry(registry), use_tracer(tracer):
        t0 = time.perf_counter()
        for _ in range(n):
            registry.counter("bench.counter").inc(7)
        costs["counter"] = (time.perf_counter() - t0) / n
        t0 = time.perf_counter()
        for _ in range(n):
            registry.gauge("bench.gauge").set(1.5)
        costs["gauge"] = (time.perf_counter() - t0) / n
        t0 = time.perf_counter()
        for _ in range(n):
            registry.histogram("bench.hist").observe(0.1)
        costs["histogram"] = (time.perf_counter() - t0) / n
        # Spans are heavier (context manager + perf_counter pair +
        # histogram feed); bench fewer, and reset the tree as a run
        # does, so the roots list never grows unbounded.
        n_spans = n // 10
        t0 = time.perf_counter()
        for _ in range(n_spans):
            with tracer.span("bench.span"):
                pass
        costs["span"] = (time.perf_counter() - t0) / n_spans
        tracer.reset()
    return costs


def test_telemetry_overhead(prepared, save_artifact, monkeypatch):
    """Gate the <1 % budget on op counts × per-op costs."""
    import repro.ingest.parallel as parallel_mod

    # Exact op counts from one instrumented ingest — the counting class
    # also replaces the private registry the per-host scan constructs,
    # so worker-side parse instrumentation lands in the same tally.
    _CountingRegistry.tally = {"counter": 0, "gauge": 0, "histogram": 0}
    monkeypatch.setattr(parallel_mod, "MetricsRegistry",
                        _CountingRegistry)
    ambient = _CountingRegistry()
    _one_pass(prepared, True, registry=ambient, tracer=Tracer())
    ops = dict(_CountingRegistry.tally)
    ops["span"] = _count_spans(ambient.snapshot())
    monkeypatch.undo()

    costs = _per_op_seconds()
    added_s = sum(ops[kind] * costs[kind] for kind in ops)

    # Uninstrumented wall time: best of alternating passes (the A/B
    # delta doubles as the sanity line).
    rounds = 3
    _one_pass(prepared, True)  # warm-up: imports, page cache, sqlite
    on_times = [_one_pass(prepared, True) for _ in range(rounds)]
    off_times = [_one_pass(prepared, False) for _ in range(rounds)]
    best_on, best_off = min(on_times), min(off_times)
    overhead_pct = added_s / best_off * 100.0
    ab_pct = (best_on - best_off) / best_off * 100.0

    op_lines = [
        f"  {kind:<10} {ops[kind]:>8,} ops x {costs[kind] * 1e9:>6.0f} ns"
        for kind in ("counter", "gauge", "histogram", "span")
    ]
    text = "\n".join([
        "Telemetry overhead (instrumentation cost of one serial ingest)",
        "",
        "operation counts (real ingest) x microbenched per-op cost:",
        *op_lines,
        f"added work: {added_s * 1000.0:.3f} ms "
        f"on a {best_off * 1000.0:.0f} ms uninstrumented ingest",
        f"telemetry overhead: {overhead_pct:.3f} % (budget < 1 %)",
        "",
        f"wall-clock A/B sanity (noise floor >> effect): "
        f"{ab_pct:+.2f} % over {rounds} alternating best-of passes",
    ])
    save_artifact("telemetry_overhead", text)
    print("\n" + text)

    assert added_s > 0
    assert overhead_pct < 1.0, (
        f"telemetry instrumentation costs {overhead_pct:.3f} % of ingest "
        f"wall time — over the 1 % budget")
