"""End-to-end telemetry guarantees over the real ingest pipeline.

Two acceptance criteria from the observability work live here:

* **Determinism** — serial and parallel ingests of the same archive
  produce identical merged metric totals once timing metrics are
  stripped (:meth:`MetricsSnapshot.without_timing`), because every
  deterministic counter is recorded in the per-host worker registry
  and reduced associatively on the coordinator.
* **Agreement with ingest health** — the quarantine/retry counters in
  the telemetry registry match the PR 3 :class:`IngestHealth`
  accounting field for field; one run, two views, zero drift.
"""

import functools
import io
import shutil

import pytest

from repro.config import TEST_SYSTEM
from repro.errors import IngestHealth
from repro.facility import Facility
from repro.ingest.parallel import scan_archive
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.tacc_stats.archive import HostArchive
from repro.telemetry.log import run_scope
from repro.telemetry.manifest import RunManifest, build_manifest
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.telemetry.trace import Tracer, use_tracer
from repro.testing.faults import corrupt_archive, crashy_scan


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small finished archive plus its accounting and Lariat logs."""
    cfg = TEST_SYSTEM.scaled(num_nodes=6, horizon_days=1, n_users=8)
    archive_dir = str(tmp_path_factory.mktemp("telemetry_corpus"))
    run = Facility(cfg, seed=33).run_with_files(archive_dir)
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    return cfg, archive_dir, buf.getvalue(), lariat


def _instrumented_ingest(corpus, archive_root, **kw):
    """Ingest under a private registry; return (snapshot, report)."""
    cfg, _dir, accounting, lariat = corpus
    with use_registry(MetricsRegistry()) as registry, use_tracer(Tracer()):
        report = IngestPipeline(Warehouse()).ingest(
            cfg, accounting_text=accounting,
            archive=HostArchive(archive_root),
            lariat_records=lariat, **kw)
        return registry.snapshot(), report


# -- serial == parallel ------------------------------------------------------


def test_serial_and_parallel_totals_identical_without_timing(
        corpus, pool_cpus):
    """THE determinism guarantee: any worker count, same totals."""
    serial, report1 = _instrumented_ingest(corpus, corpus[1], workers=1)
    fanout, report3 = _instrumented_ingest(corpus, corpus[1], workers=3)
    assert serial.without_timing().to_dict() == \
        fanout.without_timing().to_dict()
    assert report1.jobs_loaded == report3.jobs_loaded
    # The fan-out shape is reported out of band, not as a metric —
    # keeping it off the registry is what keeps the subset identical.
    assert report1.effective_workers == 1
    assert report3.effective_workers == 3
    assert "ingest.effective_workers" not in serial.gauges


def test_ingest_counters_reflect_the_work_done(corpus):
    snap, report = _instrumented_ingest(corpus, corpus[1], workers=1)
    counters = snap.counters
    n_hosts = len(HostArchive(corpus[1]).hostnames())
    assert counters["ingest.hosts_ok"] == n_hosts
    assert counters["parse.files"] >= n_hosts
    assert counters["parse.bytes"] > 0
    assert counters["parse.blocks"] > 0
    assert counters["ingest.jobs_loaded"] == report.jobs_loaded
    assert counters["warehouse.rows.jobs"] == report.jobs_loaded
    assert counters["warehouse.commits"] == 2  # registration, load
    # Per-host scan timing shows up as one gauge per host plus the
    # pooled histogram — the manifest's slowest-hosts source.
    hist = snap.histograms["ingest.host_scan.seconds"]
    assert hist.count == n_hosts
    assert len([g for g in snap.gauges
                if g.startswith("ingest.host_scan.")]) == n_hosts


def test_a_host_scan_splits_into_parse_and_fold(corpus):
    """Each host's scan is its decode (``ingest.parse``) and then its
    fold (``ingest.fold``): one fold per host, and the two fit inside
    the hosts' ``ingest.host_scan.seconds``."""
    snap, _report = _instrumented_ingest(corpus, corpus[1], workers=1)
    n_hosts = len(HostArchive(corpus[1]).hostnames())
    fold = snap.histograms["span.ingest.fold.seconds"]
    parse = snap.histograms["span.ingest.parse.seconds"]
    assert fold.count == n_hosts
    assert fold.total + parse.total <= \
        snap.histograms["ingest.host_scan.seconds"].total


def test_run_manifest_from_real_ingest_validates(corpus, tmp_path):
    cfg, _dir, accounting, lariat = corpus
    with use_registry(MetricsRegistry()), use_tracer(Tracer()), \
            run_scope() as run_id:
        report = IngestPipeline(Warehouse()).ingest(
            cfg, accounting_text=accounting,
            archive=HostArchive(corpus[1]), lariat_records=lariat)
        manifest = build_manifest(systems=[cfg.name],
                                  effective_workers=report.effective_workers)
    # The pipeline joined the ambient run scope instead of minting its
    # own id, so report and manifest name the same run.
    assert manifest.run_id == report.run_id == run_id
    assert [s.name for s in manifest.stages] == ["ingest"]
    child_names = [c.name for c in manifest.stages[0].children]
    assert child_names[:4] == ["ingest.plan", "ingest.scan", "ingest.match",
                               "ingest.load"]
    assert manifest.slowest_hosts  # per-host gauges made it through
    rebuilt = RunManifest.from_dict(manifest.to_dict())
    assert rebuilt.to_dict() == manifest.to_dict()


# -- degraded runs: counters match IngestHealth ------------------------------


def test_quarantine_counters_match_ingest_health(corpus, tmp_path):
    """Telemetry and IngestHealth are two views of one run: the dropped
    host, quarantined record, and retry counts must agree exactly."""
    hostnames = HostArchive(corpus[1]).hostnames()
    victims = {hostnames[1]: "bit_flip", hostnames[3]: "garbage_lines"}
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    corrupt_archive(root, victims, seed=77)

    snap, report = _instrumented_ingest(corpus, root,
                                        error_policy="quarantine")
    health = report.health
    counters = snap.counters
    assert counters["ingest.hosts_dropped"] == len(health.hosts_dropped) \
        == len(victims)
    assert counters["ingest.hosts_ok"] == len(health.hosts_ok)
    assert counters["ingest.records_quarantined"] == \
        health.records_quarantined
    assert counters.get("ingest.hosts_degraded", 0) == \
        len(health.hosts_degraded) == 0


def test_repair_counters_match_ingest_health(corpus, tmp_path):
    victim = HostArchive(corpus[1]).hostnames()[1]
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    corrupt_archive(root, {victim: "bit_flip"}, seed=77)

    snap, report = _instrumented_ingest(corpus, root, error_policy="repair")
    health = report.health
    assert snap.counters["ingest.hosts_degraded"] == \
        len(health.hosts_degraded) == 1
    assert snap.counters["ingest.records_quarantined"] == \
        health.records_quarantined == 1


def test_retry_counter_matches_health_retries(corpus, tmp_path, pool_cpus):
    """A transiently crashing worker charges ``ingest.retries`` exactly
    as often as :class:`IngestHealth` records the retry."""
    archive = HostArchive(corpus[1])
    victim = archive.hostnames()[2]
    scan_fn = functools.partial(crashy_scan, str(tmp_path), (victim,), 1)
    health = IngestHealth(policy="quarantine")
    with use_registry(MetricsRegistry()) as registry, use_tracer(Tracer()):
        list(scan_archive(
            archive, workers=2, allow_truncated=True,
            policy="quarantine", health=health, max_retries=2,
            retry_backoff=0.01, scan_fn=scan_fn))
        snap = registry.snapshot()
    assert health.total_retries >= 1
    assert snap.counters["ingest.retries"] == health.total_retries
