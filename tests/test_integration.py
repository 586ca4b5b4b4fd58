"""Cross-path integration tests: the text-format pipeline and the fast
synthesizer must tell the same story about the same simulated facility."""

from pathlib import Path

import numpy as np
import pytest

from repro import RANGER, TEST_SYSTEM, Facility
from repro.tacc_stats.columnar import read_header
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.workload.applications import APP_CATALOG


@pytest.fixture(scope="module")
def both_paths(tmp_path_factory):
    """The same (config, seed) through both measurement paths."""
    fac_files = Facility(TEST_SYSTEM, seed=11)
    file_run = fac_files.run_with_files(
        str(tmp_path_factory.mktemp("arch")))
    fast_run = Facility(TEST_SYSTEM, seed=11).run()
    return file_run, fast_run


def test_same_schedule(both_paths):
    file_run, fast_run = both_paths
    a = [(r.jobid, r.start_time, r.end_time, r.node_indices)
         for r in file_run.records]
    b = [(r.jobid, r.start_time, r.end_time, r.node_indices)
         for r in fast_run.records]
    assert a == b


def test_per_job_summaries_agree(both_paths):
    """Collected-and-parsed summaries match direct synthesis within the
    measurement noise the collectors inject."""
    file_run, fast_run = both_paths
    ta = file_run.warehouse.job_table("ranger")
    tb = fast_run.warehouse.job_table("ranger")
    common = sorted(set(ta["jobid"]) & set(tb["jobid"]))
    assert len(common) >= 0.8 * len(tb["jobid"])
    ia = {j: k for k, j in enumerate(ta["jobid"])}
    ib = {j: k for k, j in enumerate(tb["jobid"])}
    for metric, rel, abs_tol in [
        ("cpu_idle", 0.35, 0.06),
        ("cpu_flops", 0.2, 0.3),
        ("mem_used", 0.25, 0.7),
        ("io_scratch_write", 0.2, 0.25),
        ("net_ib_tx", 0.2, 0.5),
        ("net_lnet_tx", 0.2, 0.3),
    ]:
        va = np.array([ta[metric][ia[j]] for j in common])
        vb = np.array([tb[metric][ib[j]] for j in common])
        close = np.isclose(va, vb, rtol=rel, atol=abs_tol)
        assert close.mean() > 0.9, (
            f"{metric}: only {close.mean():.0%} of jobs agree "
            f"(worst: {np.max(np.abs(va - vb)):.3f})"
        )


def test_node_hour_weighted_aggregates_agree(both_paths):
    file_run, fast_run = both_paths
    qa, qb = file_run.query(), fast_run.query()
    assert qa.weighted_mean("cpu_idle") == pytest.approx(
        qb.weighted_mean("cpu_idle"), abs=0.04)
    assert qa.weighted_mean("cpu_flops") == pytest.approx(
        qb.weighted_mean("cpu_flops"), rel=0.15)
    assert qa.weighted_mean("mem_used") == pytest.approx(
        qb.weighted_mean("mem_used"), rel=0.15)


def test_app_attribution_falls_back_to_lariat(tmp_path):
    """Corrupt the accounting app tags; Lariat's fingerprint recovers."""
    import io
    from repro.ingest.pipeline import IngestPipeline
    from repro.ingest.warehouse import Warehouse
    from repro.lariat.records import lariat_record_for
    from repro.scheduler.accounting import AccountingWriter
    from repro.tacc_stats.archive import HostArchive

    fac = Facility(TEST_SYSTEM, seed=11)
    run = fac.run_with_files(str(tmp_path / "arch"))
    buf = io.StringIO()
    AccountingWriter(buf, TEST_SYSTEM.node.cores, "ranger").write_all(
        run.records)
    # Blank out every app tag (field 17).
    corrupted = "\n".join(
        ":".join(line.split(":")[:17] + ["-"])
        for line in buf.getvalue().strip().split("\n")
    )
    lariat = [lariat_record_for(r, TEST_SYSTEM.node.cores)
              for r in run.records]
    pipeline = IngestPipeline(Warehouse())
    report = pipeline.ingest(
        TEST_SYSTEM, accounting_text=corrupted,
        archive=HostArchive(tmp_path / "arch"), lariat_records=lariat,
    )
    assert report.lariat_attributed == report.jobs_loaded
    assert report.unattributed == []
    table = pipeline.warehouse.job_table("ranger", metrics=())
    assert set(table["app"]) <= set(APP_CATALOG)


def test_full_chain_reports_render(both_paths):
    """Every stakeholder report renders from file-path data."""
    from repro.xdmod.reports import (
        DeveloperReport, FundingAgencyReport, SupportStaffReport,
        UserReport,
    )
    file_run, _ = both_paths
    wh = file_run.warehouse
    q = file_run.query()
    user = q.top("user", 1)[0]
    assert UserReport(wh, "ranger").render(user)
    app = q.top("app", 1)[0]
    assert DeveloperReport(wh, "ranger").render(app)
    assert SupportStaffReport(wh, "ranger").render()
    assert FundingAgencyReport(wh, "ranger").render()


@pytest.mark.parametrize("archive_format,compress,workers", [
    ("text", True, 1), ("text", False, 1), ("v2", True, 1), ("text", True, 2),
], ids=["text+gzip", "text", "v2", "text+gzip-workers2"])
def test_synthesis_archive_and_parse_conserve_samples_bytes_and_files(
        tmp_path, pool_cpus, archive_format, compress, workers):
    """What synthesis counts is what the archive wrote and what ingest
    read back, across processes: every sample is one parsed block,
    every raw byte written is one parsed byte (for v2, one byte of the
    text its headers say the file stands for), and every file written
    is one file read."""
    cfg = RANGER.scaled(num_nodes=6, horizon_days=2)
    reg = MetricsRegistry()
    with use_registry(reg):
        Facility(cfg, seed=5).run_with_files(
            str(tmp_path), compress=compress, archive_format=archive_format,
            workers=workers, ingest_workers=workers)
    c = reg.snapshot().counters
    assert c["synth.samples"] > 0 and c["archive.files_written"] > 0
    if archive_format == "text":
        assert c["synth.samples"] == c["parse.blocks"]
        assert c["archive.bytes_raw"] == c["parse.bytes"]
        assert c["archive.files_written"] == c["parse.files"]
    else:
        assert "parse.files" not in c
        assert c["archive.bytes_raw"] == sum(
            read_header(p)["text_bytes"] for p in Path(tmp_path).rglob("*.v2"))
        assert c["archive.files_written"] == c["archive.v2.files_read"]
