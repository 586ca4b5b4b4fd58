"""Tests for the end-to-end ingest pipeline (on the file_run fixture)."""

import pytest

from repro.config import TEST_SYSTEM


def test_ingest_report_counts(file_run):
    report = file_run.ingest_report
    assert report is not None
    assert report.system == "ranger"
    # Every job longer than the sampling interval matches and loads.
    eligible = [
        r for r in file_run.records
        if r.wall_seconds >= TEST_SYSTEM.sample_interval
    ]
    assert report.jobs_loaded == len(report.match.matched)
    assert report.jobs_loaded >= 0.9 * len(eligible)
    assert report.match.no_stats == []
    assert report.summaries_failed == []


def test_short_jobs_excluded(file_run):
    report = file_run.ingest_report
    short = [
        r for r in file_run.records
        if r.wall_seconds < TEST_SYSTEM.sample_interval
    ]
    assert len(report.match.too_short) == len(short)


def test_warehouse_contents_match_accounting(file_run):
    q = file_run.query()
    # The default query excludes jobs with incomplete summaries (e.g.
    # user-reprogrammed PMCs, ~2 % of jobs); the raw fact table has all.
    assert len(q) <= file_run.ingest_report.jobs_loaded
    assert len(q) >= 0.9 * file_run.ingest_report.jobs_loaded
    table = file_run.warehouse.job_table("ranger", metrics=())
    assert len(table["jobid"]) == file_run.ingest_report.jobs_loaded
    by_id = {r.jobid: r for r in file_run.records}
    for jobid, nodes, user in zip(table["jobid"], table["nodes"],
                                  table["user"]):
        rec = by_id[jobid]
        assert rec.request.nodes == int(nodes)
        assert rec.user == user


def test_summaries_physically_plausible(file_run):
    q = file_run.query()
    idle = q.column("cpu_idle")
    assert ((idle >= 0) & (idle <= 1)).all()
    mem = q.column("mem_used")
    mem_max = q.column("mem_used_max")
    assert (mem <= 32.0).all()
    assert (mem_max + 1e-9 >= mem).all()
    flops = q.column("cpu_flops")
    assert (flops >= 0).all()
    assert (flops < 147.2).all()  # below node peak


def test_syslog_events_loaded(file_run):
    events = file_run.warehouse.syslog_events("ranger")
    assert file_run.ingest_report.syslog_events_loaded == len(events)
    kinds = {e[3] for e in events}
    assert "job_prolog" in kinds


def test_archive_volume_accounted(file_run):
    stats = file_run.archive_stats
    assert stats is not None
    # Two full days per node, plus a sliver file when the midnight-exact
    # horizon sample opens day three (real cron behaviour).
    n = TEST_SYSTEM.num_nodes
    assert 2 * n <= stats.host_days <= 3 * n
    # Paper: ~0.5 MB/node/day raw; our replica should be same order
    # (measured against the two full days).
    per_full_day = stats.raw_bytes / (2 * n)
    assert 0.1e6 < per_full_day < 1.5e6
    assert stats.compression_ratio > 2.0


def test_pipeline_argument_validation(file_run):
    from repro.ingest.pipeline import IngestPipeline
    from repro.ingest.warehouse import Warehouse
    p = IngestPipeline(Warehouse())
    # The archive is the one input: there is no parsed-hosts mode.
    with pytest.raises(TypeError, match="archive"):
        p.ingest(TEST_SYSTEM, accounting_text="")
    with pytest.raises(TypeError, match="hosts"):
        p.ingest(TEST_SYSTEM, accounting_text="", hosts=[])
