"""Tests for the parallel ingest engine and its edge cases.

Covers the corners the fan-out must not change: empty host files
(node down all day), truncated trailing lines under ``allow_truncated``,
multi-wrap 32-bit InfiniBand counters through the chained delta, and the
headline guarantee — the warehouse a pooled ingest produces is
byte-identical to the serial one.
"""

import io

import numpy as np
import pytest

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.parallel import (
    HostScan,
    effective_workers,
    scan_archive,
    scan_host_data,
)
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.summarize import _chained_delta_rate
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.types import HostData, TimestampBlock

MINIMAL = (
    "$hostname {host}\n"
    "!cpu user,E idle,E\n"
    "100 7\n"
    "cpu 0 10 20\n"
    "700 7\n"
    "cpu 0 310 620\n"
)


def _write_host(root, host, texts):
    """Lay out one archive host directory with one file per text."""
    d = root / host
    d.mkdir(parents=True)
    for i, text in enumerate(texts):
        (d / f"2013-01-{i + 1:02d}").write_text(text)


def test_effective_workers_clamps(monkeypatch):
    monkeypatch.setattr("repro.ingest.parallel.os.cpu_count", lambda: 4)
    assert effective_workers(1, 10) == 1
    assert effective_workers(8, 3) == 3
    # Never above the visible CPUs.
    assert effective_workers(64, 64) == 4
    monkeypatch.setattr("repro.ingest.parallel.os.cpu_count", lambda: None)
    assert effective_workers(8, 10) == 1
    with pytest.raises(ValueError, match="workers"):
        effective_workers(0, 4)


def test_empty_host_files_are_skipped(tmp_path):
    """A day the node was down yields a 0-byte file, not a parse error."""
    _write_host(tmp_path, "h0", ["", MINIMAL.format(host="h0")])
    _write_host(tmp_path, "h1", [""])  # down the whole period
    archive = HostArchive(tmp_path)
    h0 = archive.read_host("h0")
    assert h0.hostname == "h0"
    assert len(h0.blocks) == 2
    h1 = archive.read_host("h1")
    assert h1.hostname == "h1"
    assert h1.blocks == []
    scans = list(scan_archive(archive))
    assert [s.hostname for s in scans] == ["h0", "h1"]
    assert scans[0].partials["7"].n_blocks == 2
    assert scans[1].partials == {} and scans[1].views == ()


def test_truncated_tail_dropped_in_scan(tmp_path, pool_cpus):
    """The crash-consistent read drops exactly the unterminated line."""
    good = MINIMAL.format(host="h0")
    _write_host(tmp_path, "h0", [good + "1300 7\ncpu 0 9"])
    archive = HostArchive(tmp_path)
    serial = list(scan_archive(archive, allow_truncated=True))
    pooled = list(scan_archive(archive, workers=2, allow_truncated=True))
    assert serial == pooled
    # The truncated row is gone but its timestamp block survives; the
    # job window still ends at the last complete sample pair.
    assert serial[0].partials["7"].n_blocks == 3


def test_multi_wrap_ib_counters_survive_chaining():
    """A 32-bit counter wrapping once per interval sums correctly."""
    host = HostData(hostname="h0")
    host.schemas["ib"] = TypeSchema.parse_header_line(
        "!ib port_xmit_data,E,W=32")
    step = 3_000_000_000  # wraps a 32-bit register every interval
    value = 0
    for i in range(5):
        b = TimestampBlock(time=600.0 * i, jobids=("1",))
        b.add_row("ib", "mlx4_0", np.array([value % (1 << 32)],
                                           dtype=np.uint64))
        host.blocks.append(b)
        value += step
    rate = _chained_delta_rate(host, host.blocks, "ib",
                               "port_xmit_data", 4.0, 2400.0)
    assert rate == pytest.approx(4 * step * 4.0 / 2400.0)
    # An endpoint-only delta would have been wrong by whole multiples
    # of 2**32: the true total exceeds the register range.
    assert 4 * step > (1 << 32)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small finished archive plus its accounting and Lariat logs."""
    cfg = TEST_SYSTEM.scaled(num_nodes=6, horizon_days=1, n_users=8)
    archive_dir = str(tmp_path_factory.mktemp("parallel_corpus"))
    run = Facility(cfg, seed=33).run_with_files(archive_dir)
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    return cfg, archive_dir, buf.getvalue(), lariat


def _warehouse_rows(cfg, archive_dir, accounting, lariat, **kw):
    w = Warehouse()
    report = IngestPipeline(w).ingest(
        cfg, accounting_text=accounting, archive=HostArchive(archive_dir),
        lariat_records=lariat, **kw)
    jobs = w._conn.execute("SELECT * FROM jobs ORDER BY jobid").fetchall()
    metrics = w._conn.execute(
        "SELECT * FROM job_metrics ORDER BY jobid, metric").fetchall()
    return report, jobs, metrics


def test_parallel_warehouse_identical_to_serial(corpus, pool_cpus):
    """Any worker count and batch size produce byte-identical tables."""
    report, jobs, metrics = _warehouse_rows(*corpus)
    assert report.jobs_loaded == len(jobs) > 0
    for kw in (
        {"workers": 2},
        {"workers": 3, "batch_size": 1},
        {"workers": 1, "batch_size": 5},
    ):
        r2, jobs2, metrics2 = _warehouse_rows(*corpus, **kw)
        assert jobs2 == jobs, kw
        assert metrics2 == metrics, kw
        assert r2.jobs_loaded == report.jobs_loaded
        assert len(r2.match.matched) == len(report.match.matched)


def test_scan_matches_in_process_reduction(corpus):
    """scan_archive agrees with scanning pre-parsed hosts one by one."""
    _cfg, archive_dir, _acct, _lar = corpus
    archive = HostArchive(archive_dir)
    streamed = list(scan_archive(archive, allow_truncated=True))
    direct = [
        scan_host_data(archive.read_host(h, allow_truncated=True))
        for h in archive.hostnames()
    ]
    assert streamed == direct
    assert all(isinstance(s, HostScan) for s in streamed)


def test_scan_reports_jobs_per_file_and_reduces_only_wanted_jobs(
        corpus, pool_cpus):
    """Serial and pool alike: *jobs* limits the metric partials, never
    the matcher views, and every kept file reports the ids it holds."""
    archive = HostArchive(corpus[1])
    full = list(scan_archive(archive, allow_truncated=True))
    wanted = frozenset(sorted(full[0].partials)[:2])
    assert wanted
    for kw in ({}, {"workers": 2}):
        scans = list(scan_archive(archive, allow_truncated=True,
                                  jobs=wanted, **kw))
        assert [s.hostname for s in scans] == [s.hostname for s in full]
        for scan, ref in zip(scans, full):
            assert scan.views == ref.views
            assert scan.partials == {j: p for j, p in ref.partials.items()
                                     if j in wanted}
            assert scan.jobs_by_file == ref.jobs_by_file
            assert sorted(scan.jobs_by_file) == [
                day for _h, day in archive.manifest(hosts=[scan.hostname])]
            assert set().union(*scan.jobs_by_file.values()) == {
                v.jobid for v in scan.views}


def test_pipeline_rejects_bad_batch_size(corpus):
    cfg, archive_dir, accounting, lariat = corpus
    with pytest.raises(ValueError, match="batch_size"):
        IngestPipeline(Warehouse()).ingest(
            cfg, accounting_text=accounting,
            archive=HostArchive(archive_dir), batch_size=0)
