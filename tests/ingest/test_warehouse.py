"""Tests for the SQLite warehouse."""

import numpy as np
import pytest

from repro.ingest.summarize import SUMMARY_METRICS, JobSummary
from repro.ingest.warehouse import Warehouse
from repro.scheduler.job import ExitStatus, JobRecord
from tests.scheduler.test_job import make_request


@pytest.fixture
def wh():
    w = Warehouse()
    w.add_system("t", num_nodes=16, cores_per_node=16, mem_gb_per_node=32.0,
                 peak_tflops=2.3, sample_interval=600.0)
    return w


def add_job(wh, jobid, user="u1", idle=0.1, nodes=2, app="namd"):
    req = make_request(jobid=jobid, user=user, nodes=nodes, app=app)
    rec = JobRecord(req, 0.0, 3600.0, tuple(range(nodes)),
                    ExitStatus.COMPLETED)
    metrics = {m: 1.0 for m in SUMMARY_METRICS}
    metrics["cpu_idle"] = idle
    wh.add_job("t", rec, 16, JobSummary(jobid, metrics, nodes, 3600.0, 6))


def test_system_info(wh):
    info = wh.system_info("t")
    assert info["num_nodes"] == 16
    assert info["peak_tflops"] == pytest.approx(2.3)
    assert wh.systems() == ["t"]
    with pytest.raises(KeyError):
        wh.system_info("ghost")


def test_job_table_roundtrip(wh):
    add_job(wh, "1", idle=0.25)
    add_job(wh, "2", user="u2", idle=0.5)
    wh.commit()
    assert wh.job_count("t") == 2
    table = wh.job_table("t")
    assert list(table["jobid"]) == ["1", "2"]
    np.testing.assert_allclose(table["cpu_idle"], [0.25, 0.5])
    assert table["node_hours"][0] == pytest.approx(2.0)


def test_job_table_excludes_incomplete_summaries(wh):
    add_job(wh, "1")
    req = make_request(jobid="2")
    rec = JobRecord(req, 0.0, 3600.0, (0, 1, 2, 3), ExitStatus.COMPLETED)
    wh.add_job("t", rec, 16, summary=None)  # summarization failed
    wh.commit()
    table = wh.job_table("t")
    assert list(table["jobid"]) == ["1"]
    # Without metrics requested, both jobs appear.
    table_all = wh.job_table("t", metrics=())
    assert list(table_all["jobid"]) == ["1", "2"]


def test_job_table_rejects_unknown_metric(wh):
    add_job(wh, "1")
    with pytest.raises(ValueError):
        wh.job_table("t", metrics=("evil'; DROP TABLE jobs; --",))


def test_duplicate_job_rejected(wh):
    add_job(wh, "1")
    import sqlite3
    with pytest.raises(sqlite3.IntegrityError):
        add_job(wh, "1")


def test_series_roundtrip(wh):
    t = np.arange(5) * 600.0
    v = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    wh.add_series("t", "flops_tf", t, v)
    wh.commit()
    t2, v2 = wh.series("t", "flops_tf")
    np.testing.assert_allclose(t2, t)
    np.testing.assert_allclose(v2, v)
    assert wh.series_metrics("t") == ["flops_tf"]
    with pytest.raises(KeyError):
        wh.series("t", "ghost")


def test_series_shape_checked(wh):
    with pytest.raises(ValueError):
        wh.add_series("t", "x", np.arange(3), np.arange(4))


def test_syslog_events(wh):
    wh.add_syslog_event("t", 100.0, "h1", "42", "oom_kill", "err")
    wh.add_syslog_event("t", 200.0, "h1", None, "mce", "crit")
    wh.commit()
    assert len(wh.syslog_events("t")) == 2
    assert len(wh.syslog_events("t", jobid="42")) == 1


def test_app_override(wh):
    req = make_request(jobid="9", app="unknown")
    rec = JobRecord(req, 0.0, 3600.0, (0, 1, 2, 3), ExitStatus.COMPLETED)
    wh.add_job("t", rec, 16, summary=None, app_override="namd")
    wh.commit()
    table = wh.job_table("t", metrics=())
    assert table["app"][0] == "namd"


def test_file_backed_persistence(tmp_path):
    path = str(tmp_path / "wh.sqlite")
    w1 = Warehouse(path)
    w1.add_system("t", 4, 16, 32.0, 0.5, 600.0)
    w1.commit()
    w1.close()
    w2 = Warehouse(path)
    assert w2.systems() == ["t"]


def test_schema_version_stamped(tmp_path):
    from repro.ingest.warehouse import SCHEMA_VERSION
    path = str(tmp_path / "v.sqlite")
    w = Warehouse(path)
    row = w.connection.execute(
        "SELECT value FROM meta WHERE key='schema_version'").fetchone()
    assert int(row[0]) == SCHEMA_VERSION
    w.close()
    # Reopening the same version works.
    Warehouse(path).close()


def test_schema_version_mismatch_rejected(tmp_path):
    path = str(tmp_path / "old.sqlite")
    w = Warehouse(path)
    w.connection.execute(
        "UPDATE meta SET value='0' WHERE key='schema_version'")
    w.commit()
    w.close()
    with pytest.raises(RuntimeError, match="schema version"):
        Warehouse(path)


def test_generation_bumps_only_on_dirty_commit(wh):
    g0 = wh.generation
    wh.commit()  # nothing pending: a no-op commit
    assert wh.generation == g0
    add_job(wh, "1")
    assert wh.generation == g0  # not yet committed
    wh.commit()
    assert wh.generation == g0 + 1
    wh.commit()
    assert wh.generation == g0 + 1


def test_generation_persists_across_reopen(tmp_path):
    path = str(tmp_path / "gen.sqlite")
    w = Warehouse(path)
    w.add_system("t", 4, 16, 32.0, 0.5, 600.0)
    w.commit()
    g = w.generation
    assert g >= 1
    w.close()
    w2 = Warehouse(path)
    assert w2.generation == g
    w2.close()


def test_buffered_rows_visible_before_commit(wh):
    """Reads flush the write buffers, so a query placed between add_job
    and commit sees every row already added."""
    add_job(wh, "1")
    add_job(wh, "2", user="u2")
    assert wh.job_count("t") == 2  # no commit yet
    table = wh.job_table("t")
    assert list(table["jobid"]) == ["1", "2"]
    assert wh.data_version[1] > 0  # uncommitted writes move the version


def test_duplicate_detected_across_flushes(wh):
    """The eager same-session duplicate check holds even after the
    first copy was flushed to SQLite by an intervening read."""
    import sqlite3
    add_job(wh, "1")
    wh.job_count("t")  # forces a flush
    with pytest.raises(sqlite3.IntegrityError):
        add_job(wh, "1")


def test_pre_versioning_file_rejected(tmp_path):
    import sqlite3
    path = str(tmp_path / "legacy.sqlite")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE jobs (x)")  # looks initialized, no meta
    conn.commit()
    conn.close()
    with pytest.raises(RuntimeError, match="schema version 0"):
        Warehouse(path)
