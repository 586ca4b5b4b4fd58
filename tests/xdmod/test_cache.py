"""Tests for the memoized query/report cache on the warehouse snapshot."""

import pytest

from repro.ingest.summarize import SUMMARY_METRICS, JobSummary
from repro.ingest.warehouse import Warehouse
from repro.scheduler.job import ExitStatus, JobRecord
from repro.xdmod.query import JobQuery
from repro.xdmod.snapshot import (
    WarehouseSnapshot,
    cache_enabled,
    set_cache_enabled,
)
from tests.scheduler.test_job import make_request


@pytest.fixture
def wh():
    w = Warehouse()
    for name in ("alpha", "beta"):
        w.add_system(name, num_nodes=16, cores_per_node=16,
                     mem_gb_per_node=32.0, peak_tflops=2.3,
                     sample_interval=600.0)
    return w


def add_job(wh, system, jobid, user="u1", idle=0.1, nodes=2, app="namd"):
    req = make_request(jobid=jobid, user=user, nodes=nodes, app=app)
    rec = JobRecord(req, 0.0, 3600.0, tuple(range(nodes)),
                    ExitStatus.COMPLETED)
    metrics = {m: 1.0 for m in SUMMARY_METRICS}
    metrics["cpu_idle"] = idle
    wh.add_job(system, rec, 16, JobSummary(jobid, metrics, nodes, 3600.0, 6))


def test_warm_results_equal_cold(wh):
    for i in range(8):
        add_job(wh, "alpha", str(i), user=f"u{i % 3}", idle=0.1 * (i % 4))
    wh.commit()
    q = JobQuery(wh, "alpha")
    cold_groups = q.group_by("user", metrics=("cpu_idle",))
    cold_hours = q.node_hours
    snap = WarehouseSnapshot.for_warehouse(wh)
    misses = snap.cache_stats["misses"]
    # Same query again, and via a fresh JobQuery object: all memo hits.
    q2 = JobQuery(wh, "alpha")
    assert q2.group_by("user", metrics=("cpu_idle",)) == cold_groups
    assert q2.node_hours == cold_hours
    stats = snap.cache_stats
    assert stats["misses"] == misses
    assert stats["hits"] >= 2


def test_commit_invalidates_cache(wh):
    """An append moves the data version; the refreshed snapshot must
    drop the affected system's memoized results and serve fresh data
    (the snapshot object itself may survive via delta refresh)."""
    add_job(wh, "alpha", "1", user="u1")
    wh.commit()
    q = JobQuery(wh, "alpha")
    assert len(q.group_by("user", metrics=())) == 1
    old_stamp = WarehouseSnapshot.for_warehouse(wh).stamp

    add_job(wh, "alpha", "2", user="u2")
    wh.commit()
    q2 = JobQuery(wh, "alpha")
    new_snap = WarehouseSnapshot.for_warehouse(wh)
    assert new_snap.stamp != old_stamp
    assert len(q2.group_by("user", metrics=())) == 2


def test_uncommitted_writes_also_refresh(wh):
    """Buffered (not yet committed) rows still move data_version, so
    analytics never see a stale frame."""
    add_job(wh, "alpha", "1")
    wh.commit()
    assert len(JobQuery(wh, "alpha")) == 1
    add_job(wh, "alpha", "2")  # no commit
    assert len(JobQuery(wh, "alpha")) == 2


def test_multi_system_isolation(wh):
    add_job(wh, "alpha", "1", user="ua", idle=0.2)
    add_job(wh, "beta", "1", user="ub", idle=0.6)
    add_job(wh, "beta", "2", user="ub", idle=0.6)
    wh.commit()
    qa = JobQuery(wh, "alpha")
    qb = JobQuery(wh, "beta")
    # Both live on one snapshot, but keys embed the system.
    assert qa._snapshot is qb._snapshot
    ga = qa.group_by("user", metrics=("cpu_idle",))
    gb = qb.group_by("user", metrics=("cpu_idle",))
    assert [g.key for g in ga] == ["ua"]
    assert [g.key for g in gb] == ["ub"]
    assert ga[0].mean("cpu_idle") == pytest.approx(0.2)
    assert gb[0].mean("cpu_idle") == pytest.approx(0.6)
    assert qa.node_hours != qb.node_hours


def test_cache_disable_toggle(wh):
    add_job(wh, "alpha", "1")
    wh.commit()
    assert cache_enabled()
    q = JobQuery(wh, "alpha")
    snap = WarehouseSnapshot.for_warehouse(wh)
    try:
        set_cache_enabled(False)
        assert not cache_enabled()
        before = snap.cache_stats
        r1 = q.group_by("user", metrics=())
        r2 = q.group_by("user", metrics=())
        assert r1 == r2
        after = snap.cache_stats
        # Nothing was stored or served from the memo.
        assert after == before
    finally:
        set_cache_enabled(True)


def test_report_render_memoized(wh):
    from repro.xdmod.reports import FundingAgencyReport
    for i in range(6):
        add_job(wh, "alpha", str(i), user=f"u{i % 2}", idle=0.2)
    wh.commit()
    report = FundingAgencyReport(wh, "alpha")
    text1 = report.render()
    snap = WarehouseSnapshot.for_warehouse(wh)
    hits = snap.cache_stats["hits"]
    # Second render — even from a new report object — is one memo hit.
    assert FundingAgencyReport(wh, "alpha").render() == text1
    assert snap.cache_stats["hits"] > hits


def test_six_reports_render_alike_uncached_cold_and_warm(fast_run,
                                                         fast_query):
    """The engine is an optimization, not a semantic change: all six
    stakeholder reports print the same text with the memo disabled and
    the snapshot rebuilt per report, from one fresh snapshot, and from
    a warm one."""
    from repro.xdmod.reports import REPORT_KINDS
    warehouse, system = fast_run.warehouse, fast_run.config.name
    targets = {"user": (fast_query.top("user", 1)[0],),
               "developer": (fast_query.top("app", 1)[0],)}

    def bouquet(fresh_snapshot_each: bool = False) -> list[str]:
        texts = []
        for kind, cls in REPORT_KINDS.items():
            if fresh_snapshot_each:
                WarehouseSnapshot.invalidate(warehouse)
            texts.append(cls(warehouse, system).render(
                *targets.get(kind, ())))
        return texts

    try:
        set_cache_enabled(False)
        uncached = bouquet(fresh_snapshot_each=True)
    finally:
        set_cache_enabled(True)
    WarehouseSnapshot.invalidate(warehouse)
    cold = bouquet()
    warm = bouquet()
    assert len(warm) == 6 and warm == cold == uncached
