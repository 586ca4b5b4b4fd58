"""Tests for the facility facade: the fast path, and the per-node replay
unit and side-log recipe every file-path driver shares."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import LONESTAR4, RANGER, Facility
from repro.xdmod.metrics import SERIES_NAMES


def test_fast_run_contents(fast_run):
    assert fast_run.records
    assert fast_run.warehouse.systems() == ["ranger"]
    q = fast_run.query()
    assert len(q) > 0
    stored = set(fast_run.warehouse.series_metrics("ranger"))
    assert stored == set(SERIES_NAMES)


def test_series_lengths_consistent(fast_run):
    wh = fast_run.warehouse
    lengths = set()
    for name in wh.series_metrics("ranger"):
        t, v = wh.series("ranger", name)
        lengths.add(len(t))
        assert (np.diff(t) > 0).all()
    assert len(lengths) == 1


def test_flops_bounded_by_peak_and_active(fast_run):
    wh = fast_run.warehouse
    _, flops = wh.series("ranger", "flops_tf")
    _, active = wh.series("ranger", "active_nodes")
    per_node_peak = fast_run.config.node.peak_gflops / 1000.0
    assert (flops <= active * per_node_peak + 1e-9).all()
    assert (flops >= 0).all()


def test_busy_never_exceeds_active(fast_run):
    wh = fast_run.warehouse
    _, busy = wh.series("ranger", "busy_nodes")
    _, active = wh.series("ranger", "active_nodes")
    # Bins where a node hands off between jobs count both jobs' samples,
    # so busy can locally exceed active on a saturated machine; the
    # overcount must stay small in aggregate and bounded per bin.
    assert busy.max() <= 2 * fast_run.config.num_nodes
    up = active > 0
    assert busy[up].mean() <= active[up].mean() * 1.05
    assert float(np.mean(busy[up] <= active[up] + 3)) > 0.9


def test_idle_frac_in_bounds(fast_run):
    _, idle = fast_run.warehouse.series("ranger", "cpu_idle_frac")
    assert (idle >= 0).all()
    assert (idle <= 1.0 + 1e-9).all()


def test_efficiency_calibration_both_systems():
    for base, tol in ((RANGER, 0.04), (LONESTAR4, 0.04)):
        cfg = base.scaled(num_nodes=24, horizon_days=10, n_users=40)
        run = Facility(cfg, seed=3).run(with_syslog=False)
        idle = run.query().weighted_mean("cpu_idle")
        target = 1.0 - cfg.target_efficiency
        assert idle == pytest.approx(target, abs=tol), base.name


def test_reproducible_runs():
    cfg = RANGER.scaled(num_nodes=16, horizon_days=4, n_users=15)
    a = Facility(cfg, seed=5).run(with_syslog=False)
    b = Facility(cfg, seed=5).run(with_syslog=False)
    ta = a.warehouse.job_table("ranger")
    tb = b.warehouse.job_table("ranger")
    np.testing.assert_array_equal(ta["jobid"], tb["jobid"])
    np.testing.assert_allclose(ta["cpu_flops"], tb["cpu_flops"])
    _, va = a.warehouse.series("ranger", "flops_tf")
    _, vb = b.warehouse.series("ranger", "flops_tf")
    np.testing.assert_allclose(va, vb)


def test_different_seeds_differ():
    cfg = RANGER.scaled(num_nodes=16, horizon_days=4, n_users=15)
    a = Facility(cfg, seed=1).run(with_syslog=False)
    b = Facility(cfg, seed=2).run(with_syslog=False)
    assert len(a.records) != len(b.records) or not np.allclose(
        a.warehouse.series("ranger", "flops_tf")[1],
        b.warehouse.series("ranger", "flops_tf")[1],
    )


def test_syslog_flows_into_warehouse(fast_run):
    events = fast_run.warehouse.syslog_events("ranger")
    assert events
    kinds = {e[3] for e in events}
    assert "job_prolog" in kinds and "job_epilog" in kinds
    # Prolog/epilog are job-tagged.
    tagged = [e for e in events if e[2] is not None]
    assert len(tagged) > 0.8 * len(events)


def test_shared_warehouse_two_systems():
    from repro.ingest.warehouse import Warehouse
    wh = Warehouse()
    Facility(RANGER.scaled(16, 3, 12), seed=1).run(
        warehouse=wh, with_syslog=False)
    Facility(LONESTAR4.scaled(16, 3, 12), seed=1).run(
        warehouse=wh, with_syslog=False)
    assert wh.systems() == ["lonestar4", "ranger"]
    assert wh.job_count("ranger") > 0
    assert wh.job_count("lonestar4") > 0


# -- what the file-path drivers share ------------------------------------------


class _RecordingEngine:
    """Stands in for NodeSynth: notes the lifecycle calls it receives
    (it is fed ahead of the clock; its flushes write nothing)."""

    def __init__(self):
        self.calls = []
        self.node = SimpleNamespace(index=0)

    def flush(self, until):
        pass

    def sample(self, t):
        self.calls.append(("sample", t))

    def begin_job(self, jobid, t, behavior, slot):
        self.calls.append(("begin", jobid, t, behavior, slot))

    def end_job(self, jobid, t):
        self.calls.append(("end", jobid, t))


def _allocation(jobid, start, end):
    from repro.scheduler.job import ExitStatus, JobRecord, JobRequest
    request = JobRequest(jobid=jobid, user="u", account="a",
                         science_field="f", app="namd", queue="normal",
                         submit_time=0.0, nodes=1, walltime_req=3600.0,
                         runtime=600.0)
    return JobRecord(request=request, start_time=start, end_time=end,
                     node_indices=(0,), exit_status=ExitStatus.COMPLETED)


def test_node_replay_orders_same_instant_events_for_any_slicing():
    """end < periodic tick < begin at one instant, a zero-duration
    allocation fires begin and end back to back, and slicing the
    horizon anywhere fires the same calls in the same order."""
    from repro.facility import NodeReplay

    ticks = [0.0, 600.0, 1200.0]
    allocations = [(_allocation("A", 0.0, 600.0), 0),
                   (_allocation("B", 600.0, 600.0), 3),
                   (_allocation("C", 600.0, 1200.0), 5)]
    behaviors = {"A": "bA", "B": "bB", "C": "bC"}
    want = [
        ("sample", 0.0), ("begin", "A", 0.0, "bA", 0),
        ("end", "A", 600.0), ("sample", 600.0),
        ("begin", "B", 600.0, "bB", 3), ("end", "B", 600.0),
        ("begin", "C", 600.0, "bC", 5),
        ("end", "C", 1200.0), ("sample", 1200.0),
    ]
    for schedule in ([1200.0], [0.0, 599.0, 600.0, 1200.0],
                     [300.0, 900.0, 1200.0, 1200.0]):
        engine = _RecordingEngine()
        unit = NodeReplay(engine, ticks, allocations, behaviors)
        fired = sum(unit.advance(t) for t in schedule)
        assert engine.calls == want, schedule
        assert fired == len(unit.events) == 8


def test_no_driver_hands_syslog_a_memory_fraction_above_one(
        tmp_path, monkeypatch):
    """The side-log recipe caps a job's peak memory at node capacity
    exactly as ``Facility.run`` does: the in-memory path and the live
    session (whose recipe is ``run_with_files``' own) parameterize the
    syslog generator identically, job for job."""
    from repro.live.runner import LiveSession
    from repro.syslogr.generator import SyslogGenerator

    seen = []
    generate = SyslogGenerator.generate_for_job

    def spy(self, record, **params):
        seen.append((record.jobid, sorted(params.items())))
        return generate(self, record, **params)

    monkeypatch.setattr(SyslogGenerator, "generate_for_job", spy)
    # One job of this period peaks above the node's memory before the
    # cap (31.8 GB on a 32 GB RANGER node after it).
    cfg = RANGER.scaled(num_nodes=6, horizon_days=2, n_users=8)
    Facility(cfg, seed=11).run()
    fast, seen[:] = list(seen), []
    LiveSession(Facility(cfg, seed=11), str(tmp_path / "archive"))
    assert seen == fast
    fractions = [dict(params)["mem_frac_max"] for _jobid, params in seen]
    assert max(fractions) == pytest.approx(0.995)


def test_replay_state_is_freed_without_a_collector_pass(tmp_path):
    """A closed v2 archive and the engines that wrote it do not keep
    each other alive (the archive's encoder callbacks are the engines'
    bound methods): when their driver returns they go by reference
    count — not whenever the cycle collector next runs, which is what
    set a night's peak RSS."""
    import gc
    import weakref

    from repro.facility import _build_behaviors, node_replays
    from repro.tacc_stats.archive import HostArchive

    cfg = RANGER.scaled(num_nodes=2, horizon_days=1, n_users=5)
    facility = Facility(cfg, seed=3)
    workload, sim, _outages, _cluster = facility._simulate()
    behaviors = _build_behaviors(
        cfg, *facility._behavior_context(workload), sim.records)
    gc.collect()
    gc.disable()
    try:
        archive = HostArchive(tmp_path / "arch", archive_format="v2")
        engines = []
        for unit in node_replays(cfg, 3, sim.records, [0, 1], behaviors,
                                 archive):
            unit.advance(cfg.horizon)
            engines.append(weakref.ref(unit.engine))
        assert archive.close().file_count > 0
        del unit, archive
        assert [ref() for ref in engines] == [None, None]
    finally:
        gc.enable()
