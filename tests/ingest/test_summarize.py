"""Tests for per-job summarization — both paths."""

import numpy as np
import pytest

from repro.cluster.hardware import ranger_node
from repro.cluster.node import Node
from repro.ingest.summarize import (
    KEY_METRICS,
    SUMMARY_METRICS,
    JobSummary,
    summarize_job_from_hosts,
    summarize_job_from_rates,
)
from repro.scheduler.job import ExitStatus, JobRecord
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.parser import parse_host_text
from repro.tacc_stats.synth import NodeSynth
from repro.util.rng import RngFactory
from repro.workload.applications import get_app
from repro.workload.behavior import JobBehavior
from repro.workload.users import generate_users
from tests.scheduler.test_job import make_request


def test_key_metrics_are_the_papers_eight():
    assert set(KEY_METRICS) == {
        "cpu_idle", "mem_used", "mem_used_max", "cpu_flops",
        "io_scratch_write", "io_work_write", "net_ib_tx", "net_lnet_tx",
    }
    assert set(KEY_METRICS) <= set(SUMMARY_METRICS)


def test_summary_validation():
    with pytest.raises(ValueError, match="unknown metrics"):
        JobSummary("1", {"bogus": 1.0}, 1, 100.0, 2)
    with pytest.raises(ValueError, match="both present and missing"):
        JobSummary("1", {"cpu_idle": 0.1}, 1, 100.0, 2,
                   missing=("cpu_idle",))
    s = JobSummary("1", {"cpu_idle": 0.1}, 4, 3600.0, 6)
    assert s.node_hours == pytest.approx(4.0)
    assert np.isnan(s.get("cpu_flops"))


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """One job collected through the real synthesis/format/parse path."""
    users = generate_users(5, RngFactory(1).stream("u"))
    user = next(u for u in users if u.persona == "efficient")
    behavior = JobBehavior(get_app("wrf"), user, ranger_node(), 2,
                           duration=6 * 3600.0, sample_interval=600.0,
                           behavior_seed=3)
    archive = HostArchive(tmp_path_factory.mktemp("collected"),
                          compress=False)
    for slot in range(2):
        node = Node(index=slot, hostname=f"c000-{slot:03d}.t",
                    hardware=ranger_node())
        synth = NodeSynth(
            node, lambda name, slot=slot: RngFactory(slot).stream(name),
            archive)
        synth.sample(0.0)
        synth.begin_job("55", 600.0, behavior, slot)
        for t in range(1200, 6 * 3600, 600):
            synth.sample(float(t))
        synth.end_job("55", 600.0 + 6 * 3600.0)
        synth.flush(600.0 + 6 * 3600.0)
    archive.close()
    hosts = [parse_host_text(HostArchive.read_file(path))
             for path in sorted(archive.root.glob("*/*"))]
    return behavior, hosts


def test_host_summary_complete(collected):
    _, hosts = collected
    summary = summarize_job_from_hosts("55", hosts)
    assert summary.missing == ()
    assert set(summary.metrics) == set(SUMMARY_METRICS)
    assert summary.n_nodes == 2
    assert 0.0 <= summary.metrics["cpu_idle"] <= 1.0
    assert summary.metrics["mem_used_max"] >= summary.metrics["mem_used"]
    assert summary.metrics["cpu_flops"] > 0


def test_host_summary_matches_fast_path(collected):
    """The two measurement paths agree on the same behaviour."""
    behavior, hosts = collected
    slow = summarize_job_from_hosts("55", hosts)
    req = make_request(jobid="55", nodes=2, app="wrf")
    rec = JobRecord(req, 600.0, 600.0 + 6 * 3600.0, (0, 1),
                    ExitStatus.COMPLETED)
    fast = summarize_job_from_rates(rec, behavior.rates_matrix(36))
    for metric in ("cpu_idle", "mem_used", "cpu_flops",
                   "io_scratch_write", "net_ib_tx", "net_lnet_tx"):
        assert slow.metrics[metric] == pytest.approx(
            fast.metrics[metric], rel=0.25, abs=0.02
        ), metric


def test_missing_pmc_reported(collected):
    _, hosts = collected
    import copy
    broken = [copy.deepcopy(h) for h in hosts]
    for h in broken:
        for b in h.blocks:
            b.rows.pop("amd64_pmc", None)
    summary = summarize_job_from_hosts("55", broken)
    assert "cpu_flops" in summary.missing
    assert "cpu_flops" not in summary.metrics
    assert "cpu_idle" in summary.metrics


def test_degraded_host_does_not_poison_job(collected):
    """One node with dead collectors must not blank the whole job.

    Regression: the summarizer used to pool missing-metric flags across
    hosts, so a single degraded node out of four discarded the values
    the three healthy nodes supplied.
    """
    import copy
    _, hosts = collected
    four = [copy.deepcopy(hosts[i % 2]) for i in range(4)]
    for i, h in enumerate(four):
        h.hostname = f"c{i:03d}-000.t"
    for b in four[0].blocks:  # llite and mem collectors died on one node
        b.rows.pop("llite", None)
        b.rows.pop("mem", None)
    summary = summarize_job_from_hosts("55", four)
    assert summary.n_nodes == 4
    for metric in ("io_scratch_write", "io_work_write",
                   "mem_used", "mem_used_max"):
        assert metric in summary.metrics, metric
        assert metric not in summary.missing
    # The surviving value is the reduction over the three intact hosts.
    intact = summarize_job_from_hosts("55", four[1:])
    assert summary.metrics["io_scratch_write"] == pytest.approx(
        intact.metrics["io_scratch_write"])
    assert summary.metrics["mem_used_max"] == intact.metrics["mem_used_max"]


def test_user_programmed_pmc_skipped(collected):
    _, hosts = collected
    import copy
    broken = [copy.deepcopy(h) for h in hosts]
    for b in broken[0].blocks:
        for vals in b.rows.get("amd64_pmc", {}).values():
            vals[0] = 0x430076  # foreign ctl code
    summary = summarize_job_from_hosts("55", broken)
    assert "cpu_flops" in summary.missing


def test_unknown_job_raises(collected):
    _, hosts = collected
    with pytest.raises(ValueError, match="no usable host windows"):
        summarize_job_from_hosts("999", hosts)
    with pytest.raises(ValueError, match="no host data"):
        summarize_job_from_hosts("55", [])


def test_fast_path_metrics_complete():
    users = generate_users(5, RngFactory(2).stream("u"))
    behavior = JobBehavior(get_app("namd"), users[0], ranger_node(), 4,
                           duration=7200.0, sample_interval=600.0,
                           behavior_seed=9)
    req = make_request(jobid="7", nodes=4)
    rec = JobRecord(req, 0.0, 7200.0, (0, 1, 2, 3), ExitStatus.COMPLETED)
    summary = summarize_job_from_rates(rec, behavior.rates_matrix(12))
    assert set(summary.metrics) == set(SUMMARY_METRICS)
    assert summary.metrics["mem_used_max"] > summary.metrics["mem_used"]


def test_fast_path_validation():
    req = make_request(jobid="7", nodes=4)
    rec = JobRecord(req, 0.0, 7200.0, (0, 1, 2, 3), ExitStatus.COMPLETED)
    with pytest.raises(ValueError):
        summarize_job_from_rates(rec, np.zeros((0, 16)))
