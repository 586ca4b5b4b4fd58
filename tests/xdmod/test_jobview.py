"""Tests for the per-job drill-down viewer."""

import numpy as np
import pytest

from repro.cluster.hardware import ranger_node
from repro.cluster.node import Node
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.parser import parse_host_text
from repro.tacc_stats.synth import NodeSynth
from repro.util.rng import RngFactory
from repro.workload.applications import get_app
from repro.workload.behavior import JobBehavior
from repro.workload.users import generate_users
from repro.xdmod.jobview import job_timeline


@pytest.fixture(scope="module")
def collected_job(tmp_path_factory):
    users = generate_users(5, RngFactory(4).stream("u"))
    user = next(u for u in users if u.persona == "efficient")
    behavior = JobBehavior(get_app("wrf"), user, ranger_node(), 3,
                           duration=4 * 3600.0, sample_interval=600.0,
                           behavior_seed=21)
    archive = HostArchive(tmp_path_factory.mktemp("collected"),
                          compress=False)
    for slot in range(3):
        node = Node(index=slot, hostname=f"c000-{slot:03d}.t",
                    hardware=ranger_node())
        synth = NodeSynth(
            node, lambda name, slot=slot: RngFactory(slot).stream(name),
            archive)
        synth.begin_job("77", 0.0, behavior, slot)
        for t in range(600, 4 * 3600, 600):
            synth.sample(float(t))
        synth.end_job("77", 4 * 3600.0)
        synth.flush(4 * 3600.0)
    archive.close()
    hosts = [parse_host_text(HostArchive.read_file(path))
             for path in sorted(archive.root.glob("*/*"))]
    return behavior, hosts


def test_timeline_structure(collected_job):
    _, hosts = collected_job
    tl = job_timeline("77", hosts)
    assert tl.jobid == "77"
    assert len(tl.hostnames) == 3
    assert tl.n_intervals == 24  # begin + 23 ticks + end = 25 samples
    for name, mat in tl.series.items():
        assert mat.shape == (3, tl.n_intervals) or mat.shape[1] == tl.n_intervals
    assert (np.diff(tl.times) > 0).all()


def test_timeline_values_physical(collected_job):
    behavior, hosts = collected_job
    tl = job_timeline("77", hosts)
    user = tl.host_mean("cpu_user_frac")
    idle = tl.host_mean("cpu_idle_frac")
    assert ((user >= 0) & (user <= 1)).all()
    assert ((idle >= 0) & (idle <= 1)).all()
    mem = tl.host_mean("mem_used_gb")
    assert (mem < 32.0).all()
    assert (tl.host_mean("flops_gf") >= 0).all()


def test_timeline_matches_behavior(collected_job):
    """The viewer's mean user fraction tracks the behaviour model."""
    behavior, hosts = collected_job
    tl = job_timeline("77", hosts)
    from repro.workload.applications import RATE_INDEX
    expected = behavior.rates_matrix(24)[:, RATE_INDEX["cpu_user_frac"]]
    observed = tl.host_mean("cpu_user_frac")
    assert np.corrcoef(expected, observed)[0, 1] > 0.9


def test_straggler_detection(collected_job):
    _, hosts = collected_job
    tl = job_timeline("77", hosts)
    host, deviation = tl.straggler("mem_used_gb")
    assert host in tl.hostnames
    # Node 0 (rank 0) carries extra memory by construction.
    assert host.endswith("000.t")
    assert deviation > 0


def test_render(collected_job):
    _, hosts = collected_job
    text = job_timeline("77", hosts).render()
    assert "Job timeline — 77" in text
    assert "flops_gf" in text


def test_validation(collected_job):
    _, hosts = collected_job
    with pytest.raises(ValueError):
        job_timeline("77", [])
    with pytest.raises(ValueError, match="no host stream"):
        job_timeline("unknown-job", hosts)
