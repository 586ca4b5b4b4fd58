"""Tests for the per-job drill-down viewer."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.hardware import ranger_node
from repro.cluster.node import Node
from repro.ingest.columnar_scan import _EDGE_COLUMNS, _HostFold, host_partials
from repro.ingest.summarize import merge_job_partials
from repro.ingest.vocabulary import METRICS, Metric
from repro.tacc_stats.archive import HostArchive
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
    hosts = [day for host in archive.hostnames()
             for day in archive.read_host_days(host)[0]]
    return behavior, hosts


def _job(day, name: str, key: str) -> np.ndarray:
    """``(device, block)`` values of column *key* of type *name* over
    job 77's blocks of a one-file host (every block has every device)."""
    tc = next(tc for tc in day.types if tc.name == name)
    blocks = [b for b, ids in enumerate(day.block_jobids()) if "77" in ids]
    values = tc.values[:, tc.schema.index_of(key)].reshape(
        len(day.times), len(tc.devices))
    return values[blocks].T.astype(np.int64)


def _edited(day, name: str, key: str, values: np.ndarray):
    """*day* with column *key* of type *name* replaced by *values*."""
    types = []
    for tc in day.types:
        if tc.name == name:
            new = tc.values.copy()
            new[:, tc.schema.index_of(key)] = values
            tc = dataclasses.replace(tc, values=new)
        types.append(tc)
    return dataclasses.replace(day, types=types)


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
    user = tl.host_mean("cpu_user")
    idle = tl.host_mean("cpu_idle")
    assert ((user >= 0) & (user <= 1)).all()
    assert ((idle >= 0) & (idle <= 1)).all()
    mem = tl.host_mean("mem_used")
    assert (mem < 32.0).all()
    assert (tl.host_mean("cpu_flops") >= 0).all()


def test_timeline_matches_behavior(collected_job):
    """The viewer's mean user fraction tracks the behaviour model."""
    behavior, hosts = collected_job
    tl = job_timeline("77", hosts)
    from repro.workload.applications import RATE_INDEX
    expected = behavior.rates_matrix(24)[:, RATE_INDEX["cpu_user_frac"]]
    observed = tl.host_mean("cpu_user")
    assert np.corrcoef(expected, observed)[0, 1] > 0.9


def test_straggler_detection(collected_job):
    _, hosts = collected_job
    tl = job_timeline("77", hosts)
    host, deviation = tl.straggler("mem_used")
    assert host in tl.hostnames
    # Node 0 (rank 0) carries extra memory by construction.
    assert host.endswith("000.t")
    assert deviation > 0


def test_render(collected_job):
    _, hosts = collected_job
    text = job_timeline("77", hosts).render()
    assert "Job timeline — 77" in text
    assert "cpu_flops" in text


def test_validation(collected_job):
    _, hosts = collected_job
    with pytest.raises(ValueError):
        job_timeline("77", [])
    with pytest.raises(ValueError, match="no host stream"):
        job_timeline("unknown-job", hosts)


def test_scratch_write_is_the_scratch_mount_alone(collected_job):
    """The series is the summary's io_scratch_write: the ``scratch``
    device of ``llite``, not every Lustre mount summed."""
    _, hosts = collected_job
    tl = job_timeline("77", hosts)
    day = hosts[0]
    dt = np.diff(day.times[[b for b, ids in enumerate(day.block_jobids())
                            if "77" in ids]])
    mounts = next(tc.devices for tc in day.types if tc.name == "llite")
    writes = np.diff(_job(day, "llite", "write_bytes"), axis=1) / dt / 1e6
    scratch = writes[mounts.index("scratch")]
    np.testing.assert_allclose(tl.series["io_scratch_write"][0], scratch,
                               rtol=1e-12)
    assert not np.allclose(writes.sum(axis=0), scratch)


def test_a_host_with_foreign_pmc_codes_has_no_flops_row(collected_job):
    _, hosts = collected_job
    clean = job_timeline("77", hosts)
    pmc = next(tc for tc in hosts[1].types if tc.name == "amd64_pmc")
    foreign = [*hosts[:1], _edited(hosts[1], "amd64_pmc", "ctl0",
                                   np.full(len(pmc.values), 1234567)),
               *hosts[2:]]
    tl = job_timeline("77", foreign)
    np.testing.assert_array_equal(tl.series["cpu_flops"],
                                  clean.series["cpu_flops"][[0, 2]])
    assert tl.series["cpu_user"].shape[0] == 3


def test_cpu_user_includes_nice(collected_job):
    _, hosts = collected_job
    day = hosts[0]
    cpu = next(tc for tc in day.types if tc.name == "cpu")
    niced = _edited(day, "cpu", "nice", cpu.values[
        :, cpu.schema.index_of("nice")] + 50 * cpu.block_idx)
    tl = job_timeline("77", [niced])
    parts = {key: np.diff(_job(niced, "cpu", key).sum(axis=0))
             for key in _EDGE_COLUMNS["cpu"]}
    total = sum(parts.values())
    assert (parts["nice"] > 0).all()
    np.testing.assert_allclose(tl.series["cpu_user"][0],
                               (parts["user"] + parts["nice"]) / total,
                               rtol=1e-12)


def test_a_metric_is_one_row(collected_job, monkeypatch):
    """A row added to the table reaches the host partial, the merged
    summary and the job view, with no other edit."""
    _, hosts = collected_job
    monkeypatch.setitem(METRICS, "cpu_iowait", Metric(
        "cpu", ("iowait",), "cpu_fraction", "CPU iowait", "fraction",
        "Fraction of CPU time waiting on I/O."))
    partials = []
    for day in hosts:
        fold = _HostFold()
        fold.add_days([day])
        partials.append(host_partials(day.hostname, fold.states)["77"])
    assert all(0 < p.metrics["cpu_iowait"] < 1 for p in partials)
    summary = merge_job_partials("77", partials)
    assert summary.metrics["cpu_iowait"] == np.mean(
        [p.metrics["cpu_iowait"] for p in partials])
    assert job_timeline("77", hosts).series["cpu_iowait"].shape == (3, 24)
