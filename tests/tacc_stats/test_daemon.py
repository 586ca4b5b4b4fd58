"""The per-node sampler's invocation discipline (paper §3: at job begin,
every ten minutes, at job end), on the synthesis engine."""

import numpy as np
import pytest

from repro.cluster.hardware import ranger_node
from repro.cluster.node import Node
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.parser import parse_host_text
from repro.tacc_stats.synth import NodeSynth
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.util.rng import RngFactory
from repro.workload.applications import get_app
from repro.workload.behavior import JobBehavior
from repro.workload.users import generate_users


@pytest.fixture
def setup(tmp_path):
    node = Node(index=0, hostname="c000-000.test", hardware=ranger_node())
    archive = HostArchive(tmp_path, compress=False)
    synth = NodeSynth(node, RngFactory(0).stream("noise"), archive)
    users = generate_users(5, RngFactory(0).stream("u"))
    behavior = JobBehavior(get_app("namd"), users[0], ranger_node(), 2,
                           duration=3000.0, sample_interval=600.0,
                           behavior_seed=5)
    return archive, synth, behavior


def _written(archive, synth, until):
    """Every row *synth* queued up to *until*, one parsed host per file."""
    synth.flush(until)
    archive.close()
    return [parse_host_text(HostArchive.read_file(path)) for path in
            sorted((archive.root / synth.node.hostname).iterdir())]


def test_job_lifecycle_produces_marks_and_tags(setup):
    archive, synth, behavior = setup
    synth.sample(0.0)
    synth.begin_job("7", 600.0, behavior, 0)
    for t in (1200.0, 1800.0, 2400.0, 3000.0):
        synth.sample(t)
    synth.end_job("7", 3600.0)
    synth.sample(4200.0)
    (host,) = _written(archive, synth, 4200.0)
    assert host.job_window("7") == (600.0, 3600.0)
    tagged = host.blocks_for_job("7")
    assert [b.time for b in tagged] == [600.0, 1200.0, 1800.0, 2400.0,
                                        3000.0, 3600.0]
    # Pre/post samples are idle-tagged.
    assert host.blocks[0].jobids == ()
    assert host.blocks[-1].jobids == ()


def test_counters_keep_running_across_jobs(setup):
    archive, synth, behavior = setup
    synth.sample(0.0)
    synth.begin_job("7", 600.0, behavior, 0)
    synth.end_job("7", 1200.0)
    synth.sample(1800.0)
    (host,) = _written(archive, synth, 1800.0)
    _, user = host.series("cpu", "0", "user")
    # cpu counters are monotone across the job boundary (no reset).
    assert (np.diff(user.astype(np.int64)) >= 0).all()


def test_pmc_reset_at_job_begin(setup):
    archive, synth, behavior = setup
    synth.sample(0.0)
    synth.begin_job("7", 600.0, behavior, 0)
    synth.sample(1200.0)
    synth.end_job("7", 1800.0)
    synth.begin_job("8", 2400.0, behavior, 0)
    (host,) = _written(archive, synth, 2400.0)
    t, ctr = host.series("amd64_pmc", "0", "ctr0")
    # The begin-sample of job 8 reads a freshly reset counter.
    assert int(ctr[list(t).index(2400.0)]) == 0


def test_double_begin_rejected(setup):
    _, synth, behavior = setup
    synth.begin_job("7", 600.0, behavior, 0)
    with pytest.raises(RuntimeError, match="still active"):
        synth.begin_job("8", 700.0, behavior, 0)


def test_end_wrong_job_rejected(setup):
    _, synth, behavior = setup
    synth.begin_job("7", 600.0, behavior, 0)
    with pytest.raises(RuntimeError):
        synth.end_job("9", 700.0)


def test_time_cannot_go_backwards(setup):
    _, synth, _ = setup
    synth.sample(600.0)
    with pytest.raises(ValueError, match="backwards"):
        synth.sample(500.0)


def test_begin_sample_accounts_preceding_idle_interval(setup):
    """The baseline sample at job begin covers the idle interval before
    it, so its cpu row is ~all idle even though it is tagged with the job."""
    archive, synth, behavior = setup
    synth.sample(0.0)
    synth.begin_job("7", 600.0, behavior, 0)
    (host,) = _written(archive, synth, 600.0)
    begin_block = host.blocks_for_job("7")[0]
    vals = begin_block.get("cpu", "0")
    schema = host.schemas["cpu"]
    idle = int(vals[schema.index_of("idle")])
    user = int(vals[schema.index_of("user")])
    assert idle > 50 * user


def test_rotation_re_registers_schemas(setup):
    archive, synth, _ = setup
    synth.sample(0.0)
    synth.sample(90000.0)  # next day -> new file
    hosts = _written(archive, synth, 90000.0)
    assert len(hosts) == 2
    for host in hosts:
        assert set(host.schemas) == {c.type_name for c in synth.collectors}


def test_samples_counted(setup):
    """A sample counts once its row is written, not when it is queued;
    the rows past the clock are held."""
    archive, synth, _ = setup
    reg = MetricsRegistry()
    with use_registry(reg):
        synth.sample(0.0)
        synth.sample(600.0)
        synth.flush(0.0)
        assert reg.snapshot().counters["synth.samples"] == 1
        assert synth.rows_held == sum(len(c.devices)
                                      for c in synth.collectors)
        synth.flush(600.0)
    assert reg.snapshot().counters["synth.samples"] == 2
    assert synth.rows_held == 0
