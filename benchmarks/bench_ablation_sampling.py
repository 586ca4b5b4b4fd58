"""Ablation: TACC_Stats sampling interval (1 / 10 / 30 minutes).

The paper chose 10 minutes as the overhead/fidelity sweet spot (§3).
This ablation measures both sides of that trade on one job: raw data
volume scales inversely with the interval, and the job-summary error —
from piecewise-constant integration of the *same* underlying behaviour
realization — grows as the cadence coarsens.
"""

import pytest

from repro.cluster.hardware import ranger_node
from repro.cluster.node import Node
from repro.ingest.summarize import summarize_job_from_hosts
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.parser import parse_host_text
from repro.tacc_stats.synth import NodeSynth
from repro.util.rng import RngFactory
from repro.util.tables import render_table
from repro.workload.applications import get_app
from repro.workload.behavior import JobBehavior
from repro.workload.users import generate_users

_DURATION = 8 * 3600.0
_METRICS = ("cpu_idle", "cpu_flops", "io_scratch_write", "net_ib_tx")


def _behavior():
    """One fixed realization on a fine (60 s) grid, shared by all
    cadences — the ablation isolates the *measurement* cadence."""
    users = generate_users(5, RngFactory(3).stream("u"))
    return JobBehavior(get_app("wrf"), users[0], ranger_node(), 2,
                       duration=_DURATION, sample_interval=60.0,
                       behavior_seed=77)


def _collect(behavior, interval: float, root):
    """Sample the shared behaviour at a given cadence into an archive
    at *root*; return (summary, raw bytes)."""
    node = Node(index=0, hostname="c000-000.abl", hardware=ranger_node())
    archive = HostArchive(root, compress=False)
    synth = NodeSynth(node, RngFactory(1).stream, archive)
    synth.begin_job("1", 0.0, behavior, 0)
    t = interval
    while t < _DURATION:
        synth.sample(t)
        t += interval
    synth.end_job("1", _DURATION)
    synth.flush(_DURATION)
    archive.close()
    (path,) = (root / node.hostname).iterdir()
    text = HostArchive.read_file(path)
    host = parse_host_text(text)
    summary = summarize_job_from_hosts("1", [host],
                                       wall_seconds=_DURATION)
    return summary, len(text)


def test_ablation_sampling(benchmark, save_artifact, tmp_path_factory):
    behavior = _behavior()

    def collect(interval: float):
        return _collect(behavior, interval, tmp_path_factory.mktemp("abl"))

    reference, b60 = collect(60.0)
    sum600, b600 = benchmark.pedantic(collect, args=(600.0,), rounds=2,
                                      iterations=1)
    sum1800, b1800 = collect(1800.0)

    rows = []
    for interval, (summary, nbytes) in (
        (60.0, (reference, b60)),
        (600.0, (sum600, b600)),
        (1800.0, (sum1800, b1800)),
    ):
        err = max(
            abs(summary.metrics[m] - reference.metrics[m])
            / max(abs(reference.metrics[m]), 1e-9)
            for m in _METRICS
        )
        rows.append({
            "interval": f"{interval / 60:.0f} min",
            "bytes/job": nbytes,
            "bytes/node/day": int(nbytes * 86400 / _DURATION),
            "max summary err": f"{err:.1%}",
        })
    text = render_table(
        rows, ["interval", "bytes/job", "bytes/node/day",
               "max summary err"],
        title="Ablation: sampling interval (one 8 h WRF job, shared "
              "behaviour realization)",
    )
    save_artifact("ablation_sampling", text)
    print("\n" + text)

    # Volume scales ~inversely with the interval.
    assert 6 < b60 / b600 < 14
    assert 2 < b600 / b1800 < 4.5
    # 10-minute summaries stay close to the 1-minute reference.
    for m in _METRICS:
        assert sum600.metrics[m] == pytest.approx(
            reference.metrics[m], rel=0.25, abs=0.05
        ), m
