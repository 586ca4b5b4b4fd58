"""§4.1 claim: TACC_Stats generates ~0.5 MB raw per node per day, and the
archive compresses ~3x (60 GB -> 20 GB per month on 3936-node Ranger).

We run one node's synthesis engine for a full simulated day at the
production cadence through the rotating archive and measure the file
sizes.
"""

from repro.cluster.hardware import ranger_node
from repro.cluster.node import Node
from repro.config import RANGER
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.synth import NodeSynth
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY
from repro.util.units import format_bytes
from repro.workload.applications import get_app
from repro.workload.behavior import JobBehavior
from repro.workload.users import generate_users


def _one_node_day(tmpdir: str) -> HostArchive:
    archive = HostArchive(tmpdir, compress=True)
    node = Node(index=0, hostname="c000-000.bench", hardware=ranger_node())
    synth = NodeSynth(node, RngFactory(0).stream, archive)
    users = generate_users(5, RngFactory(0).stream("u"))
    behavior = JobBehavior(get_app("namd"), users[0], ranger_node(), 2,
                           duration=DAY, sample_interval=600.0,
                           behavior_seed=2)
    synth.begin_job("1", 0.0, behavior, 0)
    t = 600.0
    while t < DAY:
        synth.sample(t)
        t += 600.0
    synth.end_job("1", float(DAY - 1))
    synth.flush(float(DAY - 1))
    archive.close()
    return archive


def test_data_volume(benchmark, tmp_path_factory, save_artifact):
    counter = {"n": 0}

    def run():
        counter["n"] += 1
        return _one_node_day(
            str(tmp_path_factory.mktemp(f"vol{counter['n']}")))

    archive = benchmark.pedantic(run, rounds=3, iterations=1)
    stats = archive.stats
    per_day = stats.bytes_per_host_day
    monthly_full_scale = per_day * 30 * RANGER.num_nodes
    text = (
        "Data volume (paper §4.1: 0.5 MB/node/day raw; 60 GB/month raw,\n"
        "20 GB/month compressed for 3936-node Ranger)\n\n"
        f"raw per node-day:  {format_bytes(per_day)}\n"
        f"compression ratio: {stats.compression_ratio:.1f}x\n"
        f"implied full-scale Ranger month: "
        f"{format_bytes(monthly_full_scale)} raw, "
        f"{format_bytes(monthly_full_scale / stats.compression_ratio)} "
        f"compressed"
    )
    save_artifact("data_volume", text)
    print("\n" + text)

    # Same order of magnitude as the paper's 0.5 MB/node/day.
    assert 0.15e6 < per_day < 1.5e6
    # gzip ratio ~3x (paper: 60 GB -> 20 GB).
    assert 2.0 < stats.compression_ratio < 8.0
