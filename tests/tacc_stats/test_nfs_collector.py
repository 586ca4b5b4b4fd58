"""Tests for the NFS collector and its Lonestar4 wiring."""

import numpy as np
import pytest

from repro import LONESTAR4, Facility
from repro.cluster.hardware import lonestar4_node
from repro.cluster.node import Node
from repro.tacc_stats.collectors import NfsCollector, build_collectors
from repro.tacc_stats.collectors.base import SampleContext
from repro.workload.applications import RATE_FIELDS, RATE_INDEX


def make_node():
    return Node(index=0, hostname="c000-000.ls4", hardware=lonestar4_node())


def rates(**kw):
    r = np.zeros(len(RATE_FIELDS))
    for name, value in kw.items():
        r[RATE_INDEX[name]] = value
    return r


def test_nfs_collector_reports_share_traffic():
    col = NfsCollector(make_node(), np.random.default_rng(0),
                       mounts=("home",))
    r = rates(io_share_write_mb=2.0, io_share_read_mb=1.0)
    col.advance(SampleContext(600.0, 600.0, r))
    rows = dict(col.sample(SampleContext(600.0, 0.0, r)))
    w = int(rows["home"][col.schema.index_of("write_bytes")])
    rd = int(rows["home"][col.schema.index_of("read_bytes")])
    assert w == pytest.approx(2.0e6 * 600, rel=0.1)
    assert rd == pytest.approx(1.0e6 * 600, rel=0.1)
    assert int(rows["home"][col.schema.index_of("rpc_ops")]) > 0


def test_nfs_collector_requires_mounts():
    with pytest.raises(ValueError):
        NfsCollector(make_node(), np.random.default_rng(0), mounts=())


def test_build_collectors_includes_nfs_when_requested():
    rng = np.random.default_rng(1)
    with_nfs = build_collectors(make_node(), lambda _name: rng,
                                ("scratch", "work"), nfs_mounts=("home",))
    without = build_collectors(make_node(), lambda _name: rng,
                               ("scratch", "work"))
    assert "nfs" in {c.type_name for c in with_nfs}
    assert "nfs" not in {c.type_name for c in without}


@pytest.mark.slow
def test_lonestar4_file_path_fills_share_metrics(tmp_path):
    """On LS4, the io_share metrics must come from the NFS collector —
    a regression here silently drops every LS4 job from the default
    query (all-metrics-present filter)."""
    cfg = LONESTAR4.scaled(num_nodes=8, horizon_days=1, n_users=8)
    run = Facility(cfg, seed=5).run_with_files(str(tmp_path / "arch"))
    report = run.ingest_report
    assert report.jobs_loaded > 0
    q = run.query()
    # Most loaded jobs have complete summaries, including io_share_*.
    assert len(q) >= 0.8 * report.jobs_loaded
    share = q.column("io_share_write")
    assert (share >= 0).all()
