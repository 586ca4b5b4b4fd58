"""The paper-scale run (``benchmarks/paper_scale.py``), scaled down to
24 nodes x half a day against an 8-node reference: the driver runs the
tool chain end to end and its block has every count and every layer
row.  Counts only — timings are the benchmark's business."""

from __future__ import annotations

from benchmarks import paper_scale


def test_a_scaled_down_paper_scale_run(tmp_path):
    block = paper_scale.paper_scale(tmp_path, nodes=24, ref_nodes=8,
                                    days=0.5, users=100)
    for label, nodes in (("paper", 24), ("ref", 8)):
        run = block["scales"][label]
        assert run["host_days"] == nodes * 0.5
        # Half a day: one file per node, one kernel chunk per node.
        assert run["archive"]["files"] == nodes == run["kernel_chunks"]
        assert run["archive"]["bytes_per_node_day"] \
            == run["archive"]["bytes"] / (nodes * 0.5)
        jobs = run["jobs"]
        assert 0 < jobs["loaded"] == jobs["warehouse_rows"] \
            <= jobs["simulated"]
        assert run["serve"]["reports"]["support"]["status"] == 200
        assert set(run["serve"]["reports"]) == set(paper_scale.REPORT_KINDS)
        assert run["peak_rss_mb"] > 0 and run["warehouse_bytes"] > 0
    names = [row["layer"] for row in block["layers"]]
    assert {"process", "simulate", "facility.simulate", "facility.replay",
            "ingest", "ingest.plan", "archive.manifest", "ingest.scan",
            "ingest.load"} <= set(names)
    assert len(names) == len(set(names))
    assert all(row["ratio"] is not None for row in block["layers"])
    assert block["over_2x"] == [row["layer"] for row in block["layers"]
                                if row["ratio"] > paper_scale.SUPER_LINEAR]
    assert len(paper_scale.render(block).splitlines()) == len(names) + 2
