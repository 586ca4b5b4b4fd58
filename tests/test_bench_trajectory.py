"""Every root ``BENCH_<n>.json`` record reads as one trajectory:
``benchmarks/trajectory.py`` finds the parent and change medians of
every workload and end-to-end metric ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json

import pytest

from benchmarks import trajectory
from tests.conftest import ROOT


def test_every_record_has_every_cell():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = trajectory.records()
    assert found and [pr for pr, _ in found] == sorted({pr for pr, _ in found})
    table = trajectory.trajectory()
    cells = len(spec["workloads"]) * len(spec["end_to_end"])
    assert len(table) == len(found) * cells
    assert all(row.runs[0] > 0 and row.runs[1] > 0 for row in table)
    assert len(trajectory.render(table).splitlines()) == len(table) + 1


def test_a_missing_cell_names_the_record_and_the_cell():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pr, path = trajectory.records()[-1]
    record = json.loads(path.read_text())
    workload = spec["workloads"][0]["name"]
    del record["end_to_end"][workload]["fresh_ms"]["change"]["median"]
    with pytest.raises(ValueError,
                       match=rf"{path.name}: end_to_end\.{workload}\."
                             r"fresh_ms: no 'median'"):
        trajectory.rows(pr, record, spec, path.name)


def test_newer_records_carry_layers_and_size():
    """From ``LAYERS_AND_SIZE_FROM`` on a record keeps its traced
    per-layer pairs in the shape of ``end_to_end`` and its src/test line
    counts, and the reader prints both."""
    since = {pr for pr, _ in trajectory.records()
             if pr >= trajectory.LAYERS_AND_SIZE_FROM}
    assert since
    layers, sizes, _scale = trajectory.layers_and_sizes()
    assert since <= {row.pr for row in layers}
    assert all(row.runs[0] > 0 and row.runs[1] > 0 for row in layers)
    assert {(row.pr, row.metric) for row in sizes if row.pr in since} == {
        (pr, measure) for pr in since for measure in trajectory.SIZES}
    assert len(trajectory.render(layers, "layer").splitlines()) \
        == len(layers) + 1


def test_a_missing_layer_or_size_names_the_record():
    pr, path = trajectory.records()[-1]
    assert pr >= trajectory.LAYERS_AND_SIZE_FROM
    record = json.loads(path.read_text())
    workload, cells = next(iter(record["per_layer"].items()))
    layer = next(iter(cells))
    del cells[layer]["change"]["runs"]
    with pytest.raises(ValueError, match=rf"{path.name}: per_layer\."
                                         rf"{workload}\.{layer}: no 'runs'"):
        trajectory.layer_rows(pr, record, path.name)
    with pytest.raises(ValueError, match=rf"{path.name}: no 'per_layer'"):
        trajectory.layer_rows(pr, {}, path.name)
    del record["size"]["test_lines"]["parent"]
    with pytest.raises(ValueError, match=rf"{path.name}: size\.test_lines: "
                                         r"no 'parent'"):
        trajectory.size_rows(pr, record, path.name)


def test_a_paper_scale_block_prints_each_layer_and_flags_past_2x():
    layer = {"layer": "ingest", "ms_per_host_day": 3.0,
             "ref_ms_per_host_day": 1.0, "ratio": 3.0}
    flat = {"layer": "facility.replay", "ms_per_host_day": 5.0,
            "ref_ms_per_host_day": 4.0, "ratio": 1.25}
    record = {"paper_scale": {
        "change": {"layers": [flat, layer], "over_2x": ["ingest"]},
        "parent": {"layers": [flat], "over_2x": []}}}
    rows = trajectory.paper_scale_rows(37, record, "BENCH_37.json")
    assert [(r.side, r.layer, r.over_2x) for r in rows] == [
        ("parent", "facility.replay", False),
        ("change", "facility.replay", False), ("change", "ingest", True)]
    text = trajectory.render_paper_scale(rows).splitlines()
    assert len(text) == 4 and text[-1].endswith("3.00 >2x")
    assert not text[1].endswith("x")
    del record["paper_scale"]["change"]["layers"][1]["ratio"]
    with pytest.raises(ValueError, match=r"BENCH_37\.json: paper_scale\."
                                         r"change: no 'ratio'"):
        trajectory.paper_scale_rows(37, record, "BENCH_37.json")
    for pr, path in trajectory.records():
        trajectory.paper_scale_rows(pr, json.loads(path.read_text()),
                                    path.name)


def test_counts_blocks_print_one_row_per_count_and_side():
    table = trajectory.counts()
    by_pr = {pr: [r for r in table if r.pr == pr] for pr in (39, 42)}
    assert all(by_pr.values())
    for pr, rows in by_pr.items():
        assert [r.side for r in rows] == ["parent", "change"] * (len(rows) // 2)
    assert ("ledger_rows", "change", 48) in {
        (r.count, r.side, r.value) for r in by_pr[42]}
    text = trajectory.render_counts(table).splitlines()
    assert len(text) == len(table) + 1
    with pytest.raises(ValueError, match=r"BENCH_42\.json: counts\.x: "
                                         r"no 'change'"):
        trajectory.count_rows(42, {"counts": {"x": {"parent": 1}}},
                              "BENCH_42.json")
