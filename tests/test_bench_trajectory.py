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
    layers, sizes = trajectory.layers_and_sizes()
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
