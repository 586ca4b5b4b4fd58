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
