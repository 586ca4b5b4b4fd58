"""The perf trajectory: every recorded PR's numbers as rows.

    python3 benchmarks/trajectory.py

reads each ``BENCH_<n>.json`` at the repository root, in PR order, and
prints three tables:

* one row per (PR, workload, end-to-end metric) that ``BENCHMARK.json``
  declares: the parent's and the change's median, the change as a
  percentage of the parent (positive = the number went up, whichever
  way is better), the metric's bound and how many runs each side had;
* one row per (PR, workload, layer) a record's ``per_layer`` holds, the
  same columns without a bound (traced runs);
* one row per (PR, measure) of a record's ``size``: ``src_lines`` and
  ``test_lines``, parent and change;
* one row per (PR, side, layer) of a record's ``paper_scale`` block
  (``benchmarks/paper_scale.py``): ms per host-day at paper scale and
  at the reference scale and their ratio, ``>2x`` after a layer the
  block names in ``over_2x``.

Every record keeps ``end_to_end[workload][metric].{parent,change}``
with a ``median`` and its ``runs``; from PR :data:`LAYERS_AND_SIZE_FROM`
on it also keeps ``per_layer[workload][layer]`` in that shape and
``size.{src_lines,test_lines}.{parent,change}``.  A cell a record lacks
is an error naming the file, so the tier-1 test that runs this reader
over every record keeps the shape from drifting.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The first PR whose record must carry ``per_layer`` and ``size``.
LAYERS_AND_SIZE_FROM = 29
#: The ``size`` measures a record carries, each ``{parent, change}``.
SIZES = ("src_lines", "test_lines")


@dataclass(frozen=True)
class Row:
    pr: int
    workload: str
    metric: str
    parent: float
    change: float
    bound: float
    runs: tuple[int, int]

    @property
    def delta_pct(self) -> float:
        if not self.parent:
            return math.nan
        return (self.change - self.parent) / self.parent * 100


def records(root: Path = ROOT) -> list[tuple[int, Path]]:
    """``(PR number, path)`` of every root record, in PR order."""
    found = [(int(m.group(1)), path) for path in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return sorted(found)


def _cell(pr: int, workload: str, metric: str, cell: dict, bound: float,
          where: str) -> Row:
    """One ``{parent, change}`` cell of medians and runs as a row;
    ``ValueError`` naming *where* for a missing part."""
    try:
        parent, change = cell["parent"], cell["change"]
        return Row(pr, workload, metric, float(parent["median"]),
                   float(change["median"]), bound,
                   (len(parent["runs"]), len(change["runs"])))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{where}: no {e}") from None


def rows(pr: int, record: dict, spec: dict, name: str = "") -> list[Row]:
    """One record's end-to-end rows; ``ValueError`` naming *name* for a
    missing cell."""
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            where = f"{name}: end_to_end.{workload}.{metric['name']}"
            try:
                cell = record["end_to_end"][workload][metric["name"]]
                bound = float(cell.get("bound", metric["bound"]))
            except (KeyError, TypeError) as e:
                raise ValueError(f"{where}: no {e}") from None
            out.append(_cell(pr, workload, metric["name"], cell, bound,
                             where))
    return out


def layer_rows(pr: int, record: dict, name: str = "") -> list[Row]:
    """One record's per-layer rows (none before
    :data:`LAYERS_AND_SIZE_FROM` when it has no ``per_layer``)."""
    if "per_layer" not in record and pr < LAYERS_AND_SIZE_FROM:
        return []
    if not record.get("per_layer"):
        raise ValueError(f"{name}: no 'per_layer'")
    return [_cell(pr, workload, layer, cell, math.nan,
                  f"{name}: per_layer.{workload}.{layer}")
            for workload, cells in record["per_layer"].items()
            for layer, cell in cells.items()]


def size_rows(pr: int, record: dict, name: str = "") -> list[Row]:
    """One record's ``size`` rows (none for an older record that does
    not keep both measures as ``{parent, change}`` numbers)."""
    out = []
    for measure in SIZES:
        cell = record.get("size", {}).get(measure)
        try:
            out.append(Row(pr, "size", measure, float(cell["parent"]),
                           float(cell["change"]), math.nan, (1, 1)))
        except (KeyError, TypeError, ValueError) as e:
            if pr >= LAYERS_AND_SIZE_FROM:
                raise ValueError(
                    f"{name}: size.{measure}: no {e}") from None
            return []
    return out


@dataclass(frozen=True)
class ScaleRow:
    pr: int
    side: str
    layer: str
    ms: float
    ref_ms: float
    ratio: float
    over_2x: bool


def paper_scale_rows(pr: int, record: dict, name: str = "") -> list[ScaleRow]:
    """One record's ``paper_scale`` rows, parent side first (none for a
    record without the block)."""
    out = []
    for side, block in sorted(record.get("paper_scale", {}).items(),
                              key=lambda kv: kv[0] != "parent"):
        try:
            flagged = set(block["over_2x"])
            out += [ScaleRow(pr, side, r["layer"],
                             float(r["ms_per_host_day"]),
                             math.nan if r["ref_ms_per_host_day"] is None
                             else float(r["ref_ms_per_host_day"]),
                             math.nan if r["ratio"] is None
                             else float(r["ratio"]),
                             r["layer"] in flagged)
                    for r in block["layers"]]
        except (KeyError, TypeError) as e:
            raise ValueError(
                f"{name}: paper_scale.{side}: no {e}") from None
    return out


def render_paper_scale(table: list[ScaleRow]) -> str:
    lines = [f"{'PR':>3} {'side':<7} {'layer':<28} {'ms/host-day':>11} "
             f"{'at ref':>9} {'ratio':>6}"]
    lines += [f"{r.pr:>3} {r.side:<7} {r.layer:<28} {r.ms:>11.4g} "
              f"{r.ref_ms:>9.4g} {r.ratio:>6.2f}"
              f"{' >2x' if r.over_2x else ''}" for r in table]
    return "\n".join(lines)


def trajectory(root: Path = ROOT) -> list[Row]:
    """Every record's end-to-end rows."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [row for pr, path in records(root)
            for row in rows(pr, json.loads(path.read_text()), spec,
                            path.name)]


def layers_and_sizes(root: Path = ROOT
                     ) -> tuple[list[Row], list[Row], list[ScaleRow]]:
    """Every record's per-layer rows, size rows and paper-scale rows."""
    layers, sizes, scale = [], [], []
    for pr, path in records(root):
        record = json.loads(path.read_text())
        layers += layer_rows(pr, record, path.name)
        sizes += size_rows(pr, record, path.name)
        scale += paper_scale_rows(pr, record, path.name)
    return layers, sizes, scale


def render(table: list[Row], label: str = "metric") -> str:
    lines = [f"{'PR':>3} {'workload':<12} {label:<28} {'parent':>11} "
             f"{'change':>11} {'delta':>8} {'bound':>6} {'runs':>7}"]
    lines += [f"{r.pr:>3} {r.workload:<12} {r.metric:<28} {r.parent:>11.5g} "
              f"{r.change:>11.5g} {r.delta_pct:>+7.1f}% "
              f"{'-' if math.isnan(r.bound) else f'{r.bound:.0%}':>6} "
              f"{r.runs[0]:>3}/{r.runs[1]:<3}" for r in table]
    return "\n".join(lines)


def main() -> int:
    try:
        table = trajectory()
        layers, sizes, scale = layers_and_sizes()
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    print(render(table))
    print()
    print(render(layers, "layer"))
    print()
    print(render(sizes, "lines"))
    if scale:
        print()
        print(render_paper_scale(scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
