"""The perf trajectory: every recorded PR's end-to-end numbers as rows.

    python3 benchmarks/trajectory.py

reads each ``BENCH_<n>.json`` at the repository root, in PR order, and
prints one row per (PR, workload, end-to-end metric) that
``BENCHMARK.json`` declares: the parent's and the change's median, the
change as a percentage of the parent (positive = the number went up,
whichever way is better), the metric's bound and how many runs each
side had.

Every record keeps ``end_to_end[workload][metric].{parent,change}``
with a ``median`` and its ``runs``; a cell a record lacks is an error
naming the file, so the tier-1 test that runs this reader over every
record keeps the shape from drifting.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def rows(pr: int, record: dict, spec: dict, name: str = "") -> list[Row]:
    """One record's rows; ``ValueError`` naming *name* for a missing
    cell."""
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            where = f"{name}: end_to_end.{workload}.{metric['name']}"
            try:
                cell = record["end_to_end"][workload][metric["name"]]
                parent, change = cell["parent"], cell["change"]
                out.append(Row(
                    pr, workload, metric["name"],
                    float(parent["median"]), float(change["median"]),
                    float(cell.get("bound", metric["bound"])),
                    (len(parent["runs"]), len(change["runs"]))))
            except (KeyError, TypeError) as e:
                raise ValueError(f"{where}: no {e}") from None
    return out


def trajectory(root: Path = ROOT) -> list[Row]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [row for pr, path in records(root)
            for row in rows(pr, json.loads(path.read_text()), spec,
                            path.name)]


def render(table: list[Row]) -> str:
    lines = [f"{'PR':>3} {'workload':<12} {'metric':<16} {'parent':>11} "
             f"{'change':>11} {'delta':>8} {'bound':>6} {'runs':>7}"]
    lines += [f"{r.pr:>3} {r.workload:<12} {r.metric:<16} {r.parent:>11.5g} "
              f"{r.change:>11.5g} {r.delta_pct:>+7.1f}% {r.bound:>6.0%} "
              f"{r.runs[0]:>3}/{r.runs[1]:<3}" for r in table]
    return "\n".join(lines)


def main() -> int:
    try:
        print(render(trajectory()))
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
