"""Compare two result files of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

prints one row per (workload, end-to-end metric): both medians, how
much worse B is than A as a share of A, the metric's bound from
``BENCHMARK.json``, the run-to-run spread (distance between the first
and third quartile as a share of the median, the wider of the two
sides) and a verdict:

* ``better`` / ``worse`` — B's median differs from A's by more than
  the bound;
* ``same`` — it does not;
* ``unresolved`` — the spread is wider than the bound, so the runs
  cannot tell, unless every run of one side beats every run of the
  other.

The failed / attempted share of each side follows each workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _by_workload(result: dict) -> dict[str, list[dict]]:
    """Untraced run records per workload, in file order."""
    out: dict[str, list[dict]] = {}
    for rec in result["runs"]:
        if not rec["trace"]:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for fewer
    than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, float, str]:
    """``(worse_by, spread, verdict)`` for one metric on one workload;
    *worse_by* is positive when B is worse, as a share of A's median."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a
    wide = max(spread(a), spread(b))
    if wide > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return worse_by, wide, "better"
        if min(sign * v for v in b) > max(sign * v for v in a):
            return worse_by, wide, "worse"
        return worse_by, wide, "unresolved"
    if worse_by > bound:
        return worse_by, wide, "worse"
    if worse_by < -bound:
        return worse_by, wide, "better"
    return worse_by, wide, "same"


def _failed_share(records: list[dict]) -> str:
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    wrong = sum(not r["correct"] for r in records)
    return (f"{failed}/{attempted} failed ({failed / attempted:.2%}), "
            f"{wrong}/{len(records)} runs incorrect")


def render(a: dict, b: dict, spec: dict) -> str:
    """The comparison table of two results."""
    runs_a, runs_b = _by_workload(a), _by_workload(b)
    lines = [f"{'workload':<12} {'metric':<18} {'unit':<5} {'A median':>12} "
             f"{'B median':>12} {'B worse by':>10} {'bound':>6} "
             f"{'spread':>7}  verdict"]
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        for m in spec["end_to_end"]:
            va, vb = ([r["metrics"][m["name"]]["value"] for r in runs]
                      for runs in (runs_a[workload], runs_b[workload]))
            worse_by, wide, word = verdict(va, vb, m["better"], m["bound"])
            lines.append(
                f"{workload:<12} {m['name']:<18} {m['unit']:<5} "
                f"{statistics.median(va):>12.6g} "
                f"{statistics.median(vb):>12.6g} {worse_by:>+10.1%} "
                f"{m['bound']:>6.0%} {wide:>7.1%}  {word}")
        lines.append(f"{workload:<12} A: {_failed_share(runs_a[workload])}; "
                     f"B: {_failed_share(runs_b[workload])}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    print(render(*(json.loads(Path(p).read_text()) for p in paths), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
