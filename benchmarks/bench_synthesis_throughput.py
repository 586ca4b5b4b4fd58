"""Vectorized synthesis vs the scalar daemon loop: replay throughput.

The slow path's write side used to be a per-timestep Python loop — one
``sample()`` per node per interval, each formatting ~160 counter rows
through string concatenation.  The vectorized engine
(``docs/PERFORMANCE.md`` "Vectorized synthesis") batches everything a
node samples in one rotation period — any number of jobs — into one
``[timesteps x devices x counters]`` kernel call per collector and,
for v2 archives, hands the columns straight to the
encoder — no text is rendered, compressed or hashed on that path.

This bench runs the scheduler simulation once, then times ONLY the node
replay for both engines in the tentpole configuration — direct-to-v2,
uncompressed — and asserts the two archive trees are byte-identical
before reporting the ratio.  The ``synthesis speedup`` line is gated in
``check_regression.py`` with a hard 5.0 floor (the acceptance criterion
for the engine); it is a wall-clock ratio, so on shared runners the
gate reports as advisory and ``--strict`` enforces it.

Set ``REPRO_BENCH_QUICK=1`` for fewer timed passes (CI smoke).
"""

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro import RANGER, Facility
from repro.facility import _replay_nodes

BENCH_CFG = RANGER.scaled(num_nodes=8, horizon_days=1, n_users=10)
SEED = 7


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture(scope="module")
def replay_inputs():
    """One scheduler simulation shared by every timed replay pass."""
    facility = Facility(BENCH_CFG, seed=SEED)
    workload, sim, _outages, _cluster = facility._simulate()
    return (BENCH_CFG, SEED, workload.users, workload.util_scale,
            facility.phase_calibration, facility.regressions, sim.records)


def _tree(root) -> dict[str, str]:
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _timed(replay_inputs, base: str, synthesis: str, reps: int):
    """(best seconds, first pass's dir, first pass's metrics snapshot)."""
    best, kept_dir, kept_snap = None, None, None
    for i in range(reps):
        out = os.path.join(base, f"{synthesis}-{i}")
        t0 = time.perf_counter()
        _stats, snap = _replay_nodes(
            *replay_inputs, list(range(BENCH_CFG.num_nodes)), out,
            False, "v2", synthesis)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
        if i == 0:
            kept_dir, kept_snap = out, snap
        else:
            shutil.rmtree(out)
    return best, kept_dir, kept_snap


def test_synthesis_throughput(replay_inputs, save_artifact, tmp_path):
    """Scalar daemon loop vs batched kernels, direct-to-v2, no gzip."""
    # The gated number is a ratio of wall times; best-of-N on both
    # sides keeps one noisy pass on a loaded CI runner from swinging it.
    reps = 2 if _quick() else 3

    scalar_s, scalar_dir, _ = _timed(
        replay_inputs, str(tmp_path), "scalar", reps)
    fast_s, fast_dir, fast_snap = _timed(
        replay_inputs, str(tmp_path), "fast", reps)

    assert _tree(fast_dir) == _tree(scalar_dir)  # byte-identical archives

    samples = int(fast_snap.counters["synth.samples"])
    rows = int(fast_snap.counters["synth.rows"])
    nodes = BENCH_CFG.num_nodes
    speedup = scalar_s / fast_s
    text = "\n".join([
        "Vectorized synthesis (batched kernels -> direct-to-v2, "
        "uncompressed)",
        "",
        f"corpus: {nodes} nodes x 1 day ranger, {samples} samples, "
        f"{rows} value rows",
        f"scalar replay: {scalar_s:.2f} s  "
        f"({nodes / scalar_s:.1f} nodes/s)",
        f"fast replay:   {fast_s:.2f} s  ({nodes / fast_s:.1f} nodes/s, "
        f"{rows / fast_s:,.0f} rows/s)",
        f"synthesis speedup: {speedup:.2f}x",
        "",
        "archives byte-identical fast == scalar (checked)",
    ])
    save_artifact("synthesis_throughput", text)
    # Machine-readable trajectory point (uploaded by CI with the rest
    # of benchmarks/out/): one JSON object per run, diffable over time.
    summary = {
        "bench": "synthesis_throughput",
        "system": "ranger",
        "nodes": nodes,
        "days": 1,
        "samples": samples,
        "rows": rows,
        "scalar_s": round(scalar_s, 4),
        "fast_s": round(fast_s, 4),
        "synthesis_speedup_x": round(speedup, 2),
        "nodes_per_s": round(nodes / fast_s, 1),
        "rows_per_s": round(rows / fast_s),
    }
    (Path(__file__).parent / "out" / "synthesis_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print("\n" + text)
    assert speedup > 1.0
