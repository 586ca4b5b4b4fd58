"""The paper-scale run: one 3 936-node Ranger day end to end.

    python3 benchmarks/paper_scale.py
    python3 benchmarks/paper_scale.py --record BENCH_37.json --side change

runs ``repro-simulate --system ranger --nodes 3936 --days 1 --users
2000 --archive-format v2`` and the same command at 48 nodes, each in
its own process with ``--telemetry-out``, then opens each warehouse
cold: its ``SystemFrame`` is built in this process and a cold
``repro-serve`` child answers all six stakeholder reports.  It prints
(and with ``--record`` stores under ``paper_scale.<side>``) one block:

* ``layers``: every span of ``repro-simulate``'s own span tree, summed
  by name, with its wall time at both scales, milliseconds per
  host-day and the ratio of the two (``over_2x`` names each layer
  whose per-host-day cost at paper scale is more than twice its
  48-node cost: a super-linear layer);
* per scale: process wall time and peak RSS, the archive's files and
  bytes per node-day (on disk, and its text-equivalent) against the
  paper's 0.5 MB (§4.1), warehouse bytes, jobs simulated / loaded,
  the cold frame build and each report's status and latency.

A node-day is one node for one facility day; a one-day horizon still
writes two files per node (the ``t = 86 400 s`` tick opens day 2's), so
volumes here are divided by nodes x days, not by files.  The run is
serial (``--workers 1``): about a minute and 250 MB at paper scale on
one core of a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.ingest.warehouse import Warehouse  # noqa: E402
from repro.xdmod.reports import REPORT_KINDS  # noqa: E402
from repro.xdmod.snapshot import SystemFrame  # noqa: E402

PAPER_NODES = 3936
REF_NODES = 48
PAPER_DAYS = 1
PAPER_USERS = 2000
SEED = 42
#: Raw bytes per node-day the paper reports for Ranger (§4.1).
PAPER_BYTES_PER_NODE_DAY = 0.5e6
#: A layer whose per-host-day cost grows past this many times its
#: reference-scale cost is named in ``over_2x``.
SUPER_LINEAR = 2.0


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _span_seconds(spans: list[dict], out: dict[str, float]) -> None:
    """Sum every span's duration into *out* by name; a span's time not
    spent in its children also goes to ``<name>.self``."""
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["duration_s"]
        children = s.get("children", [])
        if children:
            own = s["duration_s"] - sum(c["duration_s"] for c in children)
            key = f"{s['name']}.self"
            out[key] = out.get(key, 0.0) + own
            _span_seconds(children, out)


def simulate(workdir: Path, nodes: int, days: float, users: int) -> dict:
    """One ``repro-simulate`` process into *workdir*: its layers,
    process wall time and peak RSS, archive, warehouse and job counts."""
    workdir.mkdir(parents=True, exist_ok=True)
    archive, warehouse = workdir / "archive", workdir / "w.sqlite"
    manifest = workdir / "telemetry.json"
    cmd = [sys.executable, "-m", "repro.cli.simulate", "--system", "ranger",
           "--nodes", str(nodes), "--days", str(days), "--users", str(users),
           "--seed", str(SEED), "--archive-format", "v2",
           "--archive", str(archive), "--warehouse", str(warehouse),
           "--telemetry-out", str(manifest), "--quiet"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_env(), cwd=workdir)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    if status != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with status {status}")
    tele = json.loads(manifest.read_text())
    layers: dict[str, float] = {}
    _span_seconds(tele["stages"], layers)
    counters = tele["metrics"]["counters"]
    files = [p for p in archive.rglob("*") if p.is_file()]
    node_days = nodes * days
    disk = sum(p.stat().st_size for p in files)
    with sqlite3.connect(warehouse) as db:
        rows = db.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]
    return {
        "nodes": nodes, "days": days, "users": users, "seed": SEED,
        "host_days": node_days,
        "wall_s": wall,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "layers": layers,
        "kernel_chunks": counters.get("synth.chunks", 0),
        "archive": {
            "files": len(files),
            "files_per_node": len(files) / nodes,
            "bytes": disk,
            "text_bytes": counters.get("archive.bytes_raw", 0),
            "bytes_per_node_day": disk / node_days,
            "text_bytes_per_node_day":
                counters.get("archive.bytes_raw", 0) / node_days,
            "vs_paper": disk / node_days / PAPER_BYTES_PER_NODE_DAY,
        },
        "warehouse_bytes": warehouse.stat().st_size,
        "jobs": {
            "simulated": tele["extra"]["jobs_simulated"],
            "loaded": counters.get("ingest.jobs_loaded", 0),
            "warehouse_rows": rows,
        },
    }


def frame_build_s(warehouse: Path, system: str = "ranger") -> float:
    """Seconds to build *system*'s ``SystemFrame`` from a cold open."""
    wh = Warehouse(str(warehouse))
    try:
        started = time.perf_counter()
        SystemFrame(wh, system)
        return time.perf_counter() - started
    finally:
        wh.close()


def _targets(warehouse: Path) -> dict[str, str]:
    """The busiest user and application: the per-target reports' targets."""
    with sqlite3.connect(warehouse) as db:
        return {kind: db.execute(
            f"SELECT {col} FROM jobs GROUP BY {col} "
            f"ORDER BY COUNT(*) DESC, {col} LIMIT 1").fetchone()[0]
            for kind, col in (("user", "user"), ("developer", "app"))}


def serve(warehouse: Path, system: str = "ranger") -> dict:
    """A cold ``repro-serve`` of *warehouse*: seconds until it listens,
    then every report once, cold, with its HTTP status and latency."""
    targets = _targets(warehouse)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.serve", "--warehouse",
         str(warehouse), "--port", "0"],
        env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        startup = time.perf_counter() - started
        if " on http://" not in line:
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        base = line.split(" on ", 1)[1].split()[0]
        reports = {}
        for kind in REPORT_KINDS:
            url = f"{base}/api/v1/report/{kind}?system={system}"
            if kind in targets:
                url += f"&target={targets[kind]}"
            t0 = time.perf_counter()
            try:
                with urllib.request.urlopen(url, timeout=300) as resp:
                    resp.read()
                    code = resp.status
            except urllib.error.HTTPError as e:
                code = e.code
            reports[kind] = {"status": code,
                             "ms": (time.perf_counter() - t0) * 1e3}
    finally:
        proc.terminate()
        proc.wait(timeout=60)
        proc.stdout.close()
    return {"startup_s": startup, "reports": reports}


def layer_rows(big: dict, ref: dict) -> list[dict]:
    """One row per layer of the paper-scale run: wall time and ms per
    host-day at both scales and their ratio (None where the reference
    run has no such layer or spent no time in it)."""
    rows = []
    layers = {"process": big["wall_s"], **big["layers"]}
    ref_layers = {"process": ref["wall_s"], **ref["layers"]}
    for name, seconds in layers.items():
        ms = seconds / big["host_days"] * 1e3
        ref_s = ref_layers.get(name)
        ref_ms = None if ref_s is None else ref_s / ref["host_days"] * 1e3
        rows.append({
            "layer": name, "wall_s": seconds, "ms_per_host_day": ms,
            "ref_wall_s": ref_s, "ref_ms_per_host_day": ref_ms,
            "ratio": ms / ref_ms if ref_ms else None,
        })
    return rows


def paper_scale(workdir: Path, nodes: int = PAPER_NODES,
                ref_nodes: int = REF_NODES, days: float = PAPER_DAYS,
                users: int = PAPER_USERS) -> dict:
    """Both runs, their cold reads and the layer table, as one block."""
    scales = {}
    for label, n in (("paper", nodes), ("ref", ref_nodes)):
        run = simulate(workdir / f"n{n}", n, days, users)
        warehouse = workdir / f"n{n}" / "w.sqlite"
        run["frame_build_s"] = frame_build_s(warehouse)
        run["serve"] = serve(warehouse)
        scales[label] = run
    rows = layer_rows(scales["paper"], scales["ref"])
    return {
        "command": (f"repro-simulate --system ranger --nodes {nodes} "
                    f"--days {days} --users {users} --seed {SEED} "
                    f"--archive-format v2 (and --nodes {ref_nodes})"),
        "machine": f"{platform.machine()} {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "paper_bytes_per_node_day": PAPER_BYTES_PER_NODE_DAY,
        "layers": rows,
        "over_2x": [r["layer"] for r in rows
                    if r["ratio"] is not None and r["ratio"] > SUPER_LINEAR],
        "scales": scales,
    }


def render(block: dict) -> str:
    """The layer table of one block as text."""
    paper, ref = block["scales"]["paper"], block["scales"]["ref"]
    lines = [f"{'layer':<28} {'wall_s':>9} {'ms/hd':>8} "
             f"{'ms/hd@' + str(ref['nodes']):>9} {'ratio':>6}"]
    for r in block["layers"]:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.2f}"
        ref_ms = ("-" if r["ref_ms_per_host_day"] is None
                  else f"{r['ref_ms_per_host_day']:.3f}")
        flag = " >2x" if r["layer"] in block["over_2x"] else ""
        lines.append(f"{r['layer']:<28} {r['wall_s']:>9.3f} "
                     f"{r['ms_per_host_day']:>8.3f} {ref_ms:>9} "
                     f"{ratio:>6}{flag}")
    arch = paper["archive"]
    lines.append(
        f"{paper['nodes']} nodes: peak RSS {paper['peak_rss_mb']:.0f} MB, "
        f"{arch['files']} files, {arch['bytes_per_node_day'] / 1e3:.0f} KB "
        f"per node-day on disk ({arch['text_bytes_per_node_day'] / 1e3:.0f}"
        f" KB as text; paper 500 KB), warehouse "
        f"{paper['warehouse_bytes'] / 1e6:.1f} MB, frame build "
        f"{paper['frame_build_s'] * 1e3:.0f} ms")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", type=Path, default=None,
                        help="JSON record to store the block in")
    parser.add_argument("--side", choices=("parent", "change"),
                        default="change",
                        help="which side of --record the block is")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="paper-scale-") as tmp:
        block = paper_scale(Path(tmp))
    print(render(block))
    if args.record is not None:
        record = (json.loads(args.record.read_text())
                  if args.record.exists() else {})
        record.setdefault("paper_scale", {})[args.side] = block
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
