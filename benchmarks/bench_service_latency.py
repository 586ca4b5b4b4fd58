"""Service latency under concurrent dashboard sessions.

Spins up the real ``repro.service`` HTTP server on a file-backed
warehouse and replays concurrent dashboard sessions against it — 64
keep-alive connections, each painting the interactive endpoint mix
(stakeholder reports, group-by queries, timeseries) on a ~1 s
staggered refresh cadence, the dashboard steady state — measuring
client-side p50/p99 per endpoint family.  (Zero think time would
measure closed-loop saturation of the shared client+server GIL, i.e.
Little's-law queueing, not request latency; the sessions are paced
the way real dashboards are.)  Three acceptance gates feed
``check_regression.py``:

* **warm report p99** — the steady-state (cache-hot) report latency
  must stay under 10 ms with 64 concurrent sessions live;
* **CLI report** — one ``repro-report`` process per query
  (interpreter + the read side's imports + snapshot build: what a cron
  job or an admin shell pays, and what every ``repro-serve`` restart
  pays before its first answer) must stay under a second.  An absolute
  time, lower is better: the ratio to a warm request it replaces fell
  whenever the CLI got *faster*;
* **coalesce rate** — with caches disabled and synchronized waves of
  identical requests, the single-flight layer must serve most of the
  wave from one computation.

Correctness rides along: every report body served concurrently must be
byte-identical to what serial ``repro-report`` prints for the same
query — that assertion is always hard.  The three wall-clock gates
hard-fail only under ``REPRO_BENCH_STRICT=1`` (quiet local hardware);
on shared CI runners they print ADVISORY lines instead, matching
``check_regression.py``.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke (fewer circuits/waves).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import RANGER, Facility
from repro.ingest.warehouse import Warehouse
from repro.service.server import make_server
from repro.service.state import ServiceState
from repro.telemetry.metrics import get_registry
from repro.xdmod.snapshot import set_cache_enabled

SYSTEM = "ranger"
SESSIONS = 64
#: Seconds between one session's dashboard refreshes (jittered ±25%).
THINK_S = 1.0


def _quick() -> bool:
    """True when the CI smoke mode is requested via the environment."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _strict() -> bool:
    """True when the wall-clock gates should hard-fail
    (``REPRO_BENCH_STRICT=1`` — local quiet hardware)."""
    return os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0")


def _timing_gate(ok: bool, message: str) -> None:
    """Enforce a wall-clock-sensitive acceptance gate.

    Hard assertion under ``REPRO_BENCH_STRICT=1``; elsewhere (shared
    CI runners, where scheduler noise makes absolute floors flaky) a
    loud ADVISORY line, mirroring ``check_regression.py``."""
    if ok:
        return
    if _strict():
        raise AssertionError(message)
    print(f"ADVISORY (timing-sensitive, not failing this run): "
          f"{message}")


def _build_warehouse(path: Path) -> None:
    """Simulate a dashboard-sized study period into a SQLite file."""
    cfg = RANGER.scaled(num_nodes=32, horizon_days=10, n_users=60)
    wh = Warehouse(str(path))
    Facility(cfg, seed=42).run(warehouse=wh)
    wh.commit()
    wh.close()


def _percentile(samples: list[float], q: float) -> float:
    """The q-quantile (0..1) of client-measured latencies, in ms."""
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx] * 1e3


class Session:
    """One dashboard session: a persistent keep-alive connection."""

    def __init__(self, address: tuple):
        host, port = address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def get(self, path: str) -> tuple[float, dict]:
        """GET *path*; returns (seconds, parsed JSON body).

        The timed window is request -> last body byte received;
        parsing happens outside it (parse cost is the client's, not
        the service's).
        """
        t0 = time.perf_counter()
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        raw = resp.read()
        elapsed = time.perf_counter() - t0
        body = json.loads(raw)
        if resp.status != 200:
            raise AssertionError(f"{path} -> {resp.status}: {body}")
        return elapsed, body

    def close(self) -> None:
        self.conn.close()


#: The interactive endpoint mix one dashboard paints per refresh.
ENDPOINT_MIX: list[tuple[str, str]] = [
    ("report", f"/api/v1/report/support?system={SYSTEM}"),
    ("report", f"/api/v1/report/admin?system={SYSTEM}"),
    ("report", f"/api/v1/report/manager?system={SYSTEM}"),
    ("report", f"/api/v1/report/funding?system={SYSTEM}"),
    ("group_by",
     f"/api/v1/query/group_by?system={SYSTEM}&dimension=app"
     f"&metrics=cpu_idle,mem_used"),
    ("group_by",
     f"/api/v1/query/group_by?system={SYSTEM}&dimension=queue,exit_status"
     f"&metrics="),
    ("timeseries", f"/api/v1/timeseries/active_nodes?system={SYSTEM}"),
    ("timeseries", f"/api/v1/timeseries/flops_tf?system={SYSTEM}"),
]


def _run_sessions(address, circuits: int) -> dict[str, list[float]]:
    """Drive SESSIONS concurrent sessions through the endpoint mix
    *circuits* times each; returns latencies per endpoint family.

    Sessions are paced: each starts at a deterministic random offset
    within one think interval and sleeps ~``THINK_S`` (jittered ±25%)
    between dashboard refreshes.  All 64 connections stay live for the
    whole phase — that is the concurrency claim — but arrivals are
    spread the way real auto-refreshing dashboards spread them, so the
    percentiles measure request latency rather than the closed-loop
    queueing of 64 zero-think-time loops in one process.
    """
    per_family: dict[str, list[float]] = {}
    lock = threading.Lock()
    barrier = threading.Barrier(SESSIONS)
    failures: list[BaseException] = []

    def run_one(idx: int):
        session = Session(address)
        rng = random.Random(idx)
        local: dict[str, list[float]] = {}
        try:
            # Establish the connection before the barrier so the
            # measured phase times requests, not connection setup.
            session.conn.connect()
            barrier.wait()
            time.sleep(rng.uniform(0.0, THINK_S))  # de-sync sessions
            for circuit in range(circuits):
                for family, path in ENDPOINT_MIX:
                    elapsed, _ = session.get(path)
                    local.setdefault(family, []).append(elapsed)
                if circuit + 1 < circuits:
                    time.sleep(THINK_S * rng.uniform(0.75, 1.25))
        except BaseException as exc:
            with lock:
                failures.append(exc)
        finally:
            session.close()
        with lock:
            for family, values in local.items():
                per_family.setdefault(family, []).extend(values)

    threads = [threading.Thread(target=run_one, args=(i,))
               for i in range(SESSIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    if failures:
        raise failures[0]
    return per_family


def _coalesce_waves(address, waves: int) -> tuple[float, int]:
    """Synchronized waves of identical *uncached* requests; returns
    (coalesce rate, total requests).

    The snapshot memo is disabled around the waves so every request is
    a real computation, and each request rides a distinct tenant so
    the per-tenant L1 cannot answer it — the only dedup left is the
    single-flight layer, which is exactly what the rate isolates (the
    flight key is the query, not the tenant).
    """
    registry = get_registry()
    before = registry.counter("service.coalesced").value
    total = 0
    set_cache_enabled(False)
    try:
        for wave in range(waves):
            barrier = threading.Barrier(SESSIONS)
            errors: list[BaseException] = []
            lock = threading.Lock()

            def fire(i: int, wave: int = wave):
                session = Session(address)
                try:
                    session.conn.connect()
                    barrier.wait()
                    session.get(
                        f"/api/v1/report/support?system={SYSTEM}"
                        f"&tenant=w{wave}-{i}")
                except BaseException as exc:
                    with lock:
                        errors.append(exc)
                finally:
                    session.close()

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(SESSIONS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
            if errors:
                raise errors[0]
            total += SESSIONS
    finally:
        set_cache_enabled(True)
    coalesced = registry.counter("service.coalesced").value - before
    return coalesced / total, total


def _cli_report_ms(warehouse: Path, kinds: list[str]) -> tuple[float, dict]:
    """Per-request CLI latency: one ``repro-report`` process per query
    (interpreter + imports + snapshot build every time).  Returns the
    mean wall ms and each kind's stdout for the byte-identity check."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    outputs: dict[str, str] = {}
    times = []
    for kind in kinds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli.report",
             "--warehouse", str(warehouse), "--system", SYSTEM, kind],
            capture_output=True, text=True, env=env, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
        outputs[kind] = proc.stdout
    return statistics.mean(times) * 1e3, outputs


def test_service_latency(tmp_path, save_artifact):
    """The tentpole acceptance bench: p50/p99 per endpoint at 64
    concurrent sessions, CLI report time, coalesce rate, byte-identity."""
    warehouse = tmp_path / "service_bench.sqlite"
    _build_warehouse(warehouse)

    state = ServiceState(str(warehouse))
    server = make_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        address = server.server_address
        # Warm-up circuit: build the snapshot, fill L1 + memo.
        warmup = Session(address)
        for _, path in ENDPOINT_MIX:
            warmup.get(path)
        job_count = sum(
            g["job_count"] for g in warmup.get(
                f"/api/v1/query/group_by?system={SYSTEM}"
                f"&dimension=exit_status&metrics=")[1]["groups"])

        # Measured warm phase.
        circuits = 3 if _quick() else 12
        per_family = _run_sessions(address, circuits)
        all_samples = [s for v in per_family.values() for s in v]
        report_p50 = _percentile(per_family["report"], 0.50)
        report_p99 = _percentile(per_family["report"], 0.99)

        # Per-request CLI baseline + byte-identity of served reports.
        kinds = ["support", "admin"] if _quick() else \
            ["support", "admin", "manager", "funding"]
        cli_ms, cli_out = _cli_report_ms(warehouse, kinds)
        for kind in kinds:
            _, body = warmup.get(f"/api/v1/report/{kind}?system={SYSTEM}")
            assert body["report"] + "\n" == cli_out[kind], (
                f"service {kind} report is not byte-identical to "
                f"repro-report output")
        warmup.close()
        report_mean_ms = statistics.mean(per_family["report"]) * 1e3

        # Coalescing under synchronized identical cold requests.
        waves = 2 if _quick() else 6
        rate, wave_requests = _coalesce_waves(address, waves)
    finally:
        server.shutdown()
        server.server_close()
        state.close()
        thread.join(timeout=10)

    family_lines = [
        f"  {family:<12} p50: {_percentile(v, 0.5):7.2f} ms   "
        f"p99: {_percentile(v, 0.99):7.2f} ms   (n={len(v)})"
        for family, v in sorted(per_family.items())
    ]
    lines = [
        "Service latency under concurrent dashboard sessions",
        "",
        f"corpus: {job_count} jobs on {SYSTEM} (file warehouse)",
        f"sessions: {SESSIONS} concurrent keep-alive connections, "
        f"{circuits} dashboard refreshes of {len(ENDPOINT_MIX)} "
        f"endpoints each, ~{THINK_S:.0f} s jittered refresh cadence "
        f"({len(all_samples)} requests)",
        "",
        "client-measured latency per endpoint family (warm):",
        *family_lines,
        "",
        f"warm report p50: {report_p50:.2f} ms",
        f"warm report p99: {report_p99:.2f} ms",
        f"cli report: {cli_ms:.1f} ms "
        f"(one repro-report process per query; the mean warm report "
        f"request is {report_mean_ms:.3f} ms)",
        f"coalesce rate: {rate:.2f} "
        f"({waves} waves of {SESSIONS} identical uncached requests, "
        f"{wave_requests} total)",
        "responses: byte-identical to serial repro-report output",
    ]
    text = "\n".join(lines)
    save_artifact("service_latency", text)
    print("\n" + text)

    _timing_gate(report_p99 <= 10.0, (
        f"warm report p99 {report_p99:.2f} ms exceeds the 10 ms budget "
        f"at {SESSIONS} concurrent sessions"))
    _timing_gate(cli_ms <= 1000.0, (
        f"a repro-report process takes {cli_ms:.0f} ms per query "
        f"(budget 1000 ms: the read side's import graph has grown)"))
    _timing_gate(rate >= 0.5, (
        f"coalesce rate {rate:.2f} below 0.5 — single-flight is not "
        f"deduplicating concurrent identical queries"))
