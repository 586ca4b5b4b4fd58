"""End-to-end server behaviour over real HTTP.

Covers the success paths: endpoint payloads match the underlying
analytics exactly (the report text is byte-identical to
``repro-report`` output), the L1 cache and tenancy semantics are
observable in responses and counters, ``/metrics`` serves Prometheus
text, and an external ingest commit is adopted by ``POST
/api/v1/refresh``.
"""

from __future__ import annotations

import shutil
import threading
import time

from repro.cli.report import main as report_main
from repro.ingest.summarize import SUMMARY_METRICS, JobSummary
from repro.ingest.warehouse import Warehouse
from repro.scheduler.job import ExitStatus, JobRecord
from repro.telemetry.metrics import get_registry
from repro.xdmod.query import JobQuery
from repro.xdmod.reports import SupportStaffReport
from tests.scheduler.test_job import make_request
from tests.service.conftest import SYSTEM


def test_health(client, warehouse_path):
    status, body = client.get("/api/v1/health")
    assert status == 200
    assert body["status"] == "ok"
    assert body["systems"] == [SYSTEM]
    assert body["warehouse"] == warehouse_path


def test_systems(client):
    status, body = client.get("/api/v1/systems")
    assert status == 200
    info = body["systems"][SYSTEM]
    assert info["num_nodes"] == 16
    assert info["cores_per_node"] > 0


def test_report_matches_direct_render(client, warehouse_path):
    status, body = client.get(f"/api/v1/report/support?system={SYSTEM}")
    assert status == 200
    wh = Warehouse(warehouse_path)
    try:
        expected = SupportStaffReport(wh, SYSTEM).render()
    finally:
        wh.close()
    assert body["report"] == expected
    assert body["kind"] == "support"
    assert body["system"] == SYSTEM


def test_report_byte_identical_to_cli(client, warehouse_path, capsys):
    """The service answer is the CLI answer: same bytes as
    ``repro-report --warehouse ... --system ... admin`` prints."""
    status, body = client.get(f"/api/v1/report/admin?system={SYSTEM}")
    assert status == 200
    assert report_main(["--warehouse", warehouse_path,
                        "--system", SYSTEM, "admin"]) == 0
    assert body["report"] + "\n" == capsys.readouterr().out


def test_group_by_matches_query_layer(client, warehouse_path):
    status, body = client.get(
        f"/api/v1/query/group_by?system={SYSTEM}"
        f"&dimension=exit_status&metrics=cpu_idle")
    assert status == 200
    wh = Warehouse(warehouse_path)
    try:
        expected = JobQuery(wh, SYSTEM).group_by(
            "exit_status", metrics=("cpu_idle",))
    finally:
        wh.close()
    assert len(body["groups"]) == len(expected)
    for got, want in zip(body["groups"], expected):
        assert got["key"] == want.key
        assert got["job_count"] == want.job_count
        assert abs(got["node_hours"] - want.node_hours) < 1e-9
        assert got["weighted_means"]["cpu_idle"] == want.mean("cpu_idle")


def test_multi_dimension_group_by(client):
    status, body = client.get(
        f"/api/v1/query/group_by?system={SYSTEM}"
        f"&dimension=queue,exit_status&metrics=")
    assert status == 200
    assert all(len(g["keys"]) == 2 for g in body["groups"])


def test_timeseries_matches_warehouse(client, warehouse_path):
    status, body = client.get(
        f"/api/v1/timeseries/active_nodes?system={SYSTEM}")
    assert status == 200
    wh = Warehouse(warehouse_path)
    try:
        t, v = wh.series(SYSTEM, "active_nodes")
    finally:
        wh.close()
    assert body["times"] == t.tolist()
    assert body["values"] == v.tolist()


def test_second_request_is_l1_cache_hit(client):
    registry = get_registry()
    path = f"/api/v1/report/funding?system={SYSTEM}"
    client.get(path)  # populate
    hits = registry.counter("service.cache.hit").value
    status, body = client.get(path)
    assert status == 200
    assert body["cached"] is True
    assert registry.counter("service.cache.hit").value == hits + 1


def test_tenant_isolation(client):
    """A tenant's first request misses L1 even when another tenant has
    the same query cached (isolated working sets)."""
    path = f"/api/v1/report/manager?system={SYSTEM}"
    client.get(path)  # warm the default tenant
    _, warm = client.get(path)
    assert warm["cached"] is True
    _, other = client.get(path, headers={"X-Tenant": "acct-team"})
    assert other["cached"] is False
    assert other["report"] == warm["report"]
    _, again = client.get(path, headers={"X-Tenant": "acct-team"})
    assert again["cached"] is True


def test_concurrent_identical_responses_are_identical(client):
    """16 concurrent sessions asking the same question all get the
    exact same bytes back."""
    path = f"/api/v1/report/support?system={SYSTEM}&tenant=burst"
    results: list[str] = []
    lock = threading.Lock()

    def hit():
        status, body = client.get(path)
        assert status == 200
        with lock:
            results.append(body["report"])

    threads = [threading.Thread(target=hit) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_metrics_endpoint_prometheus_text(client):
    client.get("/api/v1/health")  # ensure at least one request counted
    status, text = client.get("/metrics")
    assert status == 200
    assert "# TYPE repro_service_requests counter" in text
    assert "repro_service_requests_health" in text
    assert "repro_service_latency_seconds_bucket" in text
    assert "repro_service_latency_seconds_count" in text


def _append_job(path: str, jobid: str) -> None:
    wh = Warehouse(path)
    try:
        req = make_request(jobid=jobid, user="external", nodes=2)
        rec = JobRecord(req, 0.0, 3600.0, (0, 1), ExitStatus.COMPLETED)
        metrics = {m: 1.0 for m in SUMMARY_METRICS}
        wh.add_job(SYSTEM, rec, 16,
                   JobSummary(jobid, metrics, 2, 3600.0, 6))
        wh.commit()
    finally:
        wh.close()


def test_refresh_adopts_external_commit(client, warehouse_path):
    count = "/api/v1/query/group_by?system={}&dimension=exit_status&metrics="
    _, before = client.get(count.format(SYSTEM))
    total_before = sum(g["job_count"] for g in before["groups"])

    _append_job(warehouse_path, "zzz-external-1")
    # Not adopted until refresh: the served snapshot is stable.
    _, still = client.get(count.format(SYSTEM))
    assert sum(g["job_count"] for g in still["groups"]) == total_before

    status, body = client.post("/api/v1/refresh")
    assert status == 200
    assert body["changed"] is True

    _, after = client.get(count.format(SYSTEM))
    assert sum(g["job_count"] for g in after["groups"]) == total_before + 1
    assert after["generation"] > before["generation"]

    status, body = client.post("/api/v1/refresh")
    assert status == 200
    assert body["changed"] is False


def test_refresh_adopts_external_series_write(client, warehouse_path):
    """An external ``append_series`` (tail rewrite via upsert) must be
    visible after ``POST /api/v1/refresh`` — the persisted change-state
    tells the adopting snapshot to reload that system's series instead
    of serving the stale frozen arrays."""
    path = f"/api/v1/timeseries/active_nodes?system={SYSTEM}"
    _, before = client.get(path)

    wh = Warehouse(warehouse_path)
    try:
        t, v = wh.series(SYSTEM, "active_nodes")
        wh.append_series(SYSTEM, "active_nodes",
                         t[-1:], v[-1:] + 7.0)
        wh.commit()
    finally:
        wh.close()

    # Not adopted until refresh: the served snapshot is stable.
    _, still = client.get(path)
    assert still["values"] == before["values"]

    status, body = client.post("/api/v1/refresh")
    assert status == 200
    assert body["changed"] is True

    _, after = client.get(path)
    assert after["times"] == before["times"]
    assert after["values"][-1] == before["values"][-1] + 7.0
    assert after["values"][:-1] == before["values"][:-1]


def test_external_series_name_is_unknown_until_refresh(warehouse_path,
                                                      tmp_path):
    """A series *name* another process writes is ``unknown_series``
    until ``POST /api/v1/refresh``, then served: the name check reads
    the pinned snapshot, so a request never pairs the old snapshot's
    ``generation`` with rows committed after it."""
    from repro.service.server import make_server
    from repro.service.state import ServiceState
    from tests.service.conftest import Client

    path = str(tmp_path / "facility.sqlite")
    shutil.copyfile(warehouse_path, path)
    state = ServiceState(path)
    server = make_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = Client(server)
        status, known = client.get(
            f"/api/v1/timeseries/active_nodes?system={SYSTEM}")
        assert status == 200

        wh = Warehouse(path)
        try:
            t, v = wh.series(SYSTEM, "active_nodes")
            wh.append_series(SYSTEM, "late_series", t, v * 2.0)
            wh.commit()
        finally:
            wh.close()

        late = f"/api/v1/timeseries/late_series?system={SYSTEM}"
        status, body = client.get(late)
        assert status == 404
        assert body["error"]["code"] == "unknown_series"
        assert "late_series" not in body["error"]["detail"]["known"]

        status, _ = client.post("/api/v1/refresh")
        assert status == 200
        status, body = client.get(late)
        assert status == 200
        assert body["generation"] == known["generation"] + 1
        assert body["values"] == (v * 2.0).tolist()
    finally:
        server.shutdown()
        server.server_close()
        state.close()
        thread.join(timeout=5)


def test_latency_is_observed_per_endpoint(client):
    """Beside the global histogram, one ``service.latency.{endpoint}``
    histogram per route family counts that family's requests."""
    from repro.service.server import SERVICE_LATENCY_BUCKETS

    report = get_registry().histogram("service.latency.report.seconds",
                                      SERVICE_LATENCY_BUCKETS)
    before = report.count
    client.get(f"/api/v1/report/support?system={SYSTEM}")
    client.get(f"/api/v1/report/admin?system={SYSTEM}")
    # A handler observes its latency after the last byte is written,
    # so the client can read the answer first.
    deadline = time.monotonic() + 10
    while report.count - before < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert report.count - before == 2
    status, text = client.get("/metrics")
    assert status == 200
    assert "repro_service_latency_report_seconds_bucket" in text
    assert "repro_service_latency_health_seconds_count" in text


def test_drain_waits_for_inflight_requests(fresh_state):
    from repro.service.server import make_server

    server = make_server(fresh_state)
    try:
        assert server.request_started() is True
        # One dispatched request still running: drain times out, new
        # arrivals are refused.
        assert server.drain(timeout=0.05) is False
        assert server.request_started() is False
        server.request_finished()
        assert server.drain(timeout=1.0) is True
    finally:
        server.server_close()


def test_requests_during_drain_get_structured_503(warehouse_path):
    from repro.service.server import make_server
    from repro.service.state import ServiceState
    from tests.service.conftest import Client

    state = ServiceState(warehouse_path)
    server = make_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        probe = Client(server)
        status, _ = probe.get("/api/v1/health")
        assert status == 200
        assert server.drain(timeout=1.0) is True
        # The warehouse is still open, but the drain gate answers
        # without touching it — a structured 503, never a 500.
        status, body = probe.get("/api/v1/health")
        assert status == 503
        assert body["error"]["code"] == "shutting_down"
    finally:
        server.shutdown()
        server.server_close()
        state.close()
        thread.join(timeout=5)
