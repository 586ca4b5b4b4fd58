"""``repro-serve`` as a real process, end to end.

Everything else under ``tests/service`` drives the server in-process;
this is the one test that pays for a child interpreter, because three
things only exist there: the ``python -m`` start (which used to print
a runpy RuntimeWarning into every server log), the address line a
supervisor parses, and the SIGTERM unwind that writes the telemetry
manifest.  It replaces the CI ``service-smoke`` job assertion for
assertion.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from types import SimpleNamespace

from repro.cli.diagnose import main as diagnose_main
from repro.service.state import REPORT_KINDS
from tests.conftest import SUBPROCESS_ENV
from tests.service.conftest import SYSTEM, Client

STARTUP_GAUGES = ("service.startup.import_seconds",
                  "service.startup.open_seconds",
                  "service.startup.seconds",
                  "service.first_request.seconds",
                  "process.modules_loaded")


def test_serve_process_start_to_manifest(warehouse_path, tmp_path, capsys):
    manifest = tmp_path / "serve-manifest.json"
    proc = subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.cli.serve", "--warehouse", warehouse_path, "--port", "0",
         "--telemetry-out", str(manifest)],
        env=SUBPROCESS_ENV, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        assert line.startswith(f"serving {warehouse_path} ({SYSTEM}) on "
                               f"http://127.0.0.1:"), (line,
                                                       proc.stderr.read())
        host, port = line.split(" on http://")[1].split()[0].split(":")
        client = Client(SimpleNamespace(server_address=(host, int(port))))

        def get_json(path: str, method: str = "GET") -> dict:
            status, body = client.request(method, path)
            assert status == 200, (path, status, body)
            return body

        assert get_json("/api/v1/health")["status"] == "ok"
        assert SYSTEM in get_json("/api/v1/systems")["systems"]
        first = {
            dim: get_json(f"/api/v1/query/group_by?system={SYSTEM}"
                          f"&dimension={dim}&metrics=")["groups"][0]["key"]
            for dim in ("user", "app")}
        targets = {"user": f"&target={first['user']}",
                   "developer": f"&target={first['app']}"}
        for kind in REPORT_KINDS:
            body = get_json(f"/api/v1/report/{kind}?system={SYSTEM}"
                            + targets.get(kind, ""))
            assert body["kind"] == kind and body["report"]
        groups = get_json(f"/api/v1/query/group_by?system={SYSTEM}"
                          f"&dimension=queue&metrics=cpu_idle")
        assert groups["groups"] and groups["metrics"] == ["cpu_idle"]
        series = get_json(f"/api/v1/timeseries/active_nodes?system={SYSTEM}")
        assert series["series"] == "active_nodes" and series["times"]
        assert get_json(f"/api/v1/live/top?system={SYSTEM}")["jobs"] == []
        assert "generation" in get_json("/api/v1/refresh", "POST")

        # Errors are structured JSON, never tracebacks.
        status, body = client.get(f"/api/v1/report/nope?system={SYSTEM}")
        assert status == 404 and "Traceback" not in json.dumps(body)
        assert body["error"]["code"] == "unknown_realm"
        _, body = client.get("/api/v1/clusters")
        assert body["error"]["code"] == "not_federated"

        status, metrics = client.get("/metrics")
        assert status == 200
        samples = dict(line.rsplit(" ", 1) for line in metrics.splitlines()
                       if line and not line.startswith("#"))
        assert float(samples["repro_service_requests"]) >= 14
        assert float(samples["repro_service_latency_seconds_count"]) >= 14
        for name in STARTUP_GAUGES:
            assert float(samples["repro_" + name.replace(".", "_")]) > 0
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert err == ""  # no runpy warning, no shutdown traceback
    assert f"telemetry manifest: {manifest}" in out

    gauges = json.loads(manifest.read_text())["metrics"]["gauges"]
    # Import + open happen before listening; the first data request
    # (not the health probe) is where the cold frame is paid for.
    assert (0 < gauges["service.startup.import_seconds"]
            <= gauges["service.startup.seconds"])
    assert gauges["service.startup.open_seconds"] \
        <= gauges["service.startup.seconds"]
    assert gauges["service.first_request.seconds"] > 0
    assert gauges["process.modules_loaded"] > 50
    assert diagnose_main(["--telemetry", str(manifest), "--min-ms", "1"]) == 0
    assert "service.requests" in capsys.readouterr().out
