"""The live consumption surfaces: ``live_top``/``live_watch`` state
methods, their HTTP routes, the snapshot-age gauge, and the cache
bypass semantics."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.warehouse import Warehouse
from repro.live.runner import LiveSession
from repro.service.protocol import ServiceError
from repro.service.server import make_server
from repro.service.state import ServiceState
from repro.telemetry.metrics import get_registry
from repro.util.timeutil import HOUR

CFG = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=6)
SEED = 7
SYSTEM = CFG.name


def _half_session(tmp_path_factory, wal=False):
    """A live session run HALFWAY into a file-backed warehouse, so
    tests can advance it mid-flight: (warehouse path, session)."""
    path = str(tmp_path_factory.mktemp("live_svc") / "live.sqlite")
    warehouse = Warehouse(path, threadsafe=True)
    if wal:
        (mode,) = warehouse.connection.execute(
            "PRAGMA journal_mode=WAL").fetchone()
        assert mode == "wal"
    session = LiveSession(
        Facility(CFG, seed=SEED),
        str(tmp_path_factory.mktemp("live_svc_arch")),
        warehouse=warehouse, segment_seconds=2 * HOUR)
    for _ in range(session.n_segments // 2):
        session.run_batch()
    warehouse.commit()
    return path, session


@pytest.fixture(scope="module")
def feed(tmp_path_factory):
    return _half_session(tmp_path_factory)


@pytest.fixture(scope="module")
def wal_feed(tmp_path_factory):
    """The same, into a file switched to WAL journaling by a PRAGMA:
    a file an earlier release left in WAL mode is still served."""
    return _half_session(tmp_path_factory, wal=True)


@pytest.fixture()
def state(feed):
    st = ServiceState(feed[0])
    yield st
    st.close()


def test_health_includes_snapshot_age(state):
    body = state.health()
    assert body["status"] == "ok"
    assert body["snapshot_age_seconds"] >= 0.0


def test_snapshot_age_resets_when_the_stamp_moves(feed, state):
    age1 = state.snapshot_age_seconds()
    assert age1 >= 0.0
    # An external live batch commits new rows -> data_version moves ->
    # the next observation restarts the staleness clock.
    path, session = feed
    if not session.done:
        session.run_batch()
        session.warehouse.commit()
    state.refresh()
    assert state.snapshot_age_seconds() <= age1 + 0.5
    assert get_registry().gauge(
        "service.snapshot.age_seconds").value >= 0.0


def test_live_top_baselines_then_rates(feed, state):
    first = state.live_top(SYSTEM, client="t1")
    assert first["system"] == SYSTEM
    assert first["baseline"] is True
    assert first["jobs"] == [] and first["total"] == {}
    assert first["jobs_observed"] > 0

    path, session = feed
    assert not session.done, "fixture must leave batches to run"
    session.run_batch()
    session.warehouse.commit()

    second = state.live_top(SYSTEM, n=3, client="t1")
    assert second["baseline"] is False
    assert 0 < len(second["jobs"]) <= 3
    for job in second["jobs"]:
        assert job["dt"] > 0
        assert all(v >= 0 for v in job["rates"].values())
    # Ranking really is by the requested metric, descending.
    flops = [j["rates"].get("flops_gf", 0.0) for j in second["jobs"]]
    assert flops == sorted(flops, reverse=True)


def test_live_top_engines_are_per_client(feed, state):
    """A new client never inherits another client's window: its first
    poll is always a baseline, whatever 't1' has seen."""
    state.live_top(SYSTEM, client="warm")
    assert state.live_top(SYSTEM, client="cold")["baseline"] is True


def test_live_top_validation(state):
    with pytest.raises(ServiceError, match="unknown system"):
        state.live_top("nope")
    with pytest.raises(ServiceError, match="unknown live metric"):
        state.live_top(SYSTEM, order_by="flops2")
    with pytest.raises(ServiceError, match="n must be"):
        state.live_top(SYSTEM, n=0)


def test_live_watch_bootstrap_and_changed(state):
    boot = state.live_watch(SYSTEM)
    assert boot["changed"] is False
    assert boot["t"] > 0
    # since earlier than the high-water: returns immediately, changed.
    hit = state.live_watch(SYSTEM, since=0.0, timeout=5.0)
    assert hit["changed"] is True and hit["t"] == boot["t"]
    # since at the high-water: blocks until timeout, not changed.
    miss = state.live_watch(SYSTEM, since=boot["t"], timeout=0.2)
    assert miss["changed"] is False
    assert get_registry().gauge("live.watchers").value == 0.0


@pytest.mark.parametrize("feed_name", ["feed", "wal_feed"],
                         ids=["default", "wal"])
def test_live_watch_wakes_on_external_commit(request, feed_name):
    """The batch's own commit wakes a blocked watch, whichever journal
    mode the file is in (a WAL commit leaves the main file alone)."""
    path, session = request.getfixturevalue(feed_name)
    assert not session.done, "fixture must leave batches to run"
    state = ServiceState(path)
    try:
        before = state.live_watch(SYSTEM)["t"]
        t = threading.Thread(target=session.run_batch)
        t.start()
        try:
            woke = state.live_watch(SYSTEM, since=before, timeout=20.0)
        finally:
            t.join()
    finally:
        state.close()
    assert woke["changed"] is True
    assert woke["t"] > before


def test_live_watch_reads_the_high_water_only_after_a_commit(
        state, monkeypatch):
    """Blocked with nothing committed, a watch looks at the commit
    version only: the high-water query runs once, up front (a fixed
    50 ms re-query ran it about six times in 0.3 s)."""
    calls = []
    real = Warehouse.live_high_water
    monkeypatch.setattr(
        Warehouse, "live_high_water",
        lambda self, system: calls.append(system) or real(self, system))
    since = state.live_watch(SYSTEM)["t"]
    del calls[:]
    assert state.live_watch(SYSTEM, since=since, timeout=0.3)[
        "changed"] is False
    assert len(calls) <= 1


# -- over HTTP ---------------------------------------------------------------


@pytest.fixture(scope="module")
def server(feed):
    state = ServiceState(feed[0])
    srv = make_server(state)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    state.close()
    thread.join(timeout=5)


def _get(server, path):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode())


def test_http_live_top_route(server):
    status, body = _get(
        server, f"/api/v1/live/top?system={SYSTEM}&n=2&client=http1")
    assert status == 200
    assert body["system"] == SYSTEM and body["n"] == 2


def test_http_live_watch_route(server):
    status, body = _get(
        server, f"/api/v1/live/watch?system={SYSTEM}&since=0&timeout=5")
    assert status == 200
    assert body["changed"] is True


def test_http_live_param_errors(server):
    with pytest.raises(urllib.error.HTTPError) as e:
        _get(server, f"/api/v1/live/top?system={SYSTEM}&n=zap")
    assert e.value.code == 400
    assert json.loads(e.value.read())["error"]["code"] == "bad_request"
    with pytest.raises(urllib.error.HTTPError) as e:
        _get(server, f"/api/v1/live/top?system={SYSTEM}&metric=nope")
    assert e.value.code == 404


def test_http_metrics_expose_live_and_age(server):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=30) as resp:
        text = resp.read().decode()
    assert "repro_service_snapshot_age_seconds" in text
    assert "repro_live_top_requests" in text
    assert "repro_live_watchers" in text
    assert "repro_service_requests_live" in text


def test_http_health_route_has_age(server):
    status, body = _get(server, "/api/v1/health")
    assert status == 200
    assert body["snapshot_age_seconds"] >= 0.0
