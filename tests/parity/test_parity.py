"""Every parity family against its committed digests: one synthesis
engine writes what two wrote, one planner leaves what three ingest
paths left, and one store serves what the file/directory pair of code
paths served.  The capture command is checked here too.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from urllib.parse import quote, urlencode

import pytest

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.federation import ClusterPlan, FederatedFacility
from repro.ingest.warehouse import Warehouse
from repro.service.protocol import ServiceError, error_body
from repro.service.server import make_server
from tests import parity
from tests.parity import ingest as ip
from tests.parity import store as sp
from tests.parity import synthesis as syn

EXPECTED = {family: parity.expected(family) for family in parity.FAMILIES}


def test_capture_keeps_the_commit_of_an_unchanged_family(
        tmp_path, monkeypatch):
    """A recapture records the commit only where the digests moved, and
    one that moves nothing rewrites the file byte for byte."""
    path = tmp_path / "digests.json"
    moving = iter(["a", "b", "b"])
    families = {"still": lambda tmp: {"row": "x"},
                "moving": lambda tmp: {"row": next(moving)}}
    for commit in ("c1", "c2", "c3"):
        before = path.read_bytes() if path.exists() else None
        monkeypatch.setattr(parity, "describe", lambda: commit)
        parity.capture(families, path)
    assert path.read_bytes() == before
    assert json.loads(path.read_text()) == {
        "still": {"commit": "c1", "digests": {"row": "x"}},
        "moving": {"commit": "c2", "digests": {"row": "b"}}}


def test_every_row_writes_what_the_parent_wrote(tmp_path):
    # The fleet row runs, with its counters, in test_synthesis.py.
    want = EXPECTED["synthesis"]
    outcomes = syn.outcomes(tmp_path, skip={syn.FLEET})
    assert len(outcomes) == 2 * len(syn.SYSTEMS) * len(syn.FORMATS) * 2 + 1 == 25
    assert set(outcomes) == set(want) - {syn.FLEET}
    differs = [label for label, digests in outcomes.items()
               if digests != want[label]]
    assert differs == []


def test_every_flow_leaves_what_the_parent_left(tmp_path):
    want = EXPECTED["ingest"]
    outcomes = ip.capture(tmp_path)
    assert len(outcomes) == len(ip.FORMATS) * len(ip.POLICIES) * len(ip.FLOWS) == 36
    assert set(outcomes) == set(want)
    differs = [label for label, digest in outcomes.items()
               if digest != want[label]]
    assert differs == []


@pytest.fixture(scope="module")
def fed_root(tmp_path_factory) -> str:
    root = str(tmp_path_factory.mktemp("store_parity") / "fed")
    sp.build_federation(root)
    return root


@pytest.fixture(scope="module")
def served(fed_root) -> dict[str, str]:
    return sp.served_bodies(fed_root)


def test_every_body_is_what_the_parent_served(served):
    """File and directory store, cold then cached, every endpoint and
    every error path: digest-equal to the parent's, body for body."""
    assert set(served) == set(EXPECTED["store"]["served"])
    assert len(served) == 2 * 2 * len(sp.requests("u", "a"))
    differs = [label for label, body in served.items()
               if parity.sha(body) != EXPECTED["store"]["served"][label]]
    assert differs == []


def test_a_routed_request_reads_alike_from_either_store(served):
    """For one system, what a shard file serves is what the directory
    holding it serves — everything but the store's own identity."""
    compared = 0
    for label, body in served.items():
        store, rest = label.split("/", 1)
        if store == "file" and sp.routed(label):
            assert body == served[f"directory/{rest}"], rest
            compared += 1
    assert compared == 2 * 23
    # ... and the identity fields are the only difference in health.
    file_health = json.loads(served["file/cold/00 health()"])
    dir_health = json.loads(served["directory/cold/00 health()"])
    assert set(file_health) == {"status", "warehouse", "systems",
                                "generation"}
    assert set(dir_health) == {"status", "federation", "clusters",
                               "systems", "generations"}
    assert dir_health["generations"][sp.SYSTEM] == file_health["generation"]


@pytest.mark.parametrize("store", sp.STORES)
def test_refresh_after_external_commits_serves_what_the_parent_did(
        tmp_path, store):
    """A 16-batch ``LiveSession`` commits from outside; after each
    batch ``refresh()``, the report computed then cached (text,
    ``generation``, ``cached``) and a ``live_top`` poll all match.  The
    session registers its system, then commits once per batch."""
    got = sp.live_probe(str(tmp_path / "live"), store)
    want = {k: v for k, v in EXPECTED["store"]["live"].items()
            if k.startswith(store + "/")}
    assert set(got) == set(want) and len(got) == 16 * 4
    assert [k for k, body in got.items() if parity.sha(body) != want[k]] == []
    last = json.loads(got[f"{store}/batch15/2 report"])
    assert last["cached"] is True and last["generation"] == 1 + 16


@pytest.mark.parametrize("store", sp.STORES)
def test_snapshot_age_restarts_on_an_adopted_commit(tmp_path, store):
    """Both kinds of store watch the same thing: the per-shard data
    version, which an external commit moves once ``refresh`` adopts it."""
    root = str(tmp_path / "fed")
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    FederatedFacility.plan(
        root, [ClusterPlan(cluster=cfg.name, config=cfg, seed=3)]).run()
    state = sp.open_store(store, root, cfg.name)
    try:
        state.snapshot_age_seconds()
        time.sleep(0.05)
        assert state.refresh()["changed"] is False
        aged = state.snapshot_age_seconds()
        assert aged >= 0.05

        writer = Warehouse(f"{root}/{cfg.name}.sqlite")
        Facility(dataclasses.replace(cfg, name="late"),
                 seed=4).run(warehouse=writer)
        writer.commit()
        writer.close()
        # Committed but not adopted: the served stamp has not moved.
        assert state.snapshot_age_seconds() >= aged
        assert state.refresh()["changed"] is True
        assert state.snapshot_age_seconds() < aged
    finally:
        state.close()


def _http(method: str, args: tuple, kwargs: dict) -> tuple[str, str] | None:
    """The HTTP request that asks what ``state.method(*args, **kwargs)``
    answers, or ``None`` where a URL cannot say it (a timeseries
    request without a series name)."""
    def url(path: str, **params) -> str:
        query = urlencode({k: v for k, v in params.items()
                           if v is not None})
        return f"/api/v1/{path}" + (f"?{query}" if query else "")

    def arg(i: int, name: str):
        return args[i] if len(args) > i else kwargs.get(name)

    if method in ("health", "systems"):
        return "GET", url(method)
    if method == "clusters":
        return "GET", url("clusters", cluster=kwargs.get("cluster"))
    if method == "refresh":
        return "POST", url("refresh")
    if method == "federation_overview":
        return "GET", url("federation/overview")
    if method == "report":
        return "GET", url(f"report/{quote(args[0])}", system=args[1],
                          target=arg(2, "target"))
    if method == "group_by":
        metrics = kwargs.get("metrics")
        return "GET", url("query/group_by", system=args[0],
                          dimension=args[1],
                          metrics=None if metrics is None
                          else ",".join(metrics))
    if method == "timeseries":
        if args[1] is None:
            return None
        return "GET", url(f"timeseries/{quote(args[1])}", system=args[0])
    if method == "live_top":
        return "GET", url("live/top", system=args[0],
                          metric=kwargs.get("order_by"))
    if method == "live_watch":
        return "GET", url("live/watch", system=arg(0, "system"),
                          since=arg(1, "since"), timeout=arg(2, "timeout"))
    raise AssertionError(f"no route for {method}")


def _recording(state, log: list) -> None:
    """Wrap every endpoint method of *state* so the body it answers (an
    error as the JSON the front end sends) lands in *log*."""
    for method in {m for m, _args, _kwargs in sp.requests("u", "a")}:
        def answer(*args, _call=getattr(state, method), **kwargs):
            try:
                body = _call(*args, **kwargs)
            except ServiceError as exc:
                log.append(error_body(exc.code, exc.message, exc.detail))
                raise
            log.append(body)
            return body
        setattr(state, method, answer)


@pytest.mark.parametrize("store", sp.STORES)
def test_served_bytes_are_json_dumps_of_the_state_body(fed_root, store):
    """Over HTTP, every request of the parity matrix, cold and then
    cached, returns exactly ``json.dumps(body) + "\n"`` of the body the
    state answered: the fragment join adds, drops and reorders
    nothing."""
    matrix = sp.requests(*sp.targets(fed_root))
    state = sp.open_store(store, fed_root)
    log: list = []
    _recording(state, log)
    server = make_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    compared = cached = 0
    try:
        for _pass in sp.PASSES:
            for method, args, kwargs in matrix:
                request = _http(method, args, kwargs)
                if request is None:
                    continue
                log.clear()
                conn.request(*request)
                raw = conn.getresponse().read()
                assert len(log) == 1, (method, args, kwargs)
                assert raw == (json.dumps(log[0]) + "\n").encode(), \
                    (method, args, kwargs)
                compared += 1
                cached += log[0].get("cached") is True
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        state.close()
        thread.join(timeout=5)
    assert compared == 2 * (len(matrix) - 4)
    assert cached > 0
