"""The service layer in federation mode.

Per-system requests must be indistinguishable from single-warehouse
serving (same classes, same snapshot, byte-identical report text);
``system=all`` scatter-gathers through the same L1/single-flight
stack; the two federation-only endpoints appear and the single-
warehouse server rejects them with ``not_federated``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import LONESTAR4, RANGER, Facility
from repro.federation import (
    ClusterPlan,
    FederatedFacility,
    FederatedWarehouse,
)
from repro.ingest.warehouse import Warehouse
from repro.service.protocol import ServiceError
from repro.service.server import make_server
from repro.service.state import ALL_SYSTEMS, ServiceState

from tests.service.conftest import Client


@pytest.fixture(scope="session")
def fed_root(tmp_path_factory) -> str:
    """A two-cluster on-disk federation (fast path)."""
    root = str(tmp_path_factory.mktemp("service_fed") / "fed")
    plans = [
        ClusterPlan(cluster="ranger",
                    config=RANGER.scaled(num_nodes=12, horizon_days=3,
                                         n_users=16), seed=7),
        ClusterPlan(cluster="lonestar4",
                    config=LONESTAR4.scaled(num_nodes=8, horizon_days=3,
                                            n_users=12), seed=21),
    ]
    FederatedFacility.plan(root, plans).run()
    return root


@pytest.fixture(scope="session")
def fed_state(fed_root):
    """A federated ServiceState shared by the read-only tests."""
    state = ServiceState(federation_root=fed_root)
    yield state
    state.close()


@pytest.fixture(scope="session")
def fed_server(fed_root):
    """A live HTTP server over the federation."""
    state = ServiceState(federation_root=fed_root)
    srv = make_server(state)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    state.close()
    thread.join(timeout=5)


@pytest.fixture(scope="session")
def fed_client(fed_server) -> Client:
    return Client(fed_server)


# -- construction ------------------------------------------------------------


def test_state_needs_exactly_one_source(fed_root, tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        ServiceState()
    with pytest.raises(ValueError, match="exactly one"):
        ServiceState(warehouse_path="x.sqlite", federation_root=fed_root)


# -- topology endpoints ------------------------------------------------------


def test_health_reports_federation(fed_state, fed_root):
    h = fed_state.health()
    assert h["status"] == "ok"
    assert h["federation"] == fed_root
    assert h["clusters"] == ["lonestar4", "ranger"]
    assert set(h["generations"]) == {"lonestar4", "ranger"}


def test_clusters_endpoint(fed_state):
    body = fed_state.clusters()
    assert set(body["clusters"]) == {"lonestar4", "ranger"}
    entry = body["clusters"]["ranger"]
    assert entry["systems"] == ["ranger"]
    assert entry["warehouse"].endswith("ranger.sqlite")
    assert isinstance(entry["generation"], int)

    only = fed_state.clusters(cluster="lonestar4")
    assert list(only["clusters"]) == ["lonestar4"]
    with pytest.raises(ServiceError) as exc:
        fed_state.clusters(cluster="frontera")
    assert exc.value.code == "unknown_cluster"


def test_clusters_rejected_in_single_mode(fed_root):
    state = ServiceState(
        warehouse_path=f"{fed_root}/ranger.sqlite")
    try:
        with pytest.raises(ServiceError) as exc:
            state.clusters()
        assert exc.value.code == "not_federated"
        with pytest.raises(ServiceError) as exc:
            state.federation_overview()
        assert exc.value.code == "not_federated"
        # system=all is not special outside a federation.
        with pytest.raises(ServiceError) as exc:
            state.group_by(ALL_SYSTEMS, "app")
        assert exc.value.code == "unknown_system"
    finally:
        state.close()


def test_systems_spans_every_shard(fed_state):
    body = fed_state.systems()
    assert set(body["systems"]) == {"lonestar4", "ranger"}


# -- routed single-system requests ------------------------------------------


def test_routed_report_is_byte_identical_to_single_mode(fed_state,
                                                        fed_root):
    """A shard-routed report == the same report served from the shard
    file by a plain single-warehouse server."""
    single = ServiceState(warehouse_path=f"{fed_root}/ranger.sqlite")
    try:
        for kind, target in [("support", None), ("admin", None),
                             ("funding", None)]:
            fed = fed_state.report(kind, "ranger", target)
            solo = single.report(kind, "ranger", target)
            assert fed["report"] == solo["report"]
    finally:
        single.close()


def test_routed_group_by_matches_single_mode(fed_state, fed_root):
    single = ServiceState(warehouse_path=f"{fed_root}/lonestar4.sqlite")
    try:
        fed = fed_state.group_by("lonestar4", "app,exit_status")
        solo = single.group_by("lonestar4", "app,exit_status")
        assert fed["groups"] == solo["groups"]
    finally:
        single.close()


def test_cluster_dim_rejected_for_single_system(fed_state):
    with pytest.raises(ServiceError) as exc:
        fed_state.group_by("ranger", "cluster")
    assert exc.value.code == "unknown_dimension"


# -- scatter-gather ----------------------------------------------------------


def test_federated_group_by_matches_direct_scatter(fed_state, fed_root):
    body = fed_state.group_by(ALL_SYSTEMS, "cluster,app")
    assert body["system"] == ALL_SYSTEMS
    assert body["clusters"] == ["lonestar4", "ranger"]
    fed = FederatedWarehouse.open(fed_root)
    try:
        direct = fed.group_by(("cluster", "app"))
    finally:
        fed.close()
    assert [tuple(g["keys"]) for g in body["groups"]] == \
        [g.keys for g in direct]
    for got, want in zip(body["groups"], direct):
        assert got["job_count"] == want.job_count
        assert got["node_hours"] == pytest.approx(want.node_hours)


def test_federated_group_by_is_cached_and_coalesced(fed_state):
    cold = fed_state.group_by(ALL_SYSTEMS, "app", tenant="cachetest")
    warm = fed_state.group_by(ALL_SYSTEMS, "app", tenant="cachetest")
    assert cold["cached"] is False
    assert warm["cached"] is True
    assert warm["groups"] == cold["groups"]


def test_federated_group_by_validation(fed_state):
    with pytest.raises(ServiceError) as exc:
        fed_state.group_by(ALL_SYSTEMS, None)
    assert exc.value.code == "missing_param"
    with pytest.raises(ServiceError) as exc:
        fed_state.group_by(ALL_SYSTEMS, "rack")
    assert exc.value.code == "unknown_dimension"
    with pytest.raises(ServiceError) as exc:
        fed_state.group_by(ALL_SYSTEMS, "app", metrics=("bogus",))
    assert exc.value.code == "unknown_metric"


def test_federated_timeseries(fed_state, fed_root):
    body = fed_state.timeseries(ALL_SYSTEMS, "flops_tf")
    fed = FederatedWarehouse.open(fed_root)
    try:
        t, v = fed.timeseries("flops_tf")
    finally:
        fed.close()
    assert body["times"] == t.tolist()
    assert body["values"] == pytest.approx(v.tolist())
    with pytest.raises(ServiceError) as exc:
        fed_state.timeseries(ALL_SYSTEMS, "nope")
    assert exc.value.code == "unknown_series"


def test_federation_overview_endpoint(fed_state):
    body = fed_state.federation_overview()
    assert set(body["clusters"]) == {"lonestar4", "ranger"}
    assert body["total"]["jobs"] == sum(
        c["jobs"] for c in body["clusters"].values())
    assert "FEDERATION OVERVIEW" in body["report"]
    warm = fed_state.federation_overview()
    assert warm["cached"] is True


def test_refresh_adopts_external_shard_writes(tmp_path):
    """An external commit into ONE shard flips changed=True and the
    new system becomes servable, in ``system=all`` too — without
    restarting the server."""
    from repro.config import TEST_SYSTEM

    root = str(tmp_path / "fed")
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    FederatedFacility.plan(
        root, [ClusterPlan(cluster=cfg.name, config=cfg, seed=3)]).run()
    state = ServiceState(federation_root=root)
    try:
        assert state.refresh()["changed"] is False
        alone = state.timeseries(ALL_SYSTEMS, "active_nodes")["mean"]
        # Another process appends a second system to the shard file.
        import dataclasses

        extra = dataclasses.replace(cfg, name="late")
        wh = Warehouse(f"{root}/{cfg.name}.sqlite")
        Facility(extra, seed=4).run(warehouse=wh)
        wh.commit()
        wh.close()
        out = state.refresh()
        assert out["changed"] is True
        assert "late" in state.store.all_systems()
        assert state.timeseries(ALL_SYSTEMS, "active_nodes")["mean"] > alone
        assert state.report("support", "late")["report"]
    finally:
        state.close()


def test_federated_series_names_are_pinned_until_refresh(tmp_path):
    """``system=all`` checks the series name against the pinned shard
    snapshots: a name another process writes into a shard is
    ``unknown_series`` until ``refresh``, then merged and served."""
    from repro.config import TEST_SYSTEM

    root = str(tmp_path / "fed")
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    FederatedFacility.plan(
        root, [ClusterPlan(cluster=cfg.name, config=cfg, seed=3)]).run()
    state = ServiceState(federation_root=root)
    try:
        known = state.timeseries(ALL_SYSTEMS, "active_nodes")
        wh = Warehouse(f"{root}/{cfg.name}.sqlite")
        try:
            t, v = wh.series(cfg.name, "active_nodes")
            wh.append_series(cfg.name, "late_series", t, v + 1.0)
            wh.commit()
        finally:
            wh.close()
        with pytest.raises(ServiceError) as exc:
            state.timeseries(ALL_SYSTEMS, "late_series")
        assert exc.value.code == "unknown_series"
        assert state.refresh()["changed"] is True
        body = state.timeseries(ALL_SYSTEMS, "late_series")
        assert body["times"] == known["times"]
        assert body["values"] == (v + 1.0).tolist()
    finally:
        state.close()


# -- HTTP front end ----------------------------------------------------------


def test_http_clusters_route(fed_client):
    status, body = fed_client.get("/api/v1/clusters")
    assert status == 200
    assert set(body["clusters"]) == {"lonestar4", "ranger"}
    status, body = fed_client.get("/api/v1/clusters?cluster=ghost")
    assert status == 404
    assert body["error"]["code"] == "unknown_cluster"


def test_http_federated_group_by(fed_client):
    status, body = fed_client.get(
        "/api/v1/query/group_by?system=all&dimension=cluster")
    assert status == 200
    assert {tuple(g["keys"]) for g in body["groups"]} == \
        {("lonestar4",), ("ranger",)}


def test_http_federation_overview(fed_client):
    status, body = fed_client.get("/api/v1/federation/overview")
    assert status == 200
    assert "FEDERATION OVERVIEW" in body["report"]
    status, _ = fed_client.get("/api/v1/federation/nope")
    assert status == 404


def test_http_federated_timeseries(fed_client):
    status, body = fed_client.get(
        "/api/v1/timeseries/cpu_user_frac?system=all")
    assert status == 200
    assert len(body["times"]) == len(body["values"]) > 0
    assert 0.0 <= body["mean"] <= 1.0


def test_http_routed_report(fed_client):
    status, body = fed_client.get("/api/v1/report/support?system=ranger")
    assert status == 200
    assert "SUPPORT STAFF REPORT" in body["report"]


def test_http_metrics_exports_federation_counters(fed_client):
    fed_client.get("/api/v1/query/group_by?system=all&dimension=app")
    status, text = fed_client.get("/metrics")
    assert status == 200
    assert "federation_scatter_group_by" in text


def test_json_round_trip_of_federated_payload(fed_state):
    """Every federated endpoint payload is JSON-serializable."""
    for payload in (
        fed_state.health(),
        fed_state.clusters(),
        fed_state.group_by(ALL_SYSTEMS, "cluster"),
        fed_state.timeseries(ALL_SYSTEMS, "flops_tf"),
        fed_state.federation_overview(),
    ):
        assert json.loads(json.dumps(payload)) is not None
