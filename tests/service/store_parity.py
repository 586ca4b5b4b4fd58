"""What the service serves, as data: the request matrix behind
``test_store_parity.py`` and the script that captured its digests.

The same requests go to a ``ServiceState`` over one shard *file* and
over the federation *directory* that holds it, each cold and then
cached.  Every body (a ``ServiceError`` as the JSON the HTTP front end
would send) is dumped in key order with the temp directory replaced by
``<root>`` and ``snapshot_age_seconds`` (a clock reading) dropped.  The
committed ``store_parity_digests.json`` holds one sha256 per body as
served by the commit *before* the one-store refactor (PR 22's parent,
08cb562).  Its ``live`` digests were captured again when a live
micro-batch became one commit: those bodies differ from the earlier
ones in ``generation`` alone, which now moves once per batch instead of
twice.  Rerun the capture against any commit with::

    PYTHONPATH=<checkout>/src:. python tests/service/store_parity.py \
        > tests/service/store_parity_digests.json

Digests, not bodies, are committed: the bodies are ~1 MB of report
text and float arrays that say nothing a reviewer can read.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro import LONESTAR4, RANGER
from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.federation import ClusterPlan, FederatedFacility
from repro.federation.layout import FederationLayout, ShardSpec
from repro.ingest.warehouse import Warehouse
from repro.live.runner import LiveSession
from repro.service.protocol import ServiceError, error_body
from repro.service.state import ALL_SYSTEMS, ServiceState

DIGESTS = Path(__file__).with_name("store_parity_digests.json")

#: The system both stores are asked about: the file store serves its
#: shard, the directory store routes to it.
SYSTEM = "ranger"
STORES = ("file", "directory")
PASSES = ("cold", "cached")

#: A 16-batch day for the live probe (86 400 // 5 760 + 1 segments).
LIVE_CFG = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=6)
LIVE_SEED = 7
LIVE_SEGMENT_SECONDS = 5760


def build_federation(root: str) -> None:
    """The two-cluster on-disk federation (fast path) under test."""
    FederatedFacility.plan(root, [
        ClusterPlan("ranger", RANGER.scaled(12, 3, n_users=16), 7),
        ClusterPlan("lonestar4", LONESTAR4.scaled(8, 3, n_users=12), 21),
    ]).run()


def open_store(store: str, root: str, cluster: str = SYSTEM) -> ServiceState:
    """A fresh state over one shard file or over the whole directory."""
    if store == "file":
        return ServiceState(warehouse_path=f"{root}/{cluster}.sqlite")
    return ServiceState(federation_root=root)


def ask(state: ServiceState, method: str, *args, **kwargs) -> dict:
    """One request's body, errors shaped as the HTTP front end does."""
    try:
        body = getattr(state, method)(*args, **kwargs)
    except ServiceError as exc:
        return error_body(exc.code, exc.message, exc.detail)
    except Exception as exc:
        return error_body("internal", f"{type(exc).__name__}: {exc}")
    body.pop("snapshot_age_seconds", None)
    return body


def dump(body: dict, root: str) -> str:
    return json.dumps(body, sort_keys=True).replace(root, "<root>")


def requests(user: str, app: str) -> list[tuple[str, tuple, dict]]:
    """Every endpoint and every error path: (method, args, kwargs)."""
    systems = (SYSTEM, ALL_SYSTEMS, None, "nope")
    out: list[tuple[str, tuple, dict]] = [
        ("health", (), {}),
        ("systems", (), {}),
        ("clusters", (), {}),
        ("clusters", (), {"cluster": SYSTEM}),
        ("clusters", (), {"cluster": "ghost"}),
    ]
    out += [("report", (kind, SYSTEM), {})
            for kind in ("support", "admin", "manager", "funding")]
    out += [
        ("report", ("user", SYSTEM, user), {}),
        ("report", ("developer", SYSTEM, app), {}),
        ("report", ("user", SYSTEM), {}),              # missing_target
        ("report", ("developer", SYSTEM, "no-such-app"), {}),
        ("report", ("support", SYSTEM, "extra"), {}),  # unexpected_target
        ("report", ("nope", SYSTEM), {}),              # unknown_realm
        ("report", ("support", "nope"), {}),           # unknown_system
        ("report", ("support", None), {}),             # missing_param
    ]
    out += [("group_by", (system, dimension), {})
            for system in systems
            for dimension in ("app", "cluster,app", None, "rack")]
    out += [
        ("group_by", (SYSTEM, "app"), {"metrics": ("bogus",)}),
        ("group_by", (ALL_SYSTEMS, "app"), {"metrics": ("bogus",)}),
        ("group_by", (SYSTEM, "queue"), {"metrics": ("cpu_idle",)}),
        ("group_by", (ALL_SYSTEMS, "cluster"), {"metrics": ("cpu_idle",)}),
    ]
    out += [("timeseries", (system, series), {})
            for system in systems
            for series in ("flops_tf", None, "nope")]
    out += [
        ("federation_overview", (), {}),
        ("live_top", (SYSTEM,), {}),
        ("live_top", ("nope",), {}),
        ("live_top", (SYSTEM,), {"order_by": "flops2"}),
        ("live_watch", (SYSTEM, None, 0.0), {}),
        ("live_watch", (SYSTEM, 1e18, 0.0), {}),
        ("live_watch", (None,), {}),
        ("refresh", (), {}),
    ]
    return out


def targets(root: str) -> tuple[str, str]:
    """The ``(user, app)`` the matrix's targeted reports ask about."""
    probe = open_store("file", root)
    try:
        user, app = (probe.group_by(SYSTEM, dim, ())["groups"][0]["key"]
                     for dim in ("user", "app"))
    finally:
        probe.close()
    return user, app


def served_bodies(root: str) -> dict[str, str]:
    """``"store/pass/NN method(args)" -> dumped body`` over the matrix
    (the federation at *root* must exist)."""
    user, app = targets(root)
    bodies: dict[str, str] = {}
    for store in STORES:
        state = open_store(store, root)
        try:
            for which in PASSES:
                for n, (method, args, kwargs) in enumerate(
                        requests(user, app)):
                    said = ", ".join([*map(repr, args), *(
                        f"{k}={v!r}" for k, v in kwargs.items())])
                    bodies[f"{store}/{which}/{n:02d} {method}({said})"] = \
                        dump(ask(state, method, *args, **kwargs), root)
        finally:
            state.close()
    return bodies


def routed(label: str) -> bool:
    """Is *label* a request about :data:`SYSTEM`, answered by its shard
    (so the two stores must answer it alike)?  ``clusters`` exists for
    a directory only; a request that names no system, another system
    or ``all`` never reaches a shard."""
    method = label.split(" ", 1)[1]
    return repr(SYSTEM) in method and not method.startswith("clusters(")


def live_probe(root: str, store: str) -> dict[str, str]:
    """Serve a warehouse while a ``LiveSession`` commits into it from
    outside: after each of the 16 batches ``refresh()``, the support
    report twice (computed, then cached) and a ``live_top`` poll."""
    cfg = LIVE_CFG
    layout = FederationLayout.create(root, [ShardSpec(
        cluster=cfg.name, system=cfg.name, seed=LIVE_SEED,
        nodes=cfg.num_nodes, days=1.0, users=cfg.n_users)])
    writer = Warehouse(layout.warehouse_path(cfg.name))
    session = LiveSession(Facility(cfg, seed=LIVE_SEED),
                          layout.archive_path(cfg.name), warehouse=writer,
                          segment_seconds=LIVE_SEGMENT_SECONDS)
    state = open_store(store, root, cfg.name)
    out: dict[str, str] = {}
    try:
        batch = 0
        while session.run_batch() is not None:
            writer.commit()
            for step, (method, args) in enumerate([
                    ("refresh", ()),
                    ("report", ("support", cfg.name)),
                    ("report", ("support", cfg.name)),
                    ("live_top", (cfg.name,))]):
                out[f"{store}/batch{batch:02d}/{step} {method}"] = \
                    dump(ask(state, method, *args), root)
            batch += 1
        assert batch == 16, batch
    finally:
        state.close()
        writer.close()
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture() -> dict[str, dict[str, str]]:
    """Every digest the parity test compares against."""
    with tempfile.TemporaryDirectory() as tmp:
        root = f"{tmp}/fed"
        build_federation(root)
        served = served_bodies(root)
        live: dict[str, str] = {}
        for store in STORES:
            live.update(live_probe(f"{tmp}/live_{store}", store))
    return {"served": {k: sha(v) for k, v in served.items()},
            "live": {k: sha(v) for k, v in live.items()}}


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
