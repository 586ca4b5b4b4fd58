"""Served bytes are the contract: one store under the service must
answer exactly what the file/directory pair of code paths answered.

The request matrix, the dump format and the capture script live in
``store_parity.py``; ``store_parity_digests.json`` holds what the last
commit with two code paths (PR 22's parent) served.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.federation import ClusterPlan, FederatedFacility
from repro.ingest.warehouse import Warehouse
from tests.service import store_parity as sp

EXPECTED = json.loads(sp.DIGESTS.read_text())


@pytest.fixture(scope="module")
def served(tmp_path_factory) -> dict[str, str]:
    root = str(tmp_path_factory.mktemp("store_parity") / "fed")
    sp.build_federation(root)
    return sp.served_bodies(root)


def test_every_body_is_what_the_parent_served(served):
    """File and directory store, cold then cached, every endpoint and
    every error path: digest-equal to the parent's, body for body."""
    assert set(served) == set(EXPECTED["served"])
    assert len(served) == 2 * 2 * len(sp.requests("u", "a"))
    differs = [label for label, body in served.items()
               if sp.sha(body) != EXPECTED["served"][label]]
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
    want = {k: v for k, v in EXPECTED["live"].items()
            if k.startswith(store + "/")}
    assert set(got) == set(want) and len(got) == 16 * 4
    assert [k for k, body in got.items() if sp.sha(body) != want[k]] == []
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
