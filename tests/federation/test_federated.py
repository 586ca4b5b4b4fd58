"""Scatter-gather correctness of :class:`FederatedWarehouse`.

The headline property — **shard-partition invariance** — is tested as
the ISSUE specifies it: a federated query over N shards must equal the
same query over one warehouse containing the union of the same
host-days, with the cluster partition collapsed.  The fixtures build
both arrangements from identical simulation streams, so any
disagreement is a gather bug, not data drift.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TEST_SYSTEM
from repro.errors import ErrorPolicy
from repro.facility import Facility
from repro.federation import (
    ClusterPlan,
    FederatedFacility,
    FederatedWarehouse,
    FederationLayout,
    ShardSpec,
)
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.summarize import SUMMARY_METRICS
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.service.state import ServiceState
from repro.tacc_stats.archive import HostArchive
from repro.testing.faults import corrupt_archive
from repro.xdmod.query import DIMENSIONS


def _assert_groups_equal(left, right):
    """Exact structural equality, approximate float equality."""
    assert [g.keys for g in left] == [g.keys for g in right]
    for a, b in zip(left, right):
        assert a.job_count == b.job_count
        assert a.node_hours == pytest.approx(b.node_hours, rel=1e-9)
        assert set(a.weighted_means) == set(b.weighted_means)
        for m, v in a.weighted_means.items():
            assert v == pytest.approx(b.weighted_means[m], rel=1e-9), m


# -- topology ----------------------------------------------------------------


def test_topology(federated):
    assert federated.clusters == ["lonestar4", "ranger", "stampede"]
    assert federated.all_systems() == ["lonestar4", "ranger", "stampede"]
    assert federated.shard_of("stampede") == "stampede"
    with pytest.raises(KeyError, match="unknown system"):
        federated.shard_of("frontera")
    with pytest.raises(KeyError, match="unknown cluster"):
        federated.shard("frontera")


def test_empty_federation_rejected():
    with pytest.raises(ValueError, match="at least one shard"):
        FederatedWarehouse({})


def test_duplicate_system_across_shards_rejected():
    wh1, wh2 = Warehouse(), Warehouse()
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    Facility(cfg, seed=1).run(warehouse=wh1)
    Facility(cfg, seed=1).run(warehouse=wh2)
    fed = FederatedWarehouse({"a": wh1, "b": wh2})
    with pytest.raises(ValueError, match="present in shards"):
        fed.shard_of(cfg.name)
    wh1.close()
    wh2.close()


def test_single_system_query_is_the_classic_path(federated,
                                                 shard_warehouses):
    """Routing to a shard gives the very same results as querying the
    shard warehouse directly — same class, same snapshot machinery."""
    from repro.xdmod.query import JobQuery

    routed = federated.query("ranger")
    direct = JobQuery(shard_warehouses["ranger"], "ranger")
    assert len(routed) == len(direct)
    assert routed.node_hours == direct.node_hours
    _assert_groups_equal(routed.group_by("app"), direct.group_by("app"))


# -- shard-partition invariance (the ISSUE property test) --------------------


@pytest.mark.parametrize("dims", [
    "app", "user", "exit_status",
    ("app", "exit_status"), ("science_field", "queue"),
    "cluster", ("cluster", "app"), ("app", "cluster"),
])
def test_partition_invariance(federated, union_federated, dims):
    """Federated group_by over 3 shards == the same query over one
    warehouse holding the union of the same host-days."""
    _assert_groups_equal(federated.group_by(dims),
                         union_federated.group_by(dims))


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.sampled_from(DIMENSIONS + ("cluster",)),
                  min_size=1, max_size=3, unique=True),
    metrics=st.lists(st.sampled_from(SUMMARY_METRICS),
                     min_size=1, max_size=4, unique=True),
)
def test_partition_invariance_over_query_space(federated, union_federated,
                                               dims, metrics):
    """The invariance holds across the whole (dims x metrics) space."""
    _assert_groups_equal(
        federated.group_by(tuple(dims), metrics=tuple(metrics)),
        union_federated.group_by(tuple(dims), metrics=tuple(metrics)))


def test_group_by_matches_numpy_oracle(federated):
    """Merged means recomputed a different way: flat sums over the
    per-shard partials."""
    per_system = {
        s: federated.query(s).group_by("app")
        for s in federated.all_systems()
    }
    merged = {g.keys: g for g in federated.group_by("app")}
    apps = {g.keys for groups in per_system.values() for g in groups}
    assert set(merged) == apps
    for keys in apps:
        parts = [g for groups in per_system.values() for g in groups
                 if g.keys == keys]
        hours = np.array([g.node_hours for g in parts])
        means = np.array([g.weighted_means["cpu_idle"] for g in parts])
        assert merged[keys].job_count == sum(g.job_count for g in parts)
        assert merged[keys].node_hours == pytest.approx(hours.sum())
        assert merged[keys].weighted_means["cpu_idle"] == pytest.approx(
            float((means * hours).sum() / hours.sum()))


def test_cluster_dimension_tags_not_aggregates(federated):
    """cluster,app groups are exactly the per-shard app groups tagged."""
    tagged = federated.group_by(("cluster", "app"))
    for system in federated.all_systems():
        own = {g.keys: g for g in federated.query(system).group_by("app")}
        mine = [g for g in tagged if g.keys[0] == system]
        assert {g.keys[1:] for g in mine} == set(own)
        for g in mine:
            assert g.job_count == own[g.keys[1:]].job_count
            assert g.node_hours == pytest.approx(
                own[g.keys[1:]].node_hours)


def test_cluster_dim_validation(federated):
    with pytest.raises(ValueError, match="duplicate 'cluster'"):
        federated.group_by(("cluster", "cluster"))
    with pytest.raises(ValueError, match="unknown dimension"):
        federated.group_by("rack")
    with pytest.raises(ValueError, match="at least one dimension"):
        federated.group_by(())


def test_timeseries_partition_invariance(federated, union_federated):
    for series in federated.series_metrics():
        ft, fv = federated.timeseries(series)
        ut, uv = union_federated.timeseries(series)
        assert np.array_equal(ft, ut), series
        assert np.allclose(fv, uv, rtol=1e-9), series


def test_timeseries_sum_mode_adds_clusters(federated):
    """Facility-wide FLOPS is the sum of the member clusters'."""
    from repro.xdmod.snapshot import WarehouseSnapshot

    grid, total = federated.timeseries("flops_tf")
    oracle = np.zeros_like(total)
    for s in federated.all_systems():
        snap = WarehouseSnapshot.for_warehouse(
            federated.shards[federated.shard_of(s)])
        t, v = snap.series(s, "flops_tf")
        oracle[np.searchsorted(grid, t)] += v
    assert np.allclose(total, oracle, rtol=1e-9)


def test_timeseries_unknown_series(federated):
    with pytest.raises(KeyError, match="no series"):
        federated.timeseries("nope")


def test_overview_totals_match_collapsed_group_by(federated,
                                                  union_federated):
    fo, uo = federated.overview(), union_federated.overview()
    assert set(fo["clusters"]) == set(uo["clusters"])
    assert fo["total"]["jobs"] == uo["total"]["jobs"]
    assert fo["total"]["node_hours"] == pytest.approx(
        uo["total"]["node_hours"])
    assert fo["total"]["efficiency"] == pytest.approx(
        uo["total"]["efficiency"])
    text = federated.render_overview()
    assert "FEDERATION OVERVIEW — 3 clusters" in text
    assert "TOTAL" in text


# -- degraded shard ----------------------------------------------------------


def _file_corpus(tmp_path, name, seed):
    """Archive + accounting + lariat for one renamed TEST_SYSTEM."""
    cfg = dataclasses.replace(
        TEST_SYSTEM.scaled(num_nodes=5, horizon_days=1, n_users=6),
        name=name)
    archive_dir = str(tmp_path / f"archive_{name}")
    run = Facility(cfg, seed=seed).run_with_files(archive_dir)
    import io

    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    return cfg, archive_dir, buf.getvalue(), lariat


def _ingest_into(wh, corpus):
    cfg, archive_dir, accounting, lariat = corpus
    IngestPipeline(wh).ingest(
        cfg, accounting_text=accounting,
        archive=HostArchive(archive_dir), lariat_records=lariat,
        error_policy=ErrorPolicy.QUARANTINE.value)


def test_partition_invariance_with_degraded_shard(tmp_path):
    """The property holds when one shard ingested through quarantine:
    both layouts consume the same corrupted archives, so the federated
    answer must still equal the collapsed-union answer."""
    alpha = _file_corpus(tmp_path, "alpha", seed=5)
    beta = _file_corpus(tmp_path, "beta", seed=6)
    victim = HostArchive(alpha[1]).hostnames()[0]
    corrupt_archive(alpha[1], {victim: "bit_flip"}, seed=77)

    wh_a, wh_b, wh_union = Warehouse(), Warehouse(), Warehouse()
    try:
        _ingest_into(wh_a, alpha)
        _ingest_into(wh_b, beta)
        _ingest_into(wh_union, alpha)
        _ingest_into(wh_union, beta)

        fed = FederatedWarehouse({"alpha": wh_a, "beta": wh_b})
        union = FederatedWarehouse({"union": wh_union})
        # The degraded shard really lost something relative to a clean
        # ingest, and still answers.
        health = wh_a.ingest_health("alpha")
        assert health is not None
        for dims in ("app", "cluster", ("cluster", "exit_status")):
            _assert_groups_equal(fed.group_by(dims),
                                 union.group_by(dims))
        assert fed.overview()["total"]["jobs"] == \
            union.overview()["total"]["jobs"]
    finally:
        wh_a.close()
        wh_b.close()
        wh_union.close()


# -- layout + federated facility --------------------------------------------


def test_layout_round_trip(tmp_path):
    root = tmp_path / "fed"
    shards = [
        ShardSpec(cluster="a", system="ranger", seed=1, nodes=8,
                  days=1.0, users=4),
        ShardSpec(cluster="b", system="lonestar4", seed=2, nodes=8,
                  days=1.0, users=4),
    ]
    layout = FederationLayout.create(root, shards)
    reopened = FederationLayout.open(root)
    assert reopened.clusters == ["a", "b"]
    assert reopened.shards["a"] == shards[0]
    assert reopened.warehouse_path("a").endswith("a.sqlite")
    assert "archives" in reopened.archive_path("b")
    with pytest.raises(KeyError):
        reopened.warehouse_path("c")


def test_layout_rejects_bad_names(tmp_path):
    with pytest.raises(ValueError, match="bad cluster name"):
        ShardSpec(cluster="a/b", system="ranger", seed=1, nodes=8,
                  days=1.0, users=4)
    spec = ShardSpec(cluster="a", system="ranger", seed=1, nodes=8,
                     days=1.0, users=4)
    with pytest.raises(ValueError, match="duplicate"):
        FederationLayout(tmp_path, [spec, spec])


def test_layout_open_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a federation"):
        FederationLayout.open(tmp_path)


def test_federated_facility_runs_aliased_shards(tmp_path):
    """Two shards of the same archetype draw independent workloads
    (the rename re-keys the RNG streams) and land in separate files."""
    cfg = TEST_SYSTEM.scaled(num_nodes=5, horizon_days=1, n_users=6)
    plans = [
        ClusterPlan(cluster="test-a", config=cfg, seed=9),
        ClusterPlan(cluster="test-b", config=cfg, seed=9),
    ]
    fac = FederatedFacility.plan(str(tmp_path / "fed"), plans)
    results = fac.run()
    assert set(results) == {"test-a", "test-b"}
    fed = FederatedWarehouse.open(tmp_path / "fed")
    try:
        assert fed.all_systems() == ["test-a", "test-b"]
        a = fed.query("test-a")
        b = fed.query("test-b")
        # Same seed, different stream keys: genuinely different data.
        assert a.node_hours != b.node_hours
    finally:
        fed.close()


def test_federated_facility_append_needs_archive(tmp_path):
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    fac = FederatedFacility.plan(
        str(tmp_path / "fed"),
        [ClusterPlan(cluster=cfg.name, config=cfg, seed=1)])
    with pytest.raises(ValueError, match="append=True needs"):
        fac.run(append=True)


def test_federated_facility_plan_name_mismatch(tmp_path):
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    layout = FederationLayout.create(
        tmp_path / "fed",
        [ShardSpec(cluster="x", system=cfg.name, seed=1, nodes=4,
                   days=1.0, users=4)])
    with pytest.raises(ValueError, match="do not match"):
        FederatedFacility(layout, [ClusterPlan(cluster="y", config=cfg,
                                               seed=1)])


def test_open_missing_shard(tmp_path):
    """A manifest whose shard file never materialized: hard error by
    default, skipped with missing_ok (degraded federation)."""
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    plans = [ClusterPlan(cluster="ok", config=cfg, seed=3)]
    FederatedFacility.plan(str(tmp_path / "fed"), plans).run()
    layout = FederationLayout.open(tmp_path / "fed")
    layout.shards["ghost"] = ShardSpec(
        cluster="ghost", system="ghost", seed=1, nodes=4, days=1.0,
        users=4)
    layout.save()
    with pytest.raises(FileNotFoundError, match="shard warehouse"):
        FederatedWarehouse.open(tmp_path / "fed")
    fed = FederatedWarehouse.open(tmp_path / "fed", missing_ok=True)
    try:
        assert fed.clusters == ["ok"]
    finally:
        fed.close()


def _open_files_under(root) -> list[str]:
    """Paths under *root* that this process holds a descriptor on."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            held.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            continue  # the listing's own descriptor
    return sorted(p for p in held if p.startswith(str(root)))


def test_failed_open_closes_the_shards_it_opened(tmp_path):
    """A shard that is missing, or is not a warehouse, fails the open —
    and the shards opened before it must not stay open behind the
    exception (checked while the traceback still holds the frames)."""
    root = tmp_path / "fed"
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=4)
    FederatedFacility.plan(
        str(root), [ClusterPlan(cluster="ok", config=cfg, seed=3)]).run()
    layout = FederationLayout.open(root)
    layout.shards["zz-late"] = ShardSpec(     # sorts after "ok"
        cluster="zz-late", system="late", seed=1, nodes=4, days=1.0,
        users=4)
    layout.save()
    assert _open_files_under(root) == []

    for opener in (lambda: FederatedWarehouse.open(root),
                   lambda: ServiceState(federation_root=str(root))):
        with pytest.raises(FileNotFoundError, match="shard warehouse") \
                as failed:
            opener()
        assert _open_files_under(root) == [], failed

    # Present but unreadable as a warehouse (an older schema).
    old = Warehouse(str(root / "zz-late.sqlite"))
    old.connection.execute(
        "UPDATE meta SET value='0' WHERE key='schema_version'")
    old.connection.commit()
    old.close()
    with pytest.raises(RuntimeError, match="schema version") as failed:
        FederatedWarehouse.open(root)
    assert _open_files_under(root) == [], failed
