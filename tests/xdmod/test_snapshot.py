"""Tests for the columnar warehouse snapshot (frames + encoding)."""

import numpy as np
import pytest

from repro.ingest.summarize import SUMMARY_METRICS
from repro.xdmod.snapshot import DIMENSIONS, WarehouseSnapshot


@pytest.fixture
def snapshot(fast_run):
    return WarehouseSnapshot.for_warehouse(fast_run.warehouse)


def test_frame_matches_job_table(fast_run, snapshot):
    """The bulk-loaded frame must agree column-for-column with the
    per-call job_table path over the fully summarized rows."""
    table = fast_run.warehouse.job_table("ranger")
    frame = snapshot.frame("ranger")
    mask = frame.complete_mask(SUMMARY_METRICS)
    assert mask.sum() == len(table["jobid"])
    assert (frame.jobid[mask] == table["jobid"]).all()
    for dim in DIMENSIONS:
        assert (frame.decode(dim)[mask] == table[dim]).all()
    for col in ("nodes", "node_hours", "start_time") + SUMMARY_METRICS:
        np.testing.assert_allclose(frame.numeric[col][mask], table[col])


def test_dictionary_encoding_roundtrip(snapshot):
    frame = snapshot.frame("ranger")
    for dim in DIMENSIONS:
        codes = frame.codes[dim]
        assert codes.dtype == np.int32
        uniq = frame.uniques[dim]
        assert list(uniq) == sorted(set(uniq))
        # decode(codes) reproduces the raw strings; code_of inverts it.
        decoded = frame.decode(dim)
        assert (uniq[codes] == decoded).all()
        for c, v in enumerate(uniq):
            assert frame.code_of(dim, v) == c
        assert frame.code_of(dim, "no-such-value") == -1


def test_snapshot_reused_until_data_version_moves(fast_run):
    wh = fast_run.warehouse
    s1 = WarehouseSnapshot.for_warehouse(wh)
    assert WarehouseSnapshot.for_warehouse(wh) is s1
    assert s1.stamp == wh.data_version
    WarehouseSnapshot.invalidate(wh)
    s2 = WarehouseSnapshot.for_warehouse(wh)
    assert s2 is not s1
    # Same data version: frames describe the same rows.
    assert s2.frame("ranger").n_rows == s1.frame("ranger").n_rows


def test_snapshot_arrays_are_frozen(snapshot):
    frame = snapshot.frame("ranger")
    with pytest.raises(ValueError):
        frame.numeric["node_hours"][0] = 0.0
    with pytest.raises(ValueError):
        frame.codes["user"][0] = 0
    t, v = snapshot.series("ranger", "flops_tf")
    with pytest.raises(ValueError):
        v[0] = -1.0


def test_series_loaded_once_and_shared(fast_run, snapshot):
    t1, v1 = snapshot.series("ranger", "flops_tf")
    t2, v2 = snapshot.series("ranger", "flops_tf")
    assert t1 is t2 and v1 is v2
    t3, v3 = fast_run.warehouse.series("ranger", "flops_tf")
    np.testing.assert_allclose(v1, v3)


def test_covering_index_present(fast_run):
    names = [r[0] for r in fast_run.warehouse.connection.execute(
        "SELECT name FROM sqlite_master WHERE type='index'")]
    assert "idx_metrics_covering" in names


def test_covering_index_added_to_legacy_file(tmp_path):
    """A pre-engine warehouse file gains the index on reopen."""
    from repro.ingest.warehouse import Warehouse
    path = str(tmp_path / "legacy.sqlite")
    w = Warehouse(path)
    w.add_system("t", 4, 16, 32.0, 0.5, 600.0)
    w.commit()
    w.connection.execute("DROP INDEX idx_metrics_covering")
    w.connection.commit()
    w.close()
    w2 = Warehouse(path)
    names = [r[0] for r in w2.connection.execute(
        "SELECT name FROM sqlite_master WHERE type='index'")]
    assert "idx_metrics_covering" in names
    w2.close()


def test_closed_warehouses_and_their_snapshots_are_freed(tmp_path):
    """Regression: the snapshot registry used to map each warehouse
    (weakly) to a snapshot that referred back to it (strongly), so no
    queried warehouse was ever freed — every open → render → close
    cycle left its connection, frames and memo behind."""
    import gc
    import weakref

    from repro import RANGER, Facility
    from repro.ingest.warehouse import Warehouse
    from repro.xdmod.reports import SupportStaffReport

    def live_warehouses():
        gc.collect()
        return sum(isinstance(o, Warehouse) for o in gc.get_objects())

    path = str(tmp_path / "w.sqlite")
    cfg = RANGER.scaled(num_nodes=8, horizon_days=2, n_users=6)
    run = Facility(cfg, seed=3).run(warehouse=Warehouse(path))
    run.warehouse.commit()
    run.warehouse.close()
    del run
    before = live_warehouses()
    refs = []
    for _ in range(5):
        wh = Warehouse(path)
        assert SupportStaffReport(wh, cfg.name).render()
        snap = WarehouseSnapshot.for_warehouse(wh)
        assert snap.frame(cfg.name).n_rows > 0
        refs += [weakref.ref(wh), weakref.ref(snap)]
        wh.close()
        del wh, snap
    assert live_warehouses() == before
    assert [r() for r in refs] == [None] * len(refs)
