"""The live micro-batch loop: equivalence with the offline path,
monotonic snapshot growth, counter publication, and the sub-day
archive rotation it rides on."""

import hashlib
import json

import pytest

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.warehouse import Warehouse
from repro.live.runner import LIVE_COUNTER_METRICS, LiveSession
from repro.tacc_stats.archive import HostArchive
from repro.telemetry.metrics import get_registry
from repro.util.timeutil import DAY, HOUR

CFG = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=1, n_users=6)
SEED = 7
SEGMENT = 4 * HOUR


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One complete live session: (warehouse, batch reports, archive)."""
    archive_dir = str(tmp_path_factory.mktemp("live_arch"))
    warehouse = Warehouse()
    session = LiveSession(Facility(CFG, seed=SEED), archive_dir,
                          warehouse=warehouse, segment_seconds=SEGMENT)
    before = get_registry().counter("live.batches").value
    reports = session.run()
    after = get_registry().counter("live.batches").value
    return warehouse, reports, archive_dir, after - before


@pytest.fixture(scope="module")
def offline(tmp_path_factory):
    """The same facility through the offline one-shot slow path."""
    archive_dir = str(tmp_path_factory.mktemp("offline_arch"))
    warehouse = Warehouse()
    Facility(CFG, seed=SEED).run_with_files(archive_dir,
                                            warehouse=warehouse)
    return warehouse


def _data_rows(w):
    """Every analytics-visible row, ordered (ledger/meta excluded)."""
    w.commit()
    return {
        table: w.connection.execute(
            f"SELECT {cols} FROM {table} ORDER BY {cols}").fetchall()
        for table, cols in [
            ("jobs", "system, jobid, user, account, science_field, app, "
                     "queue, exit_status, submit_time, start_time, "
                     "end_time, nodes, cores, node_hours"),
            ("job_metrics", "system, jobid, metric, value"),
            ("system_series", "system, metric, t, value"),
            ("syslog_events", "system, t, host, jobid, kind, severity"),
        ]
    }


def test_live_warehouse_equals_offline_oneshot(live, offline):
    """The headline equivalence: a horizon streamed as hourly-scale
    micro-batches lands the exact same analytics rows as one offline
    pass — same jobs, metrics, series, and syslog events."""
    rows = _data_rows(live[0])
    assert rows["jobs"]  # non-vacuous
    assert rows == _data_rows(offline)


def test_day_segment_session_is_the_offline_path(tmp_path):
    """At the production rotation period a live session drives the same
    per-node replay units and the same side-log recipe as
    ``run_with_files`` — so it leaves the same v2 archive tree, file for
    file, and the same four data tables."""
    live_dir, offline_dir = tmp_path / "live", tmp_path / "offline"
    session = LiveSession(Facility(CFG, seed=SEED), str(live_dir),
                          segment_seconds=DAY)
    session.run()
    run = Facility(CFG, seed=SEED).run_with_files(str(offline_dir),
                                                  archive_format="v2")

    def tree(root):
        return {str(p.relative_to(root)):
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}

    assert tree(live_dir) and tree(live_dir) == tree(offline_dir)
    assert _data_rows(session.warehouse) == _data_rows(run.warehouse)


def test_live_v2_archive_converts_to_the_text_replay(tmp_path):
    """A live session writes v2, and nothing is lost: ``repro-convert``
    compacts its hourly archive back to the paper's text+gzip format,
    byte for byte the tree an hourly text replay of the same facility
    writes (the ``live/ranger/text/end`` synthesis digest)."""
    from repro.tacc_stats.convert import convert_archive
    from tests import synthesis_parity as sp

    cfg = sp.SYSTEMS["ranger"].scaled(**sp.LIVE)
    live_dir, text_dir = tmp_path / "live", tmp_path / "text"
    LiveSession(Facility(cfg, seed=sp.SEED), str(live_dir),
                segment_seconds=HOUR).run()
    assert {p.suffix for p in live_dir.rglob("*")
            if p.is_file()} == {".v2", ".json"}
    report = convert_archive(str(live_dir), "text", out_root=str(text_dir))
    assert report.converted == len(report.drifted) > 0
    expected = json.loads(sp.DIGESTS.read_text())["live/ranger/text/end"]
    assert {"tree": sp.tree(text_dir)} == expected


def test_snapshot_rows_grow_monotonically(live):
    warehouse, reports, _dir, _n = live
    counts = [r.snapshot_rows for r in reports]
    assert counts == sorted(counts)
    assert counts[-1] == warehouse.job_count(CFG.name)


def test_batches_cover_the_horizon_in_order(live):
    _w, reports, _dir, batches = live
    assert batches == len(reports)
    assert [r.batch for r in reports] == list(range(len(reports)))
    assert reports[0].t_start == 0.0
    assert reports[-1].t_end == CFG.horizon
    for prev, cur in zip(reports, reports[1:]):
        assert cur.t_start == prev.t_end
    assert sum(r.jobs_loaded for r in reports) == \
        warehouse_jobs(live[0])


def warehouse_jobs(w):
    return w.job_count(CFG.name)


def test_final_counters_published_once_and_complete(live):
    """After the horizon every job's counters are final: stamped at its
    end time, flagged ended, one row per metric."""
    warehouse, _reports, _dir, _n = live
    samples = warehouse.live_counters(CFG.name)
    assert len(samples) == warehouse.job_count(CFG.name)
    for s in samples:
        assert s["ended"] is True
        assert set(s["counters"]) == set(LIVE_COUNTER_METRICS)
        assert all(v >= 0 for v in s["counters"].values())
    assert warehouse.live_high_water(CFG.name) == \
        max(s["t"] for s in samples)


def test_run_batch_after_done_returns_none(live):
    _w, reports, archive_dir, _n = live
    session = LiveSession(Facility(CFG, seed=SEED),
                          archive_dir + "_fresh",
                          segment_seconds=CFG.horizon)
    assert session.n_segments == 2  # horizon boundary + final tick
    assert session.run_batch() is not None
    assert session.run_batch() is not None
    assert session.done
    assert session.run_batch() is None


def test_report_str_mentions_progress(live):
    line = str(live[1][0])
    assert "[live] batch=0" in line
    assert "snapshot_rows=" in line


def test_session_validation(tmp_path):
    facility = Facility(CFG, seed=SEED)
    with pytest.raises(ValueError, match="segment_seconds"):
        LiveSession(facility, str(tmp_path / "a"), segment_seconds=0)
    with pytest.raises(ValueError, match="segment_seconds"):
        LiveSession(facility, str(tmp_path / "b"),
                    segment_seconds=90.5)
    with pytest.raises(ValueError, match="batch_segments"):
        LiveSession(facility, str(tmp_path / "c"), batch_segments=0)


def _committed(path):
    """What a reader of the warehouse file sees: jobs and the other data
    tables, ledger, kept scan states and live counters."""
    w = Warehouse(path)
    try:
        return (_data_rows(w), w.ledger_map(CFG.name),
                w.scan_states(CFG.name), w.live_counters(CFG.name))
    finally:
        w.close()


@pytest.mark.parametrize("point", ["live_counters", "scan_state", "ledger"])
def test_kill_inside_a_live_batch_leaves_the_previous_batch(tmp_path,
                                                            point):
    """A batch is one commit: killed anywhere inside batch k, the file
    holds exactly what batch k - 1 committed, and an append over the
    archive (which has batch k's segments on disk) then lands on what
    one append of that archive gives."""
    from repro.ingest.pipeline import IngestPipeline
    from repro.testing.faults import KILL_EXIT, run_killed

    path, archive_dir = str(tmp_path / "live.sqlite"), tmp_path / "arch"
    session = LiveSession(Facility(CFG, seed=SEED), str(archive_dir),
                          warehouse=Warehouse(path), segment_seconds=HOUR)
    for _ in range(9):
        session.run_batch()
    before = _committed(path)
    assert before[2] and before[3]  # open jobs keep states; counters
    session.warehouse.close()

    def batch_k():
        # A forked child must not use its parent's SQLite handle.
        session.warehouse = session.pipeline.warehouse = Warehouse(path)
        session.run_batch()

    assert run_killed(batch_k, point) == KILL_EXIT
    assert _committed(path) == before

    appended = Warehouse(path)
    oneshot = Warehouse()
    for w in (appended, oneshot):
        IngestPipeline(w).ingest(
            CFG, accounting_text=session.accounting_text,
            archive=HostArchive(archive_dir), lariat_records=session.lariat,
            syslog=session.syslog, mode="append")
    assert len(appended.ledger_map(CFG.name)) > len(before[1])
    assert _data_rows(appended) == _data_rows(oneshot)
    appended.close()


# -- the rotation layer under it ---------------------------------------------


def test_archive_sidecar_round_trip(live):
    """Reopening a sub-day archive adopts the persisted period; an
    explicit conflicting period is a loud error."""
    _w, _reports, archive_dir, _n = live
    reopened = HostArchive(archive_dir)
    assert reopened.rotate_seconds == SEGMENT
    explicit = HostArchive(archive_dir, rotate_seconds=SEGMENT)
    assert explicit.rotate_seconds == SEGMENT
    with pytest.raises(ValueError, match="rotate_seconds"):
        HostArchive(archive_dir, rotate_seconds=2 * HOUR)


def test_converted_copy_keeps_the_rotation_period(live, tmp_path):
    """``convert_archive(out_root=...)`` of a sub-day archive rotates
    as its source does — an append over the copy plans in segments."""
    from repro.tacc_stats.convert import convert_archive

    convert_archive(live[2], "v2", out_root=tmp_path / "v2")
    assert HostArchive(tmp_path / "v2").rotate_seconds == SEGMENT


def test_segment_labels_are_sub_day_and_sorted(live):
    """Hourly-scale segments carry colon-free time-of-day labels that
    sort chronologically."""
    _w, _reports, archive_dir, _n = live
    archive = HostArchive(archive_dir)
    host = archive.hostnames()[0]
    labels = [day for _h, day in archive.manifest(hosts=[host])]
    assert len(labels) > 1  # genuinely sub-day rotation
    assert labels == sorted(labels)
    assert all("T" in lab and ":" not in lab for lab in labels)


def test_flush_before_closes_only_completed_segments(tmp_path):
    """A host idle across a rotation boundary still gets its completed
    segment flushed to disk (visible to the manifest) without touching
    the open one."""
    from repro.tacc_stats.schema import SchemaEntry, TypeSchema

    archive = HostArchive(tmp_path / "arch", rotate_seconds=HOUR)

    def write(host, t):
        w = archive.writer(host, t)
        w.register_schema(
            TypeSchema("cpu", (SchemaEntry("user", is_event=True),)))
        w.begin_block(t)
        w.write_row("cpu", "0", [1])

    write("c001", 100.0)       # segment 0
    write("c002", 3700.0)      # segment 1 (already past the boundary)
    assert archive.manifest() == {}  # both still buffered
    assert archive.flush_before(3600.0) == 1
    manifest = archive.manifest()
    assert {h for h, _d in manifest} == {"c001"}
    # c002's open segment is untouched; closing flushes the rest.
    archive.close()
    assert {h for h, _d in archive.manifest()} == {"c001", "c002"}


def test_day_archives_write_no_sidecar(tmp_path):
    """Default day rotation keeps the on-disk layout byte-identical to
    pre-live archives: no archive.json appears."""
    root = tmp_path / "day_arch"
    HostArchive(root)
    assert not (root / "archive.json").exists()
