"""The live micro-batch loop: equivalence with the offline path,
monotonic snapshot growth, counter publication, and the day files it
grows by appended units."""

from pathlib import Path

import pytest

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.warehouse import Warehouse
from repro.live.runner import LIVE_COUNTER_METRICS, LiveSession
from repro.tacc_stats.archive import HostArchive
from repro.telemetry.metrics import get_registry
from repro.util.timeutil import DAY, HOUR
from tests.parity import tables, tree

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


def test_live_warehouse_equals_offline_oneshot(live, offline):
    """The headline equivalence: a horizon streamed as hourly-scale
    micro-batches lands the exact same analytics rows as one offline
    pass — same jobs, metrics, series, and syslog events."""
    rows = tables(live[0])
    assert rows["jobs"]  # non-vacuous
    assert rows == tables(offline)


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
    assert tree(live_dir) and tree(live_dir) == tree(offline_dir)
    assert tables(session.warehouse) == tables(run.warehouse)


def test_live_v2_archive_converts_to_the_text_replay(tmp_path):
    """A live session writes v2, and nothing is lost: ``repro-convert``
    compacts its hourly-grown day files back to the paper's text+gzip
    format, byte for byte the tree an offline text replay of the same
    facility writes."""
    from repro.tacc_stats.convert import convert_archive

    live_dir, text_dir = tmp_path / "live", tmp_path / "text"
    LiveSession(Facility(CFG, seed=SEED), str(live_dir),
                segment_seconds=HOUR).run()
    assert {p.suffix for p in live_dir.rglob("*") if p.is_file()} == {".v2"}
    report = convert_archive(str(live_dir), "text", out_root=str(text_dir))
    assert report.converted == len(report.drifted) > 0
    Facility(CFG, seed=SEED).run_with_files(str(tmp_path / "offline"))
    assert tree(text_dir) == tree(tmp_path / "offline")


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
        return (tables(w), w.ledger_map(CFG.name),
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
    assert sum(e.size for e in appended.ledger_map(CFG.name).values()) \
        > sum(e.size for e in before[1].values())  # batch k's units
    assert tables(appended) == tables(oneshot)
    appended.close()


def test_kill_mid_unit_leaves_a_torn_tail_nobody_reads(tmp_path, offline):
    """Killed halfway through writing a unit, a batch leaves a torn tail
    on one day file: an append over the archive neither reads nor
    ledgers it, and the session's next flush writes over it, so the
    finished archive reads as an uninterrupted run's."""
    from repro.ingest.pipeline import IngestPipeline
    from repro.tacc_stats.columnar import file_tip
    from repro.testing.faults import KILL_EXIT, run_killed

    path, archive_dir = str(tmp_path / "live.sqlite"), tmp_path / "arch"
    session = LiveSession(Facility(CFG, seed=SEED), str(archive_dir),
                          warehouse=Warehouse(path), segment_seconds=HOUR)
    for _ in range(9):
        session.run_batch()
    session.warehouse.close()

    def consumed(w):
        return ({cell: (e.sha256, e.size) for cell, e in
                 w.ledger_map(CFG.name).items()},
                w.scan_states(CFG.name), tables(w))

    before = consumed(Warehouse(path))

    def batch_k():
        session.warehouse = session.pipeline.warehouse = Warehouse(path)
        session.run_batch()

    assert run_killed(batch_k, "unit_append") == KILL_EXIT
    files = sorted(archive_dir.rglob("*.v2"))
    torn = [p for p in files if file_tip(p)[0] < p.stat().st_size]
    assert len(torn) == 1
    w = Warehouse(path)
    report = IngestPipeline(w).ingest(
        CFG, accounting_text=session.accounting_text,
        archive=HostArchive(archive_dir), lariat_records=session.lariat,
        syslog=session.syslog, mode="append")
    assert (report.jobs_loaded, report.delta.files_new) == (0, 0)
    assert consumed(w) == before
    w.close()

    session.warehouse = session.pipeline.warehouse = Warehouse(path)
    session.run()
    assert all(file_tip(p)[0] == p.stat().st_size for p in files)
    oneshot = Warehouse()
    IngestPipeline(oneshot).ingest(
        CFG, accounting_text=session.accounting_text,
        archive=HostArchive(archive_dir), lariat_records=session.lariat,
        syslog=session.syslog, mode="append")
    assert tables(oneshot) == tables(session.warehouse) == tables(offline)
    session.warehouse.close()


# -- the day files under it --------------------------------------------------


def test_one_file_per_host_day_grown_by_units(live):
    """However often a session flushes, the archive holds one v2 file
    per host-day and the ledger one row for each: every flush appends
    one unit to each file still open."""
    from repro.tacc_stats.columnar import read_host_day

    warehouse, reports, archive_dir, _n = live
    archive = HostArchive(archive_dir)
    manifest = archive.manifest()
    assert len(manifest) == CFG.num_nodes * 2  # day 0 and the horizon tick
    assert set(warehouse.ledger_map(CFG.name)) == set(manifest)
    assert not (archive.root / "archive.json").exists()
    day0 = read_host_day(Path(manifest[archive.hostnames()[0],
                                       "2011-06-01"].path))
    # Every flush of the day cut the file between two of its units.
    assert len(reports) == DAY // SEGMENT + 1
    assert day0.times.size > 0 and day0.fresh is False


def test_flush_before_appends_units_and_closes_ended_days(tmp_path):
    """Each flush puts every open v2 file's blocks before it on disk as
    one unit — a host idle across a day boundary still gets its ended
    day closed — and leaves later blocks buffered."""
    from repro.tacc_stats.columnar import file_tip, read_host_day
    from tests.tacc_stats.test_archive import cpu_file

    archive = HostArchive(tmp_path / "arch", archive_format="v2")

    def write(host, t):
        archive.writer(host, t, cpu_file(host)).append(
            [t], [()], [], [[[[int(t)]]]])

    write("c001", 100.0)
    write("c002", 3700.0)
    assert archive.manifest() == {}  # both still buffered
    assert archive.flush_before(3600.0) == 0
    tips = {h: fp for (h, _d), fp in archive.manifest().items()}
    assert set(tips) == {"c001"} and tips["c001"].until == 3600.0
    write("c001", 4000.0)
    assert archive.flush_before(DAY) == 2
    manifest = archive.manifest()
    assert {h for h, _d in manifest} == {"c001", "c002"}
    path = Path(manifest["c001", "2011-06-01"].path)
    size, _fp, until = file_tip(path)
    assert until is None and size == path.stat().st_size
    assert read_host_day(path).times.tolist() == [100.0, 4000.0]
    first = tips["c001"].size
    assert read_host_day(path, start=first).times.tolist() == [4000.0]
    assert archive.close() and archive.stats.file_count == 2


def test_a_flipped_byte_in_a_consumed_unit_is_caught(tmp_path, capsys):
    """One byte of unit 3's columns flipped in a 24-unit day file the
    ledger consumed whole: the trusting append re-derives the chain of
    the touched file and raises "mutated", and ``repro-diagnose
    --verify`` re-chains every unit and names the file."""
    from repro.cli.diagnose import main as diagnose_main
    from repro.ingest.pipeline import IngestPipeline
    from repro.tacc_stats import columnar

    path, archive_dir = str(tmp_path / "w.sqlite"), tmp_path / "arch"
    session = LiveSession(Facility(CFG, seed=SEED), str(archive_dir),
                          warehouse=Warehouse(path), segment_seconds=HOUR)
    session.run()
    session.warehouse.close()
    victim = sorted(archive_dir.rglob("2011-06-01.v2"))[0]
    units = columnar._checked(victim, lambda mm: columnar._units(
        mm, len(mm), 0, victim.name))
    assert len(units) == 24
    data = bytearray(victim.read_bytes())
    data[(units[3].start + units[3].end) // 2] ^= 1  # inside its values
    victim.write_bytes(bytes(data))

    w = Warehouse(path)
    with pytest.raises(ValueError, match="mutated"):
        IngestPipeline(w).ingest(
            CFG, accounting_text=session.accounting_text,
            archive=HostArchive(archive_dir), mode="append")
    w.close()
    assert diagnose_main(["--warehouse", path, "--system", CFG.name,
                          "--verify", str(archive_dir)]) == 1
    assert f"{victim.parent.name}/2011-06-01: content differs" in \
        capsys.readouterr().out


def test_day_archives_write_no_sidecar(tmp_path):
    """The on-disk layout is the pre-live one: no archive.json."""
    root = tmp_path / "day_arch"
    HostArchive(root)
    assert not (root / "archive.json").exists()
