"""Incremental (ledger-driven) ingest: the O(delta) ETL guarantees.

The headline property, proved with hypothesis: splitting an archive's
day range into ANY sequence of contiguous append batches produces a
warehouse byte-identical to the one-shot ingest — jobs, metrics, series
and syslog rows all equal — including when one batch carries a
quarantined fault.  Plus the supporting contracts: manifest
fingerprinting, ledger validation (mutated/vanished files), deferral
and watermark accounting, and archive-stats resume on reopen.
"""

import io
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.syslogr.catalog import MessageKind
from repro.syslogr.rationalizer import RationalizedMessage
from repro.tacc_stats.archive import HostArchive
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.testing.faults import inject_fault
from repro.util.timeutil import DAY, date_to_day_index
from tests.parity import tables

N_DAYS = 3


def _make_corpus(tmp_path_factory, cfg, seed=11, **run_kw):
    """*cfg*'s finished archive plus accounting, Lariat and syslog."""
    archive_dir = str(tmp_path_factory.mktemp("inc_corpus"))
    run = Facility(cfg, seed=seed).run_with_files(archive_dir, **run_kw)
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    # Synthetic but realistic syslog: one epilog per job at its end
    # time — spread over the whole horizon, so the append path's
    # watermark window is genuinely exercised.
    syslog = [
        RationalizedMessage(time=r.end_time, host=f"c000-{0:03d}.{cfg.name}",
                            jobid=r.jobid, kind=MessageKind.JOB_EPILOG,
                            text=f"epilog {r.jobid}")
        for r in run.records
    ]
    return cfg, archive_dir, buf.getvalue(), lariat, syslog


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A finished 3-day archive plus accounting, Lariat and syslog."""
    return _make_corpus(tmp_path_factory, TEST_SYSTEM.scaled(
        num_nodes=4, horizon_days=N_DAYS, n_users=6))


def _archive_days(archive_dir):
    """All day strings present in the archive, sorted ascending."""
    archive = HostArchive(archive_dir)
    days = set()
    for host in archive.hostnames():
        for _h, day in archive.manifest(hosts=[host]):
            days.add(day)
    return sorted(days)


def _copy_days(src, dst, days):
    """Copy every host's files for *days* from archive *src* to *dst*."""
    src, dst = Path(src), Path(dst)
    wanted = set(days)
    for hostdir in sorted(p for p in src.iterdir() if p.is_dir()):
        for f in sorted(hostdir.iterdir()):
            day = f.name[:-3] if f.name.endswith(".gz") else f.name
            if day in wanted:
                (dst / hostdir.name).mkdir(parents=True, exist_ok=True)
                shutil.copy2(f, dst / hostdir.name / f.name)


def _ingest(corpus, root, warehouse=None, **kw):
    cfg, _dir, accounting, lariat, syslog = corpus
    w = warehouse if warehouse is not None else Warehouse()
    report = IngestPipeline(w).ingest(
        cfg, accounting_text=accounting, archive=HostArchive(root),
        lariat_records=lariat, syslog=syslog, **kw)
    return w, report


# -- the headline property ---------------------------------------------------


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_day_partition_equals_oneshot(corpus, tmp_path_factory, data):
    """Random contiguous day-chunk partitions: K append batches produce
    a warehouse byte-identical to one-shot ingest of the full archive."""
    days = _archive_days(corpus[1])
    cuts = data.draw(st.sets(st.sampled_from(range(1, len(days))),
                             max_size=len(days) - 1), label="cuts")
    bounds = [0, *sorted(cuts), len(days)]
    chunks = [days[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    oneshot, _ = _ingest(corpus, corpus[1])

    growing = tmp_path_factory.mktemp("growing")
    w = Warehouse()
    for chunk in chunks:
        _copy_days(corpus[1], growing, chunk)
        _ingest(corpus, growing, warehouse=w, mode="append")
    assert tables(w) == tables(oneshot)


def test_partition_with_quarantined_fault_equals_oneshot(
        corpus, tmp_path_factory):
    """A fatal fault in the first batch: batched repair-mode ingest still
    equals one-shot repair-mode ingest of the same faulted archive."""
    days = _archive_days(corpus[1])
    faulted = tmp_path_factory.mktemp("faulted")
    _copy_days(corpus[1], faulted, days)
    victim = sorted(p for p in Path(faulted).iterdir() if p.is_dir())[1]
    inject_fault(sorted(victim.iterdir())[0], "bit_flip", seed=5)

    oneshot, oneshot_report = _ingest(corpus, faulted,
                                      error_policy="repair")
    assert oneshot_report.health.hosts_degraded  # the fault registered

    growing = tmp_path_factory.mktemp("growing_faulted")
    w = Warehouse()
    for chunk in (days[:1], days[1:]):
        _copy_days(faulted, growing, chunk)
        _, report = _ingest(corpus, growing, warehouse=w, mode="append",
                            error_policy="repair")
    assert tables(w) == tables(oneshot)
    # The faulted host-day is consumed WITH its outcome in the ledger.
    ledger = w.ledger_map(corpus[0].name)
    assert any(e.status == "degraded" for e in ledger.values())


# -- plan accounting ---------------------------------------------------------


def test_windowed_seed_defers_and_append_completes(corpus, tmp_path):
    """through_day windows the ingest; the append run loads exactly the
    deferred remainder and the watermarks advance day by day."""
    w, seed_report = _ingest(corpus, corpus[1], through_day=2)
    assert seed_report.mode == "full"
    assert seed_report.delta is not None
    assert seed_report.delta.jobs_deferred > 0
    assert seed_report.delta.watermark_after == 2 * DAY

    _, append_report = _ingest(corpus, corpus[1], warehouse=w,
                               mode="append")
    assert append_report.mode == "append"
    d = append_report.delta
    assert d.watermark_before == 2 * DAY
    assert d.jobs_deferred == 0
    assert d.files_skipped > 0  # unchanged files were never reopened
    assert seed_report.jobs_loaded + append_report.jobs_loaded == \
        _ingest(corpus, corpus[1])[1].jobs_loaded


def test_append_on_unchanged_archive_is_noop(corpus):
    """Re-appending with nothing new parses nothing and loads nothing."""
    w, _ = _ingest(corpus, corpus[1])
    before = tables(w)
    _, report = _ingest(corpus, corpus[1], warehouse=w, mode="append")
    assert report.jobs_loaded == 0
    assert report.delta.files_new == 0
    assert report.delta.files_lookback == 0
    assert report.syslog_events_loaded == 0
    assert tables(w) == before


def test_mutated_ledgered_file_raises(corpus, tmp_path):
    """Append mode assumes append-only archives: a hash drift on a
    ledgered file is a contract violation, not a silent re-ingest."""
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    w, _ = _ingest(corpus, root)
    victim = sorted(sorted(
        p for p in root.iterdir() if p.is_dir())[0].iterdir())[0]
    inject_fault(victim, "duplicate_timestamp", seed=3)  # benign but new
    with pytest.raises(ValueError, match="mutated"):
        _ingest(corpus, root, warehouse=w, mode="append")


def test_vanished_ledgered_file_raises(corpus, tmp_path):
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    w, _ = _ingest(corpus, root)
    victim = sorted(sorted(
        p for p in root.iterdir() if p.is_dir())[0].iterdir())[0]
    victim.unlink()
    with pytest.raises(ValueError, match="vanished"):
        _ingest(corpus, root, warehouse=w, mode="append")


# -- the fingerprint trust model ---------------------------------------------
#
# An append hashes a ledgered file again only when its size or mtime
# changed (test_mutated_ledgered_file_raises above: a rewrite is seen
# and still raises).  The two edges of that rule:


def _first_file(root):
    return sorted(sorted(
        p for p in Path(root).iterdir() if p.is_dir())[0].iterdir())[0]


def test_touched_but_identical_file_is_rehashed_and_accepted(
        corpus, tmp_path, monkeypatch):
    import os

    from repro.tacc_stats import archive as archive_mod

    cfg = corpus[0]
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    w, _ = _ingest(corpus, root)
    victim = _first_file(root)
    os.utime(victim, ns=(1, 1))
    hashed = []
    real = archive_mod._fingerprint
    monkeypatch.setattr(archive_mod, "_fingerprint",
                        lambda path: hashed.append(path) or real(path))
    _, report = _ingest(corpus, root, warehouse=w, mode="append")
    assert hashed == [str(victim)]  # the touched file and no other
    assert (report.delta.files_new, report.delta.files_lookback) == (0, 0)
    # The new mtime is ledgered, so the next append trusts it again.
    cell = (victim.parent.name, victim.name.split(".")[0])
    assert w.ledger_map(cfg.name)[cell].mtime_ns == 1
    del hashed[:]
    _ingest(corpus, root, warehouse=w, mode="append")
    assert hashed == []


def test_same_size_same_mtime_rewrite_is_caught_by_verify_only(
        corpus, tmp_path, capsys):
    """The one change the trusting manifest cannot see — what
    ``repro-diagnose --verify`` is for."""
    import os

    from repro.cli.diagnose import main as diagnose_main

    cfg = corpus[0]
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    path = str(tmp_path / "w.sqlite")
    w, _ = _ingest(corpus, root, warehouse=Warehouse(path), through_day=2)
    assert w.scan_states(cfg.name)  # jobs cross the window: states kept
    w.close()
    argv = ["--warehouse", path, "--system", cfg.name, "--verify", str(root)]
    assert diagnose_main(argv) == 0
    assert "no differences" in capsys.readouterr().out

    victim = _first_file(root)
    before = victim.stat()
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0x01  # the gzip trailer: same length, other content
    victim.write_bytes(bytes(data))
    os.utime(victim, ns=(before.st_atime_ns, before.st_mtime_ns))

    w = Warehouse(path)
    _ingest(corpus, root, warehouse=w, mode="append")  # trusted: no raise
    w.close()
    assert diagnose_main(argv) == 1
    out = capsys.readouterr().out
    assert f"{victim.parent.name}/{victim.name.split('.')[0]}: content " \
        "differs" in out


def test_verify_recomputes_the_kept_scan_states(corpus, tmp_path, capsys):
    from repro.cli.diagnose import main as diagnose_main

    cfg = corpus[0]
    path = str(tmp_path / "w.sqlite")
    w, _ = _ingest(corpus, corpus[1], warehouse=Warehouse(path),
                   through_day=2)
    (host, jobid), _blob = sorted(w.scan_states(cfg.name).items())[0]
    w.connection.execute(
        "UPDATE ingest_scan_state SET state = "
        "(SELECT state FROM ingest_scan_state WHERE (host, jobid) != (?, ?))"
        " WHERE (host, jobid) = (?, ?)", (host, jobid, host, jobid))
    w.connection.commit()
    w.close()
    assert diagnose_main(["--warehouse", path, "--system", cfg.name,
                          "--verify", corpus[1]]) == 1
    assert f"{host}/{jobid}: scan state differs" in capsys.readouterr().out


# -- a full ingest loads a system from nothing ---------------------------------


def _counted(corpus, warehouse, **kw):
    """``(registry counters, report)`` of one ingest into *warehouse*."""
    with use_registry(MetricsRegistry()) as registry:
        report = _ingest(corpus, corpus[1], warehouse=warehouse, **kw)[1]
    return registry.snapshot().counters, report


@pytest.mark.parametrize("built_by", ["ingest", "Facility.run"])
def test_a_second_full_ingest_is_refused_before_any_file_is_read(
        corpus, built_by):
    cfg = corpus[0]
    if built_by == "ingest":
        w, _ = _ingest(corpus, corpus[1])
    else:
        w = Facility(cfg, seed=11).run().warehouse
    before = (tables(w), w.ledger_map(cfg.name), w.scan_states(cfg.name))
    with use_registry(MetricsRegistry()) as registry, \
            pytest.raises(ValueError, match='mode="append"'):
        _ingest(corpus, corpus[1], warehouse=w)
    counters = registry.snapshot().counters
    assert counters.get("parse.files", 0) == 0
    assert counters.get("archive.v2.files_read", 0) == 0
    assert counters.get("archive.manifest_files", 0) == 0
    assert (tables(w), w.ledger_map(cfg.name),
            w.scan_states(cfg.name)) == before


def test_a_registered_system_still_takes_a_full_ingest(corpus):
    """A ``systems`` row alone (a live session registers its system up
    front) holds nothing a full ingest could collide with."""
    w = Warehouse()
    IngestPipeline(w).register_system(corpus[0])
    _ingest(corpus, corpus[1], warehouse=w)
    assert tables(w) == tables(_ingest(corpus, corpus[1])[0])


def test_only_a_window_that_closes_reports_a_delta(corpus):
    """A full ingest's window never closes: no ``DeltaSummary`` and no
    ``ingest.delta.*`` counter.  A windowed seed reports both."""
    counters, report = _counted(corpus, Warehouse())
    assert report.mode == "full" and report.delta is None
    assert not [k for k in counters if k.startswith("ingest.delta.")]
    counters, seed = _counted(corpus, Warehouse(), through_day=1)
    assert seed.delta is not None
    assert counters["ingest.delta.files_skipped"] == \
        seed.delta.files_skipped > 0


def test_mode_validation(corpus):
    cfg = corpus[0]
    pipe = IngestPipeline(Warehouse())
    with pytest.raises(ValueError, match="mode"):
        pipe.ingest(cfg, "", archive=HostArchive(corpus[1]),
                    mode="sideways")
    with pytest.raises(ValueError, match="through_day"):
        pipe.ingest(cfg, "", archive=HostArchive(corpus[1]),
                    through_day=0)
    with pytest.raises(ValueError, match="full"):
        pipe.ingest(cfg, "", archive=HostArchive(corpus[1]),
                    mode="append", through_day=1)


# -- manifest & fingerprints -------------------------------------------------


def test_manifest_fingerprints_are_stable(corpus):
    """Two manifests of an untouched archive are identical, and the raw
    size of a gz file equals its decompressed length."""
    import gzip

    from repro.tacc_stats.archive import _raw_size

    archive = HostArchive(corpus[1])
    m1, m2 = archive.manifest(), archive.manifest()
    assert m1 == m2
    (host, day), fp = sorted(m1.items())[0]
    path = Path(fp.path)
    assert fp.size == path.stat().st_size
    if path.name.endswith(".gz"):
        # The ISIZE-trailer shortcut equals a real decompression.
        assert _raw_size(path) == len(gzip.decompress(path.read_bytes()))


def test_ledger_row_ranges_partition_the_tables(corpus):
    """Every warehouse row is attributed to exactly one ingest run."""
    w, _ = _ingest(corpus, corpus[1], through_day=2)
    _ingest(corpus, corpus[1], warehouse=w, mode="append")
    runs = w.ingest_runs(corpus[0].name)
    assert [r["mode"] for r in runs] == ["full", "append"]
    for table in ("jobs", "job_metrics", "syslog_events"):
        spans = [tuple(r["row_ranges"][table]) for r in runs]
        # Half-open, contiguous, and covering: 0..max rowid.
        assert spans[0][0] == 0
        assert spans[0][1] == spans[1][0]
        assert spans[1][1] == w._max_rowid(table)


# -- archive stats resume (rotation/close across sessions) -------------------


def test_archive_stats_resume_from_disk(corpus, tmp_path):
    """Reopening an existing archive root resumes ArchiveStats from the
    files on disk instead of starting from zero."""
    src = HostArchive(corpus[1])
    fresh = src.stats
    reopened = HostArchive(corpus[1])
    assert reopened.stats.file_count == fresh.file_count
    assert reopened.stats.host_days == fresh.host_days
    assert reopened.stats.raw_bytes == fresh.raw_bytes
    assert reopened.stats.compressed_bytes == fresh.compressed_bytes
    assert reopened.stats.file_count == sum(
        1 for h in reopened.hostnames() for _ in reopened.host_files(h))


def _write_one_day(archive, t=100.0):
    from tests.tacc_stats.test_archive import cpu_file

    archive.writer("c001", t, cpu_file("c001")).append(
        [t], [()], [], [[[[1]]]])


def test_rewriting_a_host_day_swaps_not_adds(tmp_path):
    """Writing the same host-day twice (rotation after reopen) replaces
    its tally instead of double-counting it."""
    root = tmp_path / "arch"
    archive = HostArchive(root)
    _write_one_day(archive)
    archive.close()
    first = (archive.stats.file_count, archive.stats.raw_bytes)

    again = HostArchive(root)
    _write_one_day(again)
    again.close()
    assert again.stats.file_count == first[0]
    assert again.stats.host_days == 1
    assert again.stats.raw_bytes == first[1]


def test_day_strings_round_trip(corpus):
    """Archive day strings map to day indices and back consistently."""
    for day in _archive_days(corpus[1]):
        idx = date_to_day_index(day)
        assert idx >= 0
        from repro.util.timeutil import day_index_to_date
        assert day_index_to_date(idx) == day


# -- appends continue from scan state ------------------------------------------
#
# A hand-built hourly archive, so every count below can be read off the
# table.  Hosts sample every 10 minutes for five hours; the jobs are
#
#   job  hosts  start..end  segments
#   101  a, b    1200.. 8400   0..2   multi-node
#   102  a       8400..12000   2..3   a's next job, begun in 101's last hour
#   103  b       9000..16200   2..4   b's next job, likewise
#   104  c        600.. 4200   0..1   c is shared: 104 and 105 overlap,
#   105  c       1800.. 4800   0..1     so they share c's first file
#   106  c       6000.. 6600   1      never crosses a boundary
#
# appended one hour at a time.  Per append: what loads, the (host, job)
# scan states left behind for the jobs still open, and — when the ledger
# has no job sets (a legacy ledger) and so no states — the ledgered
# cells read again:
#
#   hour  loads          states after            re-read without states
#   0     -              a/101 b/101 c/104 c/105 -
#   1     104 105 106    a/101 b/101             c/0
#   2     101            a/102 b/103             a/0 a/1 b/0 b/1
#   3     102            b/103                   a/2
#   4     103            -                       b/2 b/3
#
# With states nothing ledgered is ever read again.

LB_HOSTS = ("a", "b", "c")
LB_JOBS = {
    "101": (("a", "b"), 1200, 8400),
    "102": (("a",), 8400, 12000),
    "103": (("b",), 9000, 16200),
    "104": (("c",), 600, 4200),
    "105": (("c",), 1800, 4800),
    "106": (("c",), 6000, 6600),
}
LB_HOURS = 5


@pytest.fixture(scope="module")
def lookback_corpus(tmp_path_factory):
    """(config, finished hourly archive, accounting text) for LB_JOBS."""
    from repro.scheduler.job import ExitStatus, JobRecord, JobRequest
    from repro.util.timeutil import HOUR
    from tests.tacc_stats.test_archive import cpu_file

    cfg = TEST_SYSTEM.scaled(num_nodes=len(LB_HOSTS), horizon_days=1)
    root = tmp_path_factory.mktemp("lookback_corpus")
    archive = HostArchive(root, rotate_seconds=HOUR)
    for host in LB_HOSTS:
        for t in range(0, LB_HOURS * HOUR, 600):
            mine = {j: (s, e) for j, (hosts, s, e) in LB_JOBS.items()
                    if host in hosts and s <= t <= e}
            marks = [(0, kind, jobid)
                     for jobid, (start, end) in sorted(mine.items())
                     for kind, at in (("begin", start), ("end", end))
                     if t == at]
            archive.writer(host, float(t), cpu_file(host)).append(
                [t], [tuple(sorted(mine))], marks, [[[[t]]]])
    archive.close()

    records = [
        JobRecord(
            request=JobRequest(
                jobid=jobid, user="u", account="acct", science_field="phys",
                app="namd", queue="normal", submit_time=float(start),
                nodes=len(hosts), walltime_req=float(end - start),
                runtime=float(end - start)),
            start_time=float(start), end_time=float(end),
            node_indices=tuple(LB_HOSTS.index(h) for h in hosts),
            exit_status=ExitStatus.COMPLETED)
        for jobid, (hosts, start, end) in LB_JOBS.items()
    ]
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(records)
    return cfg, str(root), buf.getvalue()


def _hour_label(hour):
    from repro.util.timeutil import HOUR, period_label
    return period_label(hour, HOUR)


def _lb_append(lookback_corpus, growing, warehouse, hour):
    """Add *hour*'s files to *growing* and append; returns (report, the
    already-ledgered cells this run opened again as ``host/hour``)."""
    from tests.ingest.lookback_oracle import grow

    cfg, full, accounting = lookback_corpus
    grow(full, growing, [_hour_label(hour)])
    before = set(warehouse.ledger_map(cfg.name))
    report = IngestPipeline(warehouse).ingest(
        cfg, accounting_text=accounting, archive=HostArchive(growing),
        mode="append")
    hours = {_hour_label(h): h for h in range(LB_HOURS)}
    reread = sorted(
        f"{host}/{hours[label]}"
        for (host, label), entry in warehouse.ledger_map(cfg.name).items()
        if entry.run_id == report.run_id and (host, label) in before)
    assert len(reread) == report.delta.files_lookback
    return report, reread


def test_appends_fold_open_jobs_from_state_and_reread_nothing(
        lookback_corpus, tmp_path):
    """The table above, append by append — including a multi-node job
    whose nodes go on to other jobs (101 -> 102, 103) and two open jobs
    on one host (104, 105 on c)."""
    cfg, full, accounting = lookback_corpus
    w = Warehouse()
    seen = []
    for hour in range(LB_HOURS):
        report, reread = _lb_append(lookback_corpus, tmp_path / "grow",
                                    w, hour)
        seen.append((sorted(w.job_ids(cfg.name)), reread,
                     sorted("/".join(key) for key in
                            w.scan_states(cfg.name))))
    assert seen == [
        ([], [], ["a/101", "b/101", "c/104", "c/105"]),
        (["104", "105", "106"], [], ["a/101", "b/101"]),
        (["101", "104", "105", "106"], [], ["a/102", "b/103"]),
        (["101", "102", "104", "105", "106"], [], ["b/103"]),
        (sorted(LB_JOBS), [], []),
    ]
    # A loaded job leaves every set it was in; nothing is left open.
    assert all(e.open_jobs == frozenset()
               for e in w.ledger_map(cfg.name).values())
    oneshot = Warehouse()
    IngestPipeline(oneshot).ingest(cfg, accounting_text=accounting,
                                   archive=HostArchive(full))
    assert tables(w) == tables(oneshot)


def test_open_jobs_are_what_the_file_mentions_minus_what_loaded(
        lookback_corpus, tmp_path):
    cfg = lookback_corpus[0]
    w = Warehouse()
    for hour in range(3):
        _lb_append(lookback_corpus, tmp_path / "grow", w, hour)
    open_by_cell = {
        f"{host}/{label[-6:-4]}": sorted(entry.open_jobs)
        for (host, label), entry in w.ledger_map(cfg.name).items()}
    assert open_by_cell == {
        "a/00": [], "a/01": [], "a/02": ["102"],
        "b/00": [], "b/01": [], "b/02": ["103"],
        "c/00": [], "c/01": [], "c/02": [],
    }


def test_diagnose_ledger_shows_what_the_next_append_rereads(
        lookback_corpus, tmp_path, capsys):
    from repro.cli.diagnose import main as diagnose_main

    cfg = lookback_corpus[0]
    path = str(tmp_path / "w.sqlite")
    w = Warehouse(path)
    for hour in range(3):
        _lb_append(lookback_corpus, tmp_path / "grow", w, hour)
    w.connection.execute(
        "UPDATE ingest_ledger SET open_jobs = NULL WHERE host = 'c'")
    w.connection.commit()
    w.close()
    assert diagnose_main(["--warehouse", path, "--system", cfg.name,
                          "--ledger"]) == 0
    out = capsys.readouterr().out
    assert "cells with open jobs      2 " in out
    assert "cells with no job record  3 " in out
    assert "Oldest open jobs (2 open" in out
    rows = [line.split() for line in out.splitlines()
            if line.split()[:1] in (["102"], ["103"])]
    assert rows == [["102", _hour_label(2), _hour_label(2), "1"],
                    ["103", _hour_label(2), _hour_label(2), "1"]]


def test_legacy_ledger_without_job_sets_falls_back_then_converges(
        lookback_corpus, tmp_path):
    """A ledger written before the column existed: the column is added
    on open, its rows read as unknown and are re-read segment-wide, and
    every cell scanned again gets its set and every open job its state
    — so the next append reads nothing twice."""
    import sqlite3

    cfg = lookback_corpus[0]
    path = str(tmp_path / "legacy.sqlite")
    w = Warehouse(path)
    for hour in range(2):
        _lb_append(lookback_corpus, tmp_path / "grow", w, hour)
    w.close()
    conn = sqlite3.connect(path)
    conn.execute("ALTER TABLE ingest_ledger DROP COLUMN open_jobs")
    conn.execute("DROP TABLE ingest_scan_state")
    conn.commit()
    conn.close()

    w = Warehouse(path)
    assert all(e.open_jobs is None
               for e in w.ledger_map(cfg.name).values())
    rereads = [_lb_append(lookback_corpus, tmp_path / "grow", w, hour)[1]
               for hour in range(2, LB_HOURS)]
    assert rereads == [
        ["a/0", "a/1", "b/0", "b/1", "c/0", "c/1"],  # 101, segment-wide
        [],                                          # 102: from a's state
        [],
    ]
    assert all(e.open_jobs == frozenset()
               for e in w.ledger_map(cfg.name).values())
    assert sorted(w.job_ids(cfg.name)) == sorted(LB_JOBS)
    w.close()


def test_through_day_seed_then_append_is_exact(corpus):
    """A windowed seed records open jobs and their scan states like any
    other run: the append continues the jobs crossing the window from
    them, reads no seeded file again, and ends equal to the one-shot
    ingest."""
    cfg, root, accounting = corpus[:3]
    w, _ = _ingest(corpus, root, through_day=2)
    ledger = w.ledger_map(cfg.name)
    crossing = {(host, jobid) for (host, _day), e in ledger.items()
                for jobid in e.open_jobs}
    assert crossing and set(w.scan_states(cfg.name)) <= crossing
    _, report = _ingest(corpus, root, warehouse=w, mode="append")
    assert report.delta.files_lookback == 0 < report.delta.files_new
    assert tables(w) == tables(_ingest(corpus, root)[0])


@pytest.mark.parametrize("point", ["scan_state", "ledger"])
def test_kill_inside_the_closing_transaction_leaves_the_old_state(
        lookback_corpus, tmp_path, point):
    """An append killed after it wrote its scan states (or its ledger
    rows) and before the commit: the reopened warehouse is exactly the
    one the append found — ledger, states, rows — states still matching
    the ledger's open jobs, and the append run again lands on the new
    state as if nothing had happened."""
    from repro.testing.faults import KILL_EXIT, run_killed
    from tests.ingest.lookback_oracle import grow

    cfg, full, accounting = lookback_corpus
    path = str(tmp_path / "w.sqlite")
    growing = tmp_path / "grow"

    def provenance(w):
        ledger = w.ledger_map(cfg.name)
        states = w.scan_states(cfg.name)
        # On this corpus every open job can load: one state each.
        assert set(states) == {(host, jobid)
                               for (host, _label), entry in ledger.items()
                               for jobid in entry.open_jobs}
        return ledger, states, w.ingest_runs(cfg.name), tables(w)

    w = Warehouse(path)
    for hour in range(2):
        _lb_append(lookback_corpus, growing, w, hour)
    old = provenance(w)
    w.close()

    def append():  # hour 2: loads 101, closes its states, opens 102, 103
        IngestPipeline(Warehouse(path)).ingest(
            cfg, accounting_text=accounting, archive=HostArchive(growing),
            mode="append")

    grow(full, growing, [_hour_label(2)])
    assert run_killed(append, point) == KILL_EXIT
    w = Warehouse(path)
    assert provenance(w) == old

    for hour in range(2, LB_HOURS):
        _lb_append(lookback_corpus, growing, w, hour)
    assert provenance(w)[1] == {}
    oneshot = Warehouse()
    IngestPipeline(oneshot).ingest(cfg, accounting_text=accounting,
                                   archive=HostArchive(full))
    assert tables(w) == tables(oneshot)
    w.close()


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    """380 loadable jobs: more than a load once committed at a time."""
    return _make_corpus(tmp_path_factory, TEST_SYSTEM.scaled(
        num_nodes=16, horizon_days=4), seed=0, archive_format="v2")


@pytest.mark.parametrize("point", ["scan_state", "ledger"])
def test_kill_inside_a_full_ingest_leaves_only_the_systems_row(
        big_corpus, tmp_path, point):
    """A full ingest killed before its one commit reopens on the
    ``systems`` row registration committed and nothing else, and the
    same ingest run again equals the one-shot ingest.  A seed and an
    append into a registered system commit once each."""
    from repro.testing.faults import KILL_EXIT, run_killed

    cfg, root = big_corpus[:2]
    path = str(tmp_path / "w.sqlite")
    assert run_killed(lambda: _ingest(big_corpus, root, Warehouse(path)),
                      point) == KILL_EXIT
    w = Warehouse(path)
    assert w.systems() == [cfg.name] and not any(tables(w).values())
    assert not (w.ledger_map(cfg.name) or w.scan_states(cfg.name)
                or w.ingest_runs(cfg.name))
    _ingest(big_corpus, root, warehouse=w, mode="full")
    oneshot = tables(_ingest(big_corpus, root)[0])
    assert len(oneshot["jobs"]) > 256 and tables(w) == oneshot
    w.close()

    seeded, registry = Warehouse(), MetricsRegistry()
    IngestPipeline(seeded).register_system(cfg)
    with use_registry(registry):
        for n, kw in enumerate(({"through_day": 2}, {"mode": "append"}), 1):
            _ingest(big_corpus, root, warehouse=seeded, **kw)
            assert registry.counter("warehouse.commits").value == n
    assert tables(seeded) == oneshot
