"""The fault matrix: every injected corruption × every error policy.

The headline guarantees proved here:

* ``strict`` still fails loudly on every fatal fault kind.
* ``quarantine`` produces a warehouse byte-identical to ingesting only
  the clean hosts, with an :class:`IngestHealth` accounting for every
  quarantined record.
* ``repair`` salvages corrupt hosts as *degraded* instead of dropping
  them.
* Transient worker death and wedged workers are retried with backoff;
  hosts that keep failing get a definitive verdict without taking
  innocent hosts down with them.
* Snapshot/report caches built over a degraded warehouse stay correct.
"""

import functools
import io
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.config import TEST_SYSTEM
from repro.errors import ErrorPolicy, HostScanError, IngestHealth
from repro.facility import Facility
from repro.ingest.parallel import scan_archive
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter, parse_accounting
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.columnar import _encode_columns, read_host_day
from repro.tacc_stats.convert import convert_archive
from repro.tacc_stats.parser import ParseError
from repro.testing.faults import (
    BENIGN_KINDS,
    FATAL_KINDS,
    corrupt_archive,
    crashy_scan,
    inject_fault,
    sleepy_scan,
)
from repro.util.timeutil import DAY
from repro.xdmod.query import JobQuery
from repro.xdmod.snapshot import WarehouseSnapshot
from tests.parity import tables
from tests.testing.test_faults import GZ_KINDS


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small finished archive plus its accounting and Lariat logs."""
    cfg = TEST_SYSTEM.scaled(num_nodes=6, horizon_days=1, n_users=8)
    archive_dir = str(tmp_path_factory.mktemp("fault_corpus"))
    run = Facility(cfg, seed=33).run_with_files(archive_dir)
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    return cfg, archive_dir, buf.getvalue(), lariat


def _corrupted_copy(corpus, tmp_path, hosts):
    """A private copy of the corpus archive with ``{host: kind}`` faults."""
    _cfg, archive_dir, _acct, _lar = corpus
    dst = tmp_path / "archive"
    shutil.copytree(archive_dir, dst)
    injected = corrupt_archive(dst, hosts, seed=77)
    return dst, injected


def _ingest(corpus, archive_root, **kw):
    """Run the pipeline over *archive_root*; return (warehouse, report)."""
    cfg, _dir, accounting, lariat = corpus
    w = Warehouse()
    report = IngestPipeline(w).ingest(
        cfg, accounting_text=accounting, archive=HostArchive(archive_root),
        lariat_records=lariat, **kw)
    return w, report


# -- malformed data x policy -------------------------------------------------


@pytest.mark.parametrize("kind", FATAL_KINDS)
def test_strict_still_fails_loudly(corpus, tmp_path, kind):
    """Every fatal fault kind aborts a strict ingest: with ParseError,
    or with the decompressor's error for a damaged container."""
    victim = HostArchive(corpus[1]).hostnames()[1]
    root, _ = _corrupted_copy(corpus, tmp_path, {victim: kind})
    with pytest.raises(GZ_KINDS.get(kind, ParseError)):
        _ingest(corpus, root)  # error_policy defaults to strict


@pytest.mark.parametrize("kind", GZ_KINDS)
def test_damaged_gzip_container_is_an_unreadable_file(corpus, tmp_path,
                                                      kind):
    """A .gz cut short (EOFError) or with a flipped deflate bit
    (zlib.error) used to escape every policy with a traceback.  Now:
    quarantine drops the host and equals an ingest of the clean hosts;
    repair keeps the host's other files."""
    hostnames = HostArchive(corpus[1]).hostnames()
    victim = hostnames[2]
    root, (fault,) = _corrupted_copy(corpus, tmp_path, {victim: kind})
    assert len(list((Path(root) / victim).iterdir())) > 1

    w_q, report = _ingest(corpus, root, error_policy="quarantine")
    clean_root = tmp_path / "clean"
    shutil.copytree(corpus[1], clean_root)
    shutil.rmtree(clean_root / victim)
    assert tables(w_q) == tables(_ingest(corpus, clean_root)[0])
    assert report.health.hosts_dropped == [victim]
    (rec,) = report.health.quarantined
    assert (rec.hostname, rec.path, rec.lineno, rec.kind) == (
        victim, fault.path, None, "unreadable_file")
    assert rec.error.startswith(GZ_KINDS[kind].__name__ + ": ")

    w_r, report = _ingest(corpus, root, error_policy="repair")
    assert report.health.hosts_degraded == [victim]
    assert report.health.hosts_dropped == []
    assert [(r.path, r.kind) for r in report.health.quarantined] == [
        (fault.path, "unreadable_file")]
    # The host's other files still load: every job with a block in a
    # readable file is there, and the jobs whose only blocks were in
    # the damaged file are the ones the match finds no stats for.
    archive = HostArchive(root)
    readable = {
        jobid
        for host in archive.hostnames()
        for day in archive.read_host_days(host, paths=[
            p for p in archive.host_files(host) if str(p) != fault.path])[0]
        for jobids in day.block_jobids() for jobid in jobids}
    clean = _ingest(corpus, corpus[1])[0].job_ids(corpus[0].name)
    lost = clean - readable
    assert lost
    assert w_r.job_ids(corpus[0].name) == clean - lost
    assert sorted(report.match.no_stats) == sorted(lost)


@pytest.mark.parametrize("kind", BENIGN_KINDS)
def test_benign_kinds_parse_clean_under_every_policy(corpus, tmp_path, kind):
    """Crash-consistent truncation, empty files and duplicate timestamps
    are tolerated by design — no policy quarantines anything for them."""
    victim = HostArchive(corpus[1]).hostnames()[0]
    root, _ = _corrupted_copy(corpus, tmp_path, {victim: kind})
    for policy in ErrorPolicy:
        w, report = _ingest(corpus, root, error_policy=policy.value)
        assert report.jobs_loaded > 0
        if report.health is not None and policy is not ErrorPolicy.STRICT:
            assert report.health.hosts_dropped == []
            assert report.health.records_quarantined == 0


def test_quarantine_warehouse_byte_identical_to_clean_hosts(
        corpus, tmp_path):
    """THE acceptance guarantee: with k corrupted hosts, the quarantine
    warehouse equals the warehouse from ingesting only the n-k clean
    hosts — byte for byte — and the health accounts for every record."""
    hostnames = HostArchive(corpus[1]).hostnames()
    victims = {hostnames[1]: "bit_flip", hostnames[3]: "missing_schema",
               hostnames[4]: "garbage_lines"}
    root, injected = _corrupted_copy(corpus, tmp_path, victims)

    w_q, report = _ingest(corpus, root, error_policy="quarantine")

    clean_root = tmp_path / "clean"
    shutil.copytree(corpus[1], clean_root)
    for victim in victims:
        shutil.rmtree(clean_root / victim)
    w_c, _ = _ingest(corpus, clean_root)

    assert tables(w_q) == tables(w_c)

    health = report.health
    assert sorted(health.hosts_dropped) == sorted(victims)
    assert sorted(health.hosts_ok) == sorted(
        set(hostnames) - set(victims))
    assert health.hosts_degraded == []
    # Every quarantined record carries provenance into a victim's files.
    assert health.records_quarantined >= len(victims)
    for rec in health.quarantined:
        assert rec.hostname in victims
        assert rec.hostname in rec.path
        assert rec.error
    quarantined_hosts = {r.hostname for r in health.quarantined}
    assert quarantined_hosts == set(victims)


@pytest.mark.parametrize("fmt", ["text", "v2"])
def test_wrong_hostname_every_policy_both_formats(corpus, tmp_path, fmt):
    """The directory name is authoritative under every policy and in
    both formats: a host whose files ALL claim another hostname is
    never ingested under the claimed name."""
    victim = HostArchive(corpus[1]).hostnames()[2]
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    files = sorted((root / victim).iterdir())
    for i, path in enumerate(files):
        inject_fault(path, "wrong_hostname", seed=i)
    if fmt == "v2":
        report = convert_archive(str(root), to="v2")
        assert not report.passthrough
        files = sorted((root / victim).iterdir())
        assert all(p.suffix == ".v2" for p in files)

    with pytest.raises(ParseError, match=f"claims hostname 'not-{victim}'"):
        _ingest(corpus, root)

    clean_root = tmp_path / "clean"
    shutil.copytree(corpus[1], clean_root)
    shutil.rmtree(clean_root / victim)
    clean_rows = tables(_ingest(corpus, clean_root)[0])
    expected = [(victim, str(p), None, "hostname_mismatch",
                 f"file claims hostname 'not-{victim}'") for p in files]
    for policy, outcome in (("quarantine", "hosts_dropped"),
                            ("repair", "hosts_degraded")):
        w, report = _ingest(corpus, root, error_policy=policy)
        assert getattr(report.health, outcome) == [victim]
        assert [(r.hostname, r.path, r.lineno, r.kind, r.error)
                for r in report.health.quarantined] == expected
        assert tables(w) == clean_rows
        jobs = {r[1] for r in tables(w)["jobs"]}
        assert jobs, "the other hosts still load"


def _overflow_v2(path: Path) -> None:
    """The counter_overflow fault in a v2 file: 2**W added to the first
    value of its first narrow column, re-encoded under the file's own
    fingerprint (as bit-rot in a register read would leave it)."""
    day = read_host_day(path)
    victim = next(tc for tc in day.types if tc.schema.narrow)
    col, width = victim.schema.narrow[0]
    values = victim.values.copy()
    values[0, col] += np.uint64(1 << width)
    blob = _encode_columns(
        replace(day, types=[replace(tc, values=values) if tc is victim
                            else tc for tc in day.types]),
        (day.header["source_sha256"], day.header["source_kind"]))[0]
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)  # the mapping of the old bytes keeps its inode


@pytest.mark.parametrize("fmt", ["text", "v2"])
def test_counter_overflow_every_policy_both_formats(corpus, tmp_path, fmt):
    """A value wider than its column's ``W=`` used to decode silently
    and then fail every policy from the reduce (a ``ValueError``), or
    load unread.  Now the decoders judge it: strict raises ParseError,
    repair sets aside the text row or the whole v2 file, and quarantine
    drops the host, leaving what the clean hosts alone give."""
    victim = HostArchive(corpus[1]).hostnames()[1]
    root = tmp_path / "archive"
    shutil.copytree(corpus[1], root)
    if fmt == "v2":
        convert_archive(str(root), to="v2")
    path = sorted((root / victim).iterdir())[0]
    lineno = (inject_fault(path, "counter_overflow", seed=4).lineno
              if fmt == "text" else _overflow_v2(path))

    with pytest.raises(ParseError, match="out of range for width"):
        _ingest(corpus, root)

    _, report = _ingest(corpus, root, error_policy="repair")
    assert report.health.hosts_degraded == [victim]
    (rec,) = report.health.quarantined
    assert (rec.path, rec.kind, rec.lineno) == (
        str(path), "malformed_record" if lineno else "unreadable_file",
        lineno)
    assert "counter value out of range for width" in rec.error

    w_q, report = _ingest(corpus, root, error_policy="quarantine")
    assert report.health.hosts_dropped == [victim]
    clean_root = tmp_path / "clean"
    shutil.copytree(corpus[1], clean_root)
    shutil.rmtree(clean_root / victim)
    assert tables(w_q) == tables(_ingest(corpus, clean_root)[0])


def test_quarantine_writes_sidecar_and_warehouse_meta(corpus, tmp_path):
    """The quarantine report is persisted twice: a sidecar next to the
    archive and a JSON blob in the warehouse meta table."""
    victim = HostArchive(corpus[1]).hostnames()[2]
    root, _ = _corrupted_copy(corpus, tmp_path, {victim: "bit_flip"})
    w, report = _ingest(corpus, root, error_policy="quarantine")

    sidecar = IngestHealth.read_sidecar(Path(root) / "quarantine")
    assert sidecar.hosts_dropped == [victim]
    assert [r.to_dict() for r in sidecar.quarantined] == \
        [r.to_dict() for r in report.health.quarantined]
    # The sidecar directory is reserved — never mistaken for a host.
    assert "quarantine" not in HostArchive(root).hostnames()

    stored = w.ingest_health(corpus[0].name)
    assert stored == report.health.to_dict()
    assert IngestHealth.from_dict(stored).hosts_dropped == [victim]


def test_repair_salvages_degraded_host(corpus, tmp_path):
    """bit_flip under repair: the host loads minus exactly the bad row,
    with the skipped record quarantined at its line."""
    victim = HostArchive(corpus[1]).hostnames()[1]
    root, injected = _corrupted_copy(corpus, tmp_path, {victim: "bit_flip"})
    w, report = _ingest(corpus, root, error_policy="repair")

    health = report.health
    assert health.hosts_degraded == [victim]
    assert health.hosts_dropped == []
    assert health.records_quarantined == 1
    rec = health.quarantined[0]
    assert rec.hostname == victim
    assert rec.lineno == injected[0].lineno
    assert rec.kind == "malformed_record"
    # Repair keeps the host's jobs in the warehouse (strict on the clean
    # corpus loads the same job set).
    w_clean, _ = _ingest(corpus, corpus[1])
    assert {r[1] for r in tables(w)["jobs"]} == {
        r[1] for r in tables(w_clean)["jobs"]}


def test_repair_report_str_mentions_health(corpus, tmp_path):
    victim = HostArchive(corpus[1]).hostnames()[1]
    root, _ = _corrupted_copy(corpus, tmp_path, {victim: "bit_flip"})
    _, report = _ingest(corpus, root, error_policy="repair")
    assert "degraded=1" in str(report)


# -- transient worker failure x retry ----------------------------------------


def test_transient_worker_death_is_retried(corpus, tmp_path, pool_cpus):
    """A worker OOM-killed once recovers on retry: every host scans ok,
    the retries are accounted, and nothing is quarantined."""
    archive = HostArchive(corpus[1])
    victim = archive.hostnames()[2]
    scan_fn = functools.partial(
        crashy_scan, str(tmp_path), (victim,), 1)
    health = IngestHealth(policy="quarantine")
    scans = list(scan_archive(
        archive, workers=2, allow_truncated=True,
        policy="quarantine", health=health, max_retries=2,
        retry_backoff=0.01, scan_fn=scan_fn))
    assert [s.hostname for s in scans] == archive.hostnames()
    assert sorted(health.hosts_ok) == archive.hostnames()
    assert health.hosts_dropped == []
    assert health.retries.get(victim, 0) >= 1


def test_permanent_crasher_dropped_without_collateral(corpus, tmp_path, pool_cpus):
    """A host whose scan always dies is dropped after its retries — and
    only that host: innocents sharing its rounds survive via the
    isolation probe."""
    archive = HostArchive(corpus[1])
    victim = archive.hostnames()[0]
    scan_fn = functools.partial(
        crashy_scan, str(tmp_path), (victim,), -1)
    health = IngestHealth(policy="quarantine")
    scans = list(scan_archive(
        archive, workers=2, allow_truncated=True,
        policy="quarantine", health=health, max_retries=1,
        retry_backoff=0.01, scan_fn=scan_fn))
    survivors = [h for h in archive.hostnames() if h != victim]
    assert [s.hostname for s in scans] == survivors
    assert health.hosts_dropped == [victim]
    assert sorted(health.hosts_ok) == survivors
    rec = health.quarantined[0]
    assert rec.kind == "scan_failure"
    assert "worker died" in rec.error


def test_permanent_crasher_raises_under_strict(corpus, tmp_path, pool_cpus):
    archive = HostArchive(corpus[1])
    victim = archive.hostnames()[0]
    scan_fn = functools.partial(
        crashy_scan, str(tmp_path), (victim,), -1)
    with pytest.raises(HostScanError, match=victim):
        list(scan_archive(
            archive, workers=2, allow_truncated=True,
            max_retries=1, retry_backoff=0.01, scan_fn=scan_fn))


def test_wedged_worker_times_out_and_is_dropped(corpus, tmp_path, pool_cpus):
    """A worker that hangs past the round deadline is terminated and its
    host dropped (quarantine policy) instead of wedging the ingest."""
    archive = HostArchive(corpus[1])
    victim = archive.hostnames()[1]
    scan_fn = functools.partial(sleepy_scan, (victim,), 60.0)
    health = IngestHealth(policy="quarantine")
    scans = list(scan_archive(
        archive, workers=2, allow_truncated=True,
        policy="quarantine", health=health, max_retries=0,
        retry_backoff=0.01, timeout=2.0, scan_fn=scan_fn))
    assert victim not in [s.hostname for s in scans]
    assert health.hosts_dropped == [victim]
    assert "timeout" in health.quarantined[0].error


# -- analytics over a degraded warehouse -------------------------------------


def test_snapshot_and_report_cache_over_degraded_warehouse(
        corpus, tmp_path):
    """The PR2 analytics layer is oblivious to how the warehouse got its
    rows: snapshots and memoized queries over a quarantine-degraded
    warehouse equal fresh computations, and re-ingest invalidates."""
    victim = HostArchive(corpus[1]).hostnames()[1]
    root, _ = _corrupted_copy(corpus, tmp_path, {victim: "bit_flip"})
    w, report = _ingest(corpus, root, error_policy="quarantine")

    q = JobQuery(w, corpus[0].name)
    cold_groups = q.group_by("user", metrics=("cpu_idle",))
    cold_hours = q.node_hours
    snap = WarehouseSnapshot.for_warehouse(w)
    misses = snap.cache_stats["misses"]

    q2 = JobQuery(w, corpus[0].name)
    assert q2.group_by("user", metrics=("cpu_idle",)) == cold_groups
    assert q2.node_hours == cold_hours
    assert snap.cache_stats["misses"] == misses  # pure memo hits

    # Mutating the warehouse (storing new health) moves the data
    # version; the refreshed snapshot appends nothing (meta-only write)
    # but must still serve correct results.
    stamp = snap.stamp
    w.set_ingest_health(corpus[0].name, report.health)
    w.commit()
    snap2 = WarehouseSnapshot.for_warehouse(w)
    assert snap2.stamp != stamp
    q3 = JobQuery(w, corpus[0].name)
    assert q3.group_by("user", metrics=("cpu_idle",)) == cold_groups


# -- faults in a look-back cell ------------------------------------------------


@pytest.fixture(scope="module")
def two_day_corpus(tmp_path_factory):
    """Two days, so day-1 files are look-back cells of the day-2 append."""
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=2, n_users=6)
    archive_dir = str(tmp_path_factory.mktemp("fault_corpus_2d"))
    run = Facility(cfg, seed=11).run_with_files(archive_dir)
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    return cfg, archive_dir, buf.getvalue(), lariat


@pytest.mark.parametrize("kind", ["bit_flip", "wrong_hostname",
                                  "gz_truncated", "gz_bit_flip"])
@pytest.mark.parametrize("policy", ["quarantine", "repair"])
def test_fault_in_lookback_cell_stays_conservative(two_day_corpus, tmp_path,
                                                   policy, kind):
    """A faulty first-day file records no job set and its host keeps no
    scan state, so the append that loads the jobs crossing midnight is
    offered it again — same ledger status, same quarantine records —
    while the clean hosts continue from their states unread; the
    batched warehouse equals the one-shot one."""
    from tests.ingest.lookback_oracle import (
        archive_cells,
        expected_lookback,
        grow,
        mentioned_jobs,
        segment_labels,
    )

    cfg, clean, accounting, lariat = two_day_corpus
    labels = segment_labels(clean)
    # The victim: a first-day file holding a job that ends later.
    ends = {e.job_number: e.end_time
            for e in parse_accounting(accounting)}
    victim = next(
        cell for cell, path in sorted(archive_cells(clean).items())
        if cell[1] == labels[0]
        and any(ends.get(j, 0) >= DAY for j in mentioned_jobs(path)))
    faulted = tmp_path / "faulted"
    shutil.copytree(clean, faulted)
    inject_fault(archive_cells(faulted)[victim], kind, seed=5)

    oneshot, _ = _ingest(two_day_corpus, faulted, error_policy=policy)

    def append(labels_so_far, warehouse):
        grow(faulted, tmp_path / "growing", labels_so_far)
        return IngestPipeline(warehouse).ingest(
            cfg, accounting_text=accounting, lariat_records=lariat,
            archive=HostArchive(tmp_path / "growing"), mode="append",
            error_policy=policy)

    w = Warehouse()
    first = append(labels[:1], w)
    status = "dropped" if policy == "quarantine" else "degraded"
    assert w.ledger_map(cfg.name)[victim].status == status
    assert w.ledger_map(cfg.name)[victim].open_jobs is None

    # What the append must open again: the victim, because nobody
    # knows what it holds — and no file of a host that was kept whole.
    assert {host for host, _job in w.scan_states(cfg.name)} == {
        host for host, _label in archive_cells(clean)} - {victim[0]}
    grow(faulted, tmp_path / "growing", labels[1:])
    reread = expected_lookback(
        tmp_path / "growing", set(w.ledger_map(cfg.name)),
        accounting, w.job_ids(cfg.name), cfg.sample_interval,
        unknown={victim})
    assert reread == {victim}
    second = append(labels[1:], w)
    assert second.delta.files_lookback == len(reread)
    # Offered to the policy again: the same records, the same verdict.
    assert second.health.quarantined == first.health.quarantined
    assert [r.path for r in second.health.quarantined] == [
        str(tmp_path / "growing" / victim[0]
            / archive_cells(faulted)[victim].name)]
    entry = w.ledger_map(cfg.name)[victim]
    assert (entry.status, entry.open_jobs) == (status, None)
    assert entry.run_id == second.run_id
    assert tables(w) == tables(oneshot)
