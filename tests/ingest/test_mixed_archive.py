"""Mixed text/v2 archives: autodetection, conversion, scan parity.

An archive may hold any mix of plain-text, gzipped and v2 host-day
files — per-file detection means nothing is configured at read time.
These tests pin the contracts the v2 rollout rests on:

* a converted (or partially converted) archive ingests to the same
  analytics rows as the original text archive, serial and parallel;
* ``manifest()`` reports the *source* fingerprint for v2 files, so
  converting an already-ingested archive then appending consumes zero
  files (``files_new == files_lookback == 0``);
* both decoders hand the scan the same columns, and the column scan
  produces views/partials identical to the dict reference
  (``scan_host_data`` over ``read_host``) for any mix of formats, for
  files that overlap in time and for text no writer produces;
* a corrupt file — v2 or gzip — yields the same literal quarantine
  records under every error policy, and repair-mode line faults do not
  depend on the format of the host's other days;
* the v2 *write* path (``archive_format="v2"``) produces an archive
  whose ingest matches the text run of the same seed.
"""

import gzip
import io
import random
import shutil
from pathlib import Path

import pytest

from repro.config import TEST_SYSTEM
from repro.errors import ErrorPolicy, QuarantinedRecord
from repro.facility import Facility
from repro.ingest.columnar_scan import scan_host
from repro.ingest.parallel import scan_host_data
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.tacc_stats.archive import HostArchive, _file_day
from repro.tacc_stats.columnar import (
    is_v2_path,
    read_header,
    read_host_day,
)
from repro.tacc_stats.convert import _to_v2_one, convert_archive
from repro.tacc_stats.parser import ParseError, parse_host_columns
from repro.testing.faults import inject_fault
from tests.tacc_stats.test_columnar import _columns_map

N_DAYS = 3


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One small finished text archive plus accounting and Lariat."""
    cfg = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=N_DAYS, n_users=6)
    archive_dir = str(tmp_path_factory.mktemp("mixed_corpus"))
    run = Facility(cfg, seed=11).run_with_files(archive_dir)
    buf = io.StringIO()
    AccountingWriter(buf, cfg.node.cores, cfg.name).write_all(run.records)
    lariat = [lariat_record_for(r, cfg.node.cores) for r in run.records]
    return cfg, archive_dir, buf.getvalue(), lariat


def _ingest(corpus, archive_dir, warehouse=None, **kw):
    cfg, _, accounting, lariat = corpus
    warehouse = warehouse or Warehouse()
    report = IngestPipeline(warehouse).ingest(
        cfg, accounting_text=accounting, archive=HostArchive(archive_dir),
        lariat_records=lariat, **kw)
    return warehouse, report


def _data_rows(warehouse):
    """Every analytics-visible row, ordered (ledger/meta excluded)."""
    warehouse.commit()
    return {
        table: warehouse.connection.execute(
            f"SELECT {cols} FROM {table} ORDER BY {cols}").fetchall()
        for table, cols in [
            ("jobs", "system, jobid, user, account, science_field, app, "
                     "queue, exit_status, submit_time, start_time, "
                     "end_time, nodes, cores, node_hours"),
            ("job_metrics", "system, jobid, metric, value"),
            ("system_series", "system, metric, t, value"),
        ]
    }


@pytest.fixture(scope="module")
def text_rows(corpus):
    """The reference analytics rows from the all-text archive."""
    w, report = _ingest(corpus, corpus[1])
    rows = _data_rows(w)
    w.close()
    assert report.jobs_loaded > 0
    return rows


def _convert_copy(corpus, tmp_path, to="v2"):
    root = tmp_path / f"as_{to}"
    shutil.copytree(corpus[1], root)
    report = convert_archive(str(root), to=to)
    assert not report.passthrough and not report.drifted
    return str(root)


def test_converted_archive_ingests_identically(corpus, text_rows,
                                               tmp_path):
    v2_dir = _convert_copy(corpus, tmp_path)
    assert all(is_v2_path(p) for p in Path(v2_dir).rglob("*")
               if p.is_file())
    for workers in (1, 2):
        w, _ = _ingest(corpus, v2_dir, workers=workers)
        assert _data_rows(w) == text_rows, f"workers={workers}"
        w.close()


def test_mixed_archive_ingests_identically(corpus, text_rows, tmp_path):
    """Half the files v2, half text — per-file autodetection."""
    mixed = tmp_path / "mixed"
    shutil.copytree(corpus[1], mixed)
    scratch = tmp_path / "scratch"
    shutil.copytree(corpus[1], scratch)
    convert_archive(str(scratch), to="v2")
    # Swap every other host-day for its v2 twin, spanning host
    # boundaries so some hosts end up internally mixed as well.
    victims = sorted(p for p in mixed.rglob("*") if p.is_file())[::2]
    for f in victims:
        day = _file_day(f)
        v2_name = day + ".v2"
        host = f.parent.name
        shutil.copy(scratch / host / v2_name, f.parent / v2_name)
        f.unlink()
    kinds = {p.suffix for p in mixed.rglob("*") if p.is_file()}
    assert ".v2" in kinds and kinds - {".v2"}, "mix must be genuine"
    w, _ = _ingest(corpus, str(mixed))
    assert _data_rows(w) == text_rows
    w.close()


def test_a_day_in_two_formats_is_listed_once_and_read_from_v2(
        corpus, text_rows, tmp_path):
    """An interrupted conversion leaves ``<day>.gz`` beside
    ``<day>.v2``: the day is listed and fingerprinted once, as the
    ``.v2``, and read from it — its ``.gz`` twin is garbage here, which
    a strict ingest would refuse."""
    both = tmp_path / "both"
    shutil.copytree(corpus[1], both)
    v2_dir = Path(_convert_copy(corpus, tmp_path))
    doubled = set()
    for host_dir in sorted(both.iterdir()):
        gz = sorted(host_dir.iterdir())[0]
        day = _file_day(gz)
        shutil.copy(v2_dir / host_dir.name / f"{day}.v2", host_dir)
        gz.write_bytes(b"not a gzip stream")
        doubled.add((host_dir.name, day))
    archive = HostArchive(str(both))
    manifest = archive.manifest()
    for host in archive.hostnames():
        listed = [(host, _file_day(p)) for p in archive.host_files(host)]
        days = {(host, _file_day(p)) for p in (both / host).iterdir()}
        assert listed == sorted(days)
        assert sorted(k for k in manifest if k[0] == host) == listed
    for key in doubled:
        assert Path(manifest[key].path).suffix == ".v2", key
    w, report = _ingest(corpus, str(both))
    assert report.jobs_loaded > 0
    assert _data_rows(w) == text_rows
    w.close()


def test_manifest_reports_source_fingerprint(corpus, tmp_path):
    v2_dir = _convert_copy(corpus, tmp_path)
    orig = HostArchive(corpus[1]).manifest()
    conv = HostArchive(v2_dir).manifest()
    assert orig.keys() == conv.keys()
    for key, fp in orig.items():
        assert conv[key].sha256 == fp.sha256, key


def test_convert_then_append_consumes_zero_files(corpus, tmp_path):
    work = tmp_path / "append_archive"
    shutil.copytree(corpus[1], work)
    w, _ = _ingest(corpus, str(work))
    convert_archive(str(work), to="v2")
    rows_before = _data_rows(w)
    _, report = _ingest(corpus, str(work), warehouse=w, mode="append")
    assert report.delta.files_new == 0
    assert report.delta.files_lookback == 0
    assert _data_rows(w) == rows_before
    w.close()


def test_v2_to_text_roundtrip_restores_archive(corpus, tmp_path):
    v2_dir = _convert_copy(corpus, tmp_path)
    back = tmp_path / "back_to_text"
    report = convert_archive(v2_dir, to="text", out_root=str(back))
    assert not report.passthrough and not report.drifted
    orig_files = sorted(p.relative_to(corpus[1])
                        for p in Path(corpus[1]).rglob("*") if p.is_file())
    back_files = sorted(p.relative_to(back)
                        for p in back.rglob("*") if p.is_file())
    assert orig_files == back_files
    for rel in orig_files:
        assert (back / rel).read_bytes() \
            == (Path(corpus[1]) / rel).read_bytes(), rel


def _assert_scan_equals_reference(archive, hostname):
    """scan_host == the dict reducers over the HostData edge view."""
    scan, records, status = scan_host(archive, hostname)
    assert records == () and status == "ok"
    reference = scan_host_data(archive.read_host(hostname))
    assert scan.views == reference.views
    assert scan.partials == reference.partials
    return scan


def test_columnar_scan_matches_generic_path(corpus, tmp_path):
    v2_dir = _convert_copy(corpus, tmp_path)
    for root in (corpus[1], v2_dir):
        archive = HostArchive(root)
        for hostname in archive.hostnames():
            scan = _assert_scan_equals_reference(archive, hostname)
            assert scan.partials


def test_both_decoders_give_the_same_columns(corpus, tmp_path):
    v2_dir = Path(_convert_copy(corpus, tmp_path))
    n = 0
    for src in sorted(p for p in Path(corpus[1]).rglob("*") if p.is_file()):
        v2 = v2_dir / src.parent.name / (_file_day(src) + ".v2")
        assert _columns_map(read_host_day(v2)) == _columns_map(
            parse_host_columns(HostArchive.read_file(src)))
        n += 1
    assert n >= 4 * N_DAYS


def _mixed_host(corpus, tmp_path):
    """One corpus host with day 1 converted to v2, the rest still gz."""
    mixed = tmp_path / "mixed_host"
    shutil.copytree(corpus[1], mixed)
    hostname = HostArchive(str(mixed)).hostnames()[0]
    host_dir = mixed / hostname
    src = sorted(host_dir.iterdir())[0]
    assert _to_v2_one(src, host_dir / (_file_day(src) + ".v2"),
                      verify=True)
    src.unlink()
    kinds = [p.suffix for p in sorted(host_dir.iterdir())]
    assert kinds[0] == ".v2" and set(kinds[1:]) == {".gz"}
    return HostArchive(str(mixed)), hostname


def test_scan_host_mixed_formats_and_overlap_match_reference(corpus,
                                                             tmp_path):
    """No host is handed to another path: v2 + gz days in one host, and
    files that overlap in time, scan to what the dict reference gets."""
    archive, hostname = _mixed_host(corpus, tmp_path)
    mixed = _assert_scan_equals_reference(archive, hostname)
    original = scan_host(HostArchive(corpus[1]), hostname)[0]
    assert mixed == original

    # Overlap: deal one day's blocks alternately into two files, so the
    # merge has to interleave them back into time order.
    overlap = tmp_path / "overlap"
    (overlap / hostname).mkdir(parents=True)
    day = sorted((Path(corpus[1]) / hostname).iterdir())[1]
    lines = HostArchive.read_file(day).splitlines(keepends=True)
    starts = [i for i, ln in enumerate(lines) if ln[0].isdigit()]
    header = lines[:starts[0]]
    blocks = [lines[s:e] for s, e in zip(starts, [*starts[1:], None])]
    assert len(blocks) > 4
    for name, part in (("2013-01-01", blocks[0::2]),
                       ("2013-01-02", blocks[1::2])):
        (overlap / hostname / name).write_text(
            "".join(header + [ln for blk in part for ln in blk]))
    dealt = _assert_scan_equals_reference(HostArchive(str(overlap)),
                                          hostname)
    whole = tmp_path / "whole"
    (whole / hostname).mkdir(parents=True)
    shutil.copy(day, whole / hostname / day.name)
    assert dealt == scan_host(HostArchive(str(whole)), hostname)[0]
    assert dealt.partials


def test_scan_host_noncanonical_text_matches_reference(corpus, tmp_path):
    """Text no writer produces — a block's rows in any order, devices
    missing from some blocks, a repeated timestamp, fractional seconds —
    scans to what the dict reference gets."""
    rng = random.Random(5)
    root = tmp_path / "odd"
    hostname = HostArchive(corpus[1]).hostnames()[1]
    (root / hostname).mkdir(parents=True)
    for src in sorted((Path(corpus[1]) / hostname).iterdir()):
        out, rows = [], []
        frac = rng.choice(["0", "25", "50"])

        def end_block():
            rng.shuffle(rows)
            out.extend(r for r in rows if rng.random() > 0.03)
            rows.clear()

        for ln in HostArchive.read_file(src).splitlines(keepends=True):
            if ln[0].isdigit():
                end_block()
                stamp, tag = ln.split()
                stamped = f"{stamp}.{frac} {tag}\n"
                if rng.random() < 0.05:
                    out.append(stamped)  # an empty same-time block first
                out.append(stamped)
            elif ln[0] in "$!%":
                out.append(ln)
            else:
                rows.append(ln)
        end_block()
        (root / hostname / _file_day(src)).write_text("".join(out))
    scan = _assert_scan_equals_reference(HostArchive(str(root)), hostname)
    assert scan.partials


def _record(hostname, path, kind, error, lineno=None, text=""):
    return QuarantinedRecord(hostname=hostname, path=str(path),
                             lineno=lineno, kind=kind, error=error,
                             text=text)


def test_corrupt_v2_quarantine_parity(corpus, tmp_path):
    """One corrupt file, v2 or gzip: the literal records per policy."""
    for fmt in ("v2", "gz"):
        _check_corrupt_file_records(corpus, tmp_path, fmt)


def _check_corrupt_file_records(corpus, tmp_path, fmt):
    root = (_convert_copy(corpus, tmp_path) if fmt == "v2"
            else shutil.copytree(corpus[1], tmp_path / "as_gz"))
    archive = HostArchive(root)
    hostname = archive.hostnames()[0]
    victim = sorted((Path(root) / hostname).glob(f"*.{fmt}"))[0]
    blob = bytearray(victim.read_bytes())
    # v2: a byte inside a column chunk; gzip: a byte of the CRC trailer.
    pos = len(blob) // 2 if fmt == "v2" else len(blob) - 6
    blob[pos] ^= 0xFF
    victim.write_bytes(bytes(blob))
    if fmt == "v2":
        chunk = next(
            c["name"] for c in _v2_footer(victim)["chunks"]
            if c["offset"] <= pos < c["offset"] + c["nbytes"])
        error = (f"V2FormatError: {victim.name}: chunk {chunk} digest "
                 f"mismatch (file is corrupt)")
    else:
        with pytest.raises(gzip.BadGzipFile) as gz_err:
            gzip.decompress(victim.read_bytes())
        error = f"BadGzipFile: {gz_err.value}"
    expected = (_record(hostname, victim, "unreadable_file", error),)

    assert scan_host(archive, hostname, policy=ErrorPolicy.QUARANTINE) \
        == (None, expected, "dropped")

    scan, records, status = scan_host(archive, hostname,
                                      policy=ErrorPolicy.REPAIR)
    assert (records, status) == (expected, "degraded")
    # Repair keeps the other days: the scan of the host minus the file.
    victim.unlink()
    assert scan == scan_host(archive, hostname)[0]
    assert scan.partials
    victim.write_bytes(bytes(blob))

    with pytest.raises(ParseError if fmt == "v2" else OSError):
        scan_host(archive, hostname, policy=ErrorPolicy.STRICT)


def _v2_footer(path):
    import json
    import struct
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[-16:-8])
    return json.loads(blob[-16 - n:-16])


def test_repair_line_faults_same_in_mixed_and_text_host(corpus, tmp_path):
    """A corrupt text day repairs to the same records and partials
    whether the host's other days are text or v2."""
    archive, hostname = _mixed_host(corpus, tmp_path)
    text_root = tmp_path / "all_text"
    shutil.copytree(corpus[1], text_root)
    outcomes = []
    for root in (Path(archive.root), text_root):
        victim = sorted((root / hostname).glob("*.gz"))[-1]
        fault = inject_fault(victim, "bit_flip", seed=9)
        scan, records, status = scan_host(
            HostArchive(str(root)), hostname, policy=ErrorPolicy.REPAIR)
        assert status == "degraded"
        assert [(r.kind, r.lineno, Path(r.path).name) for r in records] \
            == [("malformed_record", fault.lineno, victim.name)]
        outcomes.append((scan, [(r.error, r.text) for r in records]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].partials


@pytest.fixture(scope="module")
def v2_written(corpus, tmp_path_factory):
    """The corpus's seed written as v2 in the first place (no text)."""
    v2_dir = str(tmp_path_factory.mktemp("v2_write"))
    Facility(corpus[0], seed=11).run_with_files(v2_dir,
                                                archive_format="v2")
    return v2_dir


def test_v2_write_path_matches_text_run(corpus, text_rows, v2_written):
    files = [p for p in Path(v2_written).rglob("*") if p.is_file()]
    assert files and all(is_v2_path(p) for p in files)
    # No text predecessor: every file carries a content fingerprint,
    # which is what the manifest reports for it.
    manifest = HostArchive(v2_written).manifest()
    assert len(manifest) == len(files)
    for fp in manifest.values():
        header = read_header(Path(fp.path))
        assert header["source_kind"] == "v2"
        assert header["source_sha256"] == fp.sha256
    w, report = _ingest(corpus, v2_written)
    assert report.jobs_loaded > 0
    assert _data_rows(w) == text_rows
    w.close()


def test_nightly_append_over_v2_written_archive(corpus, text_rows,
                                                v2_written):
    """Day 1 ingested, the rest appended, then the same archive offered
    again: the content fingerprints match the ledger, so nothing is
    read twice, and the result is the one-shot ingest."""
    w, _ = _ingest(corpus, v2_written, through_day=1)
    _, report = _ingest(corpus, v2_written, warehouse=w, mode="append")
    assert report.delta.files_new > 0
    assert _data_rows(w) == text_rows
    _, again = _ingest(corpus, v2_written, warehouse=w, mode="append")
    assert again.delta.files_new == 0
    assert _data_rows(w) == text_rows
    w.close()


def test_v2_written_archive_to_text_is_reported_drifted(
        corpus, text_rows, v2_written, tmp_path):
    """A file written as v2 never had a text form to restore: the text
    copy is stored the default way, ingests to the same rows, and is a
    *different archive* to a ledger built from the v2 files."""
    as_text = tmp_path / "as_text"
    report = convert_archive(v2_written, to="text", out_root=str(as_text))
    files = [p for p in as_text.rglob("*") if p.is_file()]
    assert files and all(p.suffix == ".gz" for p in files)
    assert report.converted == len(files) and not report.passthrough
    assert len(report.drifted) == len(files)
    for p in files:  # mtime=0, as the archive's own writer stores them
        assert p.read_bytes() == gzip.compress(
            gzip.decompress(p.read_bytes()), compresslevel=6, mtime=0)
    w, _ = _ingest(corpus, str(as_text))
    assert _data_rows(w) == text_rows
    w.close()
    ledgered, _ = _ingest(corpus, v2_written)
    with pytest.raises(ValueError, match="mutated since it was ingested"):
        _ingest(corpus, str(as_text), warehouse=ledgered, mode="append")
    ledgered.close()
