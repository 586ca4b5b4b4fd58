"""On-disk archive of per-host stats files, one per host-day.

Layout mirrors the production deployment::

    <root>/<hostname>/<YYYY-MM-DD>        (current, plain text)
    <root>/<hostname>/<YYYY-MM-DD>.gz     (rotated, compressed)
    <root>/<hostname>/<YYYY-MM-DD>.v2     (binary columnar, v2)

Files rotate daily, as TACC_Stats does.  A live deployment does not cut
more files: each :meth:`HostArchive.flush_before` appends what a v2
day file gained since the last flush as one more unit
(:mod:`repro.tacc_stats.columnar`), so a host-day is one file however
often it is flushed.

The archive tracks raw and compressed byte counts so the paper's volume
claims (0.5 MB/node/day raw, ~3x gzip) can be measured directly
(``bench_data_volume``).

Formats are detected per file, so text and v2 host-days coexist in one
root (e.g. mid-conversion, or a v2 archive quarantining an unconvertible
text day).  ``archive_format="v2"`` makes the *writer* emit columnar
files (see :mod:`repro.tacc_stats.columnar`); readers need no knob.
An open file is its column arrays (:class:`~repro.tacc_stats.synth.HostFile`)
in either format, and becomes bytes only at close: v2 chunks, whose
text-equivalent size and fingerprint are computed from the columns, or
the text :meth:`HostColumns.to_text` renders, gzipped when ``compress``.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import math
import os
import zlib
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import (
    QUARANTINE_DIRNAME,
    ErrorPolicy,
    QuarantinedRecord,
)
from repro.tacc_stats.columnar import (
    V2_SUFFIX,
    V2FormatError,
    file_tip,
    is_v2_path,
    read_host_day,
    rechain,
)
from repro.tacc_stats.parser import (
    ParseError,
    ParseFault,
    parse_host_columns,
)
from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.types import HostColumns, HostData
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import span
from repro.util.timeutil import DAY, day_index_to_date

if TYPE_CHECKING:
    from repro.tacc_stats.synth import HostFile

__all__ = ["HostArchive", "ArchiveStats", "FileFingerprint"]

#: What decoding a damaged file raises; the last two are a gzip stream
#: cut short and a flipped bit in one (most flips fail the CRC: OSError).
_UNREADABLE = (ParseError, OSError, UnicodeDecodeError, EOFError, zlib.error)


def _file_day(path: Path | os.DirEntry) -> str:
    """The day (``YYYY-MM-DD``) an archived file's name carries."""
    name = path.name
    if name.endswith(".gz"):
        return name[:-3]
    if name.endswith(V2_SUFFIX):
        return name[: -len(V2_SUFFIX)]
    return name


def _raw_size(path: Path) -> int:
    """Uncompressed byte count of an archived file without inflating it.

    For rotated ``.gz`` files this reads the ISIZE trailer (last four
    bytes, little-endian); host-day files are far below 4 GiB so the
    mod-2^32 caveat never bites.  v2 columnar files record the byte
    count of their text form in their units' headers (``text_bytes``),
    so "raw" keeps meaning *text-equivalent* bytes in every volume
    figure regardless of the on-disk format.
    """
    size = path.stat().st_size
    if is_v2_path(path):
        try:
            return int(read_host_day(path).header["text_bytes"])
        except (V2FormatError, KeyError, TypeError, ValueError):
            return size  # corrupt file: fall back to stored size
    if not path.name.endswith(".gz"):
        return size
    if size < 4:
        return 0
    with path.open("rb") as fh:
        fh.seek(-4, io.SEEK_END)
        return int.from_bytes(fh.read(4), "little")


def _suffix_kind(path: Path | os.DirEntry) -> str:
    """``"v2"``, ``"gz"`` or ``"text"`` from a file's name."""
    if is_v2_path(path):
        return "v2"
    return "gz" if path.name.endswith(".gz") else "text"


def _fingerprint(path: str, upto: int | None = None) -> str:
    """The content fingerprint of a file, derived from every stored
    byte: their sha256, or a v2 file's unit chain re-derived
    (:func:`~repro.tacc_stats.columnar.rechain`) up to byte *upto*
    where a unit ends there, else to its last complete unit."""
    if path.endswith(V2_SUFFIX):
        for end in dict.fromkeys((upto, None)):
            try:
                return rechain(Path(path), end)
            except V2FormatError:
                pass  # damaged: hash the stored bytes instead
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


#: ``(path, start, stop)``: the units of a v2 file between two byte
#: offsets (``stop`` ``None``: through its last complete unit).
Piece = tuple[Path, int, "int | None"]


def piece(item: str | Path | Piece) -> Piece:
    """*item* as a :data:`Piece`: a bare path is its whole file."""
    if isinstance(item, tuple):
        return Path(item[0]), item[1], item[2]
    return Path(item), 0, None


def _file_fingerprint(hostname: str, day: str, path: str,
                      stamp: tuple[int, int], known) -> FileFingerprint:
    """The :class:`FileFingerprint` of one file whose ``(size,
    mtime)`` is *stamp*, given its ledger row *known* (or ``None``)."""
    if known is not None and (known.size, known.mtime_ns) == stamp:
        return FileFingerprint(hostname, day, path, known.size, stamp[1],
                               known.sha256, known.until)
    size, until, prior = stamp[0], None, None
    if not path.endswith(V2_SUFFIX):
        digest = _fingerprint(path)
    else:
        try:
            size, digest, until = file_tip(Path(path))
        except V2FormatError:
            digest = _fingerprint(path)
        if known is not None and size == known.size:
            digest = _fingerprint(path)  # touched: derive it again
        elif known is not None and size > known.size:
            try:
                prior = file_tip(Path(path), known.size)[1]
            except V2FormatError:
                pass  # no unit ends there: the plan says "mutated"
    return FileFingerprint(hostname, day, path, size, stamp[1], digest,
                           until, prior)


def _write_unit(path: Path, offset: int, data: bytes) -> None:
    """Write *data* at byte *offset* of *path* (a new file at 0),
    cutting whatever follows: the torn tail of a writer killed
    mid-unit."""
    with path.open("r+b" if offset else "wb") as fh:
        fh.seek(offset)
        fh.write(data)
        fh.truncate()


#: Precedence when one host-day exists in several representations.
_FORMAT_RANK = {"text": 0, "gz": 1, "v2": 2}


@dataclass(frozen=True)
class FileFingerprint:
    """Identity of one archived host-day file, for delta classification.

    ``sha256`` is the authoritative change detector; ``size`` and
    ``mtime_ns`` decide whether it has to be computed again
    (:meth:`HostArchive.manifest` trusts a ledgered digest while both
    are unchanged), so touching a file without altering content costs
    one re-hash and never a re-parse.  For a v2 file ``size`` is where
    its last complete unit ends and ``sha256`` that unit's chained
    fingerprint; ``until`` is its flush time (``None``: the file is
    complete through its day), and ``prior`` the fingerprint stored at
    the ledgered size of a file that grew past it.
    """

    hostname: str
    day: str
    path: str
    size: int
    mtime_ns: int
    sha256: str
    until: float | None = None
    prior: str | None = None


@dataclass
class ArchiveStats:
    """Volume accounting for one archive."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    file_count: int = 0
    host_days: int = 0

    @property
    def bytes_per_host_day(self) -> float:
        """Raw bytes per host-day file.  Not the paper's 0.5 MB per
        node-day: a one-day run writes two files per node (the tick at
        ``t = 86 400 s`` opens day 2's), so divide by nodes x days."""
        if self.host_days == 0:
            return 0.0
        return self.raw_bytes / self.host_days

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 0.0
        return self.raw_bytes / self.compressed_bytes


class HostArchive:
    """Per-host, per-day file store.

    Parameters
    ----------
    root:
        Directory to write under (created if missing).
    compress:
        gzip files at rotation/close time (text format only; a v2 write
        is the same bytes whatever this says).
    archive_format:
        ``"text"`` (default) writes the paper-faithful self-describing
        text format; ``"v2"`` writes binary columnar files
        (:mod:`repro.tacc_stats.columnar`).  Reading always autodetects
        per file, so the knob only affects new writes.
    resume_stats:
        Seed :class:`ArchiveStats` from files already on disk the first
        time ``stats`` (or a writer) is touched, so re-opening an
        existing root resumes volume accounting instead of restarting
        from zero.  Multi-worker replay passes ``False``: each worker
        holds a private session-scoped tally that the coordinator sums,
        and eager seeding over the shared, concurrently-growing root
        would double-count sibling workers' files.
    """

    def __init__(self, root: str | Path, compress: bool = True,
                 resume_stats: bool = True, archive_format: str = "text"):
        if archive_format not in ("text", "v2"):
            raise ValueError(
                f"archive_format must be 'text' or 'v2', "
                f"got {archive_format!r}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compress = compress
        self.archive_format = archive_format
        self.resume_stats = resume_stats
        #: hostname -> (day index, its open file).
        self._open: dict[str, tuple[int, HostFile]] = {}
        self._stats: ArchiveStats | None = None
        #: stored path -> (raw, stored) contribution already counted, so
        #: a resumed writer replacing a host-day on disk swaps its
        #: contribution instead of adding on top.
        self._counted: dict[Path, tuple[int, int]] = {}

    @property
    def stats(self) -> ArchiveStats:
        """Volume accounting, lazily seeded from disk when resuming."""
        if self._stats is None:
            self._stats = ArchiveStats()
            if self.resume_stats:
                self._seed_stats()
        return self._stats

    def _seed_stats(self) -> None:
        """Fold every file already on disk into the fresh tally."""
        assert self._stats is not None
        for hostname in self.hostnames():
            for path in self.host_files(hostname):
                raw, stored = _raw_size(path), path.stat().st_size
                self._stats.raw_bytes += raw
                self._stats.compressed_bytes += stored
                self._stats.file_count += 1
                self._stats.host_days += 1
                self._counted[path] = (raw, stored)

    # -- writing ---------------------------------------------------------------

    def writer(self, hostname: str, t: float,
               new_file: Callable[[], HostFile]) -> HostFile:
        """The open file of *hostname*'s day at time *t*.  When *t* is
        past the open one's day, that file is closed and ``new_file()``
        starts the next, with its own header."""
        day = int(t // DAY)
        current = self._open.get(hostname)
        if current is not None and current[0] == day:
            return current[1]
        if current is not None:
            self._close_file(hostname, *current)
        self._open[hostname] = (day, new_file())
        return self._open[hostname][1]

    def flush_before(self, t: float) -> int:
        """Put every open file's blocks before *t* on disk; returns how
        many files were closed.

        A file whose day ended at or before *t* is closed.  A v2 file
        still open gets those blocks as one appended unit that records
        *t* as its flush time, so a reader sees every host complete
        through *t*; blocks at or after *t* stay buffered.  A text file
        is written whole when its day closes.  The live micro-batcher
        calls this at each batch boundary: rotation alone only closes a
        host's day when its next write arrives.
        """
        closed = 0
        for hostname, (day, file) in sorted(self._open.items()):
            if (day + 1) * DAY <= t:
                self._close_file(hostname, day, file)
                del self._open[hostname]
                closed += 1
            elif self.archive_format == "v2":
                self._write(hostname, day, file, t, t)
        return closed

    def _write(self, hostname: str, day: int, file: HostFile,
               before: float = math.inf, until: float | None = None) -> None:
        """Append *file*'s blocks before *before* to its v2 file as one
        unit (see :meth:`HostFile.encode_v2`) and tally it."""
        offset = file.size
        unit = file.encode_v2(before, until)
        if unit is None:
            return
        path = self.root / hostname / (day_index_to_date(day) + V2_SUFFIX)
        path.parent.mkdir(parents=True, exist_ok=True)
        stats = self.stats  # seeded from disk before this write
        _write_unit(path, offset, unit[0])
        self._tally(stats, path, unit[1], len(unit[0]), offset == 0)

    def _tally(self, stats: ArchiveStats, path: Path, raw_len: int,
               stored: int, new: bool) -> None:
        """Count *raw_len* text-equivalent and *stored* bytes written to
        *path* in *stats*, as a new file when *new*."""
        counted = self._counted.pop(path, None)
        if counted is not None and new:
            # Rewriting a host-day that was already tallied (seeded from
            # disk or written earlier this session): swap, don't add.
            stats.raw_bytes -= counted[0]
            stats.compressed_bytes -= counted[1]
            stats.file_count -= 1
            stats.host_days -= 1
            counted = None
        if counted is None:
            stats.file_count += 1
            stats.host_days += 1
            counted = (0, 0)
        stats.raw_bytes += raw_len
        stats.compressed_bytes += stored
        self._counted[path] = (counted[0] + raw_len, counted[1] + stored)
        registry = get_registry()
        if new:
            registry.counter("archive.files_written").inc()
        registry.counter("archive.units_written").inc()
        registry.counter("archive.bytes_raw").inc(raw_len)
        registry.counter("archive.bytes_compressed").inc(stored)

    def _close_file(self, hostname: str, day: int, file: HostFile) -> None:
        if self.archive_format == "v2":
            self._write(hostname, day, file)
            return
        path = self.root / hostname / day_index_to_date(day)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = file.columns().to_text().encode("utf-8")
        raw_len = len(data)
        if self.compress:
            path = path.with_name(path.name + ".gz")
            # mtime=0 keeps the stored bytes a pure function of the
            # content, so the manifest's sha256 is stable across
            # re-writes of identical data (append mode depends on it).
            data = gzip.compress(data, compresslevel=6, mtime=0)
        stats = self.stats  # seeded from disk before this write
        path.write_bytes(data)
        self._tally(stats, path, raw_len, len(data), True)

    def close(self) -> ArchiveStats:
        """Flush all open files; returns the final volume accounting."""
        for hostname, (day, file) in sorted(self._open.items()):
            self._close_file(hostname, day, file)
        self._open.clear()
        return self.stats

    # -- reading ---------------------------------------------------------------

    def _host_entries(self, hostname: str) -> list[tuple[str, os.DirEntry]]:
        """``(label, directory entry)`` of a host's files in label order,
        one per host-day: a day present in more than one representation
        (an interrupted conversion left ``2021-01-01.gz`` next to
        ``2021-01-01.v2``) is listed once, preferring ``.v2`` over
        ``.gz`` over plain text, so it is never double-read."""
        by_day: dict[str, os.DirEntry] = {}
        try:
            with os.scandir(self.root / hostname) as entries:
                for entry in entries:
                    day = _file_day(entry)
                    prev = by_day.get(day)
                    if prev is None or _FORMAT_RANK[_suffix_kind(entry)] > \
                            _FORMAT_RANK[_suffix_kind(prev)]:
                        by_day[day] = entry
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(by_day.items())

    def host_files(self, hostname: str) -> list[Path]:
        """Archived files for a host, in date order, one per host-day
        (``.v2`` over ``.gz`` over plain text)."""
        return [Path(entry.path)
                for _day, entry in self._host_entries(hostname)]

    def manifest(self, hosts: Collection[str] | None = None,
                 trusted: Mapping[tuple[str, str], object] | None = None,
                 ) -> dict[tuple[str, str], FileFingerprint]:
        """Fingerprint every archived host-day file.

        Returns ``{(hostname, day): FileFingerprint}`` so an incremental
        ingest can classify each file as new (key absent from the
        ledger), unchanged (hash matches), or mutated (hash differs).
        Hashing reads the stored bytes — no decompression — so a
        manifest pass over N days of history costs I/O, not parsing.

        *trusted* (the ingest ledger: anything with ``size``,
        ``mtime_ns``, ``sha256`` and ``until`` per cell) makes that
        O(delta): a cell whose size and mtime both equal the recorded
        ones keeps the recorded digest unread.  A file that grew past
        its recorded size only has the fingerprint stored at that size
        read (``prior``), and one touched without growing is hashed
        again whole, so a ledgered file costs one ``stat``.  A rewrite
        that restores both, or one inside the consumed units of a file
        that also grew, is not seen here; ``repro-diagnose --verify``
        runs the untrusting pass.

        For v2 columnar files the fingerprint is stored in the file:
        its last complete unit's, chained over every unit before it
        (:mod:`repro.tacc_stats.columnar`), and for a one-unit file
        the header's ``source_sha256``.  For a file converted from text
        that is the digest of the bytes the text archive stored for the
        same host-day; for a file written as v2 to begin with
        (``source_kind: "v2"``), a digest of its content.  The first
        makes the ledger format-agnostic: converting a text archive to
        v2 changes no fingerprints, so ``ingest(mode="append")`` over a
        freshly converted archive consumes zero files.  A v2 file with
        no readable unit falls back to hashing its stored bytes, which
        the delta plan then classifies as mutated — exactly the
        "re-parse and let the error policy decide" outcome corruption
        deserves.
        """
        out: dict[tuple[str, str], FileFingerprint] = {}
        with span("archive.manifest"):
            for hostname in sorted(hosts) if hosts is not None \
                    else self.hostnames():
                for day, entry in self._host_entries(hostname):
                    st = entry.stat()
                    out[(hostname, day)] = _file_fingerprint(
                        hostname, day, entry.path,
                        (st.st_size, st.st_mtime_ns),
                        trusted.get((hostname, day)) if trusted else None)
        get_registry().counter("archive.manifest_files").inc(len(out))
        return out

    def hostnames(self) -> list[str]:
        """All hosts present in the archive, sorted.

        The reserved ``quarantine/`` sidecar directory (where a
        fault-tolerant ingest writes its report) is never a host.
        """
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and p.name != QUARANTINE_DIRNAME)

    @staticmethod
    def read_file(path: Path) -> str:
        """Text of one archived file (gz- and v2-aware).

        For v2 files this reconstructs the canonical text
        representation (``repro-convert`` back to text uses it); ingest
        reads column arrays instead via :meth:`read_host_days`.
        """
        if is_v2_path(path):
            return read_host_day(path).to_text()
        if path.suffix == ".gz":
            return gzip.decompress(path.read_bytes()).decode("utf-8")
        return path.read_text()

    def read_host_days(self, hostname: str,
                       allow_truncated: bool = False,
                       policy: str = ErrorPolicy.STRICT,
                       paths: Sequence[str | Path | Piece] | None = None,
                       ) -> tuple[list[HostColumns],
                                  tuple[QuarantinedRecord, ...], str]:
        """Decode a host's files (or just *paths*, files of this host
        in label order that a manifest already resolved, each whole or
        a :data:`Piece` of a v2 file's units) to :class:`HostColumns` —
        text and gzip through the line parser, v2 by mapping its chunks
        — and apply the per-file error policy: ``(kept days, records,
        status)``.  The file-level rules live only here.

        Under every policy, empty files (the node was down all day) are
        skipped and the directory name is authoritative for the
        hostname.  ``status`` is ``"ok"``, ``"degraded"`` (repair kept
        the host with some records quarantined) or ``"dropped"`` (the
        host is excluded; no days are returned).

        * ``strict`` — the first malformed record, unreadable file or
          file claiming another hostname raises :class:`ParseError`;
          schema drift between files raises ``ValueError``.
        * ``quarantine`` — any fault in any file drops the *whole host*,
          so the ingest is byte-identical to one of the clean hosts
          alone.  All faults are enumerated first, so the report carries
          complete provenance, not just the first offender.
        * ``repair`` — parseable lines of a text file are salvaged, each
          skipped line a ``malformed_record``.  A file that is
          unreadable end-to-end (corrupt gzip, undecodable bytes, no
          ``$hostname`` header, damaged v2 — digest-verified whole,
          never salvaged line by line), claims another hostname, or
          drifts from the schemas of the files before it is quarantined
          whole (``lineno=None``); the remaining files still load.
        """
        files = [piece(p) for p in (self.host_files(hostname)
                                    if paths is None else paths)]
        if not files:
            raise FileNotFoundError(f"no archived files for {hostname}")
        policy = ErrorPolicy(policy)
        strict = policy is ErrorPolicy.STRICT
        records: list[QuarantinedRecord] = []
        kept: list[HostColumns] = []
        schemas: dict[str, TypeSchema] = {}

        def quarantine_file(path: Path, kind: str, error: str) -> None:
            records.append(QuarantinedRecord(
                hostname=hostname, path=str(path), lineno=None,
                kind=kind, error=error))

        with span("ingest.parse", host=hostname):
            for path, start, stop in files:
                faults: list[ParseFault] | None = None if strict else []
                try:
                    if is_v2_path(path):
                        day = read_host_day(path, start, stop)
                    else:
                        day = parse_host_columns(
                            self.read_file(path),
                            allow_truncated=allow_truncated, faults=faults)
                except _UNREADABLE as e:
                    if strict:
                        raise
                    quarantine_file(path, "unreadable_file",
                                    f"{type(e).__name__}: {e}")
                    continue
                records.extend(
                    QuarantinedRecord(hostname=hostname, path=str(path),
                                      lineno=f.lineno,
                                      kind="malformed_record",
                                      error=f.error, text=f.text)
                    for f in faults or ())
                if not day.hostname:
                    # Only a fully empty file parses without a
                    # hostname; a non-empty headerless file raises.
                    continue
                if day.hostname != hostname:
                    # A file claiming a different host has a corrupted
                    # header, or was filed under the wrong directory.
                    if strict:
                        raise ParseError(
                            f"{path}: file claims hostname "
                            f"{day.hostname!r}, archived under "
                            f"{hostname!r}")
                    quarantine_file(path, "hostname_mismatch",
                                    f"file claims hostname "
                                    f"{day.hostname!r}")
                    continue
                drift = next(
                    (tc.name for tc in day.types
                     if schemas.get(tc.name, tc.schema) != tc.schema), None)
                if drift is not None:
                    error = f"schema drift for type {drift} on {hostname}"
                    if strict:
                        raise ValueError(error)
                    quarantine_file(path, "unmergeable_file", error)
                    continue
                for tc in day.types:
                    schemas.setdefault(tc.name, tc.schema)
                day.label = _file_day(path)
                kept.append(day)

        if policy is ErrorPolicy.QUARANTINE and records:
            return [], tuple(records), "dropped"
        return kept, tuple(records), "degraded" if records else "ok"

    def read_host(self, hostname: str,
                  allow_truncated: bool = False) -> HostData:
        """A host's files merged into one :class:`HostData` edge view
        (strict policy): :meth:`read_host_days`, each kept day through
        :meth:`HostColumns.to_host_data`, merged in time order.

        If *every* file is empty the result is an empty stream carrying
        the directory's hostname.
        """
        kept, _records, _status = self.read_host_days(
            hostname, allow_truncated=allow_truncated)
        merged: HostData | None = None
        for day in kept:
            data = day.to_host_data()
            if merged is None:
                merged = data
            else:
                merged.merge_from(data)
        return merged if merged is not None else HostData(hostname=hostname)
