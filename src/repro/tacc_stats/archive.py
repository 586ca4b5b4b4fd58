"""On-disk archive of per-host stats files with periodic rotation.

Layout mirrors the production deployment::

    <root>/<hostname>/<YYYY-MM-DD>        (current, plain text)
    <root>/<hostname>/<YYYY-MM-DD>.gz     (rotated, compressed)
    <root>/<hostname>/<YYYY-MM-DD>.v2     (binary columnar, v2)

Rotation defaults to the production daily cadence; a live streaming
deployment passes ``rotate_seconds`` to cut sub-day segments instead
(files named ``YYYY-MM-DDTHHMMSS`` after the segment's start instant).
The chosen period is persisted in an ``archive.json`` sidecar at the
root so re-opening a segmented archive needs no knob, and every
consumer of file labels goes through
:func:`repro.util.timeutil.period_label` /
:func:`~repro.util.timeutil.label_to_period_index`, which degrade to
the historical date stamps when the period is one day.

The archive tracks raw and compressed byte counts so the paper's volume
claims (0.5 MB/node/day raw, ~3x gzip) can be measured directly
(``bench_data_volume``).

Formats are detected per file, so text and v2 host-days coexist in one
root (e.g. mid-conversion, or a v2 archive quarantining an unconvertible
text day).  ``archive_format="v2"`` makes the *writer* emit columnar
files (see :mod:`repro.tacc_stats.columnar`); readers need no knob.
A v2 write produces no text, gzip stream or text hash along the way:
the vectorized engine hands over column arrays, and the file's
text-equivalent size and fingerprint are computed from those.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import zlib
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    QUARANTINE_DIRNAME,
    ErrorPolicy,
    QuarantinedRecord,
)
from repro.tacc_stats.columnar import (
    V2_SUFFIX,
    V2FormatError,
    encode_host_text,
    is_v2_path,
    read_header,
    read_host_day,
)
from repro.tacc_stats.format import StatsWriter
from repro.tacc_stats.parser import (
    ParseError,
    ParseFault,
    parse_host_columns,
)
from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.types import HostColumns, HostData
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import span
from repro.util.timeutil import DAY, period_label

__all__ = ["HostArchive", "ArchiveStats", "FileFingerprint",
           "ARCHIVE_META_FILENAME"]

#: Root sidecar recording a non-default rotation period, so reopening a
#: segmented archive infers its cadence without a knob.
ARCHIVE_META_FILENAME = "archive.json"

#: What decoding a damaged file raises; the last two are a gzip stream
#: cut short and a flipped bit in one (most flips fail the CRC: OSError).
_UNREADABLE = (ParseError, OSError, UnicodeDecodeError, EOFError, zlib.error)


def _file_day(path: Path | os.DirEntry) -> str:
    """The rotation label an archived file's name carries
    (``YYYY-MM-DD`` for day archives, ``YYYY-MM-DDTHHMMSS`` for
    sub-day segments)."""
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
    count of their text form in their header (``text_bytes``), so "raw"
    keeps meaning *text-equivalent* bytes in every volume figure
    regardless of the on-disk format.
    """
    size = path.stat().st_size
    if is_v2_path(path):
        try:
            return int(read_header(path)["text_bytes"])
        except (V2FormatError, KeyError, TypeError, ValueError):
            return size  # corrupt header: fall back to stored size
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


def _fingerprint(path: str) -> str:
    """The content fingerprint :meth:`HostArchive.manifest` reports."""
    if path.endswith(V2_SUFFIX):
        try:
            return str(read_header(Path(path))["source_sha256"])
        except (V2FormatError, KeyError, TypeError):
            pass  # unreadable header: hash the stored bytes instead
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


#: Precedence when one host-day exists in several representations.
_FORMAT_RANK = {"text": 0, "gz": 1, "v2": 2}


@dataclass(frozen=True)
class FileFingerprint:
    """Identity of one archived host-day file, for delta classification.

    ``sha256`` is the authoritative change detector; ``size`` and
    ``mtime_ns`` decide whether it has to be computed again
    (:meth:`HostArchive.manifest` trusts a ledgered digest while both
    are unchanged), so touching a file without altering content costs
    one re-hash and never a re-parse.
    """

    hostname: str
    day: str
    path: str
    size: int
    mtime_ns: int
    sha256: str


@dataclass
class ArchiveStats:
    """Volume accounting for one archive."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    file_count: int = 0
    host_days: int = 0

    @property
    def bytes_per_host_day(self) -> float:
        """Raw bytes per node per day — the paper's 0.5 MB figure."""
        if self.host_days == 0:
            return 0.0
        return self.raw_bytes / self.host_days

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 0.0
        return self.raw_bytes / self.compressed_bytes


class _OpenFile:
    def __init__(self, path: Path, writer: StatsWriter, buffer: io.StringIO):
        self.path = path
        self.writer = writer
        self.buffer = buffer


class HostArchive:
    """Rotating per-host file store.

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
    rotate_seconds:
        Rotation period in facility seconds (default one day, the
        production cadence).  A non-default period is persisted in the
        :data:`ARCHIVE_META_FILENAME` sidecar; reopening the root with
        the default adopts the stored period, while passing a
        *different* explicit period raises (a segmented archive's
        labels only make sense at the cadence that wrote them).
    """

    def __init__(self, root: str | Path, compress: bool = True,
                 resume_stats: bool = True, archive_format: str = "text",
                 rotate_seconds: int | float = DAY):
        if archive_format not in ("text", "v2"):
            raise ValueError(
                f"archive_format must be 'text' or 'v2', "
                f"got {archive_format!r}")
        rotate = int(rotate_seconds)
        if rotate <= 0 or rotate != rotate_seconds:
            raise ValueError(f"rotate_seconds must be a positive whole "
                             f"number of seconds, got {rotate_seconds!r}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / ARCHIVE_META_FILENAME
        if meta_path.is_file():
            stored = int(json.loads(meta_path.read_text())
                         ["rotate_seconds"])
            if rotate != DAY and rotate != stored:
                raise ValueError(
                    f"archive at {self.root} rotates every {stored}s "
                    f"(per its {ARCHIVE_META_FILENAME}); cannot reopen "
                    f"it with rotate_seconds={rotate}")
            rotate = stored
        elif rotate != DAY:
            meta_path.write_text(
                json.dumps({"rotate_seconds": rotate}) + "\n")
        self.rotate_seconds = rotate
        self.compress = compress
        self.archive_format = archive_format
        self.resume_stats = resume_stats
        self._open: dict[str, tuple[int, _OpenFile]] = {}
        #: hostname -> callable(writer) -> (bytes, text_bytes) | None.
        #: The vectorized synthesis engine registers one per host so v2
        #: files are encoded from its column arrays, with no text made;
        #: a None return falls back to encoding the writer's text.
        self._v2_encoders: dict[
            str, Callable[[StatsWriter], tuple[bytes, int] | None]] = {}
        self._stats: ArchiveStats | None = None
        #: stored path -> (raw, stored) contribution already counted, so
        #: a resumed writer replacing a host-day on disk swaps its
        #: contribution instead of adding on top.
        self._counted: dict[Path, tuple[int, int]] = {}
        #: hostname -> file name -> the fingerprint a trusting
        #: :meth:`manifest` gave it, reused while size and mtime hold.
        self._fingerprints: dict[str, dict[str, FileFingerprint]] = {}

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
               properties: dict[str, str] | None = None) -> StatsWriter:
        """The current writer for *hostname*, rotating at period
        boundaries (days by default; see ``rotate_seconds``).

        Note: rotation starts a fresh file with its own header, so the
        caller (``NodeSynth``) must re-register schemas on each new
        writer — exactly what the real tool does on its daily restart.
        """
        seg = int(t // self.rotate_seconds)
        current = self._open.get(hostname)
        if current is not None and current[0] == seg:
            return current[1].writer
        if current is not None:
            self._close_file(hostname, current[1])
        label = period_label(seg, self.rotate_seconds)
        hostdir = self.root / hostname
        hostdir.mkdir(parents=True, exist_ok=True)
        path = hostdir / label
        buffer = io.StringIO()
        writer = StatsWriter(buffer, hostname, properties or {})
        of = _OpenFile(path, writer, buffer)
        self._open[hostname] = (seg, of)
        return writer

    def set_v2_encoder(
        self, hostname: str,
        encoder: Callable[[StatsWriter], tuple[bytes, int] | None],
    ) -> None:
        """Register a v2 encoder for *hostname*'s files, until :meth:`close`.

        *encoder* is called at file close as ``encoder(writer)`` and
        returns the encoded v2 bytes with their text-equivalent size
        (the header's ``text_bytes``), or None to fall back to encoding
        whatever text the writer was given
        (:func:`~repro.tacc_stats.columnar.encode_host_text`).  The
        vectorized synthesis engine uses this to write its column
        arrays straight into v2 chunks; the writer of such a file holds
        the header lines only.  No-op unless ``archive_format="v2"``.
        """
        self._v2_encoders[hostname] = encoder

    def flush_before(self, t: float) -> int:
        """Write to disk every open file whose rotation segment ended
        at or before *t*; returns how many files were closed.

        The live micro-batcher calls this at each batch boundary:
        rotation alone only closes a host's previous segment when its
        *next* write arrives, so a host idle across the boundary would
        otherwise keep a completed segment buffered in memory where the
        ingest manifest cannot see it.  Open segments that *t* still
        falls inside are left untouched.
        """
        boundary = int(t // self.rotate_seconds)
        closed = 0
        for hostname, (seg, of) in sorted(self._open.items()):
            if seg < boundary:
                self._close_file(hostname, of)
                del self._open[hostname]
                closed += 1
        return closed

    def _close_file(self, hostname: str, of: _OpenFile) -> None:
        if self.archive_format == "v2":
            path = of.path.with_suffix(of.path.suffix + V2_SUFFIX)
            encoder = self._v2_encoders.get(hostname)
            encoded = encoder(of.writer) if encoder is not None else None
            if encoded is None:
                text = of.buffer.getvalue()
                encoded = encode_host_text(text), len(text.encode("utf-8"))
            data, raw_len = encoded
            path.write_bytes(data)
            stored = len(data)
        else:
            text = of.buffer.getvalue()
            raw = text.encode("utf-8")
            raw_len = len(raw)
            if self.compress:
                path = of.path.with_suffix(of.path.suffix + ".gz")
                # mtime=0 keeps the stored bytes a pure function of the
                # content, so the manifest's sha256 is stable across
                # re-writes of identical data (append mode depends on it).
                data = gzip.compress(raw, compresslevel=6, mtime=0)
                path.write_bytes(data)
                stored = len(data)
            else:
                path = of.path
                path.write_text(text)
                stored = raw_len
        stats = self.stats
        counted = self._counted.pop(path, None)
        if counted is not None:
            # Rewriting a host-day that was already tallied (seeded from
            # disk or written earlier this session): swap, don't add.
            stats.raw_bytes -= counted[0]
            stats.compressed_bytes -= counted[1]
            stats.file_count -= 1
            stats.host_days -= 1
        stats.raw_bytes += raw_len
        stats.compressed_bytes += stored
        stats.file_count += 1
        stats.host_days += 1
        self._counted[path] = (raw_len, stored)
        registry = get_registry()
        registry.counter("archive.files_written").inc()
        registry.counter("archive.bytes_raw").inc(raw_len)
        registry.counter("archive.bytes_compressed").inc(stored)

    def close(self) -> ArchiveStats:
        """Flush all open files; returns the final volume accounting."""
        for hostname, (_, of) in sorted(self._open.items()):
            self._close_file(hostname, of)
        self._open.clear()
        # Encoders are bound methods of engines that hold this archive:
        # dropped here (an engine registers again with its next file),
        # the pair is freed by reference count, not by a later GC pass.
        self._v2_encoders.clear()
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
        ``mtime_ns`` and ``sha256`` per cell) makes that O(delta): a
        cell whose size and mtime both equal the recorded ones keeps
        the recorded digest unread, so only new or touched files are
        hashed.  A trusting pass also reuses the fingerprint an earlier
        one on this archive made while size and mtime hold, so a file
        listed before costs one ``stat``.  A rewrite that restores both
        is not seen here; ``repro-diagnose --verify`` runs the
        untrusting pass.

        For v2 columnar files the fingerprint is the header's
        ``source_sha256``: for a file converted from text, the digest
        of the bytes the text archive stored for the same host-day; for
        a file written as v2 to begin with (``source_kind: "v2"``), a
        digest of its content.  The first makes the ledger
        format-agnostic: converting a text archive to v2 changes no
        fingerprints, so ``ingest(mode="append")`` over a
        freshly converted archive consumes zero files.  A v2 file whose
        header is unreadable falls back to hashing its stored bytes,
        which the delta plan then classifies as mutated — exactly the
        "re-parse and let the error policy decide" outcome corruption
        deserves.
        """
        out: dict[tuple[str, str], FileFingerprint] = {}
        with span("archive.manifest"):
            for hostname in sorted(hosts) if hosts is not None \
                    else self.hostnames():
                seen = (self._fingerprints.setdefault(hostname, {})
                        if trusted is not None else {})
                for day, entry in self._host_entries(hostname):
                    st = entry.stat()
                    stamp = (st.st_size, st.st_mtime_ns)
                    fp = seen.get(entry.name)
                    if fp is None or (fp.size, fp.mtime_ns) != stamp:
                        known = trusted.get((hostname, day)) \
                            if trusted else None
                        digest = (known.sha256 if known is not None and (
                            known.size, known.mtime_ns) == stamp
                            else _fingerprint(entry.path))
                        fp = seen[entry.name] = FileFingerprint(
                            hostname=hostname, day=day, path=entry.path,
                            size=st.st_size, mtime_ns=st.st_mtime_ns,
                            sha256=digest)
                    out[(hostname, day)] = fp
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
                       paths: Sequence[str | Path] | None = None,
                       ) -> tuple[list[HostColumns],
                                  tuple[QuarantinedRecord, ...], str]:
        """Decode a host's files (or just *paths*, files of this host
        in label order that a manifest already resolved) to
        :class:`HostColumns` — text and gzip through the line parser,
        v2 by mapping its chunks — and apply the per-file error policy:
        ``(kept days, records, status)``.  The file-level rules live
        only here.

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
        files = (self.host_files(hostname) if paths is None
                 else [Path(p) for p in paths])
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
            for path in files:
                faults: list[ParseFault] | None = None if strict else []
                try:
                    if is_v2_path(path):
                        day = read_host_day(path)
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
