"""Bidirectional archive conversion between text and v2 columnar.

``convert_archive`` rewrites every host-day of an archive into the
target format with a round-trip-identity guarantee:

* text -> v2 re-encodes only after proving the v2 file decodes back to
  the *exact* source text (byte-for-byte).  A file that fails to parse,
  or whose text is valid but non-canonical (so byte-identity cannot be
  guaranteed), is passed through untouched — conversion never launders
  corrupt data into clean-looking binary, and a later ingest quarantines
  it exactly as it would have before.
* v2 -> text reconstructs the canonical text and stores it the way the
  v2 header says the text path originally did (``source_kind``: gzip
  with ``mtime=0`` or plain), so the stored bytes hash back to the
  header's ``source_sha256`` and the ingest ledger sees no change in
  either direction.  A file written as v2 in the first place
  (``source_kind: "v2"``) never had a text form: it is stored the
  archive's default way (gzip) and reported as ``drifted``.

Fingerprints are preserved end-to-end (see
:meth:`~repro.tacc_stats.archive.HostArchive.manifest`), which is what
makes ``ingest(mode="append")`` over a freshly converted archive consume
zero files.
"""

from __future__ import annotations

import gzip
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.tacc_stats.archive import _UNREADABLE, HostArchive, _file_day
from repro.tacc_stats.columnar import (
    V2_SUFFIX,
    encode_host_text,
    is_v2_path,
    read_host_day,
)
from repro.tacc_stats.parser import ParseError
from repro.telemetry.trace import span

__all__ = ["ConvertReport", "convert_archive"]


@dataclass
class ConvertReport:
    """Outcome of one archive conversion pass."""

    target: str
    converted: int = 0
    #: Already in the target format — copied (with ``out_root``) or left
    #: alone (in place).
    already: int = 0
    #: Files that could not be converted losslessly (unparseable text,
    #: corrupt v2, or non-canonical text that would not round-trip
    #: byte-identically).  Passed through untouched so downstream error
    #: policies see exactly what they would have seen before.
    passthrough: list[str] = field(default_factory=list)
    #: v2->text files whose regenerated bytes do not hash back to the
    #: header's recorded fingerprint (every file written directly as
    #: v2: its fingerprint is of its content, not of text).  The data
    #: is still correct, but to a warehouse that ledgered the v2 file
    #: the text copy is a mutated file: an append-mode ingest refuses
    #: it and asks for a full re-ingest into a fresh warehouse.
    drifted: list[str] = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def total(self) -> int:
        return self.converted + self.already + len(self.passthrough)

    def __str__(self) -> str:
        msg = (f"{self.converted} converted to {self.target}, "
               f"{self.already} already {self.target}, "
               f"{len(self.passthrough)} passed through")
        if self.drifted:
            msg += f", {len(self.drifted)} fingerprint-drifted"
        return msg


def _to_v2_one(path: Path, target: Path, verify: bool) -> bool:
    """Convert one text host-day; False = must pass through."""
    stored = path.read_bytes()
    kind = "gz" if path.name.endswith(".gz") else "text"
    try:
        text = (gzip.decompress(stored).decode("utf-8") if kind == "gz"
                else stored.decode("utf-8"))
        blob = encode_host_text(
            text, source=(hashlib.sha256(stored).hexdigest(), kind))
    except _UNREADABLE:
        return False
    target.write_bytes(blob)
    if verify and read_host_day(target).to_text() != text:
        # Valid but non-canonical source: we cannot guarantee byte
        # identity, so refuse the conversion rather than weaken it.
        target.unlink()
        return False
    return True


def _to_text_one(path: Path, target_stem: Path,
                 report: ConvertReport) -> Path | None:
    """Convert one v2 host-day; None = must pass through."""
    try:
        day = read_host_day(path)
        text = day.to_text()
    except ParseError:
        return None
    # "v2" (written as v2, never stored as text) gets the archive's
    # default, gzip.
    if day.header.get("source_kind") != "text":
        data = gzip.compress(text.encode("utf-8"), compresslevel=6,
                             mtime=0)
        target = target_stem.with_name(target_stem.name + ".gz")
    else:
        data = text.encode("utf-8")
        target = target_stem
    target.write_bytes(data)
    if hashlib.sha256(data).hexdigest() != day.header.get("source_sha256"):
        report.drifted.append(str(path))
    return target


def convert_archive(root: str | Path, to: str,
                    out_root: str | Path | None = None,
                    verify: bool = True) -> ConvertReport:
    """Convert every host-day under *root* to format *to* ("v2"/"text").

    In place by default: each converted file replaces its source (the
    source is removed only after the target is fully written and, with
    *verify*, proven to round-trip).  With *out_root* the converted tree
    is written there instead and *root* is left untouched (passthrough
    files are byte-copied so the output archive is complete).
    """
    if to not in ("text", "v2"):
        raise ValueError(f"target format must be 'text' or 'v2', "
                         f"got {to!r}")
    src = HostArchive(root, resume_stats=False)
    report = ConvertReport(target=to)
    in_place = out_root is None
    out = Path(root) if in_place else Path(out_root)
    with span("archive.convert", target=to):
        for hostname in src.hostnames():
            outdir = out / hostname
            if not in_place:
                outdir.mkdir(parents=True, exist_ok=True)
            for path in src.host_files(hostname):
                report.bytes_in += path.stat().st_size
                day = _file_day(path)
                is_v2 = is_v2_path(path)
                if (to == "v2") == is_v2:
                    report.already += 1
                    if not in_place:
                        (outdir / path.name).write_bytes(
                            path.read_bytes())
                        report.bytes_out += path.stat().st_size
                    else:
                        report.bytes_out += path.stat().st_size
                    continue
                if to == "v2":
                    target = outdir / (day + V2_SUFFIX)
                    ok = _to_v2_one(path, target, verify)
                    written = target if ok else None
                else:
                    written = _to_text_one(path, outdir / day, report)
                if written is None:
                    report.passthrough.append(str(path))
                    if not in_place:
                        (outdir / path.name).write_bytes(
                            path.read_bytes())
                        report.bytes_out += path.stat().st_size
                    continue
                report.converted += 1
                report.bytes_out += written.stat().st_size
                if in_place and written != path:
                    path.unlink()
    return report
