"""Archive v2: a binary, memory-mappable columnar host-day format.

The text format (docs/FORMAT.md) is the paper-faithful interchange, but
parsing it caps serial ingest at ~17-21 MB/s — every downstream lookback
and re-read pays that tax.  A v2 file stores the same host-day as
fixed-width numpy column chunks that the reader maps straight into the
arrays the ingest engine consumes (``np.frombuffer`` over ``mmap`` —
no line splitting, no str->int casts, no copies of the value data).

On-disk layout (all integers little-endian, chunks 64-byte aligned so
mapped arrays are cache-line aligned)::

    magic     8B   b"\\x93RPC2\\r\\n\\x00"
    version   u32  2
    hdr_len   u32  byte length of the header JSON
    header    JSON: hostname, ordered properties, schema lines, jobid
              tag table, marks [(block, kind, jobid)], per-type device
              tables and row counts, text_bytes, source fingerprint
    chunks    binary column data (see table below)
    footer    JSON chunk index: [{name, offset, nbytes, dtype, shape,
              sha256}], written last so a truncated file can never
              present a valid index
    ftr_len   u64  byte length of the footer JSON
    tail      8B   b"\\x00RPC2END"

Column chunks (R = total data rows in file order, N = blocks)::

    times        f8[N]      block timestamps
    tags         u4[N]      index into the header's jobid tag table
    row_type     u2[R]      global row stream: type of each row
    row_block    u4[R]      global row stream: block of each row
    dev/<type>   u4[Rt]     per type: device-table index per row
    val/<type>   u8[Rt,K]   per type: value matrix (K = schema arity)

The two global streams record the exact interleaving of rows, so a v2
file reconstructs its source text byte-for-byte (for canonical,
writer-produced text; see :func:`host_day_to_text`).  Every chunk
carries a sha256 digest that the reader verifies on open, so silent
bit-rot is impossible — a corrupt chunk raises :class:`V2FormatError`,
which subclasses :class:`~repro.tacc_stats.parser.ParseError` so the
quarantine/repair error policies treat a damaged v2 file exactly like a
damaged gzip stream (``unreadable_file``).

Fingerprint: the header's ``source_sha256`` is what
:meth:`HostArchive.manifest` reports for a v2 file, and ``source_kind``
says what it is a digest of.  A file converted from text carries the
sha256 of the bytes the text archive stored (``"gz"`` / ``"text"``), so
converting an archive in place never perturbs the ingest ledger: an
``ingest(mode="append")`` over a freshly converted archive consumes
zero files.  A file written as v2 in the first place has no text
predecessor (``"v2"``): its fingerprint is a *content* digest over the
header and every chunk's ``(name, dtype, shape, sha256)``, a pure
function of the columns.  ``text_bytes`` — the byte length of the
canonical text of the same data, which keeps the volume figures
format-independent — is likewise computed from the columns, never by
rendering them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import mmap
import struct
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.tacc_stats.parser import ParseError, parse_host_columns
from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.types import HostColumns, TypeColumns, _format_time
from repro.telemetry.metrics import get_registry

__all__ = [
    "V2_SUFFIX",
    "V2FormatError",
    "block_columns",
    "decimal_digits",
    "encode_host_blocks",
    "encode_host_text",
    "is_v2_path",
    "read_header",
    "read_host_day",
]

V2_SUFFIX = ".v2"
_MAGIC = b"\x93RPC2\r\n\x00"
_TAIL = b"\x00RPC2END"
_VERSION = 2
_ALIGN = 64


class V2FormatError(ParseError):
    """Malformed or corrupt v2 file.

    Subclasses :class:`ParseError` so every existing error-policy path
    (strict raise, quarantine drop, repair ``unreadable_file``) handles
    a damaged v2 file exactly as it handles damaged text.
    """


def is_v2_path(path: Path) -> bool:
    """True when *path* names a v2 columnar file (by suffix)."""
    return path.name.endswith(V2_SUFFIX)


#: 10^1 .. 10^19, the powers of ten a uint64 can reach.
_POW10 = np.array([10 ** k for k in range(1, 20)], dtype=np.uint64)


def decimal_digits(values: np.ndarray) -> np.ndarray:
    """Length of ``str(v)`` for every uint64 in *values*: one more than
    the number of powers of ten the value reaches."""
    return np.searchsorted(_POW10, np.asarray(values, dtype=np.uint64),
                           side="right") + 1


def _utf8_len(s: str) -> int:
    return len(s.encode("utf-8"))


def _pad_to(parts: list[bytes], size: int, align: int = _ALIGN) -> int:
    """Append zero padding so the next part starts aligned; new offset."""
    rem = size % align
    if rem:
        parts.append(b"\x00" * (align - rem))
        size += align - rem
    return size


#: ``json.dumps(obj, separators=(",", ":"))`` without an encoder per call.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class _TypeTable(NamedTuple):
    """What a file's ``(schema line, devices)`` per type fixes."""

    #: Text bytes of the schema lines.
    line_bytes: int
    #: Per device of every type, in order: the fixed text bytes of its
    #: rows (``<type> <device>``, then a separator or newline per value).
    row_bytes: np.ndarray
    #: Per type: where its devices start in ``row_bytes``.
    dev_base: np.ndarray
    #: Header JSON from ``"schemas"`` up to the first type's ``n_rows``
    #: value, each type's ``types`` entry up to it, every chunk's name.
    schemas_json: str
    types_json: tuple[str, ...]
    chunk_names: tuple[str, ...]


@lru_cache(maxsize=64)
def _type_table(key: tuple[tuple[str, tuple[str, ...]], ...]) -> _TypeTable:
    """The :class:`_TypeTable` of *key*, built once per suite (a writer
    repeats its suite in every file)."""
    schemas = [TypeSchema.parse_header_line(line) for line, _d in key]
    return _TypeTable(
        sum(_utf8_len(line) + 1 for line, _d in key),
        np.array([_utf8_len(s.type_name) + 2 + s.n_values + _utf8_len(d)
                  for s, (_l, devices) in zip(schemas, key)
                  for d in devices], dtype=np.int64),
        np.cumsum([0, *(len(devices) for _l, devices in key[:-1])]),
        f'"schemas":{_dumps([line for line, _d in key])},"types":[',
        tuple(f'{{"name":{_dumps(s.type_name)},"devices":'
              f'{_dumps(list(devices))},"n_rows":'
              for s, (_l, devices) in zip(schemas, key)),
        tuple(map(_dumps, ["times", "tags", "row_type", "row_block", *(
            f"{kind}/{s.type_name}" for s in schemas
            for kind in ("dev", "val"))])))


def _text_bytes(day: HostColumns, table: _TypeTable) -> int:
    """``len(day.to_text().encode())`` without rendering: the header
    lines, one ``<time> <tag>`` line per block, one ``%<kind> <jobid>``
    line per mark, and per data row its ``<type> <device> `` prefix,
    the decimal digits of its values and one separator or newline after
    each."""
    tag_len = np.array([_utf8_len(tag) for tag in day.jobid_tags],
                       dtype=np.int64)
    total = (
        sum(_utf8_len(f"${k} {v}\n") for k, v in day.properties.items())
        + table.line_bytes
        + sum(len(_format_time(t)) + 2 for t in day.times.tolist())
        + int(tag_len[day.tags].sum())
        + sum(_utf8_len(kind) + _utf8_len(jobid) + 3
              for _b, kind, jobid in day.marks))
    if day.types:
        dev_idx = np.concatenate([tc.dev_idx for tc in day.types])
        values = np.concatenate([tc.values.ravel() for tc in day.types])
        total += (int(table.row_bytes[dev_idx + np.repeat(
            table.dev_base, [tc.values.shape[0] for tc in day.types])].sum())
            + int(decimal_digits(values).sum()))
    return total


def _encode_columns(day: HostColumns,
                    source: tuple[str, str] | None) -> tuple[bytes, int]:
    """Header + chunks of one host-day, assembled: ``(v2 bytes,
    text_bytes)``.  *source* as for :func:`encode_host_text`.

    The one place a v2 file is put together — from parsed text and
    from synthesized arrays alike — so equal columns give equal bytes.
    The JSON is what ``json.dumps(..., separators=(",", ":"))`` writes
    for the header and footer dicts in the module docstring, put
    together from parts (what the types fix is built once per suite).
    """
    table = _type_table(tuple((tc.schema.header_line(), tc.devices)
                              for tc in day.types))
    text_bytes = _text_bytes(day, table)
    # The header up to its source fields: what a content fingerprint
    # covers, with ``source_kind``.
    head = (
        f'{{"format":"repro-columnar","version":{_VERSION},'
        f'"hostname":{_dumps(day.hostname)},'
        f'"properties":{_dumps(list(day.properties.items()))},'
        + table.schemas_json
        + ",".join(f"{entry}{tc.values.shape[0]}}}"
                   for entry, tc in zip(table.types_json, day.types))
        + f'],"n_blocks":{day.times.shape[0]},'
        f'"jobid_tags":{_dumps(day.jobid_tags)},'
        f'"marks":{_dumps(day.marks)},"text_bytes":{text_bytes}')
    arrays = [day.times, day.tags, day.row_type, day.row_block, *(
        arr for tc in day.types for arr in (tc.dev_idx, tc.values))]
    datas = [arr.tobytes() for arr in arrays]
    # name, dtype, shape, sha256 of each chunk, as JSON.
    idents = [(name, f'"{arr.dtype.str}"',
               f'[{",".join(map(str, arr.shape))}]',
               f'"{hashlib.sha256(data).hexdigest()}"')
              for name, arr, data in zip(table.chunk_names, arrays, datas)]
    sha256, kind = source if source is not None else (None, "v2")
    if sha256 is None:
        # No text predecessor: the fingerprint is a digest of the
        # content itself — every other header field plus each chunk's
        # identity (the chunk digests already cover the data).
        ident = ",".join(f"[{','.join(parts)}]" for parts in idents)
        sha256 = hashlib.sha256(
            f'[{head},"source_kind":"v2"}},[{ident}]]'.encode()
        ).hexdigest()
    header_json = (f'{head},"source_sha256":{_dumps(sha256)},'
                   f'"source_kind":{_dumps(kind)}}}').encode()
    parts = [_MAGIC, struct.pack("<II", _VERSION, len(header_json)),
             header_json]
    size = 16 + len(header_json)
    index = []
    for (name, dtype, shape, digest), data in zip(idents, datas):
        size = _pad_to(parts, size)
        index.append(f'{{"name":{name},"offset":{size},"nbytes":'
                     f'{len(data)},"dtype":{dtype},"shape":{shape},'
                     f'"sha256":{digest}}}')
        parts.append(data)
        size += len(data)
    footer_json = f'{{"chunks":[{",".join(index)}]}}'.encode()
    parts.append(footer_json)
    parts.append(struct.pack("<Q", len(footer_json)) + _TAIL)
    blob = b"".join(parts)
    registry = get_registry()
    registry.counter("archive.v2.files_encoded").inc()
    registry.counter("archive.v2.bytes_encoded").inc(len(blob))
    return blob, text_bytes


def encode_host_text(text: str,
                     source: tuple[str, str] | None = None) -> bytes:
    """Encode one host-day's *text* into v2 bytes.

    The text must parse strictly (malformed input raises
    :class:`ParseError` exactly as the text parser would — conversion
    never launders corrupt data into a clean-looking binary file).
    *source* is the ``(sha256, kind)`` of the stored text file this
    one replaces (``kind`` ``"gz"`` or ``"text"``); without one the
    file is its own origin and carries a content fingerprint, kind
    ``"v2"`` — what :func:`encode_host_blocks` writes for the same
    columns.
    """
    return _encode_columns(parse_host_columns(text), source)[0]


def block_columns(
    hostname: str,
    properties: dict[str, str],
    schemas: list[TypeSchema],
    devices_by_type: list[tuple[str, ...]],
    times: np.ndarray,
    tags: list[str],
    marks: list[tuple[int, str, str]],
    values_by_type: list[np.ndarray],
) -> HostColumns:
    """Synthesized blocks as the :class:`HostColumns` a file of them
    decodes to.

    The engine holds every block's values as ``[n_blocks, n_devices,
    n_values]`` uint64 arrays per type, and every block carries every
    (type, device) row in suite order — exactly what a text archive
    holds.  *times* holds the block timestamps as serialized
    (``float(int(t))``), *tags* each block's job-id tag, and *marks*
    are ``(block_index, kind, jobid)`` in file order.
    """
    n_blocks = int(np.asarray(times).shape[0])
    tag_table = {tag: i for i, tag in enumerate(dict.fromkeys(tags))}
    # Every block emits the full suite in order, so the global row
    # streams are one repeated pattern: types in suite order with one
    # row per device.
    pattern = np.repeat(np.arange(len(devices_by_type), dtype="<u2"),
                        [len(devs) for devs in devices_by_type])
    block_of_row = np.arange(n_blocks, dtype="<u4")
    # (dev_idx, block_idx) depend only on the device count; types that
    # share one share the (read-only) arrays.
    rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    types = []
    for schema, devices, vals in zip(schemas, devices_by_type,
                                     values_by_type):
        n_dev = len(devices)
        k = schema.n_values
        vals = np.asarray(vals)
        if vals.shape != (n_blocks, n_dev, k):
            raise ValueError(
                f"{schema.type_name}: values shape {vals.shape}, "
                f"expected {(n_blocks, n_dev, k)}")
        if n_dev not in rows:
            rows[n_dev] = (
                np.arange(n_blocks * n_dev, dtype="<u4") % n_dev,
                np.repeat(block_of_row, n_dev))
        dev_idx, block_idx = rows[n_dev]
        types.append(TypeColumns(
            name=schema.type_name, schema=schema, devices=tuple(devices),
            dev_idx=dev_idx, block_idx=block_idx,
            values=vals.reshape(n_blocks * n_dev, k).astype(
                "<u8", copy=False)))
    return HostColumns(
        hostname=hostname, properties=properties, types=types,
        times=np.asarray(times, dtype="<f8"),
        tags=np.array([tag_table[tag] for tag in tags], dtype="<u4"),
        jobid_tags=list(tag_table), marks=marks,
        row_type=np.tile(pattern, n_blocks),
        row_block=np.repeat(block_of_row, pattern.shape[0]))


def encode_host_blocks(day: HostColumns) -> tuple[bytes, int]:
    """Encode a synthesized file's columns (:func:`block_columns`) into
    v2 bytes with a content fingerprint; returns them with the file's
    ``text_bytes``.

    No text of them is ever made, and the bytes equal what
    :func:`encode_host_text` gives for the text of the same blocks.
    The synthesis engine calls this by name: the e2e benchmark harness
    wraps it there to time ``tacc_stats.archive.encode_v2_s``.
    """
    return _encode_columns(day, None)


def read_header(path: Path) -> dict:
    """Read just the header JSON of a v2 file (no chunk mapping).

    This is the cheap metadata path — :meth:`HostArchive.manifest` uses
    it for the ``source_sha256`` fingerprint and the archive-stats
    resume uses ``text_bytes``, neither of which should map the columns.
    The tail sentinel is still checked (one seek), so a truncated file
    is rejected here too rather than surfacing a stale fingerprint.
    """
    try:
        with path.open("rb") as fh:
            prelude = fh.read(16)
            if len(prelude) < 16 or prelude[:8] != _MAGIC:
                raise V2FormatError(f"{path.name}: not a v2 file "
                                    f"(bad magic)")
            version, hdr_len = struct.unpack("<II", prelude[8:16])
            if version != _VERSION:
                raise V2FormatError(
                    f"{path.name}: unsupported v2 version {version}")
            header = json.loads(fh.read(hdr_len).decode("utf-8"))
            fh.seek(-len(_TAIL), 2)
            if fh.read(len(_TAIL)) != _TAIL:
                raise V2FormatError(f"{path.name}: truncated v2 file "
                                    f"(missing tail sentinel)")
            return header
    except V2FormatError:
        raise
    except (OSError, ValueError, UnicodeDecodeError) as e:
        raise V2FormatError(f"{path.name}: unreadable v2 header: "
                            f"{e}") from e


def read_host_day(path: Path) -> HostColumns:
    """Open, validate and map one v2 file.

    The column chunks are presented as zero-copy numpy views over an
    ``mmap`` of the file (the mapping lives as long as any view does).
    Every chunk's sha256 is checked: the binary format has no per-line
    redundancy for the parser to trip over, so the digests are what
    stands between bit-rot and silently wrong numbers.  Any damage, a
    value wider than its column's ``W=`` too, raises :class:`V2FormatError`.
    """
    try:
        day = _read_host_day(path)
    except V2FormatError:
        raise
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            struct.error) as e:
        raise V2FormatError(
            f"{path.name}: corrupt v2 file: {type(e).__name__}: {e}"
        ) from e
    registry = get_registry()
    registry.counter("archive.v2.files_read").inc()
    registry.counter("archive.v2.chunks_read").inc(day.chunks_read)
    registry.counter("archive.v2.bytes_mapped").inc(day.bytes_mapped)
    return day


def _read_host_day(path: Path) -> HostColumns:
    """The unwrapped body of :func:`read_host_day`."""
    with path.open("rb") as fh:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    view = memoryview(mm)
    size = len(view)
    if size < 16 + 16 or bytes(view[:8]) != _MAGIC:
        raise V2FormatError(f"{path.name}: not a v2 file (bad magic)")
    version, hdr_len = struct.unpack("<II", view[8:16])
    if version != _VERSION:
        raise V2FormatError(f"{path.name}: unsupported v2 version "
                            f"{version}")
    if bytes(view[size - 8:]) != _TAIL:
        raise V2FormatError(f"{path.name}: truncated v2 file "
                            f"(tail marker missing)")
    (footer_len,) = struct.unpack("<Q", view[size - 16:size - 8])
    footer_off = size - 16 - footer_len
    if footer_len > size or footer_off < 16 + hdr_len:
        raise V2FormatError(f"{path.name}: footer index out of bounds")
    header = json.loads(bytes(view[16:16 + hdr_len]).decode("utf-8"))
    footer = json.loads(
        bytes(view[footer_off:footer_off + footer_len]).decode("utf-8"))

    buf = np.frombuffer(mm, dtype=np.uint8)
    arrays: dict[str, np.ndarray] = {}
    bytes_mapped = 0
    for entry in footer["chunks"]:
        off, nbytes = entry["offset"], entry["nbytes"]
        if off < 0 or off + nbytes > footer_off:
            raise V2FormatError(
                f"{path.name}: chunk {entry['name']} out of bounds")
        digest = hashlib.sha256(view[off:off + nbytes]).hexdigest()
        if digest != entry["sha256"]:
            raise V2FormatError(
                f"{path.name}: chunk {entry['name']} digest "
                f"mismatch (file is corrupt)")
        arrays[entry["name"]] = buf[off:off + nbytes].view(
            entry["dtype"]).reshape(entry["shape"])
        bytes_mapped += nbytes

    n_blocks = header["n_blocks"]
    times = arrays["times"]
    tags = arrays["tags"]
    row_type = arrays["row_type"]
    row_block = arrays["row_block"]
    if times.shape != (n_blocks,) or tags.shape != (n_blocks,):
        raise V2FormatError(f"{path.name}: block chunk shape mismatch")
    if row_type.shape != row_block.shape:
        raise V2FormatError(f"{path.name}: row stream shape mismatch")
    if n_blocks > 1 and not bool((times[1:] >= times[:-1]).all()):
        raise V2FormatError(f"{path.name}: non-monotonic timestamps")
    if n_blocks and tags.size and int(tags.max()) >= len(
            header["jobid_tags"]):
        raise V2FormatError(f"{path.name}: jobid tag index out of range")
    if row_block.size and int(row_block.max()) >= n_blocks:
        raise V2FormatError(f"{path.name}: row block index out of range")
    if not bool((row_block[1:] >= row_block[:-1]).all()):
        raise V2FormatError(f"{path.name}: row stream not in block order")

    type_infos = header["types"]
    schemas = [TypeSchema.parse_header_line(line)
               for line in header["schemas"]]
    if len(schemas) != len(type_infos) or any(
            s.type_name != t["name"]
            for s, t in zip(schemas, type_infos)):
        raise V2FormatError(f"{path.name}: schema/type table mismatch")
    if row_type.size and int(row_type.max()) >= len(type_infos):
        raise V2FormatError(f"{path.name}: row type index out of range")
    counts = np.bincount(row_type, minlength=len(type_infos)).tolist()
    # Every type's rows in file order, in one pass: type ti's blocks are
    # the ti-th run of the row blocks stably sorted by type.
    blocks = row_block[np.argsort(row_type, kind="stable")]
    types: list[TypeColumns] = []
    for info, schema, n, end in zip(type_infos, schemas, counts,
                                    itertools.accumulate(counts)):
        dev_idx = arrays[f"dev/{info['name']}"]
        values = arrays[f"val/{info['name']}"]
        if (info["n_rows"] != n or dev_idx.shape != (n,)
                or values.shape != (n, schema.n_values)):
            raise V2FormatError(
                f"{path.name}: type {info['name']} column shapes "
                f"inconsistent")
        if width := schema.overflow(values):
            raise V2FormatError(f"{path.name}: type {info['name']} counter "
                                f"value out of range for width {width}")
        types.append(TypeColumns(
            name=info["name"], schema=schema,
            devices=tuple(info["devices"]), dev_idx=dev_idx,
            values=values, block_idx=blocks[end - n:end]))
    # Device indices in range, every type in one comparison.
    if types and bool((np.concatenate([tc.dev_idx for tc in types])
                       >= np.repeat([len(tc.devices) for tc in types],
                                    counts)).any()):
        bad = next(tc for tc in types
                   if tc.dev_idx.size and tc.dev_idx.max() >= len(tc.devices))
        raise V2FormatError(f"{path.name}: type {bad.name} device index "
                            f"out of range")

    # Marks must point at real blocks and carry well-formed kinds.
    marks = [(b, kind, jobid) for b, kind, jobid in header["marks"]]
    for b, kind, _jobid in marks:
        if not 0 <= b < n_blocks or kind not in ("begin", "end"):
            raise V2FormatError(f"{path.name}: malformed mark entry")

    return HostColumns(
        hostname=header["hostname"],
        properties=dict(header["properties"]),
        types=types, times=times, tags=tags,
        jobid_tags=header["jobid_tags"], marks=marks,
        row_type=row_type, row_block=row_block, header=header,
        bytes_mapped=bytes_mapped, chunks_read=len(footer["chunks"]))
