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

A file grows by appending *units* (docs/FORMAT.md, "Units").  The
layout above is its first unit, byte for byte what an offline writer
stores for a whole day.  The writer appends only full-suite blocks over
those device tables, so a later unit is dense: ``b"\\x93RPC2*\\r\\n"``,
zero bytes up to an 8-byte boundary, ``times`` f8[N], ``values``
u8[N, W] (W: devices x values, summed over the types), ``tags`` u4[N],
a JSON tail (tag table, marks, ``text_bytes``) and a fixed trailer:
N, W, the tail's length, ``start``, ``until`` (NaN: none), one sha256
chained over the previous unit's fingerprint and every byte before it,
``b"\\x00RPC2NXT"``.  Bytes after the last complete trailer are a torn
tail, never a unit.

The two global streams record the exact interleaving of rows, so a v2
file reconstructs its source text byte-for-byte (for canonical,
writer-produced text; see :func:`host_day_to_text`).  Every chunk, and
every later unit whole, carries a sha256 digest that the reader
verifies on open, so silent bit-rot is impossible — a corrupt chunk
raises :class:`V2FormatError`, which subclasses
:class:`~repro.tacc_stats.parser.ParseError` so the quarantine/repair
error policies treat a damaged v2 file exactly like a damaged gzip
stream (``unreadable_file``).

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
import math
import mmap
import os
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
    "file_tip",
    "is_v2_path",
    "read_header",
    "read_host_day",
    "rechain",
]

V2_SUFFIX = ".v2"
_MAGIC = b"\x93RPC2\r\n\x00"
_TAIL = b"\x00RPC2END"
#: A later unit's first and last 8 bytes (the older indexed later unit,
#: which began ``b"\x93RPC2+\r\n"``, is refused).
_UNIT_MAGIC = b"\x93RPC2*\r\n"
_UNIT_TAIL = b"\x00RPC2NXT"
#: A later unit's trailer up to its sha256: N, W, tail length, start,
#: until; then the sha256 and the tail.
_TRAILER = struct.Struct("<IIIQd")
_TRAILER_END = _TRAILER.size + 32 + len(_UNIT_TAIL)
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
    #: A later unit's value matrix: per type its schema, first column
    #: (then W) and ``(devices, values)``; each column's largest value.
    schemas: tuple[TypeSchema, ...]
    cols: tuple[int, ...]
    shapes: tuple[tuple[int, int], ...]
    limits: np.ndarray


@lru_cache(maxsize=64)
def _type_table(key: tuple[tuple[str, tuple[str, ...]], ...]) -> _TypeTable:
    """The :class:`_TypeTable` of *key*, built once per suite (a writer
    repeats its suite in every file)."""
    schemas = tuple(TypeSchema.parse_header_line(line) for line, _d in key)
    shapes = tuple((len(devices), s.n_values)
                   for s, (_l, devices) in zip(schemas, key))
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
            for kind in ("dev", "val"))])),
        schemas,
        tuple(itertools.accumulate((d * k for d, k in shapes), initial=0)),
        shapes, np.concatenate([np.tile(s.masks, d) for s, (d, _k)
                                in zip(schemas, shapes)] or [[]]))


def _block_bytes(times: np.ndarray, tag_bytes: int, marks) -> int:
    """Text bytes of the ``<time> <tag>`` line of every block (its tags
    *tag_bytes* in all) and the ``%<kind> <jobid>`` line of every mark."""
    return (sum(len(_format_time(t)) + 2 for t in times.tolist()) + tag_bytes
            + sum(_utf8_len(kind) + _utf8_len(jobid) + 3
                  for _b, kind, jobid in marks))


def _text_bytes(day: HostColumns, table: _TypeTable) -> int:
    """``len(day.to_text().encode())`` without rendering: the header
    lines, the block and mark lines, and per data row its ``<type>
    <device> `` prefix, the decimal digits of its values and one
    separator or newline after each."""
    tag_len = np.array([_utf8_len(tag) for tag in day.jobid_tags],
                       dtype=np.int64)
    total = (sum(_utf8_len(f"${k} {v}\n") for k, v in day.properties.items())
             + table.line_bytes
             + _block_bytes(day.times, int(tag_len[day.tags].sum()),
                            day.marks))
    if day.types:
        dev_idx = np.concatenate([tc.dev_idx for tc in day.types])
        values = np.concatenate([tc.values.ravel() for tc in day.types])
        total += (int(table.row_bytes[dev_idx + np.repeat(
            table.dev_base, [tc.values.shape[0] for tc in day.types])].sum())
            + int(decimal_digits(values).sum()))
    return total


def _encode_columns(day: HostColumns, source: tuple[str, str] | None,
                    until: float | None = None) -> tuple[bytes, int, str]:
    """A whole file, or a file's first unit, assembled: ``(v2 bytes,
    text_bytes, fingerprint)``.  *source* as for
    :func:`encode_host_text`; *until* is the flush time a unit written
    before its day ended records.

    The one place a first unit is put together — from parsed text and
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
    head = (f'{{"format":"repro-columnar","version":{_VERSION},'
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
        # identity (the chunk digests cover the data).
        ident = ",".join(f"[{','.join(parts)}]" for parts in idents)
        sha256 = hashlib.sha256(
            f'[{head},"source_kind":"v2"}},[{ident}]]'.encode()).hexdigest()
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
    footer = f'{{"chunks":[{",".join(index)}]'
    if until is not None:
        footer += f',"until":{_dumps(until)}'
    footer_json = (footer + "}").encode()
    parts.append(footer_json)
    parts.append(struct.pack("<Q", len(footer_json)) + _TAIL)
    return b"".join(parts), text_bytes, sha256


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
    n_blocks = len(times)
    tag_table = {tag: i for i, tag in enumerate(dict.fromkeys(tags))}
    types = []
    for schema, devices, vals in zip(schemas, devices_by_type,
                                     values_by_type):
        shape = (n_blocks, len(devices), schema.n_values)
        if vals.shape != shape:
            raise ValueError(f"{schema.type_name}: values shape "
                             f"{vals.shape}, expected {shape}")
        dev_idx, block_idx = _repeats(shape[1], n_blocks)
        types.append(TypeColumns(
            schema.type_name, schema, tuple(devices), dev_idx,
            vals.reshape(-1, shape[2]).astype("<u8", copy=False),
            block_idx))
    # Every block emits the full suite in order, so the global row
    # streams are one repeated pattern: types in suite order with one
    # row per device.
    rows, blocks = _repeats(sum(map(len, devices_by_type)), n_blocks)
    return HostColumns(
        hostname=hostname, properties=properties, types=types,
        times=np.asarray(times, dtype="<f8"),
        tags=np.array([tag_table[tag] for tag in tags], dtype="<u4"),
        jobid_tags=list(tag_table), marks=marks,
        row_type=np.repeat(np.arange(len(devices_by_type), dtype="<u2"),
                           [len(devs) for devs in devices_by_type])[rows],
        row_block=blocks)


#: Per device count k: each row's device and block (below) for the
#: most blocks m asked for yet, read-only; fewer blocks take prefixes.
_PATTERNS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _repeats(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(arange(n * k) % k, repeat(arange(n), k))``: the device and
    block of each row where *n* blocks carry *k* devices each."""
    have = _PATTERNS.get(k)
    if have is None or have[1].shape[0] < n * k:
        m = max(2 * n, 64)
        have = _PATTERNS[k] = (np.arange(m * k, dtype="<u4") % max(k, 1),
                               np.repeat(np.arange(m, dtype="<u4"), k))
        for arr in have:
            arr.flags.writeable = False
    return have[0][:n * k], have[1][:n * k]


def encode_host_blocks(hostname: str, properties: dict[str, str],
                       schemas: list[TypeSchema],
                       devices_by_type: list[tuple[str, ...]],
                       times: np.ndarray, tags: list[str],
                       marks: list[tuple[int, str, str]],
                       values_by_type: list[np.ndarray],
                       until: float | None = None,
                       after: tuple[str, int] | None = None,
                       ) -> tuple[bytes, int, str]:
    """Synthesized blocks (as :func:`block_columns` takes them) as their
    file's next unit: ``(v2 bytes, text_bytes, fingerprint)``.  *until*
    is the flush time a unit written before its day ended records;
    *after* is ``(fingerprint, offset)`` of the unit this one follows
    (``None``: the first — with no *until*, a whole file — whose bytes
    equal what :func:`encode_host_text` gives for the blocks' text).

    A later unit is its arrays' bytes as they are held, a JSON tail and
    one chained digest; no text is ever made.  The synthesis engine
    calls this by name: the e2e benchmark harness wraps it there to
    time ``tacc_stats.archive.encode_v2_s``.
    """
    if after is None:
        return _encode_columns(block_columns(
            hostname, properties, schemas, devices_by_type, times, tags,
            marks, values_by_type), None, until)
    table = _type_table(tuple(zip([s.header_line() for s in schemas],
                                  map(tuple, devices_by_type))))
    n = len(times)
    matrix = np.hstack([vals.reshape(n, d * k) for vals, (d, k)
                        in zip(values_by_type, table.shapes)])
    tag_table = {tag: i for i, tag in enumerate(dict.fromkeys(tags))}
    text_bytes = (_block_bytes(times, sum(map(_utf8_len, tags)), marks)
                  + n * int(table.row_bytes.sum())
                  + int(decimal_digits(matrix).sum()))
    tail = _dumps([list(tag_table), marks, text_bytes]).encode()
    body = b"".join([
        _UNIT_MAGIC, bytes(-(after[1] + 8) % 8),
        np.asarray(times, dtype="<f8").tobytes(),
        matrix.astype("<u8", copy=False).tobytes(),
        np.array([tag_table[tag] for tag in tags], dtype="<u4").tobytes(),
        tail, _TRAILER.pack(n, matrix.shape[1], len(tail), after[1],
                            math.nan if until is None else until)])
    digest = hashlib.sha256(after[0].encode() + body).digest()
    return body + digest + _UNIT_TAIL, text_bytes, digest.hex()


def _checked(path: Path, fn):
    """``fn(mm)`` over a read-only mapping of *path* (alive while
    anything refers to it), any damage it trips over raised as
    :class:`V2FormatError`."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            mm = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        return fn(mm)
    except V2FormatError:
        raise
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            AttributeError, struct.error) as e:
        raise V2FormatError(
            f"{path.name}: corrupt v2 file: {type(e).__name__}: {e}"
        ) from e


def _header_at(mm, start: int, name: str = "") -> tuple[dict, int]:
    """The header JSON of the unit at byte *start*, and where it ends."""
    if mm[start:start + 8] != _MAGIC:
        raise V2FormatError(f"{name}: not a v2 file (bad magic at byte "
                            f"{start})")
    version, hdr_len = struct.unpack("<II", mm[start + 8:start + 16])
    if version != _VERSION:
        raise V2FormatError(f"{name}: unsupported v2 version {version}")
    return (json.loads(mm[start + 16:start + 16 + hdr_len]),
            start + 16 + hdr_len)


def _tail_keys(footer: bytes) -> dict:
    """A footer's keys after its chunk index, the index unparsed."""
    return json.loads(b"{" + footer[footer.rindex(b"]") + 1:].lstrip(b","))


class _Unit(NamedTuple):
    start: int
    end: int
    fingerprint: str  # "" for the first unit: its ``source_sha256``
    until: float | None
    #: ``(footer, footer offset)``, or a later unit's ``(N, W, tail
    #: length)``.
    index: tuple


class _IndexedUnit(V2FormatError):
    """A later unit with a JSON chunk index, an older layout: refused,
    never taken for a torn tail."""


def _trailer(mm, end: int, name: str, index: bool = True) -> _Unit:
    """The unit ending at byte *end*; without *index* the first unit's
    footer keys after its chunk index alone (``until``)."""
    if end >= _TRAILER_END and mm[end - 8:end] == _UNIT_TAIL:
        n, width, tail_len, start, until = _TRAILER.unpack_from(
            mm, end - _TRAILER_END)
        if (not 0 < start < end or mm[start:start + 8] != _UNIT_MAGIC
                or end - start != 8 + -(start + 8) % 8
                + (12 + 8 * width) * n + tail_len + _TRAILER_END):
            raise V2FormatError(f"{name}: no unit ends at byte {end}")
        return _Unit(start, end, mm[end - 40:end - 8].hex(),
                     None if math.isnan(until) else until,
                     (n, width, tail_len))
    if end < 32 or mm[end - 8:end] != _TAIL:
        raise V2FormatError(f"{name}: truncated v2 file (no unit "
                            f"trailer at byte {end})")
    (footer_len,) = struct.unpack("<Q", mm[end - 16:end - 8])
    footer_off = end - 16 - footer_len
    if footer_len > end or footer_off < 16:
        raise V2FormatError(f"{name}: footer index out of bounds")
    raw = mm[footer_off:end - 16]
    footer = json.loads(raw) if index else _tail_keys(raw)
    if "start" in footer:
        raise _IndexedUnit(f"{name}: the unit ending at byte {end} is "
                           f"an indexed later unit, a refused layout")
    return _Unit(0, end, "", footer.get("until"), (footer, footer_off))


def _last_unit(mm, name: str, index: bool = True) -> _Unit:
    """The last complete unit: the one ending at the file's size, or
    the last before a torn tail (a write cut short)."""
    end = len(mm)
    while end > len(_TAIL):
        try:
            return _trailer(mm, end, name, index)
        except _IndexedUnit:
            raise
        except (V2FormatError, ValueError, AttributeError, struct.error):
            end = max(mm.rfind(_TAIL, 0, end - 1),
                      mm.rfind(_UNIT_TAIL, 0, end - 1)) + len(_TAIL)
    raise V2FormatError(f"{name}: truncated v2 file (no complete unit)")


def _units(mm, end: int | None, stop: int, name: str) -> list[_Unit]:
    """Every unit between byte *stop* and byte *end* (default: the last
    complete unit's), first to last."""
    unit = _last_unit(mm, name) if end is None else None
    end = unit.end if unit else end
    out = []
    while end > stop:
        out.append(unit or _trailer(mm, end, name))
        end, unit = out[-1].start, None
    if end != stop:
        raise V2FormatError(f"{name}: no unit boundary at byte {stop}")
    return out[::-1]


def _digest(mm, unit: _Unit, prev: str) -> str:
    """A later unit's fingerprint as its bytes and the fingerprint
    *prev* before it make it."""
    return hashlib.sha256(prev.encode() + mm[unit.start:unit.end - 40]
                          ).hexdigest()


def read_header(path: Path) -> dict:
    """Read just the first unit's header JSON of a v2 file (no chunk
    mapping).

    The cheap metadata path: ``source_kind``, the first unit's
    ``text_bytes``.  A file with no complete unit is rejected here too
    rather than surfacing a stale fingerprint.
    """
    return _checked(path, lambda mm: _last_unit(mm, path.name, False)
                    and _header_at(mm, 0, path.name)[0])


def file_tip(path: Path, end: int | None = None
             ) -> tuple[int, str, float | None]:
    """``(size, fingerprint, until)`` of the unit of a v2 file ending at
    byte *end* (default: its last complete unit), as stored: where it
    ends, its chained fingerprint and its flush time (``None``: the
    file is complete through its day).  A later unit's fixed trailer
    holds all three; a first unit's are in its header and footer.
    :class:`V2FormatError` when no unit ends there."""
    def tip(mm) -> tuple[int, str, float | None]:
        unit = (_last_unit(mm, path.name, False) if end is None
                else _trailer(mm, end, path.name, False))
        return unit.end, unit.fingerprint or _header_at(
            mm, 0, path.name)[0]["source_sha256"], unit.until
    return _checked(path, tip)


def rechain(path: Path, upto: int | None = None) -> str:
    """The fingerprint of the unit ending at byte *upto* (default: the
    last complete one), derived again from every byte before it: each
    of the first unit's chunks is hashed and each fingerprint
    recomputed, so a stored one its data no longer supports raises
    :class:`V2FormatError`."""
    def derive(mm) -> str:
        prev = ""
        for unit in _units(mm, upto, 0, path.name):
            if unit.start:
                derived, prev = _digest(mm, unit, prev), unit.fingerprint
            else:
                header, hdr_end = _header_at(mm, 0, path.name)
                chunks = unit.index[0]["chunks"]
                if any(hashlib.sha256(mm[c["offset"]:c["offset"]
                                         + c["nbytes"]]).hexdigest()
                       != c["sha256"] for c in chunks):
                    raise V2FormatError(f"{path.name}: chunk digest "
                                        f"mismatch")
                derived = prev = header["source_sha256"]
                if header.get("source_kind") == "v2":  # a content digest
                    raw = mm[16:hdr_end]
                    head = raw[:raw.rindex(b',"source_sha256":')].decode()
                    ident = ",".join(_dumps([c["name"], c["dtype"],
                                             c["shape"], c["sha256"]])
                                     for c in chunks)
                    derived = hashlib.sha256(
                        f'[{head},"source_kind":"v2"}},[{ident}]]'.encode()
                    ).hexdigest()
            if derived != prev:
                raise V2FormatError(f"{path.name}: unit at byte "
                                    f"{unit.start}: fingerprint does not "
                                    f"follow from it")
        return prev
    return _checked(path, derive)


def read_host_day(path: Path, start: int = 0,
                  stop: int | None = None) -> HostColumns:
    """Open, validate and map the units of one v2 file between byte
    *start* and byte *stop* (default: its last complete unit).

    The columns are numpy views over an ``mmap`` of the file (the
    mapping lives as long as any view does); a later unit's values, and
    more than one unit, are copied into one array per type.  Each of
    the first unit's chunk digests, and each later unit's one digest,
    chained from the fingerprint stored before it, is checked before
    any array is used: the binary format has no per-line redundancy for
    the parser to trip over, so the digests are what stands between
    bit-rot and silently wrong numbers.  Any damage, a value wider than
    its column's ``W=`` too, raises :class:`V2FormatError`.  Columns
    read from past byte 0 are ``fresh``: a scan's kept states hold none
    of them.
    """
    day = _checked(path, lambda mm: _read_host_day(mm, path.name, start,
                                                   stop))
    registry = get_registry()
    registry.counter("archive.v2.files_read").inc()
    registry.counter("archive.v2.chunks_read").inc(day.chunks_read)
    registry.counter("archive.v2.bytes_mapped").inc(day.bytes_mapped)
    return day


def _merge_units(first: dict, arrays: dict[str, np.ndarray],
                 later: HostColumns) -> tuple[dict, dict[str, np.ndarray]]:
    """The first unit's header and arrays, then the later units'
    columns, as one file's: blocks renumbered, tag tables folded in
    order of first appearance, ``text_bytes`` summed."""
    base = first["n_blocks"]
    tags = {tag: i for i, tag in enumerate(first["jobid_tags"])}
    remap = np.array([tags.setdefault(tag, len(tags))
                      for tag in later.jobid_tags], dtype="<u4")
    more = {"times": later.times, "tags": remap[later.tags],
            "row_type": later.row_type,
            "row_block": later.row_block + np.uint32(base), **{
                f"{kind}/{tc.name}": arr for tc in later.types
                for kind, arr in (("dev", tc.dev_idx), ("val", tc.values))}}
    arrays = {key: np.concatenate([arr, more[key]])
              for key, arr in arrays.items()}
    return {**first, "n_blocks": base + later.times.shape[0],
            "jobid_tags": list(tags), "marks": [*first["marks"], *(
                [b + base, kind, jobid] for b, kind, jobid in later.marks)],
            "text_bytes": first["text_bytes"] + later.header["text_bytes"],
            "types": [{**t, "n_rows": arrays[f"dev/{t['name']}"].shape[0]}
                      for t in first["types"]]}, arrays


def _dense_run(mm, name: str, first: dict, units: list[_Unit]
               ) -> HostColumns:
    """Later units, each digest checked first (chained from the
    fingerprint stored before them), as the :class:`HostColumns` one
    file of their blocks decodes to, under the first unit's header
    *first*: each one's value matrix cut into its types."""
    devices = [tuple(t["devices"]) for t in first["types"]]
    table = _type_table(tuple(zip(first["schemas"], devices)))
    if [s.type_name for s in table.schemas] != [
            t["name"] for t in first["types"]]:
        raise V2FormatError(f"{name}: schema/type table mismatch")
    before = units[0].start
    prev = mm[before - 40:before - 8].hex() \
        if mm[before - 8:before] == _UNIT_TAIL else first["source_sha256"]
    times, values, tags, marks = [], [], [], []
    text_bytes = 0
    for unit in units:
        n, width, tail_len = unit.index
        if _digest(mm, unit, prev) != unit.fingerprint \
                or width != table.cols[-1]:
            raise V2FormatError(f"{name}: unit at byte {unit.start}: "
                                f"digest or type tables mismatch")
        prev, off = unit.fingerprint, unit.start + 8 + -(unit.start + 8) % 8
        buf = np.frombuffer(mm, np.uint8, (12 + 8 * width) * n, off)
        jobid_tags, unit_marks, unit_bytes = json.loads(
            mm[unit.end - _TRAILER_END - tail_len:unit.end - _TRAILER_END])
        marks += [(b + len(tags), kind, jobid)
                  for b, kind, jobid in unit_marks]
        tags += [jobid_tags[i]
                 for i in buf[8 * n * (1 + width):].view("<u4").tolist()]
        times.append(buf[:8 * n].view("<f8"))
        values.append(buf[8 * n:8 * n * (1 + width)].view("<u8")
                      .reshape(n, width))
        text_bytes += unit_bytes
    times, values = np.concatenate(times), np.concatenate(values)
    if bool((values > table.limits).any()):
        raise V2FormatError(f"{name}: counter value out of range for its "
                            f"width")
    if not bool((times[1:] >= times[:-1]).all()):
        raise V2FormatError(f"{name}: non-monotonic timestamps")
    if any(not 0 <= b < len(tags) or kind not in ("begin", "end")
           for b, kind, _jobid in marks):
        raise V2FormatError(f"{name}: malformed mark entry")
    day = block_columns(
        first["hostname"], dict(first["properties"]), table.schemas,
        devices, times, tags, marks,
        [values[:, lo:hi].reshape(-1, d, k) for lo, hi, (d, k)
         in zip(table.cols, table.cols[1:], table.shapes)])
    day.header = {**first, "n_blocks": len(tags),
                  "jobid_tags": day.jobid_tags, "marks": marks,
                  "text_bytes": text_bytes, "types": [
                      {**t, "n_rows": len(tags) * len(t["devices"])}
                      for t in first["types"]]}
    day.bytes_mapped = values.nbytes + 12 * len(tags)
    day.chunks_read = len(units)
    return day


def _read_host_day(mm, name: str, start: int,
                   stop: int | None) -> HostColumns:
    """The unwrapped body of :func:`read_host_day`."""
    units = _units(mm, stop, start, name)
    first, hdr_end = _header_at(mm, 0, name)
    dense = _dense_run(mm, name, first, units[0 if start else 1:]) \
        if units[-1].start else None
    if start:
        dense.fresh = True
        return dense
    footer, footer_off = units[0].index
    if hdr_end > footer_off:
        raise V2FormatError(f"{name}: footer index out of bounds")
    view = memoryview(mm)
    buf = np.frombuffer(mm, dtype=np.uint8)
    arrays: dict[str, np.ndarray] = {}
    for entry in footer["chunks"]:
        off, nbytes = entry["offset"], entry["nbytes"]
        if off < 0 or off + nbytes > footer_off:
            raise V2FormatError(f"{name}: chunk {entry['name']} out of bounds")
        digest = hashlib.sha256(view[off:off + nbytes]).hexdigest()
        if digest != entry["sha256"]:
            raise V2FormatError(f"{name}: chunk {entry['name']} digest "
                                f"mismatch (file is corrupt)")
        arrays[entry["name"]] = buf[off:off + nbytes].view(
            entry["dtype"]).reshape(entry["shape"])
    bytes_mapped = sum(arr.nbytes for arr in arrays.values())
    chunks_read = len(arrays)
    header = first
    if dense is not None:
        header, arrays = _merge_units(first, arrays, dense)
        bytes_mapped += dense.bytes_mapped
        chunks_read += dense.chunks_read

    n_blocks = header["n_blocks"]
    times = arrays["times"]
    tags = arrays["tags"]
    row_type = arrays["row_type"]
    row_block = arrays["row_block"]
    if times.shape != (n_blocks,) or tags.shape != (n_blocks,):
        raise V2FormatError(f"{name}: block chunk shape mismatch")
    if row_type.shape != row_block.shape:
        raise V2FormatError(f"{name}: row stream shape mismatch")
    if n_blocks > 1 and not bool((times[1:] >= times[:-1]).all()):
        raise V2FormatError(f"{name}: non-monotonic timestamps")
    if n_blocks and tags.size and int(tags.max()) >= len(
            header["jobid_tags"]):
        raise V2FormatError(f"{name}: jobid tag index out of range")
    if row_block.size and int(row_block.max()) >= n_blocks:
        raise V2FormatError(f"{name}: row block index out of range")
    if not bool((row_block[1:] >= row_block[:-1]).all()):
        raise V2FormatError(f"{name}: row stream not in block order")

    type_infos = header["types"]
    schemas = [TypeSchema.parse_header_line(line)
               for line in header["schemas"]]
    if len(schemas) != len(type_infos) or any(
            s.type_name != t["name"]
            for s, t in zip(schemas, type_infos)):
        raise V2FormatError(f"{name}: schema/type table mismatch")
    if row_type.size and int(row_type.max()) >= len(type_infos):
        raise V2FormatError(f"{name}: row type index out of range")
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
                f"{name}: type {info['name']} column shapes "
                f"inconsistent")
        if width := schema.overflow(values):
            raise V2FormatError(f"{name}: type {info['name']} counter "
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
        raise V2FormatError(f"{name}: type {bad.name} device index "
                            f"out of range")

    # Marks must point at real blocks and carry well-formed kinds.
    marks = [(b, kind, jobid) for b, kind, jobid in header["marks"]]
    for b, kind, _jobid in marks:
        if not 0 <= b < n_blocks or kind not in ("begin", "end"):
            raise V2FormatError(f"{name}: malformed mark entry")

    return HostColumns(
        hostname=header["hostname"],
        properties=dict(header["properties"]),
        types=types, times=times, tags=tags,
        jobid_tags=header["jobid_tags"], marks=marks,
        row_type=row_type, row_block=row_block, header=header,
        bytes_mapped=bytes_mapped, chunks_read=chunks_read,
        fresh=start > 0)
