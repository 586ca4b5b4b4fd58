"""Archive v2 columnar codec: round-trip identity, integrity, parity.

The format's contract is threefold: (1) ``text -> v2 -> text`` is
byte-identical for every canonical (writer-produced) stream — proved
here as a hypothesis property over generated schemas/blocks/marks;
(2) the decoded columns are exactly the :class:`HostColumns` the text
parser produces, for canonical and non-canonical text alike;
(3) corruption anywhere in a v2 file is
*detected* (header magic, chunk digests, truncated footer) and surfaces
as a :class:`ParseError` subclass, so every :class:`ErrorPolicy`
outcome matches what the same corruption in a text archive produces.
"""

import gzip
import hashlib
import io
import json
import shutil
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ErrorPolicy
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.columnar import (
    V2FormatError,
    _encode_columns,
    encode_host_text,
    is_v2_path,
    read_header,
    read_host_day,
)
from repro.tacc_stats.convert import convert_archive
from repro.tacc_stats.format import StatsWriter
from repro.tacc_stats.parser import (
    ParseError,
    parse_host_columns,
    parse_host_text,
)
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry

VALID = (
    "$hostname i101-101\n"
    "$uname Linux 2.6.18\n"
    "!cpu user,E idle,E\n"
    "!mem used free\n"
    "!net rx,E,W=32 tx,E,W=32\n"
    "1349000000 -\n"
    "cpu 0 10 20\n"
    "cpu 1 11 21\n"
    "mem - 512 1536\n"
    "net eth0 1000 2000\n"
    "1349000600 2001\n"
    "%begin 2001\n"
    "cpu 0 310 620\n"
    "cpu 1 311 621\n"
    "mem - 600 1448\n"
    "net eth0 4000 8000\n"
    "1349001200 2001\n"
    "%end 2001\n"
    "cpu 0 910 1220\n"
    "cpu 1 911 1221\n"
    "mem - 700 1348\n"
    "net eth0 9000 16000\n"
)


def _plain_source(text):
    """(sha256, kind) of *text* stored as a plain-text archive file."""
    return hashlib.sha256(text.encode()).hexdigest(), "text"


def _encode(text=VALID):
    return encode_host_text(text, source=_plain_source(text))


def _write_v2(tmp_path, text=VALID, name="2012-09-30"):
    path = tmp_path / name
    path = path.with_suffix(path.suffix + ".v2")
    path.write_bytes(_encode(text))
    return path


def _host_data_map(host):
    """Every parsed record as plain comparable python values."""
    out = {
        "hostname": host.hostname,
        "properties": dict(host.properties),
        "schemas": dict(host.schemas),
        "marks": list(host.marks),
        "times": [b.time for b in host.blocks],
        "jobids": [b.jobids for b in host.blocks],
    }
    rows = {}
    for b in host.blocks:
        for tname, devs in b.rows.items():
            for dev, vec in devs.items():
                rows[(b.time, tname, dev)] = tuple(int(v) for v in vec)
    out["rows"] = rows
    return out


def test_text_roundtrip_byte_identical(tmp_path):
    path = _write_v2(tmp_path)
    assert is_v2_path(path)
    day = read_host_day(path)
    assert day.to_text() == VALID


def _columns_map(day):
    """Every column of a decoded host-day as plain python values, with
    dtypes, so two decoders can be compared exactly."""
    def arr(a):
        return (a.dtype.str, a.shape, a.tolist())
    return {
        "hostname": day.hostname,
        "properties": list(day.properties.items()),
        "times": arr(day.times), "tags": arr(day.tags),
        "jobid_tags": day.jobid_tags, "marks": day.marks,
        "row_type": arr(day.row_type), "row_block": arr(day.row_block),
        "types": [(tc.name, tc.schema, tc.devices, arr(tc.dev_idx),
                   arr(tc.values), arr(tc.block_idx))
                  for tc in day.types],
    }


def test_decoded_host_data_matches_parser(tmp_path):
    day = read_host_day(_write_v2(tmp_path))
    assert _columns_map(day) == _columns_map(parse_host_columns(VALID))
    assert _host_data_map(day.to_host_data()) == _host_data_map(
        parse_host_text(VALID))


def test_header_carries_source_fingerprint(tmp_path):
    path = _write_v2(tmp_path)
    header = read_header(path)
    sha, kind = _plain_source(VALID)
    assert header["source_sha256"] == sha
    assert header["source_kind"] == kind == "text"
    assert header["hostname"] == "i101-101"
    assert header["text_bytes"] == len(VALID.encode())


def test_chunk_digest_detects_bit_flip(tmp_path):
    path = _write_v2(tmp_path)
    blob = bytearray(path.read_bytes())
    # Flip a byte well inside the chunk region (past the JSON header).
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(V2FormatError):
        read_host_day(path)


def test_truncation_detected(tmp_path):
    path = _write_v2(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(V2FormatError):
        read_host_day(path)
    with pytest.raises(V2FormatError):
        read_header(path)


@pytest.mark.parametrize("column, value, message", [
    ("dev/cpu", 2, "type cpu device index out of range"),
    ("row_type", 1, "type mem column shapes inconsistent"),
    ("row_type", 3, "row type index out of range"),
    ("row_block", 3, "row block index out of range"),
])
def test_columns_that_contradict_are_refused(tmp_path, column, value,
                                             message):
    """Chunk digests prove only that the bytes are the writer's: a file
    whose last *column* entry points past its table is refused too."""
    day = parse_host_columns(VALID)
    arrays = {"row_type": day.row_type.copy(),
              "row_block": day.row_block.copy(),
              "dev/cpu": day.types[0].dev_idx.copy()}
    arrays[column][-1] = value
    blob = _encode_columns(replace(
        day, types=[replace(tc, dev_idx=arrays.get(f"dev/{tc.name}",
                                                   tc.dev_idx))
                    for tc in day.types],
        row_type=arrays["row_type"], row_block=arrays["row_block"]), None)[0]
    path = tmp_path / "2012-09-30.v2"
    path.write_bytes(blob)
    with pytest.raises(V2FormatError, match=message):
        read_host_day(path)


def test_v2_format_error_is_parse_error():
    # The whole policy engine keys off ParseError; v2 corruption must
    # flow through the same quarantine/repair paths as text corruption.
    assert issubclass(V2FormatError, ParseError)


def test_read_telemetry_counters(tmp_path):
    path = _write_v2(tmp_path)
    local = MetricsRegistry()
    with use_registry(local):
        day = read_host_day(path)
    assert local.counter("archive.v2.files_read").value == 1
    assert local.counter("archive.v2.chunks_read").value \
        == day.chunks_read > 0
    assert local.counter("archive.v2.bytes_mapped").value \
        == day.bytes_mapped > 0


# ---------------------------------------------------------------------------
# Property: text -> v2 -> text is byte-identical for any canonical
# stream, and corrupted inputs land in identical ErrorPolicy outcomes.
# ---------------------------------------------------------------------------

_key = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)
_device = st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True)


@st.composite
def _schema(draw):
    name = draw(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True))
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(_key, min_size=n, max_size=n, unique=True))
    entries = tuple(
        SchemaEntry(
            k,
            is_event=draw(st.booleans()),
            unit=draw(st.sampled_from([None, "B", "KB", "cs"])),
            width=draw(st.sampled_from([32, 48, 64])),
        )
        for k in keys
    )
    return TypeSchema(name, entries)


@st.composite
def _host_text(draw):
    """A canonical writer-produced host-day text with marks."""
    schemas = draw(st.lists(_schema(), min_size=1, max_size=3,
                            unique_by=lambda s: s.type_name))
    n_blocks = draw(st.integers(1, 4))
    times = sorted(draw(st.lists(
        st.integers(0, 10**7), min_size=n_blocks, max_size=n_blocks,
        unique=True)))
    buf = io.StringIO()
    w = StatsWriter(buf, "h1")
    for s in schemas:
        w.register_schema(s)
    for t in times:
        jobids = tuple(draw(st.lists(
            st.from_regex(r"[0-9]{1,7}", fullmatch=True), max_size=2,
            unique=True)))
        w.begin_block(float(t), jobids)
        for jid in jobids:
            if draw(st.booleans()):
                w.write_mark(draw(st.sampled_from(["begin", "end"])), jid)
        for schema in schemas:
            for dev in draw(st.lists(_device, min_size=1, max_size=3,
                                     unique=True)):
                w.write_row(schema.type_name, dev, draw(st.lists(
                    st.integers(0, 2**31), min_size=schema.n_values,
                    max_size=schema.n_values)))
    return buf.getvalue()


@given(_host_text())
@settings(max_examples=60, deadline=None)
def test_property_v2_roundtrip_identity(text):
    blob = _encode(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "2012-09-30.v2"
        path.write_bytes(blob)
        day = read_host_day(path)
    assert day.to_text() == text
    assert day.header["text_bytes"] == len(text.encode())
    assert _columns_map(day) == _columns_map(parse_host_columns(text))
    assert _host_data_map(day.to_host_data()) == _host_data_map(
        parse_host_text(text))


@st.composite
def _noncanonical_text(draw):
    """Valid text no writer produces: the rows of a block in any order
    (type runs interleaved), devices missing from some blocks, repeated
    timestamps, fractional seconds with and without trailing zeros."""
    schemas = draw(st.lists(_schema(), min_size=1, max_size=3,
                            unique_by=lambda s: s.type_name))
    devices = {s.type_name: draw(st.lists(_device, min_size=1, max_size=3,
                                          unique=True))
               for s in schemas}
    stamps = sorted(
        draw(st.lists(
            st.tuples(st.integers(0, 10**7),
                      st.sampled_from(["", ".0", ".5", ".50", ".25"])),
            min_size=1, max_size=5)),
        key=lambda p: float(f"{p[0]}{p[1]}"))
    lines = ["$hostname h1"] + [s.header_line() for s in schemas]
    for whole, frac in stamps:
        jobids = draw(st.lists(
            st.from_regex(r"[0-9]{1,7}", fullmatch=True), max_size=2,
            unique=True))
        lines.append(f"{whole}{frac} {','.join(jobids) or '-'}")
        for jid in jobids:
            if draw(st.booleans()):
                lines.append(f"%{draw(st.sampled_from(['begin', 'end']))} "
                             f"{jid}")
        rows = [(s, dev) for s in schemas for dev in devices[s.type_name]
                if draw(st.integers(0, 4))]
        for s, dev in draw(st.permutations(rows)):
            # Valid: every value fits its column's declared width.
            vals = [draw(st.integers(0, 2**e.width - 1)) for e in s.entries]
            lines.append(f"{s.type_name} {dev} {' '.join(map(str, vals))}")
    return "\n".join(lines) + "\n"


def _assert_dumps_json(blob):
    """The header and footer are ``json.dumps(..., separators=(",",
    ":"))`` of what they decode to, and a ``"v2"`` fingerprint is the
    digest of the header without it beside each chunk's identity."""
    (hdr_len,) = struct.unpack("<I", blob[12:16])
    (ftr_len,) = struct.unpack("<Q", blob[-16:-8])
    header_json, footer_json = blob[16:16 + hdr_len], blob[-16 - ftr_len:-16]
    header, footer = json.loads(header_json), json.loads(footer_json)
    for raw, obj in ((header_json, header), (footer_json, footer)):
        assert raw == json.dumps(obj, separators=(",", ":")).encode()
    body = {k: v for k, v in header.items() if k != "source_sha256"}
    ident = [[c["name"], c["dtype"], c["shape"], c["sha256"]]
             for c in footer["chunks"]]
    assert header["source_kind"] == "v2"
    assert header["source_sha256"] == hashlib.sha256(json.dumps(
        [body, ident], separators=(",", ":")).encode()).hexdigest()


@given(_noncanonical_text())
@settings(max_examples=80, deadline=None)
def test_property_parser_columns_equal_v2_columns(text):
    """Both decoders produce the same columns for any valid text, and
    the canonical rendering of those columns parses back to them."""
    parsed = parse_host_columns(text)
    blob = encode_host_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "2012-09-30.v2"
        path.write_bytes(blob)
        day = read_host_day(path)
    _assert_dumps_json(blob)
    assert _columns_map(day) == _columns_map(parsed)
    assert _columns_map(parse_host_columns(day.to_text())) \
        == _columns_map(parsed)
    # text_bytes counts the canonical rendering (fractional stamps,
    # values up to 2^64 - 1), never the source's spelling.
    assert day.header["text_bytes"] == len(day.to_text().encode())
    assert _host_data_map(day.to_host_data()) == _host_data_map(
        parse_host_text(text))


def _policy_outcome(root, policy):
    """Comparable (status, (kind, lineno) records, kept data) triple."""
    try:
        kept, records, status = HostArchive(root).read_host_days(
            "h1", policy=policy)
    except ParseError:
        return ("raised", (), None)
    return (status, tuple((r.kind, r.lineno) for r in records),
            [_host_data_map(day.to_host_data()) for day in kept])


def _expected_outcome(text, policy):
    """What the policy must make of one file holding *text*, worked out
    from the parser alone."""
    strict = policy is ErrorPolicy.STRICT
    faults = []
    try:
        host = parse_host_text(text, faults=None if strict else faults)
    except ParseError:
        if strict:
            return ("raised", (), None)
        records, data = (("unreadable_file", None),), []
    else:
        records = tuple(("malformed_record", f.lineno) for f in faults)
        data = [_host_data_map(host)]
        if not host.hostname:
            data = []  # empty file: node down all day
        elif host.hostname != "h1":
            if strict:
                return ("raised", (), None)
            records += (("hostname_mismatch", None),)
            data = []
    if policy is ErrorPolicy.QUARANTINE and records:
        return ("dropped", records, [])
    return ("degraded" if records else "ok", records, data)


_OPS = ("flip_digit", "delete_line", "truncate_line", "garbage")


def _corrupt(text: str, op: str, idx: int) -> str:
    lines = text.split("\n")
    idx = idx % max(len(lines) - 1, 1)
    if op == "flip_digit":
        line = lines[idx]
        digits = [i for i, ch in enumerate(line) if ch.isdigit()]
        if not digits:
            return text
        i = digits[idx % len(digits)]
        lines[idx] = line[:i] + chr(ord(line[i]) ^ 0x40) + line[i + 1:]
    elif op == "delete_line":
        lines.pop(idx)
    elif op == "truncate_line":
        lines[idx] = lines[idx][: len(lines[idx]) // 2]
    else:
        lines.insert(idx, "XYZZY corrupted segment")
    return "\n".join(lines)


@given(text=_host_text(), op=st.sampled_from(_OPS),
       idx=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_property_policy_parity_after_convert(text, op, idx):
    """Converting an archive never changes any ErrorPolicy outcome.

    Corrupt (or leave alone) one host-day, store it as text, convert
    the archive to v2 — unconvertible files pass through — and assert
    strict/quarantine/repair land in the expected outcome (status,
    record kinds and line numbers, surviving data) on both archives.
    This is the "corruption is never laundered" half of the round-trip
    contract.
    """
    corrupted = _corrupt(text, op, idx)
    with tempfile.TemporaryDirectory() as tmp:
        text_root = Path(tmp) / "text"
        v2_root = Path(tmp) / "v2"
        (text_root / "h1").mkdir(parents=True)
        (text_root / "h1" / "2012-09-30.gz").write_bytes(
            gzip.compress(corrupted.encode(), mtime=0))
        shutil.copytree(text_root, v2_root)
        convert_archive(str(v2_root), to="v2")
        for policy in (ErrorPolicy.STRICT, ErrorPolicy.QUARANTINE,
                       ErrorPolicy.REPAIR):
            expected = _expected_outcome(corrupted, policy)
            assert _policy_outcome(str(text_root), policy) == expected, \
                f"policy {policy} on text ({op})"
            assert _policy_outcome(str(v2_root), policy) == expected, \
                f"policy {policy} diverged after conversion ({op})"
