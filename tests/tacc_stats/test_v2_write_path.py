"""The direct-to-v2 write path: columns in, bytes out.

A v2 archive written by the vectorized engine never sees text: no rows
are rendered, nothing is gzipped, no text is hashed.  What the header
used to take from the text is computed from the columns instead:

* ``text_bytes`` — arithmetically (prefix lengths plus a vectorized
  decimal-digit count), and it must equal the byte length of the text
  the file decodes to, exactly, so every volume figure keeps its
  meaning;
* ``source_sha256`` — a content fingerprint (``source_kind: "v2"``),
  a pure function of the columns: the same from the synthesized columns
  and from the text they decode to, whatever ``compress`` says, and
  different as soon as any value, mark or device name differs.
"""

import gzip
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Facility
from repro.config import LONESTAR4, RANGER, STAMPEDE
from repro.live.runner import LiveReplay
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.columnar import (
    decimal_digits,
    encode_host_blocks,
    encode_host_text,
    read_header,
    read_host_day,
)
from repro.tacc_stats.format import StatsWriter
from repro.tacc_stats.schema import TypeSchema
from repro.util.timeutil import DAY, HOUR
from tests.tacc_stats.test_columnar import VALID

ARCHETYPES = {"ranger": RANGER, "stampede": STAMPEDE,
              "lonestar4": LONESTAR4}


def _synthesize(cfg, seed, root, archive_format, rotate=DAY,
                compress=True):
    """Replay *cfg* into a fresh archive at *root*; its final stats."""
    facility = Facility(cfg, seed=seed)
    workload, sim, _outages, _cluster = facility._simulate()
    archive = HostArchive(root, compress=compress, rotate_seconds=rotate,
                          archive_format=archive_format,
                          resume_stats=False)
    LiveReplay(cfg, seed, workload.users, workload.util_scale,
               facility.phase_calibration, facility.regressions,
               sim.records, archive).advance(cfg.horizon)
    return archive.close()


def _digests(root):
    return {key: fp.sha256
            for key, fp in HostArchive(root).manifest().items()}


# ---------------------------------------------------------------------------
# text_bytes is computed, and exact.
# ---------------------------------------------------------------------------


def test_decimal_digits_at_every_boundary():
    edges = [0, 9, 10, 99, 100, 10**19 - 1, 10**19, 2**64 - 1]
    values = np.array(edges, dtype=np.uint64)
    assert decimal_digits(values).tolist() == [len(str(v)) for v in edges]
    # Every power of ten and its predecessor, in a 2-d array.
    powers = [10**k for k in range(1, 20)]
    grid = np.array([powers, [p - 1 for p in powers]], dtype=np.uint64)
    assert decimal_digits(grid).tolist() == [
        [len(str(p)) for p in powers], [len(str(p - 1)) for p in powers]]


@given(
    name=st.sampled_from(sorted(ARCHETYPES)),
    seed=st.integers(min_value=0, max_value=2**20),
    rotate=st.sampled_from([DAY, 6 * HOUR, HOUR]),
)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_text_bytes_equals_rendered_length(tmp_path_factory, name, seed,
                                           rotate):
    cfg = ARCHETYPES[name].scaled(num_nodes=2, horizon_days=1, n_users=6)
    v2_dir = tmp_path_factory.mktemp("v2")
    v2_stats = _synthesize(cfg, seed, v2_dir, "v2", rotate)
    files = sorted(v2_dir.rglob("*.v2"))
    assert files
    seen = set()
    for path in files:
        day = read_host_day(path)
        assert day.header["text_bytes"] == len(
            HostArchive.read_file(path).encode()), path
        seen.update("idle" if tag == "-" else "job"
                    for tag in day.jobid_tags)
        seen.update(kind for _b, kind, _jobid in day.marks)
    # The corpus exercises every kind of line whose length is added up
    # (derandomize: the examples, and so this coverage, are fixed).
    assert seen == {"idle", "job", "begin", "end"}
    text_stats = _synthesize(cfg, seed, tmp_path_factory.mktemp("text"),
                             "text", rotate)
    assert v2_stats.raw_bytes == text_stats.raw_bytes
    assert v2_stats.raw_bytes == sum(
        read_header(p)["text_bytes"] for p in files)


# ---------------------------------------------------------------------------
# The content fingerprint.
# ---------------------------------------------------------------------------

CFG = RANGER.scaled(num_nodes=3, horizon_days=2, n_users=6)


def test_fingerprint_is_a_function_of_the_content(tmp_path):
    """Same seed, same digests — run to run and whatever ``compress``
    is set to — and every file is what its own decoded text encodes
    to, byte for byte, fingerprint included."""
    for name, compress in [("fast", True), ("again", True),
                           ("plain", False)]:
        Facility(CFG, seed=23).run_with_files(
            str(tmp_path / name), archive_format="v2", compress=compress)
    want = _digests(tmp_path / "fast")
    assert len(set(want.values())) == len(want) > CFG.num_nodes
    for name in ("again", "plain"):
        assert _digests(tmp_path / name) == want, name
    files = sorted((tmp_path / "fast").rglob("*.v2"))
    assert len(files) == len(want)
    for path in files:
        header = read_header(path)
        assert header["source_kind"] == "v2"
        assert header["source_sha256"] in want.values()
        assert encode_host_text(HostArchive.read_file(path)) == \
            path.read_bytes(), path
    Facility(CFG, seed=24).run_with_files(
        str(tmp_path / "other"), archive_format="v2")
    assert not set(_digests(tmp_path / "other").values()) & set(
        want.values())


def _fingerprint(blob: bytes, tmp_path) -> str:
    path = tmp_path / "2012-09-30.v2"
    path.write_bytes(blob)
    header = read_header(path)
    assert header["source_kind"] == "v2"
    return header["source_sha256"]


@pytest.mark.parametrize("old,new", [
    ("cpu 1 311 621\n", "cpu 1 311 622\n"),   # one counter value
    ("%end 2001\n", "%begin 2001\n"),         # one mark
    ("net eth0 ", "net eth1 "),               # one device name
    ("1349001200 2001\n", "1349001200 -\n"),  # one block tag
])
def test_fingerprint_changes_with_any_content(tmp_path, old, new):
    assert VALID.count(old) >= 1
    changed = VALID.replace(old, new)
    assert _fingerprint(encode_host_text(changed), tmp_path) \
        != _fingerprint(encode_host_text(VALID), tmp_path)


def test_blocks_and_text_encoders_agree_byte_for_byte():
    """The two ways into a v2 file — synthesized arrays, and the text
    of the same blocks — give the same bytes, fingerprint included."""
    schemas = [TypeSchema.parse_header_line(line) for line in (
        "!cpu user,E idle,E", "!mem used free", "!net rx,E,W=32 tx,E,W=32")]
    values = [
        np.array([[[10, 20], [11, 21]], [[310, 620], [311, 621]],
                  [[910, 1220], [911, 1221]]], dtype=np.uint64),
        np.array([[[512, 1536]], [[600, 1448]], [[700, 1348]]],
                 dtype=np.uint64),
        np.array([[[1000, 2000]], [[4000, 8000]], [[9000, 16000]]],
                 dtype=np.uint64),
    ]
    blob, text_bytes = encode_host_blocks(
        hostname="i101-101",
        properties={"hostname": "i101-101", "uname": "Linux 2.6.18"},
        schemas=schemas,
        devices_by_type=[("0", "1"), ("-",), ("eth0",)],
        times=np.array([1349000000.0, 1349000600.0, 1349001200.0]),
        tags=["-", "2001", "2001"],
        marks=[(1, "begin", "2001"), (2, "end", "2001")],
        values_by_type=values)
    assert blob == encode_host_text(VALID)
    assert text_bytes == len(VALID.encode())


# ---------------------------------------------------------------------------
# No text on the way.
# ---------------------------------------------------------------------------


def test_v2_replay_renders_compresses_and_hashes_no_text(tmp_path,
                                                         monkeypatch):
    compress_calls = []
    written = []
    real_write = StatsWriter._write

    def counting(real):
        def wrapper(*args, **kwargs):
            compress_calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    def recording_write(self, text):
        written.append((self, text))
        return real_write(self, text)

    monkeypatch.setattr(gzip, "compress", counting(gzip.compress))
    monkeypatch.setattr(zlib, "compress", counting(zlib.compress))
    monkeypatch.setattr(StatsWriter, "_write", recording_write)
    run = Facility(CFG, seed=23).run_with_files(
        str(tmp_path / "v2"), archive_format="v2")
    monkeypatch.undo()

    assert compress_calls == []
    files = sorted(Path(tmp_path / "v2").rglob("*.v2"))
    assert len(files) == run.archive_stats.file_count > 0
    # Each file's writer was handed its header lines and nothing else.
    by_writer = {}
    for writer, text in written:
        by_writer.setdefault(id(writer), []).append(text)
    assert len(by_writer) == len(files)
    for texts in by_writer.values():
        lines = "".join(texts).splitlines()
        assert lines and all(line[0] in "$!" for line in lines)
