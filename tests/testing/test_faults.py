"""Tests for the fault-injection harness itself.

The whole fault matrix rests on two properties of the injectors:
determinism (same seed, same corruption, byte for byte) and
detectability-by-construction (fatal kinds can never produce output
that still parses as different-but-valid data).
"""

import gzip
import zlib

import pytest

from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.parser import ParseError, parse_host_text
from repro.testing.faults import (
    BENIGN_KINDS,
    FATAL_KINDS,
    FAULT_KINDS,
    corrupt_archive,
    inject_fault,
)

VALID = (
    "$hostname h7\n"
    "$uname Linux\n"
    "!cpu user,E idle,E,W=32\n"
    "!mem used free\n"
    "100 7\n"
    "cpu 0 10 20\n"
    "cpu 1 11 21\n"
    "mem - 512 1536\n"
    "700 7\n"
    "cpu 0 310 620\n"
    "cpu 1 311 621\n"
    "mem - 600 1448\n"
)


def _file(tmp_path, name="2013-01-01", text=VALID, gz=False):
    tmp_path.mkdir(parents=True, exist_ok=True)
    if gz:
        p = tmp_path / f"{name}.gz"
        p.write_bytes(gzip.compress(text.encode(), mtime=0))
    else:
        p = tmp_path / name
        p.write_text(text)
    return p


def _read(p):
    if p.suffix == ".gz":
        return gzip.decompress(p.read_bytes()).decode()
    return p.read_text()


#: The two kinds that damage a ``.gz`` file's stored bytes, and what a
#: strict read of the damaged file raises.
GZ_KINDS = {"gz_truncated": EOFError, "gz_bit_flip": zlib.error}


@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("gz", [False, True])
def test_same_seed_same_corruption(tmp_path, kind, gz):
    a = _file(tmp_path / "a", gz=gz)
    b = _file(tmp_path / "b", gz=gz)
    if kind in GZ_KINDS and not gz:
        with pytest.raises(ValueError, match="is not a .gz"):
            inject_fault(a, kind, seed=5)  # nothing stored to damage
        return
    fa = inject_fault(a, kind, seed=5)
    fb = inject_fault(b, kind, seed=5)
    if kind in GZ_KINDS:
        assert a.read_bytes() == b.read_bytes()
    else:
        assert _read(a) == _read(b)
    assert (fa.kind, fa.lineno, fa.detail) == (fb.kind, fb.lineno, fb.detail)


def test_different_seeds_vary(tmp_path):
    """bit_flip with different seeds hits different bytes (eventually)."""
    outputs = set()
    for seed in range(6):
        p = _file(tmp_path / str(seed))
        inject_fault(p, "bit_flip", seed=seed)
        outputs.add(p.read_text())
    assert len(outputs) > 1


@pytest.mark.parametrize("kind", FATAL_KINDS)
def test_fatal_kinds_fail_strict_parse(tmp_path, kind):
    p = _file(tmp_path / "h7", gz=kind in GZ_KINDS)
    inject_fault(p, kind, seed=3)
    with pytest.raises(GZ_KINDS.get(kind, ParseError)):
        HostArchive(tmp_path).read_host("h7", allow_truncated=True)


@pytest.mark.parametrize("seed", range(8))
def test_gz_kinds_raise_what_they_promise(tmp_path, seed):
    """``gz_bit_flip`` is proven to raise ``zlib.error`` — not the CRC
    mismatch (an ``OSError``) nine flips in ten produce — and a
    truncated stream ``EOFError``: the two errors that used to escape
    every policy."""
    for kind, error in GZ_KINDS.items():
        p = _file(tmp_path / kind, gz=True)
        fault = inject_fault(p, kind, seed=seed)
        assert (fault.kind, fault.lineno) == (kind, None)
        with pytest.raises(error) as raised:
            gzip.decompress(p.read_bytes())
        assert not isinstance(raised.value, OSError)


@pytest.mark.parametrize("kind", BENIGN_KINDS)
def test_benign_kinds_still_parse(tmp_path, kind):
    """Benign corruption parses clean — and never alters surviving
    values relative to the pristine file."""
    p = _file(tmp_path)
    inject_fault(p, kind, seed=3)
    original = parse_host_text(VALID)
    host = parse_host_text(p.read_text(), allow_truncated=True)
    want = {
        (b.time, t, d): v.tolist()
        for b in original.blocks for t, by in b.rows.items()
        for d, v in by.items()
    }
    for b in host.blocks:
        for t, by in b.rows.items():
            for d, v in by.items():
                assert want[(b.time, t, d)] == v.tolist()


def test_fatal_kinds_are_quarantinable(tmp_path):
    """A repair-mode read survives every fatal kind with the damage
    recorded (except corruption that destroys the stream identity
    entirely)."""
    for kind in FATAL_KINDS:
        p = _file(tmp_path / kind / "h7", gz=kind in GZ_KINDS)
        inject_fault(p, kind, seed=11)
        _kept, records, status = HostArchive(tmp_path / kind).read_host_days(
            "h7", allow_truncated=True, policy="repair")
        assert records and status == "degraded", kind
        assert {r.path for r in records} == {str(p)}


def test_corrupt_archive_one_file_per_host(tmp_path):
    for host in ("h0", "h1"):
        (tmp_path / host).mkdir()
        _file(tmp_path / host)
    injected = corrupt_archive(
        tmp_path, {"h0": "bit_flip", "h1": "zero_byte"}, seed=9)
    assert [f.kind for f in injected] == ["bit_flip", "zero_byte"]
    assert (tmp_path / "h1" / "2013-01-01").read_text() == ""
    assert (tmp_path / "h0" / "2013-01-01").read_text() != VALID


def test_unknown_kind_rejected(tmp_path):
    p = _file(tmp_path)
    with pytest.raises(ValueError, match="unknown fault kind"):
        inject_fault(p, "gamma_rays", seed=0)
