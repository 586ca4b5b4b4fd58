"""Torn and flipped units of a day file grown by a live writer, as
properties over a three-unit file (a first unit and two later ones).

A write cut short at any byte leaves a torn tail that no reader takes
for a unit: the file reads as the units before the cut, its tip names
the last complete one, and the writer's next flush writes over the
tail, leaving the bytes of an uninterrupted run.  A byte flipped inside
a unit an ingest consumed makes the next append raise "mutated" and
``repro-diagnose --verify`` name the file."""

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli.diagnose import main as diagnose_main
from repro.config import RANGER
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.columnar import (
    V2FormatError,
    _checked,
    _units,
    file_tip,
    read_host_day,
    rechain,
)
from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.synth import HostFile
from repro.util.timeutil import DAY, HOUR

HOST = "c001"
SCHEMAS = [TypeSchema.parse_header_line("!cpu user,E idle,E,W=32"),
           TypeSchema.parse_header_line("!mem used free")]
DEVICES = [("0", "1"), ("-",)]
#: The flushes that cut the day: two before it ended, one closing it.
FLUSHES = (HOUR, 2 * HOUR, DAY)


def grow(archive: HostArchive, first: int, last: int,
         flush: bool = True) -> HostArchive:
    """Write units *first* to *last* (exclusive) of the day: two blocks
    of job ``k`` before flush ``k``, then (with *flush*) the flush."""
    for k, t in enumerate(FLUSHES[first:last], start=first):
        times = [t - 1200.0, t - 600.0]
        values = [np.arange(8 * k + 1, 8 * k + 9, dtype=np.uint64)
                  .reshape(2, 2, 2) * np.uint64(999_983),
                  np.array([[[k, 100 - k]], [[k + 1, 99 - k]]], np.uint64)]
        archive.writer(HOST, times[0], lambda: HostFile(
            HOST, SCHEMAS, DEVICES)).append(
            times, [(f"{k}",), (f"{k}",)], [(0, "begin", f"{k}")], values)
        if flush:
            archive.flush_before(t)
    return archive


def v2_archive(root: Path) -> HostArchive:
    return HostArchive(root, archive_format="v2")


def day_file(root: Path) -> Path:
    return root / HOST / "2011-06-01.v2"


@pytest.fixture(scope="module")
def whole(tmp_path_factory):
    """The uncut file's path, bytes, unit ends, and the byte ranges a
    reader maps: the first unit's chunks, and the later units whole."""
    root = tmp_path_factory.mktemp("whole")
    grow(v2_archive(root), 0, len(FLUSHES))
    path = day_file(root)
    units = _checked(path, lambda mm: _units(mm, None, 0, path.name))
    ends = [unit.end for unit in units]
    assert len(ends) == 3 and ends[-1] == path.stat().st_size
    mapped = [(c["offset"], c["offset"] + c["nbytes"])
              for c in units[0].index[0]["chunks"] if c["nbytes"]]
    return path, path.read_bytes(), ends, [*mapped, (ends[0], ends[-1])]


def columns(day) -> tuple:
    return (day.hostname, day.properties, day.times.tolist(),
            day.jobid_tags, day.tags.tolist(), [tuple(m) for m in day.marks],
            day.row_type.tolist(), day.row_block.tolist(), [
                (tc.name, tc.devices, tc.dev_idx.tolist(), tc.values.tolist(),
                 tc.block_idx.tolist()) for tc in day.types])


def test_any_run_of_units_reads_as_one_file_of_its_blocks(whole, tmp_path):
    uncut, _data, ends, _mapped = whole
    for first in range(len(FLUSHES)):
        for last in range(first + 1, len(FLUSHES) + 1):
            root = tmp_path / f"{first}-{last}"
            grow(v2_archive(root), first, last, flush=False).close()
            got = read_host_day(uncut, ends[first - 1] if first else 0,
                                ends[last - 1])
            assert columns(got) == columns(read_host_day(day_file(root)))
            assert got.fresh == (first > 0)


def check_cut(whole, cut: int) -> None:
    """Torn at byte *cut*: the file reads as the units wholly before
    it, and the writer, resumed where it died, writes over the tail."""
    uncut, data, ends, _mapped = whole
    done = sum(end <= cut for end in ends)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        archive = grow(v2_archive(root), 0, done)
        day_file(root).parent.mkdir(exist_ok=True)
        day_file(root).write_bytes(data[:cut])  # the unit it died in
        if done:
            assert file_tip(day_file(root)) == file_tip(uncut, ends[done - 1])
            got = read_host_day(day_file(root))
            assert got.times.tolist() == [
                t - dt for t in FLUSHES[:done] for dt in (1200.0, 600.0)]
            assert got.to_text() == read_host_day(
                uncut, 0, ends[done - 1]).to_text()
        else:
            for read in (file_tip, read_host_day):
                with pytest.raises(V2FormatError):
                    read(day_file(root))
        grow(archive, done, len(FLUSHES))
        assert day_file(root).read_bytes() == data
        assert read_host_day(day_file(root)).to_text() == \
            read_host_day(uncut).to_text()


def test_a_cut_in_the_last_64_bytes_of_any_unit(whole):
    """Every offset in the last 64 bytes of each unit: the trailer and
    what precedes it."""
    for end in whole[2]:
        for cut in range(end - 64, end):
            check_cut(whole, cut)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_cut_anywhere(whole, data):
    check_cut(whole, data.draw(st.integers(1, len(whole[1]) - 1)))


@pytest.fixture(scope="module")
def consumed(tmp_path_factory, whole):
    """The whole file in an archive an ingest consumed; its warehouse
    file."""
    root = tmp_path_factory.mktemp("consumed")
    day_file(root).parent.mkdir()
    day_file(root).write_bytes(whole[1])
    path = str(root / "w.sqlite")
    warehouse = Warehouse(path)
    IngestPipeline(warehouse).ingest(
        RANGER, accounting_text="", archive=HostArchive(root), mode="append")
    warehouse.close()
    return root, path


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_flipped_byte_in_any_consumed_unit(whole, consumed, data, capsys):
    """A byte of any later unit, or of any of the first unit's chunks:
    the append raises "mutated", ``--verify`` names the file."""
    _uncut, original, _ends, mapped = whole
    root, path = consumed
    offset = data.draw(st.sampled_from(mapped).flatmap(
        lambda span: st.integers(span[0], span[1] - 1)))
    victim = day_file(root)
    flipped = bytearray(original)
    flipped[offset] ^= 1
    victim.write_bytes(bytes(flipped))
    try:
        warehouse = Warehouse(path)
        with pytest.raises(ValueError, match="mutated"):
            IngestPipeline(warehouse).ingest(
                RANGER, accounting_text="", archive=HostArchive(root),
                mode="append")
        warehouse.close()
        capsys.readouterr()
        assert diagnose_main(["--warehouse", path, "--system", RANGER.name,
                              "--verify", str(root)]) == 1
        assert f"{HOST}/2011-06-01: content differs" in \
            capsys.readouterr().out
    finally:
        victim.write_bytes(original)
        os.utime(victim)


def test_an_indexed_later_unit_is_refused_not_torn(whole, tmp_path):
    """A later unit in the older layout (its own JSON chunk index and a
    "start" key) after a first unit is refused by every reader, never
    read past as a torn tail."""
    _uncut, data, ends, _mapped = whole
    footer = json.dumps({"chunks": [], "start": ends[0],
                         "sha256": "0" * 64}).encode()
    path = tmp_path / "2011-06-01.v2"
    path.write_bytes(data[:ends[0]] + b"\x93RPC2+\r\n"
                     + struct.pack("<II", 2, 2) + b"{}" + footer
                     + struct.pack("<Q", len(footer)) + b"\x00RPC2END")
    for read in (file_tip, read_host_day, rechain):
        with pytest.raises(V2FormatError, match="refused"):
            read(path)
