"""Tests for the rotating host archive."""

import gzip

import pytest

from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.tacc_stats.synth import HostFile
from repro.util.timeutil import DAY

CPU = TypeSchema("cpu", (SchemaEntry("user", is_event=True),))


def cpu_file(host):
    """A factory of *host*'s files with one ``cpu`` device."""
    return lambda: HostFile(host, [CPU], [("0",)])


def write_day(archive, host, day, blocks=3):
    for k in range(blocks):
        t = day * DAY + 600.0 * (k + 1)
        archive.writer(host, t, cpu_file(host)).append(
            [t], [()], [], [[[[k * 100]]]])


def test_daily_rotation_creates_one_file_per_day(tmp_path):
    archive = HostArchive(tmp_path, compress=False)
    write_day(archive, "h1", 0)
    write_day(archive, "h1", 1)
    archive.close()
    files = archive.host_files("h1")
    assert [f.name for f in files] == ["2011-06-01", "2011-06-02"]


def test_compression_and_stats(tmp_path):
    archive = HostArchive(tmp_path, compress=True)
    write_day(archive, "h1", 0, blocks=50)
    stats = archive.close()
    files = archive.host_files("h1")
    assert files[0].suffix == ".gz"
    raw = gzip.decompress(files[0].read_bytes())
    assert stats.raw_bytes == len(raw)
    assert stats.compressed_bytes == files[0].stat().st_size
    assert stats.compression_ratio > 1.0
    assert stats.host_days == 1
    assert stats.bytes_per_host_day == stats.raw_bytes


def test_read_host_merges_rotated_files(tmp_path):
    archive = HostArchive(tmp_path, compress=True)
    write_day(archive, "h1", 0)
    write_day(archive, "h1", 1)
    archive.close()
    host = archive.read_host("h1")
    assert host.hostname == "h1"
    assert len(host.blocks) == 6
    times = [b.time for b in host.blocks]
    assert times == sorted(times)


def test_hostnames_listing(tmp_path):
    archive = HostArchive(tmp_path, compress=False)
    write_day(archive, "h2", 0)
    write_day(archive, "h1", 0)
    archive.close()
    assert archive.hostnames() == ["h1", "h2"]


def test_read_missing_host_raises(tmp_path):
    archive = HostArchive(tmp_path)
    with pytest.raises(FileNotFoundError):
        archive.read_host("ghost")


def test_same_day_reuses_writer(tmp_path):
    archive = HostArchive(tmp_path, compress=False)
    w1 = archive.writer("h1", 600.0, cpu_file("h1"))
    w2 = archive.writer("h1", 1200.0, cpu_file("h1"))
    assert w1 is w2
    w3 = archive.writer("h1", DAY + 600.0, cpu_file("h1"))
    assert w3 is not w1


def test_a_host_file_refuses_a_hostname_or_time_its_text_cannot_hold():
    with pytest.raises(ValueError, match="bad hostname"):
        HostFile("has space", [CPU], [("0",)])
    file = cpu_file("h1")()
    file.append([1200.0], [()], [], [[[[1]]]])
    with pytest.raises(ValueError, match="non-monotonic"):
        file.append([600.0], [()], [], [[[[2]]]])


def test_empty_stats(tmp_path):
    archive = HostArchive(tmp_path)
    stats = archive.close()
    assert stats.bytes_per_host_day == 0.0
    assert stats.compression_ratio == 0.0
