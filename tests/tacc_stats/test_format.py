"""Tests for the stats writer."""

import io

import numpy as np
import pytest

from repro.tacc_stats.format import FORMAT_VERSION, StatsWriter
from repro.tacc_stats.schema import SchemaEntry, TypeSchema


CPU = TypeSchema("cpu", (SchemaEntry("user", is_event=True),
                         SchemaEntry("idle", is_event=True)))


def writer(**props):
    buf = io.StringIO()
    w = StatsWriter(buf, "c001-001.test", props)
    w.register_schema(CPU)
    return buf, w


def test_header_written_once_before_data():
    buf, w = writer(uname="Linux")
    w.begin_block(100.0, ("42",))
    w.write_row("cpu", "0", [1, 2])
    w.begin_block(700.0, ("42",))
    w.write_row("cpu", "0", [3, 4])
    text = buf.getvalue()
    assert text.count(f"$tacc_stats {FORMAT_VERSION}") == 1
    assert text.count("!cpu") == 1
    assert text.index("$hostname") < text.index("!cpu") < text.index("100 42")


def test_idle_block_tag():
    buf, w = writer()
    w.begin_block(100.0)
    assert "100 -" in buf.getvalue()


def test_marks_inside_blocks():
    buf, w = writer()
    w.begin_block(100.0, ("42",))
    w.write_mark("begin", "42")
    assert "%begin 42" in buf.getvalue()
    with pytest.raises(ValueError):
        w.write_mark("middle", "42")


def test_mark_outside_block_rejected():
    _, w = writer()
    with pytest.raises(RuntimeError):
        w.write_mark("begin", "42")


def test_row_validation():
    _, w = writer()
    w.begin_block(100.0)
    with pytest.raises(ValueError, match="unregistered"):
        w.write_row("mem", "0", [1])
    with pytest.raises(ValueError, match="values"):
        w.write_row("cpu", "0", [1, 2, 3])
    with pytest.raises(ValueError, match="negative"):
        w.write_row("cpu", "0", [-1, 2])
    w.write_row("cpu", "0", [1, 2])
    with pytest.raises(ValueError, match="duplicate"):
        w.write_row("cpu", "0", [1, 2])


def test_row_outside_block_rejected():
    _, w = writer()
    with pytest.raises(RuntimeError):
        w.write_row("cpu", "0", [1, 2])


def test_nonmonotonic_time_rejected():
    _, w = writer()
    w.begin_block(100.0)
    with pytest.raises(ValueError, match="non-monotonic"):
        w.begin_block(50.0)


def test_schema_after_data_rejected():
    _, w = writer()
    w.begin_block(100.0)
    with pytest.raises(RuntimeError):
        w.register_schema(TypeSchema("mem", (SchemaEntry("a"),)))


def test_duplicate_schema_rejected():
    _, w = writer()
    with pytest.raises(ValueError):
        w.register_schema(CPU)


def test_values_rendered_as_ints():
    buf, w = writer()
    w.begin_block(100.0)
    w.write_row("cpu", "0", np.array([1.9, 2**40], dtype=float))
    line = buf.getvalue().strip().split("\n")[-1]
    assert line == f"cpu 0 1 {2**40}"


@pytest.mark.parametrize("value", [0, 2**63 - 1, 2**63, 2**63 + 1,
                                   2**64 - 1])
@pytest.mark.parametrize("as_array", [False, True])
def test_every_uint64_round_trips_through_the_parser(value, as_array):
    """A list is written exactly (not rounded through float64), as a
    ``uint64`` array is, and reads back as the same value."""
    from repro.tacc_stats.parser import parse_host_columns

    values = [value, 3]
    buf, w = writer()
    w.begin_block(100.0)
    w.write_row("cpu", "0", np.array(values, dtype=np.uint64)
                if as_array else values)
    assert buf.getvalue().endswith(f"cpu 0 {value} 3\n")
    (cpu,) = parse_host_columns(buf.getvalue()).types
    assert cpu.values.tolist() == [values]


@pytest.mark.parametrize("value", [2**64, -1])
def test_a_value_outside_uint64_is_rejected(value):
    _, w = writer()
    w.begin_block(100.0)
    with pytest.raises(ValueError, match="negative|uint64"):
        w.write_row("cpu", "0", [value, 3])
    w.write_row("cpu", "0", [1, 3])  # the rejected row poisoned nothing


def test_bad_hostname_rejected():
    with pytest.raises(ValueError):
        StatsWriter(io.StringIO(), "has space")


def test_bytes_written_tracked():
    buf, w = writer()
    w.begin_block(100.0)
    w.write_row("cpu", "0", [1, 2])
    assert w.bytes_written == len(buf.getvalue())
