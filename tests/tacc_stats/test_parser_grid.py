"""The grid path's contract: it is the line loop, or it is not used.

``parse_host_columns`` first offers the text to ``_parse_grid``, which
parses a *regular* file with array operations over its bytes and
returns ``None`` for anything it has not proved well-formed; the line
loop (``_parse_lines``) then judges.  Four things are pinned here:

* **differential** — for any input, under strict / repair /
  ``allow_truncated``, the public parser gives what the line loop alone
  gives: equal columns field by field and dtype by dtype, or the same
  error message, or the same fault list;
* **the acceptance boundary** by hand, each case asserting which path
  ran through the ``parse.files_line_loop`` counter;
* **why the bytes are validated before the C cast**: what
  ``np.fromstring`` does with ``2**64`` and with whitespace runs on the
  installed numpy;
* **the counter as a perf guard**: 0 for every clean archive the system
  writes, 1 for exactly the file that carries a fault.
"""

import gzip
import io
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import config
from repro.facility import Facility
from repro.ingest.parallel import scan_archive
from repro.live.runner import LiveReplay
from repro.tacc_stats import parser
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.format import StatsWriter
from repro.tacc_stats.parser import (
    ParseError,
    _parse_grid,
    parse_host_columns,
)
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.testing.faults import inject_fault
from tests.tacc_stats.test_columnar import _columns_map as columnar_map
from tests.tacc_stats.test_columnar import _host_text, _noncanonical_text
from tests.tacc_stats.test_parser_corruption import OPS, _corrupt


def _regular_text(n_blocks=6):
    """A writer-produced file of identical blocks, with marks."""
    schemas = [
        TypeSchema("cpu", tuple(SchemaEntry(k, is_event=True)
                                for k in ("user", "idle", "iowait"))),
        TypeSchema("mem", (SchemaEntry("used"), SchemaEntry("free"))),
        TypeSchema("absent", (SchemaEntry("x"),)),  # declared, never sampled
        TypeSchema("net", (SchemaEntry("rx", is_event=True, width=32),)),
    ]
    buf = io.StringIO()
    w = StatsWriter(buf, "i101-101", {"uname": "Linux 2.6.18 x86_64"})
    for s in schemas:
        w.register_schema(s)
    for b in range(n_blocks):
        jobids = ("2001",) if 1 <= b <= 3 else ()
        w.begin_block(1349000000.0 + 600 * b, jobids)
        if b == 1:
            w.write_mark("begin", "2001")
        if b == 3:
            w.write_mark("end", "2001")
        for dev in range(4):
            w.write_row("cpu", str(dev), np.array(
                [b * 100 + dev, 10**12 + b, 10**19 - 1 - b], dtype=np.uint64))
        for dev in ("0", "1"):
            w.write_row("mem", dev, [b, 0])
        w.write_row("net", "eth0", [b * 7])
    return buf.getvalue()


REGULAR = _regular_text()
LINES = REGULAR.split("\n")[:-1]


def _columns_map(day):
    """``test_columnar``'s exact view of every column (values, dtype,
    shape), plus what the v2 reader's equality does not ask: layout."""
    arrays = [day.times, day.tags, day.row_type, day.row_block]
    for tc in day.types:
        arrays += [tc.dev_idx, tc.values, tc.block_idx]
    return (columnar_map(day), day.header, day.label,
            [a.flags.c_contiguous for a in arrays])


def _outcome(text, allow_truncated, repair):
    faults = [] if repair else None
    try:
        day = parse_host_columns(text, allow_truncated, faults)
    except ParseError as e:
        return ("raised", str(e), faults)
    return ("parsed", _columns_map(day), faults)


#: The public parser with the grid path taken out: the line loop alone.
line_loop_alone = mock.patch.object(parser, "_parse_grid", lambda text: None)


def _parse_counted(text):
    """``(columns, ran the line loop?)`` through the public parser."""
    registry = MetricsRegistry()
    with use_registry(registry):
        day = parse_host_columns(text)
    counters = registry.snapshot().counters
    assert counters["parse.files"] == 1
    return day, bool(counters["parse.files_line_loop"])


def assert_same_as_line_loop(text):
    """The differential contract, in all four modes; returns whether
    the strict parse went through the grid path."""
    for allow_truncated in (False, True):
        for repair in (False, True):
            got = _outcome(text, allow_truncated, repair)
            with line_loop_alone:
                want = _outcome(text, allow_truncated, repair)
            assert got == want, (allow_truncated, repair)
    return _parse_grid(text) is not None


# -- (a) differential ----------------------------------------------------------


def test_regular_file_takes_the_grid_path_and_equals_the_loop():
    assert assert_same_as_line_loop(REGULAR)
    day, line_loop = _parse_counted(REGULAR)
    assert not line_loop
    assert [tc.name for tc in day.types] == ["cpu", "mem", "absent", "net"]
    assert day.types[2].values.shape == (0, 1)
    assert day.types[0].values[-1].tolist() == [503, 10**12 + 5,
                                                10**19 - 6]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(idx=st.integers(min_value=0, max_value=len(LINES) - 1),
       op=st.sampled_from(OPS),
       salt=st.integers(min_value=0, max_value=10**6))
def test_any_single_line_corruption_of_a_regular_file(idx, op, salt):
    """Every op of ``test_parser_corruption`` on a file the grid path
    accepts when pristine: whichever path then runs, the outcome is
    the line loop's."""
    lines = _corrupt(list(LINES), idx, op, salt)
    assume(lines is not None)
    tail_cut = op == "truncate" and idx == len(LINES) - 1
    assert_same_as_line_loop("\n".join(lines) + ("" if tail_cut else "\n"))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(_host_text(), _noncanonical_text()))
def test_generated_canonical_and_noncanonical_text(text):
    """Writer-produced files (some regular, some not) and valid text no
    writer produces: interleaved type runs, missing devices, repeated
    timestamps, fractional seconds, values up to 2**64 - 1."""
    assert_same_as_line_loop(text)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(row=st.integers(0, len(LINES) - 1),
       token=st.sampled_from([
           "0", "00", "007", "9" * 19, "9" * 20, "1" + "0" * 19,
           str(2**64 - 1), str(2**64), "0" * 25 + "1", "1_0", "+10", "-0",
           "１0", "10\t", "\t10", " 10", "10 ", "1e3", "0x10", "",
           "1.0", "\x00", "1\r", "\xe9"]))
def test_any_token_in_any_value_position(row, token):
    """The value grammar is ``[0-9]+`` <= 2**64 - 1 on both paths."""
    head = LINES[row].split(" ")
    assume(len(head) > 2 and not LINES[row][0].isdigit())
    head[2 + row % (len(head) - 2)] = token
    assert_same_as_line_loop(
        "\n".join(LINES[:row] + [" ".join(head)] + LINES[row + 1:]) + "\n")


# -- (b) the acceptance boundary, by hand --------------------------------------

GRID, LOOP = False, True


def _edit(old, new):
    """REGULAR with the first *old* replaced."""
    assert old in REGULAR
    return REGULAR.replace(old, new, 1)


def _drop_line(lineno):
    return "\n".join(LINES[:lineno - 1] + LINES[lineno:]) + "\n"


def _cpu_rows_apart():
    """Every block the same, but its last cpu row after its mem rows."""
    out, held = [], None
    for line in LINES:
        if line.startswith("cpu 3 "):
            held = line
            continue
        out.append(line)
        if line.startswith("mem 1 "):
            out.append(held)
    return "\n".join(out) + "\n"


BAD_VALUE = "line 23: non-integer value in row"

#: name -> (text, the path that parses it, the error it raises or None).
#: Line 9 is block 0's first row, line 23 ``mem 1 1 0`` in block 1.
BOUNDARY = {
    "19-digit tokens (block 0 ends its cpu rows in 10**19 - 1)": (
        REGULAR, GRID, None),
    "20-digit token": (_edit(f" {10**19 - 1}\n", f" {10**19}\n"), LOOP, None),
    "2**64 - 1": (_edit(f" {10**19 - 1}\n", f" {2**64 - 1}\n"), LOOP, None),
    "2**64": (_edit(f" {10**19 - 1}\n", f" {2**64}\n"), LOOP,
              "line 9: non-integer value in row"),
    "leading zeros": (_edit("mem 1 1 0\n", "mem 1 001 00\n"), GRID, None),
    "20 leading zeros": (
        _edit("mem 1 1 0\n", f"mem 1 {'0' * 20}1 0\n"), LOOP, None),
    "underscore": (_edit("mem 1 1 0\n", "mem 1 1_0 0\n"), LOOP, BAD_VALUE),
    "plus sign": (_edit("mem 1 1 0\n", "mem 1 +1 0\n"), LOOP, BAD_VALUE),
    "minus zero": (_edit("mem 1 1 0\n", "mem 1 -0 0\n"), LOOP, BAD_VALUE),
    "full-width digit": (
        _edit("mem 1 1 0\n", "mem 1 \uff11 0\n"), LOOP, BAD_VALUE),
    "tab after a value": (
        _edit("mem 1 1 0\n", "mem 1 1\t 0\n"), LOOP, BAD_VALUE),
    "tab before a value": (
        _edit("mem 1 1 0\n", "mem 1 \t1 0\n"), LOOP, BAD_VALUE),
    "NUL in a value": (
        _edit("mem 1 1 0\n", "mem 1 1\x00 0\n"), LOOP, BAD_VALUE),
    "double space": (_edit("mem 1 1 0\n", "mem 1 1  0\n"), LOOP,
                     "line 23: malformed spacing in row"),
    "trailing space": (_edit("mem 1 1 0\n", "mem 1 1 0 \n"), LOOP,
                       "line 23: malformed spacing in row"),
    "CRLF": (REGULAR.replace("\n", "\r\n"), LOOP,
             "line 9: non-integer value in row"),
    "non-ASCII device name": (
        REGULAR.replace("net eth0 ", "net \xe9th0 "), LOOP, None),
    "non-ASCII property value": (
        _edit("Linux 2.6.18", "Linux 2.6.18 \xb5"), LOOP, None),
    "blank line": (_edit("mem 1 1 0\n", "mem 1 1 0\n\n"), LOOP,
                   "line 24: blank line"),
    "device appearing mid-file": (
        _edit("net eth0 14\n", "net eth0 14\nnet eth1 0\n"), LOOP, None),
    "deleted row": (_drop_line(31), LOOP, None),
    "deleted timestamp line": (
        _drop_line(25), LOOP,
        "line 25: duplicate row cpu/0 at t=1349000600.0"),
    "non-monotonic timestamps": (
        _edit("1349001200", "1349000100"), LOOP,
        "line 25: non-monotonic timestamp 1349000100.0"),
    "marks in the first block": (
        _edit("1349000000 -\n", "1349000000 -\n%begin 7\n%end 7\n"),
        GRID, None),
    "a type's rows apart": (_cpu_rows_apart(), LOOP, None),
    "one-block file": (_regular_text(n_blocks=1), GRID, None),
    "two-block file": (_regular_text(n_blocks=2), GRID, None),
    "header-only file": (
        "".join(line + "\n" for line in LINES[:7]), LOOP, None),
    "empty text": ("", LOOP, None),
    "no final newline": (REGULAR[:-1], LOOP, None),
}


@pytest.mark.parametrize("name", BOUNDARY)
def test_acceptance_boundary(name):
    text, path, error = BOUNDARY[name]
    assert_same_as_line_loop(text)
    if error is None:
        _day, line_loop = _parse_counted(text)
        assert line_loop == path
    else:
        assert path == LOOP and _parse_grid(text) is None
        with pytest.raises(ParseError) as raised:
            parse_host_columns(text)
        assert str(raised.value) == error


def test_failed_parses_count_no_file():
    """``parse.files_line_loop`` is bumped beside ``parse.files``: a
    parse that raises counts neither."""
    registry = MetricsRegistry()
    with use_registry(registry), pytest.raises(ParseError):
        parse_host_columns(BOUNDARY["2**64"][0])
    assert registry.snapshot().counters == {}


def test_text_counters_do_not_depend_on_the_path():
    """``parse.files/bytes/lines/blocks`` are what the line loop always
    reported, whichever path ran."""
    def counters(text):
        registry = MetricsRegistry()
        with use_registry(registry):
            parse_host_columns(text, allow_truncated=True, faults=[])
        out = registry.snapshot().counters
        out.pop("parse.files_line_loop")
        return out

    texts = [REGULAR, REGULAR[:-1], REGULAR[:-4], "", "$hostname h\n"]
    grid = [counters(text) for text in texts]
    assert grid[0] == {"parse.files": 1, "parse.bytes": len(REGULAR),
                       "parse.lines": len(LINES), "parse.blocks": 6,
                       "parse.faults": 0}
    assert grid[1]["parse.lines"] == grid[2]["parse.lines"] == len(LINES)
    with line_loop_alone:
        assert [counters(text) for text in texts] == grid


# -- (c) why validation comes before the C cast --------------------------------


def test_c_cast_saturates_and_swallows_whitespace():
    """``np.fromstring`` is the fast cast, and is not a validator: on
    the installed numpy it saturates ``2**64`` silently and takes any
    whitespace run as one separator.  That is *why* the grid path
    proves, on the bytes and before the cast, that every token is 1-19
    digits and every separator one blank.  A numpy that behaves
    differently fails here, by name, instead of changing what the
    parser accepts."""
    def cast(s):
        return np.fromstring(s, dtype="<u8", sep=" ").tolist()

    assert cast(str(2**64 - 1)) == [2**64 - 1]
    assert cast(f"1 {2**64} 2") == [1, 2**64 - 1, 2]       # saturates
    assert cast(f"{2**64 + 12345}") == [2**64 - 1]
    assert cast("1  2\t3\n4 \r\n 5") == [1, 2, 3, 4, 5]    # any run
    assert cast("  7 ") == [7]
    assert cast("9" * 19) == [10**19 - 1]                  # 19 digits fit
    assert cast("007 " + "0" * 30 + "1") == [7, 1]


# -- (d) ownership --------------------------------------------------------------


def test_no_returned_array_is_a_view_of_the_file_bytes(monkeypatch):
    """Nothing in the result may pin the file's byte buffer or its
    blanked copy (both uint8, the only uint8 arrays the path makes)."""
    seen = []
    frombuffer = np.frombuffer

    def spy(*args, **kwargs):
        seen.append(frombuffer(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(parser.np, "frombuffer", spy)
    day, line_loop = _parse_counted(REGULAR)
    monkeypatch.undo()
    assert not line_loop
    assert len(seen) == 1 and seen[0].nbytes == len(REGULAR)
    arrays = [day.times, day.tags, day.row_type, day.row_block]
    for tc in day.types:
        arrays += [tc.dev_idx, tc.values, tc.block_idx]
    for a in arrays:
        assert not np.shares_memory(a, seen[0])
        assert a.flags.writeable
        root = a
        while root.base is not None:
            root = root.base
        assert isinstance(root, np.ndarray) and root.dtype != np.uint8


# -- the counter as a deterministic perf guard ---------------------------------

SYSTEMS = {"ranger": config.RANGER, "lonestar4": config.LONESTAR4,
           "stampede": config.STAMPEDE}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """``{(system, flush seconds): plain-text archive}``, 3 nodes x 2
    days each, replayed with a flush every day or every hour (a text
    day file is written whole when its day closes)."""
    out = {}
    for name, cfg in SYSTEMS.items():
        cfg = cfg.scaled(num_nodes=3, horizon_days=2)
        for flush in (86400, 3600):
            root = tmp_path_factory.mktemp(f"{name}-{flush}")
            facility = Facility(cfg, seed=21)
            workload, sim, _outages, _cluster = facility._simulate()
            archive = HostArchive(root, compress=False)
            replay = LiveReplay(cfg, 21, *facility._behavior_context(
                workload), sim.records, archive)
            for t in range(flush, int(cfg.horizon) + flush, flush):
                replay.advance(min(t, cfg.horizon))
                archive.flush_before(t)
            archive.close()
            out[name, flush] = root
    return out


def _gz_copy(root, dst):
    """The same archive with every host file gzipped."""
    shutil.copytree(root, dst)
    for path in [p for p in Path(dst).glob("*/*") if p.is_file()]:
        path.with_name(path.name + ".gz").write_bytes(
            gzip.compress(path.read_bytes(), mtime=0))
        path.unlink()
    return dst


def _scan_counters(root, **kw):
    registry = MetricsRegistry()
    with use_registry(registry):
        scans = list(scan_archive(HostArchive(root), allow_truncated=True,
                                  policy="repair", **kw))
    assert scans
    return registry.snapshot().without_timing().counters


@pytest.mark.parametrize("rotate", [86400, 3600])
@pytest.mark.parametrize("system", SYSTEMS)
def test_clean_archives_never_take_the_line_loop(archives, tmp_path,
                                                 system, rotate):
    """Every file the system writes is regular — day files and the
    two-block tail file alike, however often flushed; plain or gzipped
    — and equals the loop's parse."""
    root = archives[system, rotate]
    files = [p for p in Path(root).glob("*/*") if p.is_file()]
    assert len(files) == 3 * 3
    for path in files:
        assert assert_same_as_line_loop(path.read_text()), path
    for tree in (root, _gz_copy(root, tmp_path / "gz")):
        counters = _scan_counters(tree)
        assert counters["parse.files"] == len(files)
        assert counters["parse.files_line_loop"] == 0


@pytest.mark.parametrize("kind, expected", [
    ("bit_flip", 1), ("missing_schema", 1), ("garbage_lines", 1),
    ("truncated_tail", 1), ("duplicate_timestamp", 1),
    ("wrong_hostname", 0)])
def test_a_faulted_file_and_no_other_takes_the_line_loop(
        archives, tmp_path, kind, expected, pool_cpus):
    """``duplicate_timestamp`` is an empty block: legal, not regular.
    ``wrong_hostname`` is well-formed text that the archive layer, not
    the parser, rejects.  Serial == pool."""
    root = _gz_copy(archives["lonestar4", 86400], tmp_path / "faulted")
    victim = sorted(p for p in root.glob("*/*") if p.is_file())[3]
    inject_fault(victim, kind, seed=4)
    serial = _scan_counters(root)
    assert serial["parse.files_line_loop"] == expected
    assert serial["parse.files"] == 9
    pool = _scan_counters(root, workers=2)
    assert pool == serial

    registry = MetricsRegistry()
    with use_registry(registry):
        HostArchive(root).read_host_days(
            victim.parent.name, allow_truncated=True, policy="repair",
            paths=[victim])
    assert registry.snapshot().counters["parse.files_line_loop"] == expected
