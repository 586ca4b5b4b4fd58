"""Parser for the TACC_Stats text format.

Strict by design: production pipelines that silently skip malformed lines
corrupt job summaries, so every violation raises :class:`ParseError` with
the line number.  The only tolerated irregularities are the ones real
deployments produce: empty files (node down all day), a trailing truncated
line (node crashed mid-write, opt-in via ``allow_truncated``), and files
that begin mid-stream after rotation (headers repeat per file, so this is
detected and rejected instead of being misread).

The result is a :class:`~repro.tacc_stats.types.HostColumns` — the same
column arrays the v2 reader maps from disk — so text, gzip and v2 files
feed one ingest scan (:mod:`repro.ingest.columnar_scan`).

Performance: a *regular* file — every block the same rows in the same
order, as the collectors write them — is parsed with array operations
over its bytes (:func:`_parse_grid`), which proves it well-formed or
declines it.  The line loop (:func:`_scan_lines`) reads what is declined
and is the only place an error is worded or a line repaired: it splits
a row only around type and device, checks arity with one ``str.count``
and batches the integer cast per record type; a malformed *value* is
attributed to its line during that cast, before the parse returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.tacc_stats.schema import TypeSchema
from repro.tacc_stats.types import HostColumns, HostData, TypeColumns
from repro.telemetry.metrics import get_registry

__all__ = ["ParseError", "ParseFault", "parse_host_columns",
           "parse_host_text"]

#: Longest offending-line excerpt kept in a :class:`ParseFault`.
_FAULT_EXCERPT = 200

_LINENO_RE = re.compile(r"line (\d+):")


class ParseError(Exception):
    """Malformed TACC_Stats input; message carries the line number."""

    @property
    def lineno(self) -> int | None:
        """The 1-based line number from the message, if it carries one."""
        m = _LINENO_RE.match(str(self))
        return int(m.group(1)) if m else None


@dataclass(frozen=True)
class ParseFault:
    """One malformed line skipped by a repair-mode parse.

    The parser knows nothing about hosts or files; callers attach that
    provenance when they promote faults to quarantine records.
    """

    lineno: int
    error: str
    text: str

    @classmethod
    def from_error(cls, lineno: int, exc: Exception, line: str) -> "ParseFault":
        """Build a fault from the exception raised at *line*."""
        return cls(lineno=lineno, error=str(exc),
                   text=line[:_FAULT_EXCERPT])


#: What a row's value region is made of: ``[0-9]+`` tokens, each at
#: most ``2**64 - 1``, and the single spaces between them.
_VALUE_BYTES = b"0123456789 "


def _cast(rest: str) -> np.ndarray:
    """The values of a value region; a sign, ``_``, tab or non-ASCII
    digit (all fine by ``int()``), an empty or too large token raises."""
    if not rest.isascii() or rest.encode().translate(None, _VALUE_BYTES):
        raise ValueError
    return np.array(rest.split(" "), dtype="<u8")


def _type_columns(schema: TypeSchema, rests: list[str],
                  runs: list[tuple[int, dict[str, int]]],
                  faults: list[ParseFault] | None) -> TypeColumns:
    """Batch-convert one type's accumulated rows into its columns.

    *rests* holds each row's raw value substring; *runs* lists the
    type's ``(block, {device: lineno})`` runs in file order, whose keys,
    concatenated, align with *rests* (the line loop keeps device and
    line number in the dict it already needs for duplicate detection).
    When the batch cast fails or a value exceeds its column's ``W=``,
    rows are converted one by one so the bad value is attributed to its
    line: raised, or in repair mode (a *faults* sink) recorded and the
    row dropped from its run.
    """
    k = schema.n_values
    try:
        values = (_cast(" ".join(rests)) if rests
                  else np.empty(0, dtype="<u8")).reshape(-1, k)
        if schema.overflow(values):
            raise ValueError
    except (ValueError, OverflowError):
        sites = [(by_dev, dev, lineno) for _b, by_dev in runs
                 for dev, lineno in by_dev.items()]
        good = [np.empty((0, k), dtype="<u8")]
        for rest, (by_dev, device, lineno) in zip(rests, sites):
            try:
                row = _cast(rest).reshape(1, k)
            except (ValueError, OverflowError):
                error = f"line {lineno}: non-integer value in row"
            else:
                if not (width := schema.overflow(row)):
                    good.append(row)
                    continue
                error = (f"line {lineno}: counter value out of range for "
                         f"width {width}")
            if faults is None:
                raise ParseError(error) from None
            del by_dev[device]
            faults.append(ParseFault(
                lineno=lineno, error=error,
                text=f"{schema.type_name} ... {rest[:_FAULT_EXCERPT]}"))
        values = np.vstack(good)
    names = [dev for _b, by_dev in runs for dev in by_dev]
    table = {dev: i for i, dev in enumerate(dict.fromkeys(names))}
    return TypeColumns(
        name=schema.type_name, schema=schema, devices=tuple(table),
        dev_idx=np.fromiter(map(table.__getitem__, names), dtype="<u4",
                            count=len(names)),
        values=values,
        block_idx=np.repeat(
            np.array([b for b, _d in runs], dtype="<u4"),
            [len(by_dev) for _b, by_dev in runs]),
    )


def _bad_row_error(lineno: int, type_name: str, rest: str,
                   n_values: int) -> ParseError:
    """Diagnose a data row whose value region failed the arity check."""
    tokens = rest.split()
    if len(tokens) != n_values:
        return ParseError(
            f"line {lineno}: {type_name} row has "
            f"{len(tokens)} values, schema {n_values}"
        )
    return ParseError(f"line {lineno}: malformed spacing in row")


def _scan_lines(text: str, allow_truncated: bool,
                faults: list[ParseFault] | None) -> tuple:
    """The line loop — every structural check, message and repair —
    up to the batch casts: ``(properties, schemas, rests, runs, times,
    tags, marks)``, as documented where the loop declares them."""
    lines = text.split("\n")
    # Trailing '' from terminal newline is normal; a non-empty last element
    # means the file was truncated mid-line.
    truncated_tail = None
    if lines and lines[-1] == "":
        lines.pop()
    elif lines:
        truncated_tail = len(lines)  # index+1 of the suspect line

    hostname = ""
    properties: dict[str, str] = {}
    schemas: list[TypeSchema] = []
    rests: list[list[str]] = []  # per type: raw value substrings
    #: type -> (n_values, type index, rests[type].append): the per-row
    #: fast path touches only bound methods, no attribute lookups.
    row_sinks: dict[str, tuple[int, int, object]] = {}
    times: list[float] = []
    tags: list[str] = []
    marks: list[tuple[int, str, str]] = []
    #: (block, type index, {device: lineno}) in file order: one entry
    #: per type per block, opened by the type's first row there.
    runs: list[tuple[int, int, dict[str, int]]] = []
    #: The open block's type -> {device: lineno}; None before the first
    #: timestamp line and while a block is poisoned.
    block: dict[str, dict[str, int]] | None = None
    header_done = False

    for lineno, line in enumerate(lines, 1):
        try:
            if not line:
                raise ParseError(f"line {lineno}: blank line")
            c = line[0]
            if c.isdigit():
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError(
                        f"line {lineno}: timestamp line needs 2 tokens"
                    )
                if not hostname:
                    raise ParseError(
                        f"line {lineno}: data before $hostname header"
                    )
                header_done = True
                try:
                    t = float(parts[0])
                except ValueError as e:
                    raise ParseError(f"line {lineno}: bad timestamp") from e
                if block is not None and t < times[-1]:
                    raise ParseError(
                        f"line {lineno}: non-monotonic timestamp {t}"
                    )
                times.append(t)
                tags.append(parts[1])
                block = {}
            elif c == "$":
                if header_done:
                    raise ParseError(
                        f"line {lineno}: property line after data began"
                    )
                sp = line.find(" ")
                if sp <= 1:
                    raise ParseError(f"line {lineno}: malformed property")
                key, value = line[1:sp], line[sp + 1:]
                properties[key] = value
                if key == "hostname":
                    hostname = value
            elif c == "!":
                if header_done:
                    raise ParseError(
                        f"line {lineno}: schema line after data began"
                    )
                try:
                    schema = TypeSchema.parse_header_line(line)
                except ValueError as e:
                    raise ParseError(f"line {lineno}: {e}") from e
                if schema.type_name in row_sinks:
                    raise ParseError(
                        f"line {lineno}: duplicate schema {schema.type_name}"
                    )
                rests.append([])
                row_sinks[schema.type_name] = (
                    schema.n_values, len(schemas), rests[-1].append
                )
                schemas.append(schema)
            elif c == "%":
                if block is None:
                    raise ParseError(f"line {lineno}: mark before any block")
                parts = line[1:].split()
                if len(parts) != 2 or parts[0] not in ("begin", "end"):
                    raise ParseError(f"line {lineno}: malformed mark {line!r}")
                marks.append((len(times) - 1, parts[0], parts[1]))
            else:
                # Data row: "type device v1 v2 ..." — the fast path.
                if block is None:
                    raise ParseError(f"line {lineno}: data row before block")
                head = line.split(" ", 2)
                if len(head) != 3 or not head[2]:
                    raise ParseError(f"line {lineno}: short data row")
                type_name, device, rest = head
                sink = row_sinks.get(type_name)
                if sink is None:
                    raise ParseError(
                        f"line {lineno}: row for undeclared type {type_name!r}"
                    )
                n_values, type_idx, append_rest = sink
                if rest.count(" ") + 1 != n_values:
                    raise _bad_row_error(lineno, type_name, rest, n_values)
                by_dev = block.get(type_name)
                if by_dev is None:
                    by_dev = block[type_name] = {}
                    runs.append((len(times) - 1, type_idx, by_dev))
                elif device in by_dev:
                    raise ParseError(
                        f"line {lineno}: duplicate row {type_name}/{device} "
                        f"at t={times[-1]}"
                    )
                if lineno == truncated_tail:
                    # A conversion failure of the unterminated final
                    # line must be attributable here, not in the batch
                    # cast, so allow_truncated can drop exactly this
                    # line.
                    try:
                        _cast(rest)
                    except (ValueError, OverflowError):
                        raise ParseError(
                            f"line {lineno}: non-integer value in row"
                        ) from None
                by_dev[device] = lineno
                append_rest(rest)
        except ParseError as exc:
            if allow_truncated and truncated_tail == lineno:
                # Crash-consistent read: drop exactly the unterminated
                # final line, in every mode.
                break
            if faults is None:
                raise
            faults.append(ParseFault.from_error(lineno, exc, line))
            if line[:1].isdigit() or line.count(" ") < 2:
                # The faulted line may be a mangled timestamp line
                # (digit-leading, or two-token like every timestamp
                # line): poison the block so its rows fault instead of
                # silently attaching to the previous timestamp.
                block = None
    return properties, schemas, rests, runs, times, tags, marks


def _parse_lines(text: str, allow_truncated: bool,
                 faults: list[ParseFault] | None) -> tuple:
    """The parser of record: the line loop, then the batch casts;
    ``(properties, types, times, tags, marks, row_type, row_block)``."""
    properties, schemas, rests, runs, times, tags, marks = _scan_lines(
        text, allow_truncated, faults)
    type_runs: list[list] = [[] for _ in schemas]
    for b, type_idx, by_dev in runs:
        type_runs[type_idx].append((b, by_dev))
    types = [_type_columns(*args, faults)
             for args in zip(schemas, rests, type_runs)]

    # A block whose tail was dropped is still usable; summaries handle
    # missing rows per device.
    if not properties.get("hostname") and (times or schemas):
        raise ParseError("stream has data but no $hostname header")

    # Run lengths are read after the flush: repair mode drops bad rows.
    run_len = [len(by_dev) for _b, _t, by_dev in runs]
    return (
        properties, types, times, tags, marks,
        np.repeat(np.array([t for _b, t, _d in runs], dtype="<u2"), run_len),
        np.repeat(np.array([b for b, _t, _d in runs], dtype="<u4"), run_len))


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the spans ``[start, start + length)``, in order."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def _parse_grid(text: str) -> tuple | None:
    """Parse a *regular* file — every block the same ``type device ``
    row prefixes, byte for byte, in the same order — with array
    operations over its bytes, or return ``None``: "not proved
    well-formed", never "malformed".  Nothing is raised, repaired or
    worded here; :func:`_parse_lines` judges what is declined.  A result
    equals the line loop's, field by field and dtype by dtype."""
    if not text.isascii() or not text.endswith("\n"):  # or empty
        return None
    buf = np.frombuffer(text.encode(), dtype=np.uint8)
    # Every space and newline: a token is what lies between two of them.
    sep = np.flatnonzero((buf == 32) | (buf == 10))
    last = np.flatnonzero(buf[sep] == 10)  # per line: its newline, in sep
    first = np.concatenate(([0], last[:-1] + 1))  # ... its first separator
    nl = sep[last]
    starts = np.concatenate(([0], nl[:-1] + 1))
    head = buf[starts]  # a line's first byte (an empty line's: "\n")
    stamp = (head >= 48) & (head <= 57)
    other = stamp | (head == 33) | (head == 36) | (head == 37)  # ! $ %
    stamps, others, rows = map(np.flatnonzero, (stamp, other, ~other))
    n_blocks = len(stamps)
    if not n_blocks or not len(rows) or len(rows) % n_blocks:
        return None
    # Every block holds as many rows, between its timestamp and the next.
    rows = rows.reshape(n_blocks, -1)
    if (rows[:, 0] < stamps).any() or (rows[:-1, -1] > stamps[1:]).any():
        return None
    # The line loop accepts every other line, and block 0's rows, or ...
    skeleton = np.sort(np.concatenate((others, rows[0])))
    try:
        properties, schemas, _rests, runs, times, tags, marks = _scan_lines(
            "".join([text[s:e] for s, e in zip(
                starts[skeleton].tolist(), (nl[skeleton] + 1).tolist())]),
            False, None)
    except ParseError:
        return None
    # Block 0's rows in run order: file order iff a type's rows are together.
    layout = [(t, device, lineno) for _b, t, by_dev in runs
              for device, lineno in by_dev.items()]
    if [n for _t, _d, n in layout] != sorted(n for _t, _d, n in layout):
        return None
    arity = np.array([schemas[t].n_values for t, _d, _n in layout])
    plen = np.array([len(schemas[t].type_name) + len(d) + 2
                     for t, d, _n in layout])
    # Every row: two prefix tokens and as many values as its type
    # declares; every block: block 0's prefixes, byte for byte.
    row_first, row_start = first[rows], starts[rows]
    if (last[rows] - row_first != arity + 1).any() \
            or (sep[row_first + 1] - row_start != plen - 1).any():
        return None
    prefix = row_start[:, np.repeat(np.arange(len(plen)), plen)] \
        + _spans(np.zeros_like(plen), plen)
    if (buf[prefix] != buf[prefix[0]]).any():
        return None
    # Every value token is 1-19 bytes long (a 20-digit one may exceed
    # 2**64 - 1: the line loop's exact cast decides) ...
    token_len = np.ediff1d(sep, to_begin=sep[0] + 1)  # + 1, by end
    token_len[row_first] = token_len[row_first + 1] = 2
    token_len[_spans(first[others], last[others] - first[others] + 1)] = 2
    if token_len.min() < 2 or token_len.max() > 20:
        return None
    # ... and all digits: blank every other byte but the space between
    # two.  The C cast sees digits and blanks, and owes the token count.
    values = buf.copy()
    values[prefix] = values[nl] = 32
    values[_spans(starts[others], nl[others] - starts[others])] = 32
    blanked = values.tobytes()
    if blanked.translate(None, _VALUE_BYTES):
        return None
    grid = np.fromstring(blanked, dtype="<u8", sep=" ")
    if len(grid) != n_blocks * arity.sum():
        return None
    grid = grid.reshape(n_blocks, -1)
    # A type's values are a column slice of the grid (copied: no result
    # is a view of the file's bytes); its index columns repeat block 0's.
    found, col = {}, 0
    for _b, t, by_dev in runs:
        found[t] = (by_dev, col)
        col += len(by_dev) * schemas[t].n_values
    blocks = np.arange(n_blocks, dtype="<u4")
    types = []
    for t, schema in enumerate(schemas):
        by_dev, col = found.get(t, ((), 0))
        n, k = len(by_dev), schema.n_values
        values = np.ascontiguousarray(grid[:, col:col + n * k]).reshape(-1, k)
        if schema.overflow(values):  # the line loop words the fault
            return None
        types.append(TypeColumns(
            name=schema.type_name, schema=schema, devices=tuple(by_dev),
            dev_idx=np.arange(n, dtype="<u4")[None].repeat(n_blocks, 0).ravel(),
            values=values, block_idx=np.repeat(blocks, n)))
    row_type = np.array([t for t, _d, _n in layout], dtype="<u2")
    return (properties, types, times, tags, marks,
            np.tile(row_type, n_blocks), np.repeat(blocks, len(layout)))


def parse_host_columns(text: str, allow_truncated: bool = False,
                       faults: list[ParseFault] | None = None,
                       ) -> HostColumns:
    """Parse one host file's contents into column arrays.

    Parameters
    ----------
    text:
        The full file contents.
    allow_truncated:
        If True, a final line without a newline terminator that fails to
        parse is dropped (crash-consistent read); any *earlier* bad line
        still raises.
    faults:
        When a list is supplied, the parser runs in *repair* mode: each
        malformed line is skipped and recorded as a :class:`ParseFault`
        instead of raising.  A skipped timestamp line poisons its block —
        the rows that belonged to it are quarantined rather than being
        misattributed to the previous timestamp.  Streams that cannot be
        salvaged at all (no ``$hostname`` header) still raise.
    """
    faults_before = len(faults) if faults is not None else 0
    parsed = _parse_grid(text)
    if declined := parsed is None:
        parsed = _parse_lines(text, allow_truncated, faults)
    properties, types, times, tags, marks, row_type, row_block = parsed
    tag_table = {tag: i for i, tag in enumerate(dict.fromkeys(tags))}

    # Bulk telemetry at end of parse — never per line, so the counters
    # stay off the row fast path entirely.
    registry = get_registry()
    registry.counter("parse.files").inc()
    registry.counter("parse.files_line_loop").inc(declined)
    registry.counter("parse.bytes").inc(len(text))
    registry.counter("parse.lines").inc(
        text.count("\n") + (text[-1:] not in ("", "\n")))
    registry.counter("parse.blocks").inc(len(times))
    if faults is not None:
        registry.counter("parse.faults").inc(len(faults) - faults_before)
    return HostColumns(
        hostname=properties.get("hostname", ""),
        properties=properties,
        types=types,
        times=np.array(times, dtype="<f8"),
        tags=np.array([tag_table[tag] for tag in tags], dtype="<u4"),
        jobid_tags=list(tag_table),
        marks=marks,
        row_type=row_type,
        row_block=row_block,
    )


def parse_host_text(text: str, allow_truncated: bool = False,
                    faults: list[ParseFault] | None = None) -> HostData:
    """:func:`parse_host_columns` as the :class:`HostData` edge view,
    for the inspection tools and tests that read blocks; no ingest code
    calls it."""
    return parse_host_columns(text, allow_truncated=allow_truncated,
                              faults=faults).to_host_data()


def event_delta(first: int, last: int, width: int) -> int:
    """Counter delta with single-rollover correction.

    Counters are monotonic modulo ``2**width``; a smaller ``last`` means
    the register wrapped exactly once between the two reads (the 10-minute
    cadence makes multiple wraps of a >=32-bit counter impossible at
    realistic rates, which the collectors' tests enforce).
    """
    first, last = int(first), int(last)
    mod = 1 << width
    if not (0 <= first < mod and 0 <= last < mod):
        raise ValueError(f"counter value out of range for width {width}")
    if last >= first:
        return last - first
    return last + mod - first
