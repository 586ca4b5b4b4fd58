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

Performance: data rows are >95 % of every file, so they take a fast path —
the line is split only around type and device, arity is checked with one
C-level ``str.count``, and the integer conversion plus value validation is
batched per record type into a single numpy ``str -> uint64`` cast at end
of file, whose matrix *is* the type's value column.  Structural errors
(unknown type, wrong arity, duplicate device) are still detected inline at
their line; a malformed *value* is attributed to its line during the
batch cast, which runs before the parse returns, so nothing malformed
ever escapes.
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


def _type_columns(schema: TypeSchema, rests: list[str],
                  runs: list[tuple[int, dict[str, int]]],
                  faults: list[ParseFault] | None) -> TypeColumns:
    """Batch-convert one type's accumulated rows into its columns.

    *rests* holds each row's raw value substring; *runs* lists the
    type's ``(block, {device: lineno})`` runs in file order, whose keys,
    concatenated, align with *rests* (the line loop keeps device and
    line number in the dict it already needs for duplicate detection).
    When the batch cast fails, rows are converted one by one so the bad
    value is attributed to its line: raised, or in repair mode (a
    *faults* sink) recorded and the row dropped from its run.
    """
    k = schema.n_values
    try:
        values = np.array(" ".join(rests).split(" ") if rests else [],
                          dtype="<u8").reshape(-1, k)
    except (ValueError, OverflowError):
        sites = [(by_dev, dev, lineno) for _b, by_dev in runs
                 for dev, lineno in by_dev.items()]
        good = [np.empty((0, k), dtype="<u8")]
        for rest, (by_dev, device, lineno) in zip(rests, sites):
            try:
                good.append(np.array([rest.split(" ")], dtype="<u8"))
            except (ValueError, OverflowError):
                error = f"line {lineno}: non-integer value in row"
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
                        np.array(rest.split(" "), dtype=np.uint64)
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

    type_runs: list[list] = [[] for _ in schemas]
    for b, type_idx, by_dev in runs:
        type_runs[type_idx].append((b, by_dev))
    types = [_type_columns(*args, faults)
             for args in zip(schemas, rests, type_runs)]

    # A block whose tail was dropped is still usable; summaries handle
    # missing rows per device.
    if not hostname and (times or schemas):
        raise ParseError("stream has data but no $hostname header")

    # Run lengths are read after the flush: repair mode drops bad rows.
    run_len = [len(by_dev) for _b, _t, by_dev in runs]
    tag_table = {tag: i for i, tag in enumerate(dict.fromkeys(tags))}

    # Bulk telemetry at end of parse — never per line, so the counters
    # stay off the row fast path entirely.
    registry = get_registry()
    registry.counter("parse.files").inc()
    registry.counter("parse.bytes").inc(len(text))
    registry.counter("parse.lines").inc(len(lines))
    registry.counter("parse.blocks").inc(len(times))
    if faults is not None:
        registry.counter("parse.faults").inc(len(faults) - faults_before)
    return HostColumns(
        hostname=hostname,
        properties=properties,
        types=types,
        times=np.array(times, dtype="<f8"),
        tags=np.array([tag_table[tag] for tag in tags], dtype="<u4"),
        jobid_tags=list(tag_table),
        marks=marks,
        row_type=np.repeat(
            np.array([t for _b, t, _d in runs], dtype="<u2"), run_len),
        row_block=np.repeat(
            np.array([b for b, _t, _d in runs], dtype="<u4"), run_len),
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
