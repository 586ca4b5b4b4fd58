"""Writer for the unified, self-describing TACC_Stats text format.

File layout (one file per host per rotation period)::

    $tacc_stats 1.0.2          <- format/version property lines
    $hostname c001-001.ranger
    $uname Linux x86_64 2.6.18-194.el5
    $uptime 86400
    !cpu user,E,U=cs nice,E,U=cs ...     <- one schema line per type
    !mem MemTotal,U=KB MemUsed,U=KB ...
    1372088405 2683088         <- timestamp + comma-joined job ids ('-' if idle)
    %begin 2683088             <- job markers appear inside their block
    cpu 0 1234 0 567 89012 3 0 1
    cpu 1 ...
    mem 0 33554432 1048576 ...
    1372089005 2683088
    cpu 0 ...

All values are non-negative integers (counters in native units, gauges
scaled per their schema unit).  The writer enforces schema conformance so a
malformed stream can never be produced; the parser independently enforces
it on the way back in.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from repro.tacc_stats.schema import TypeSchema

__all__ = ["StatsWriter", "FORMAT_VERSION", "header_properties"]

FORMAT_VERSION = "1.0.2"

#: Values are uint64: the first integer a row may not hold.
_UINT64_END = 1 << 64


def header_properties(hostname: str,
                      properties: dict[str, str] | None) -> dict[str, str]:
    """A file's ``$`` header lines as an ordered dict: the format
    version, the hostname (no spaces), then *properties* (no
    newlines)."""
    if not hostname or " " in hostname:
        raise ValueError(f"bad hostname {hostname!r}")
    header = {"tacc_stats": FORMAT_VERSION, "hostname": hostname}
    for k, v in (properties or {}).items():
        if "\n" in str(v):
            raise ValueError(f"property {k} contains newline")
        header[k] = str(v)
    return header


class StatsWriter:
    """Serializes one host's stats stream.

    Usage: construct with header properties, register schemas, then for
    each collector invocation call :meth:`begin_block` followed by
    :meth:`write_row` per type/device (plus :meth:`write_mark` for job
    begin/end events).
    """

    def __init__(self, sink: TextIO, hostname: str,
                 properties: dict[str, str] | None = None):
        self._sink = sink
        self._schemas: dict[str, TypeSchema] = {}
        self._header_flushed = False
        self._in_block = False
        self._block_types_seen: set[tuple[str, str]] = set()
        self._last_time: float | None = None
        self.hostname = hostname
        self.properties = header_properties(hostname, properties)
        self.bytes_written = 0

    def register_schema(self, schema: TypeSchema) -> None:
        """Declare a record type; must happen before the first block."""
        if self._header_flushed:
            raise RuntimeError("cannot register schemas after data started")
        if schema.type_name in self._schemas:
            raise ValueError(f"type {schema.type_name} already registered")
        self._schemas[schema.type_name] = schema

    def _write(self, text: str) -> None:
        self._sink.write(text)
        self.bytes_written += len(text)

    def _flush_header(self) -> None:
        if self._header_flushed:
            return
        for k, v in self.properties.items():
            self._write(f"${k} {v}\n")
        for schema in self._schemas.values():
            self._write(schema.header_line() + "\n")
        self._header_flushed = True

    def begin_block(self, time: float, jobids: tuple[str, ...] = ()) -> None:
        """Start the record block for one collector invocation."""
        self._flush_header()
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"non-monotonic block time {time} after {self._last_time}"
            )
        self._last_time = time
        self._in_block = True
        self._block_types_seen = set()
        tag = ",".join(jobids) if jobids else "-"
        self._write(f"{int(time)} {tag}\n")

    def write_mark(self, kind: str, jobid: str) -> None:
        """Emit a ``%begin``/``%end`` job marker inside the current block."""
        if kind not in ("begin", "end"):
            raise ValueError(f"bad mark kind {kind!r}")
        if not self._in_block:
            raise RuntimeError("mark outside a block")
        self._write(f"%{kind} {jobid}\n")

    def write_row(self, type_name: str, device: str, values) -> None:
        """Emit one ``type device v1 v2 ...`` data row."""
        if not self._in_block:
            raise RuntimeError("row outside a block")
        schema = self._schemas.get(type_name)
        if schema is None:
            raise ValueError(f"unregistered type {type_name!r}")
        key = (type_name, device)
        if key in self._block_types_seen:
            raise ValueError(f"duplicate row {type_name}/{device} in block")
        # An array keeps its dtype; anything else is taken value by
        # value, so a Python int past 2**63 is not rounded through
        # float64.
        vals = (values if isinstance(values, np.ndarray)
                else np.array(values, dtype=object))
        if vals.shape != (schema.n_values,):
            raise ValueError(
                f"{type_name}: {vals.shape[0] if vals.ndim else 0} values, "
                f"schema has {schema.n_values}"
            )
        if np.any(vals < 0):
            raise ValueError(f"{type_name}/{device}: negative value")
        ints = [int(v) for v in vals]
        if any(v >= _UINT64_END for v in ints):
            raise ValueError(f"{type_name}/{device}: value past uint64")
        # Mark seen only after validation so a rejected write does not
        # poison the block for the corrected retry.
        self._block_types_seen.add(key)
        self._write(f"{type_name} {device} {' '.join(map(str, ints))}\n")

    @property
    def schemas(self) -> dict[str, TypeSchema]:
        return dict(self._schemas)
