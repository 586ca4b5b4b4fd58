"""Parsed representations of TACC_Stats host data.

A host-day file — text, gzipped text or v2 — decodes to one
:class:`HostColumns`: header properties plus per-type column arrays.
That is the only form the ingest engine reads.

:class:`HostData` (an ordered list of :class:`TimestampBlock` row dicts
and :class:`Mark` lines) is the *edge view* of the same data, built by
:meth:`HostColumns.to_host_data`: the inspection tools
(``repro-stats-cat``, :mod:`repro.xdmod.jobview`) read it, and the
tests use it with the dict reducers in :mod:`repro.ingest.summarize` /
:mod:`repro.ingest.matcher` as the reference the column scan is
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tacc_stats.schema import TypeSchema

__all__ = ["Mark", "TimestampBlock", "HostData", "TypeColumns",
           "HostColumns", "mark_window"]


@dataclass(frozen=True)
class Mark:
    """A ``%begin jobid`` / ``%end jobid`` marker."""

    time: float
    kind: str  # "begin" | "end"
    jobid: str

    def __post_init__(self):
        if self.kind not in ("begin", "end"):
            raise ValueError(f"bad mark kind {self.kind!r}")


def mark_window(marks: list[Mark],
                jobid: str) -> tuple[float, float] | None:
    """(first begin, last end) times of *jobid*'s marks, or None when
    either is missing."""
    begin = end = None
    for m in marks:
        if m.jobid != jobid:
            continue
        if m.kind == "begin" and begin is None:
            begin = m.time
        elif m.kind == "end":
            end = m.time
    if begin is None or end is None:
        return None
    return (begin, end)


@dataclass
class TimestampBlock:
    """All records emitted at one collector invocation on one host.

    ``rows`` maps record type -> device -> integer value vector (in schema
    column order).
    """

    time: float
    jobids: tuple[str, ...]
    rows: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def add_row(self, type_name: str, device: str, values: np.ndarray) -> None:
        by_dev = self.rows.setdefault(type_name, {})
        if device in by_dev:
            raise ValueError(
                f"duplicate row {type_name}/{device} at t={self.time}"
            )
        by_dev[device] = values

    def get(self, type_name: str, device: str) -> np.ndarray:
        return self.rows[type_name][device]


@dataclass
class HostData:
    """One host's parsed stats stream."""

    hostname: str
    properties: dict[str, str] = field(default_factory=dict)
    schemas: dict[str, TypeSchema] = field(default_factory=dict)
    blocks: list[TimestampBlock] = field(default_factory=list)
    marks: list[Mark] = field(default_factory=list)

    def blocks_for_job(self, jobid: str) -> list[TimestampBlock]:
        """Blocks tagged with *jobid*, in time order."""
        return [b for b in self.blocks if jobid in b.jobids]

    def job_window(self, jobid: str) -> tuple[float, float] | None:
        """(begin, end) times from the job marks, or None if unmatched."""
        return mark_window(self.marks, jobid)

    def series(self, type_name: str, device: str, key: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) of one column across all blocks that carry it."""
        schema = self.schemas[type_name]
        col = schema.index_of(key)
        times, vals = [], []
        for b in self.blocks:
            dev = b.rows.get(type_name, {})
            if device in dev:
                times.append(b.time)
                vals.append(dev[device][col])
        return np.asarray(times, dtype=float), np.asarray(vals, dtype=np.uint64)

    def merge_from(self, other: "HostData") -> None:
        """Append another chunk of the same host (file rotation)."""
        if other.hostname != self.hostname:
            raise ValueError(
                f"cannot merge {other.hostname} into {self.hostname}"
            )
        for name, schema in other.schemas.items():
            if name in self.schemas and self.schemas[name] != schema:
                raise ValueError(f"schema drift for type {name} on {self.hostname}")
            self.schemas.setdefault(name, schema)
        self.blocks.extend(other.blocks)
        self.marks.extend(other.marks)
        self.blocks.sort(key=lambda b: b.time)
        self.marks.sort(key=lambda m: m.time)


@dataclass(frozen=True)
class TypeColumns:
    """One record type's rows in a host-day, in file order."""

    name: str
    schema: TypeSchema
    devices: tuple[str, ...]
    dev_idx: np.ndarray    # u4[Rt] index into ``devices`` per row
    values: np.ndarray     # u8[Rt, K] value matrix (K = schema arity)
    block_idx: np.ndarray  # u4[Rt] block of each row, non-decreasing


def _format_time(t: float) -> str:
    """Serialize a block timestamp the way :class:`StatsWriter` does."""
    return str(int(t)) if float(t).is_integer() else repr(float(t))


@dataclass
class HostColumns:
    """One decoded host-day file as column arrays.

    What both decoders return: the text parser
    (:func:`~repro.tacc_stats.parser.parse_host_columns`) and the v2
    reader (:func:`~repro.tacc_stats.columnar.read_host_day`, whose
    arrays are zero-copy views into the mapped file).  ``row_type`` /
    ``row_block`` are the global row stream — blocks in file order,
    and within a block each type's rows together, types in order of
    first appearance — which is the order :meth:`to_text` writes.
    ``header`` is the v2 file's header JSON (``None`` for parsed text);
    ``label`` is the archive file label (day or sub-day segment) the
    columns were decoded from, set by
    :meth:`HostArchive.read_host_days` (the decoders see bytes, not
    paths).
    """

    hostname: str
    properties: dict[str, str]
    types: list[TypeColumns]
    times: np.ndarray        # f8[N] block timestamps
    tags: np.ndarray         # u4[N] index into ``jobid_tags``
    jobid_tags: list[str]    # "-" or comma-joined job ids
    marks: list[tuple[int, str, str]]  # (block, kind, jobid), file order
    row_type: np.ndarray     # u2[R]
    row_block: np.ndarray    # u4[R]
    header: dict | None = None
    bytes_mapped: int = 0
    chunks_read: int = 0
    label: str = ""

    def job_ids(self) -> frozenset[str]:
        """Every job id the file mentions, in a block tag or a mark."""
        ids = {jobid for _b, _kind, jobid in self.marks}
        for tag in self.jobid_tags:
            if tag != "-":
                ids.update(tag.split(","))
        return frozenset(ids)

    def block_jobids(self) -> list[tuple[str, ...]]:
        """The job-id tuple of every block."""
        tuples = [() if tag == "-" else tuple(tag.split(","))
                  for tag in self.jobid_tags]
        return [tuples[g] for g in self.tags.tolist()]

    def to_host_data(self) -> HostData:
        """Build the :class:`HostData` edge view (value vectors are
        views into the column arrays — nothing is copied).

        Insertion order (types within a block, devices within a type)
        follows the file's order.
        """
        host = HostData(hostname=self.hostname,
                        properties=dict(self.properties))
        times_list = self.times.tolist()
        blocks = host.blocks = [
            TimestampBlock(time=t, jobids=jobids)
            for t, jobids in zip(times_list, self.block_jobids())
        ]
        per_type = []
        for tc in self.types:
            host.schemas[tc.name] = tc.schema
            per_type.append((tc.name, zip(
                map(tc.devices.__getitem__, tc.dev_idx.tolist()),
                tc.values)))
        # Walking the row stream keeps each block's types, and each
        # type's devices, in file order.
        for ti, b in zip(self.row_type.tolist(), self.row_block.tolist()):
            name, rows = per_type[ti]
            device, values = next(rows)
            blocks[b].rows.setdefault(name, {})[device] = values
        host.marks = [
            Mark(time=times_list[b], kind=kind, jobid=jobid)
            for b, kind, jobid in self.marks
        ]
        return host

    def to_text(self) -> str:
        """Reconstruct the canonical text representation.

        Byte-identical to the source for canonical (writer-produced)
        files; a valid-but-noncanonical source (fractional-second
        trailing zeros, interleaved type runs inside one block)
        round-trips value-identically in canonical form.
        """
        out: list[str] = []
        for k, v in self.properties.items():
            out.append(f"${k} {v}\n")
        for tc in self.types:
            out.append(tc.schema.header_line() + "\n")

        marks_by_block: dict[int, list[tuple[str, str]]] = {}
        for b, kind, jobid in self.marks:
            marks_by_block.setdefault(b, []).append((kind, jobid))

        tags = self.jobid_tags
        row_type = self.row_type.tolist()
        row_block = self.row_block.tolist()
        cursors = [0] * len(self.types)
        dev_lists = [
            [tc.devices[i] for i in tc.dev_idx.tolist()]
            for tc in self.types
        ]
        val_lists = [tc.values.tolist() for tc in self.types]
        names = [tc.name for tc in self.types]

        r = 0
        n_rows = len(row_type)
        for bi, (t, g) in enumerate(zip(self.times.tolist(),
                                        self.tags.tolist())):
            out.append(f"{_format_time(t)} {tags[g]}\n")
            for kind, jobid in marks_by_block.get(bi, ()):
                out.append(f"%{kind} {jobid}\n")
            while r < n_rows and row_block[r] == bi:
                ti = row_type[r]
                c = cursors[ti]
                cursors[ti] = c + 1
                vals = " ".join(map(str, val_lists[ti][c]))
                out.append(f"{names[ti]} {dev_lists[ti][c]} {vals}\n")
                r += 1
        return "".join(out)
