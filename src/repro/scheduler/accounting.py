"""GridEngine-style accounting log writer/parser.

Ranger and Lonestar4 ran Sun Grid Engine; the paper ingests "job accounting
information" into MySQL alongside the raw TACC_Stats files.  Real SGE
accounting lines are 45 colon-separated fields; we emit the subset the
pipeline needs, in the same colon-separated, one-line-per-job shape, plus
two trailing site fields TACC actually added (science field, app tag from
Lariat).  The parser is strict: short lines or non-numeric fields raise.

Field layout (0-based):

====  ==================  =========================================
 idx  name                example
====  ==================  =========================================
  0   qname               normal
  1   hostname            c101-001.ranger (master host)
  2   group               G-25072
  3   owner               user0042
  4   job_name             namd_run
  5   job_number          2683088
  6   account             TG-MCB100042
  7   priority            0
  8   submission_time     1372088105 (int seconds)
  9   start_time          1372088405
 10   end_time            1372139205
 11   failed              0
 12   exit_status         0
 13   ru_wallclock        50800
 14   slots               256   (cores granted)
 15   granted_nodes       16
 16   science_field       Molecular Biosciences
 17   app_tag             namd
====  ==================  =========================================
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from repro.cluster.node import node_hostname
from repro.scheduler.job import ExitStatus, JobRecord

__all__ = ["AccountingEntry", "AccountingWriter", "format_accounting_line",
           "parse_accounting_line", "parse_accounting"]

_NUM_FIELDS = 18


@dataclass(frozen=True)
class AccountingEntry:
    """One parsed accounting line (job-level facts only)."""

    qname: str
    hostname: str
    group: str
    owner: str
    job_name: str
    job_number: str
    account: str
    priority: int
    submission_time: int
    start_time: int
    end_time: int
    exit: ExitStatus
    slots: int
    granted_nodes: int
    science_field: str
    app_tag: str

    @property
    def wall_seconds(self) -> int:
        return self.end_time - self.start_time

    @property
    def wait_seconds(self) -> int:
        return self.start_time - self.submission_time

    @property
    def node_hours(self) -> float:
        return self.granted_nodes * self.wall_seconds / 3600.0


def format_accounting_line(record: JobRecord, cores_per_node: int,
                           system_name: str) -> str:
    """Render a completed job as one accounting line."""
    req = record.request
    failed, exit_status = record.exit_status.accounting_code
    fields = [
        req.queue,
        node_hostname(record.node_indices[0], system_name),
        f"G-{abs(hash(req.account)) % 99999:05d}",
        req.user,
        f"{req.app}_run",
        req.jobid,
        req.account,
        "0",
        str(int(req.submit_time)),
        str(int(record.start_time)),
        str(int(record.end_time)),
        str(failed),
        str(exit_status),
        str(int(record.wall_seconds)),
        str(req.nodes * cores_per_node),
        str(req.nodes),
        req.science_field,
        req.app,
    ]
    for f in fields:
        if ":" in f:
            raise ValueError(f"accounting field contains separator: {f!r}")
    return ":".join(fields)


def parse_accounting_line(line: str) -> AccountingEntry:
    """Parse one accounting line; raises ValueError on malformed input."""
    line = line.rstrip("\n")
    parts = line.split(":")
    if len(parts) != _NUM_FIELDS:
        raise ValueError(
            f"accounting line has {len(parts)} fields, expected {_NUM_FIELDS}: "
            f"{line[:80]!r}"
        )
    try:
        priority = int(parts[7])
        submission = int(parts[8])
        start = int(parts[9])
        end = int(parts[10])
        failed = int(parts[11])
        exit_status = int(parts[12])
        slots = int(parts[14])
        granted = int(parts[15])
    except ValueError as e:
        raise ValueError(f"non-numeric accounting field in {line[:80]!r}") from e
    if end < start or start < submission:
        raise ValueError(f"inconsistent times in accounting line {parts[5]}")
    return AccountingEntry(
        qname=parts[0],
        hostname=parts[1],
        group=parts[2],
        owner=parts[3],
        job_name=parts[4],
        job_number=parts[5],
        account=parts[6],
        priority=priority,
        submission_time=submission,
        start_time=start,
        end_time=end,
        exit=ExitStatus.from_accounting_code(failed, exit_status),
        slots=slots,
        granted_nodes=granted,
        science_field=parts[16],
        app_tag=parts[17],
    )


class AccountingWriter:
    """Streams accounting lines for completed jobs to a text sink."""

    def __init__(self, sink: TextIO, cores_per_node: int, system_name: str):
        self._sink = sink
        self._cores_per_node = cores_per_node
        self._system = system_name
        self.lines_written = 0

    def write(self, record: JobRecord) -> None:
        self._sink.write(
            format_accounting_line(record, self._cores_per_node, self._system)
        )
        self._sink.write("\n")
        self.lines_written += 1

    def write_all(self, records: Iterable[JobRecord]) -> None:
        for r in records:
            self.write(r)


def parse_accounting(source: TextIO | str) -> Iterator[AccountingEntry]:
    """Parse a whole accounting file (path contents or open handle).

    Blank lines and ``#`` comments are skipped, as in real spool files.
    """
    handle = io.StringIO(source) if isinstance(source, str) else source
    for raw in handle:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_accounting_line(line)
