"""Seeded fault injection for TACC_Stats archives and scan workers.

Every injector is a pure function of ``(file contents, seed)``, so a
fault matrix run is exactly reproducible: the same seed corrupts the
same byte of the same line every time.  The catalogue covers the
failure modes a facility actually produces:

====================  =====================================================
kind                  what happens to the file
====================  =====================================================
``truncated_tail``    the final line is cut mid-record (node crashed
                      mid-write); *benign* — ``allow_truncated`` drops
                      exactly that line
``bit_flip``          one digit inside a data row's value region is
                      XOR 0x40-flipped into a letter (bad DIMM, bit rot);
                      *fatal* — the row can never cast to uint64
``missing_schema``    one ``!`` schema line is deleted (lost first block
                      of a rotated file); *fatal* — that type's rows are
                      undeclared
``garbage_lines``     foreign text is interleaved into the stream (log
                      corruption, concurrent writer); *fatal*
``zero_byte``         the file is emptied (disk-full creat+crash);
                      *benign* — an empty file means "node down all day"
``duplicate_timestamp``  a timestamp line is emitted twice (daemon retry
                      after a partial flush); *benign* — an empty
                      same-time block is legal
``wrong_hostname``    the ``$hostname`` header names another host (a file
                      copied into the wrong directory, a mangled
                      header); *fatal* — the file parses, but the
                      archive's directory name is authoritative
``gz_truncated``      the *stored* gzip bytes are cut short (interrupted
                      copy): ``EOFError``; *fatal* — ``unreadable_file``
``gz_bit_flip``       one stored bit is flipped where that is proven to
                      raise ``zlib.error``, not a CRC error; *fatal*, same
``counter_overflow``  ``2**W`` is added to one value of a column declared
                      ``W=`` bits wide (a register read past its width);
                      *fatal* — the decoder rejects the row
====================  =====================================================

*Fatal* kinds make the host fail a ``strict`` read
(:meth:`HostArchive.read_host_days` raises :class:`ParseError`, or for
the two ``gz_`` kinds the decompressor's own error) and get the host
dropped under ``quarantine``; *benign* kinds read clean everywhere.

The module also ships picklable worker shims (:func:`crashy_scan`,
:func:`sleepy_scan`) that wrap the real scan entry point to simulate
transient worker death and wedged workers for the retry engine — bind
their leading configuration arguments with :func:`functools.partial`
and pass the result as ``scan_fn`` to
:func:`repro.ingest.parallel.scan_archive` — and :func:`run_killed`,
which kills a whole ingest inside its closing transaction.
"""

from __future__ import annotations

import gzip
import os
import random
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.ingest.parallel import _scan_one
from repro.ingest.warehouse import Warehouse
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.schema import TypeSchema

__all__ = [
    "BENIGN_KINDS",
    "FATAL_KINDS",
    "FAULT_KINDS",
    "InjectedFault",
    "KILL_POINTS",
    "corrupt_archive",
    "crashy_scan",
    "inject_fault",
    "run_killed",
    "sleepy_scan",
]

#: Kinds that make a ``strict`` read of the host raise.
FATAL_KINDS = ("bit_flip", "missing_schema", "garbage_lines",
               "wrong_hostname", "gz_truncated", "gz_bit_flip",
               "counter_overflow")
#: Kinds every policy tolerates without quarantining anything.
BENIGN_KINDS = ("truncated_tail", "zero_byte", "duplicate_timestamp")
#: The full catalogue.
FAULT_KINDS = FATAL_KINDS + BENIGN_KINDS


@dataclass(frozen=True)
class InjectedFault:
    """Provenance of one injected corruption (for test assertions)."""

    path: str
    kind: str
    lineno: int | None
    detail: str


def _write(path: Path, text: str) -> None:
    """Write *text* back in the file's own encoding (gz-aware)."""
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(text.encode("utf-8")))
    else:
        path.write_text(text)


def _data_row_indices(lines: list[str]) -> list[int]:
    """Indices of data-row lines (lowercase-leading, >= 3 tokens)."""
    return [
        i for i, line in enumerate(lines)
        if line[:1].islower() and line.count(" ") >= 2
    ]


def _truncated_tail(lines: list[str], rng: random.Random
                    ) -> tuple[list[str], int, str]:
    """Cut the final line right after one of its spaces.

    Cutting *after* a space leaves a trailing empty token, which can
    never cast to uint64 — so the truncation is always detectable and
    ``allow_truncated`` drops exactly this line, never a reinterpreted
    prefix of it.
    """
    last = len(lines) - 1
    spaces = [i for i, ch in enumerate(lines[last]) if ch == " "]
    cut = rng.choice(spaces) + 1
    lines[last] = lines[last][:cut]
    return lines, last + 1, f"cut at column {cut}, no trailing newline"


def _bit_flip(lines: list[str], rng: random.Random
              ) -> tuple[list[str], int, str]:
    """XOR 0x40 one digit in a data row's value region.

    A flipped digit becomes a letter (``0x30-0x39 -> 0x70-0x79``), so
    the row is guaranteed non-numeric — the corruption can never pass
    as a different valid value.
    """
    idx = rng.choice(_data_row_indices(lines))
    type_name, device, rest = lines[idx].split(" ", 2)
    digit_cols = [i for i, ch in enumerate(rest) if ch.isdigit()]
    col = rng.choice(digit_cols)
    flipped = chr(ord(rest[col]) ^ 0x40)
    rest = rest[:col] + flipped + rest[col + 1:]
    lines[idx] = f"{type_name} {device} {rest}"
    return lines, idx + 1, f"value digit -> {flipped!r}"


def _missing_schema(lines: list[str], rng: random.Random
                    ) -> tuple[list[str], int, str]:
    """Delete one ``!`` schema line."""
    schema_rows = [i for i, line in enumerate(lines)
                   if line.startswith("!")]
    idx = rng.choice(schema_rows)
    removed = lines.pop(idx)
    return lines, idx + 1, f"deleted {removed.split(' ', 1)[0]}"


def _garbage_lines(lines: list[str], rng: random.Random
                   ) -> tuple[list[str], int, str]:
    """Interleave three lines of foreign text into the stream."""
    first = min(len(lines), 1)
    pos = sorted(rng.randrange(first, len(lines)) for _ in range(3))
    for offset, idx in enumerate(pos):
        lines.insert(idx + offset,
                     f"GARBAGE interleaved line {rng.randrange(10**6)}")
    return lines, pos[0] + 1, f"3 garbage lines from line {pos[0] + 1}"


def _zero_byte(lines: list[str], rng: random.Random
               ) -> tuple[list[str], int | None, str]:
    """Empty the file completely."""
    del rng
    return [], None, "file emptied"


def _duplicate_timestamp(lines: list[str], rng: random.Random
                         ) -> tuple[list[str], int, str]:
    """Emit one timestamp line twice in a row."""
    ts_rows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    idx = rng.choice(ts_rows)
    lines.insert(idx + 1, lines[idx])
    return lines, idx + 2, f"duplicated {lines[idx].split(' ')[0]}"


def _wrong_hostname(lines: list[str], rng: random.Random
                    ) -> tuple[list[str], int, str]:
    """Rewrite the ``$hostname`` header to name another host.

    The new name is the old one with a prefix, so it can never equal
    the directory the file sits in.
    """
    del rng
    idx = next(i for i, line in enumerate(lines)
               if line.startswith("$hostname "))
    claimed = "not-" + lines[idx].split(" ", 1)[1]
    lines[idx] = f"$hostname {claimed}"
    return lines, idx + 1, f"header claims {claimed}"


def _counter_overflow(lines: list[str], rng: random.Random
                      ) -> tuple[list[str], int, str]:
    """Add ``2**W`` to one value of a ``W=``-bit column: a well-formed
    integer no register of that width can hold."""
    narrow = {s.type_name: s.narrow for s in map(
        TypeSchema.parse_header_line, (ln for ln in lines if ln[:1] == "!"))}
    rows = [i for i in _data_row_indices(lines)
            if narrow.get(lines[i].split(" ", 1)[0])]
    if not rows:
        raise ValueError("no row of a column narrower than 64 bits")
    idx = rng.choice(rows)
    type_name, device, *values = lines[idx].split(" ")
    col, width = rng.choice(narrow[type_name])
    values[col] = str(int(values[col]) + (1 << width))
    lines[idx] = " ".join([type_name, device, *values])
    return lines, idx + 1, f"{type_name} column {col} + 2**{width}"


def _gz_truncated(blob: bytes, rng: random.Random) -> tuple[bytes, str]:
    """Keep a seeded quarter to three quarters of the stored bytes."""
    cut = rng.randrange(len(blob) // 4, 3 * len(blob) // 4)
    return blob[:cut], f"stored bytes cut at {cut} of {len(blob)}"


def _gz_bit_flip(blob: bytes, rng: random.Random) -> tuple[bytes, str]:
    """Flip one seeded stored bit after another until one makes gunzip
    raise ``zlib.error`` (1 in 40 does; most fail the CRC: ``OSError``)."""
    while True:
        pos, bit = rng.randrange(len(blob)), 1 << rng.randrange(8)
        damaged = blob[:pos] + bytes([blob[pos] ^ bit]) + blob[pos + 1:]
        try:
            gzip.decompress(damaged)
        except zlib.error:
            return damaged, f"bit {bit:#04x} of stored byte {pos} flipped"
        except (OSError, EOFError):
            pass


#: Injectors over a ``.gz`` file's stored bytes instead of its lines.
_STORED = {"gz_truncated": _gz_truncated, "gz_bit_flip": _gz_bit_flip}

_INJECTORS = {
    "truncated_tail": _truncated_tail,
    "bit_flip": _bit_flip,
    "missing_schema": _missing_schema,
    "garbage_lines": _garbage_lines,
    "zero_byte": _zero_byte,
    "duplicate_timestamp": _duplicate_timestamp,
    "wrong_hostname": _wrong_hostname,
    "counter_overflow": _counter_overflow,
}


def inject_fault(path: str | Path, kind: str, seed: int) -> InjectedFault:
    """Corrupt one archive file in place, deterministically.

    The same ``(file contents, kind, seed)`` always produces the same
    corruption.  Raises ``ValueError`` for unknown kinds or a file too
    small to host the requested corruption.
    """
    path = Path(path)
    if kind in _STORED:
        if path.suffix != ".gz":
            raise ValueError(f"{kind!r}: {path.name} is not a .gz")
        blob, detail = _STORED[kind](path.read_bytes(), random.Random(seed))
        path.write_bytes(blob)
        return InjectedFault(path=str(path), kind=kind, lineno=None,
                             detail=detail)
    if kind not in _INJECTORS:
        raise ValueError(f"unknown fault kind {kind!r}; "
                         f"choose from {FAULT_KINDS}")
    text = HostArchive.read_file(path)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines and kind != "zero_byte":
        raise ValueError(f"{path} is empty; cannot inject {kind!r}")
    rng = random.Random(seed)
    lines, lineno, detail = _INJECTORS[kind](lines, rng)
    out = "\n".join(lines)
    if out and kind != "truncated_tail":
        out += "\n"  # truncated_tail alone loses its terminator
    _write(path, out)
    return InjectedFault(path=str(path), kind=kind, lineno=lineno,
                         detail=detail)


def corrupt_archive(root: str | Path, hosts: dict[str, str],
                    seed: int) -> list[InjectedFault]:
    """Corrupt one file per host: ``{hostname: fault kind}``.

    Each host's *first* archived file is corrupted (deterministic
    choice), with a per-host sub-seed so adding or removing a victim
    never changes what happens to the others.  Returns the injected
    faults in sorted hostname order.
    """
    root = Path(root)
    injected = []
    for i, (hostname, kind) in enumerate(sorted(hosts.items())):
        files = sorted((root / hostname).iterdir())
        if not files:
            raise ValueError(f"no archived files for {hostname}")
        injected.append(inject_fault(files[0], kind, seed=seed * 1000 + i))
    return injected


def crashy_scan(state_dir: str, crash_hosts: tuple[str, ...],
                n_crashes: int, root: str, hostname: str, *scan_args):
    """Scan worker that dies (``os._exit``) for chosen hosts.

    Bind the first three arguments with ``functools.partial`` and pass
    the result as ``scan_fn``.  Each host in *crash_hosts* kills its
    worker process outright on its first *n_crashes* attempts (tracked
    in a counter file under *state_dir*, which must be shared across
    worker processes); pass a negative *n_crashes* to crash forever.
    Everything else falls through to the real scan.
    """
    if hostname in crash_hosts:
        marker = Path(state_dir) / f"{hostname}.attempts"
        attempts = int(marker.read_text()) if marker.exists() else 0
        marker.write_text(str(attempts + 1))
        if n_crashes < 0 or attempts < n_crashes:
            os._exit(1)
    return _scan_one(root, hostname, *scan_args)


def sleepy_scan(sleep_hosts: tuple[str, ...], sleep_seconds: float,
                root: str, hostname: str, *scan_args):
    """Scan worker that wedges (sleeps) for chosen hosts.

    Bind the first two arguments with ``functools.partial``; used to
    exercise the per-round ``timeout`` in the fan-out.
    """
    if hostname in sleep_hosts:
        time.sleep(sleep_seconds)
    return _scan_one(root, hostname, *scan_args)


#: Where :func:`run_killed` can stop an ingest, as the
#: :class:`Warehouse` call it dies on entering.  All lie inside the
#: transaction that closes a run: ``scan_state`` after the scan states
#: of the open jobs were written and before any ledger row,
#: ``ledger`` after the ledger rows and before the commit, and
#: ``live_counters`` inside a live micro-batch, after its segments were
#: written to the archive and before its counters, jobs and ledger rows
#: (one commit) reached the warehouse.
KILL_POINTS = {"scan_state": "record_ledger", "ledger": "record_ingest_run",
               "live_counters": "record_live_counters"}
#: Exit status of a process killed at a kill point.
KILL_EXIT = 77


def run_killed(fn, point: str) -> int:
    """Run ``fn()`` in a forked child that dies (``os._exit``: nothing
    unwinds, rolls back or closes, as under SIGKILL) at kill point
    *point*; returns the child's exit status — :data:`KILL_EXIT` when
    it got that far, 0 when *fn* returned without reaching it.  What
    the child did is seen only through the files it wrote."""
    pid = os.fork()
    if pid == 0:
        status = 1  # fn raised
        try:
            setattr(Warehouse, KILL_POINTS[point],
                    lambda *_a, **_k: os._exit(KILL_EXIT))
            fn()
            status = 0
        finally:
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
