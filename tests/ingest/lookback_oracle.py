"""An independent statement of which ledgered files an append must
re-read, for the exact look-back tests.

Nothing here shares code with the planner or the scan (only the
archive's file naming): job ids are read off the archived text line by
line, and "pending" is restated from the accounting file.  It assumes
what the tests arrange — the archive grows by whole segments, for every
host at once, and a file the scan could not keep whole (the caller
names those cells) was faulty from the append that first consumed it.
"""

import shutil
from pathlib import Path

from repro.scheduler.accounting import parse_accounting
from repro.tacc_stats.archive import HostArchive, _file_day
from repro.util.timeutil import DAY, date_to_day_index


def mentioned_jobs(path: Path) -> set[str]:
    """Job ids on the block lines (``<time> <id>[,<id>]``) and the
    ``%begin``/``%end`` lines of one archived file."""
    ids: set[str] = set()
    for line in HostArchive.read_file(path).splitlines():
        if line[:1].isdigit():
            tag = line.split()[1]
            if tag != "-":
                ids.update(tag.split(","))
        elif line.startswith(("%begin ", "%end ")):
            ids.add(line.split()[1])
    return ids


def archive_cells(root) -> dict[tuple[str, str], Path]:
    """``{(host, label): path}`` of every archived file under *root*."""
    archive = HostArchive(root)
    return {(host, _file_day(path)): path
            for host in archive.hostnames()
            for path in archive.host_files(host)}


def segment_labels(root) -> list[str]:
    """Every file label in the archive, in time order."""
    return sorted({label for _host, label in archive_cells(root)})


def grow(src, dst, labels) -> None:
    """Copy every host's files for *labels* from archive *src* into
    archive *dst*."""
    src, dst = Path(src), Path(dst)
    dst.mkdir(parents=True, exist_ok=True)
    wanted = set(labels)
    for (host, label), path in archive_cells(src).items():
        if label in wanted:
            (dst / host).mkdir(exist_ok=True)
            shutil.copy2(path, dst / host / path.name)


def expected_lookback(root, ledgered, accounting_text: str, loaded,
                      min_seconds: float,
                      unknown=frozenset()) -> set[tuple[str, str]]:
    """The ledgered cells an append over *root* has to open again.

    A host every file of which was kept whole left the scan state of
    its open jobs behind: none of its cells is.  A host with a cell in
    *unknown* (quarantined, repaired, or ledgered before job sets were
    recorded — nobody knows what it mentions) left none, so it is read
    the old way: the unknown cells that the span of a pending job
    reaches, and its other cells that hold a block or mark of one.  A
    job is pending when it is not loaded, long enough to match, wholly
    on disk, and not already given up on (its last segment was consumed
    by an earlier run)."""
    period = DAY
    cells = archive_cells(root)

    def seg(label: str) -> int:
        return date_to_day_index(label)

    on_disk = max(seg(label) for _host, label in cells)
    consumed = max((seg(label) for _host, label in ledgered), default=-1)
    pending = {}
    for entry in parse_accounting(accounting_text):
        s0 = int(float(entry.start_time) // period)
        s1 = int(float(entry.end_time) // period)
        if (entry.job_number not in loaded
                and float(entry.wall_seconds) >= min_seconds
                and consumed < s1 <= on_disk):
            pending[entry.job_number] = (s0, s1)

    def reaching(cell) -> set[str]:
        at = seg(cell[1])
        return {jid for jid, span in pending.items()
                if span[0] <= at <= span[1]}

    stateless = {host for host, _label in unknown}
    return {cell for cell in ledgered
            if (cell in unknown and reaching(cell))
            or (cell not in unknown and cell[0] in stateless
                and reaching(cell) & mentioned_jobs(cells[cell]))}
