"""``repro-stats-cat``: inspect TACC_Stats archive files.

Examples::

    repro-stats-cat /archive/c000-001.ranger/2011-06-01.gz
    repro-stats-cat --jobs /archive/c000-001.ranger/*.gz
    repro-stats-cat --series cpu:0:user file.gz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.common import die, pipe_safe
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.columnar import is_v2_path, read_host_day
from repro.tacc_stats.parser import ParseError, parse_host_columns
from repro.util.tables import render_kv, render_table
from repro.util.textchart import sparkline


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-stats-cat`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-stats-cat",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("files", nargs="+", help="archive files (.gz ok)")
    parser.add_argument("--jobs", action="store_true",
                        help="list job windows seen in the files")
    parser.add_argument("--series", default=None, metavar="TYPE:DEV:KEY",
                        help="print one counter series, e.g. cpu:0:user")
    parser.add_argument("--timeline", default=None, metavar="JOBID",
                        help="render the per-job drill-down timeline "
                             "(pass all of the job's host files)")
    parser.add_argument("--allow-truncated", action="store_true",
                        help="tolerate a crash-truncated final line")
    return parser


@pipe_safe
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    days = []  # each file decoded straight to columns
    for name in args.files:
        path = Path(name)
        if not path.exists():
            return die(f"no such file: {name}")
        try:
            days.append(read_host_day(path) if is_v2_path(path)
                        else parse_host_columns(HostArchive.read_file(path),
                                                args.allow_truncated))
        except ParseError as e:
            return die(f"{name}: {e}", code=1)

    if args.timeline:
        from repro.xdmod.jobview import job_timeline
        try:
            tl = job_timeline(args.timeline, days)
        except ValueError as e:
            return die(str(e), code=1)
        print(tl.render())
        if "cpu_user" in tl.series:
            straggler, dev = tl.straggler()
            print(f"\nmost deviant host: {straggler} "
                  f"({dev:+.0%} vs job mean)")
        return 0

    # Rotated files of the same host merge; distinct hosts stay separate
    # (the flat views below are single-host; --timeline is multi-host).
    per_host: dict[str, object] = {}
    for name, day in zip(args.files, days):
        host = day.to_host_data()
        if host.hostname in per_host:
            try:
                per_host[host.hostname].merge_from(host)
            except ValueError as e:
                return die(f"{name}: {e}", code=1)
        else:
            per_host[host.hostname] = host

    if len(per_host) > 1:
        return die("multiple hosts given; the header/series views are "
                   "single-host (use --timeline JOBID for a job view)")
    merged = next(iter(per_host.values()))

    print(render_kv(
        {
            "hostname": merged.hostname or "(none)",
            "blocks": len(merged.blocks),
            "marks": len(merged.marks),
            "types": ", ".join(sorted(merged.schemas)),
            **{f"${k}": v for k, v in merged.properties.items()
               if k not in ("hostname",)},
        },
        title="TACC_Stats stream",
    ))

    if args.jobs:
        seen: dict[str, tuple[float | None, float | None]] = {}
        for m in merged.marks:
            b, e = seen.get(m.jobid, (None, None))
            if m.kind == "begin" and b is None:
                b = m.time
            elif m.kind == "end":
                e = m.time
            seen[m.jobid] = (b, e)
        rows = [
            {"jobid": jid,
             "begin": f"{b:.0f}" if b is not None else "-",
             "end": f"{e:.0f}" if e is not None else "-",
             "samples": len(merged.blocks_for_job(jid))}
            for jid, (b, e) in sorted(seen.items())
        ]
        print()
        print(render_table(rows, ["jobid", "begin", "end", "samples"],
                           title="Job windows"))

    if args.series:
        try:
            type_name, device, key = args.series.split(":")
        except ValueError:
            return die("--series wants TYPE:DEV:KEY")
        try:
            t, v = merged.series(type_name, device, key)
        except KeyError as e:
            return die(str(e), code=1)
        if t.size == 0:
            return die(f"no samples for {args.series}", code=1)
        print(f"\n{args.series}: {t.size} samples "
              f"[{int(v.min())} .. {int(v.max())}]")
        print(sparkline(v.astype(float)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
