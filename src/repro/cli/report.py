"""``repro-report``: render a stakeholder report from a warehouse.

Examples::

    repro-report --warehouse ranger.sqlite --system ranger support
    repro-report --warehouse ranger.sqlite --system ranger user user0042
    repro-report --warehouse ranger.sqlite --system ranger developer namd

Reports share one columnar warehouse snapshot and memoize rendered
output on it.

A federation directory (docs/FEDERATION.md) is read the same way::

    repro-report --federation fed/ --cluster ranger support
    repro-report --federation fed/ federation

``--federation DIR --cluster C`` and ``--warehouse DIR/C.sqlite
--system C`` are two spellings of one shard: same code, same output,
same flags.  The ``federation`` kind renders the cross-cluster
scatter-gather rollup (per-cluster rows plus the merged TOTAL).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing

from repro.cli.common import (
    UsageError,
    add_store_args,
    die,
    one_selected,
    open_store,
    pipe_safe,
)
from repro.telemetry.metrics import get_registry
from repro.xdmod.reports import NEEDS_TARGET, REPORT_KINDS
from repro.xdmod.snapshot import WarehouseSnapshot


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-report`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_store_args(parser)
    parser.add_argument("--cache-stats", action="store_true",
                        help="after rendering, print the snapshot's "
                             "memo-cache hit/miss counts and the "
                             "process-wide cache counters")
    parser.add_argument("kind", choices=sorted(REPORT_KINDS) + ["federation"],
                        help="which stakeholder's report; 'federation' "
                             "renders the cross-cluster rollup "
                             "(--federation mode only)")
    parser.add_argument("target", nargs="?", default=None,
                        help="username (user) or app tag (developer)")
    return parser


@pipe_safe
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.kind == "federation" and not args.federation:
        return die("report 'federation' needs --federation DIR")
    try:
        with closing(open_store(args)) as store:
            if args.kind == "federation":
                if args.target:
                    return die("report 'federation' takes no target")
                print(store.render_overview())
                return 0
            shard, system = one_selected(args, store,
                                         f"report {args.kind!r}")
            report = REPORT_KINDS[args.kind](shard, system)
            if args.kind in NEEDS_TARGET:
                if not args.target:
                    return die(f"report {args.kind!r} needs {args.kind} "
                               f"target: {NEEDS_TARGET[args.kind]}")
                try:
                    print(report.render(args.target))
                except ValueError as e:
                    return die(str(e))
            else:
                if args.target:
                    return die(f"report {args.kind!r} takes no target")
                print(report.render())
            if args.cache_stats:
                stats = WarehouseSnapshot.for_warehouse(shard).cache_stats
                hits, misses = (
                    get_registry().counter(f"analytics.cache_{kind}").value
                    for kind in ("hits", "misses"))
                print(f"\ncache: {stats['hits']} hits, "
                      f"{stats['misses']} misses, "
                      f"{stats['entries']} entries (process counters: "
                      f"hits={hits:.0f} misses={misses:.0f})")
            return 0
    except UsageError as e:
        return die(str(e))


if __name__ == "__main__":
    sys.exit(main())
