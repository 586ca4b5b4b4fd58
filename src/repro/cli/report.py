"""``repro-report``: render a stakeholder report from a warehouse.

Examples::

    repro-report --warehouse ranger.sqlite --system ranger support
    repro-report --warehouse ranger.sqlite --system ranger user user0042
    repro-report --warehouse ranger.sqlite --system ranger developer namd

Reports share one columnar warehouse snapshot and memoize rendered
output on it; ``--no-report-cache`` disables the memoization (the
snapshot is still shared) for debugging or timing the cold path.

Federation mode (docs/FEDERATION.md) reads warehouse shards instead::

    repro-report --federation fed/ --cluster ranger support
    repro-report --federation fed/ federation

``--cluster`` routes a per-system report to the owning shard — output
is byte-identical to running against that shard file directly — and
the ``federation`` kind renders the cross-cluster scatter-gather
rollup (per-cluster rows plus the merged TOTAL).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import die, pipe_safe
from repro.ingest.warehouse import Warehouse
from repro.telemetry.metrics import get_registry
from repro.xdmod.reports import (
    AdminReport,
    DeveloperReport,
    FundingAgencyReport,
    ResourceManagerReport,
    SupportStaffReport,
    UserReport,
)
from repro.xdmod.snapshot import WarehouseSnapshot, set_cache_enabled

_NEEDS_TARGET = {"user": "a username", "developer": "an application tag"}

_REPORTS = {
    "user": UserReport,
    "developer": DeveloperReport,
    "support": SupportStaffReport,
    "admin": AdminReport,
    "manager": ResourceManagerReport,
    "funding": FundingAgencyReport,
}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-report`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--warehouse", default=None,
                        help="SQLite warehouse (classic mode)")
    parser.add_argument("--system", default=None,
                        help="system inside --warehouse (classic mode)")
    parser.add_argument("--federation", default=None, metavar="DIR",
                        help="federation directory of warehouse shards "
                             "(alternative to --warehouse)")
    parser.add_argument("--cluster", default=None,
                        help="with --federation: which member cluster a "
                             "per-system report targets")
    parser.add_argument("--report-cache", dest="report_cache",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="memoize query/report results on the shared "
                             "warehouse snapshot (default: enabled)")
    parser.add_argument("--cache-stats", action="store_true",
                        help="after rendering, print the snapshot's "
                             "memo-cache hit/miss counts and the "
                             "process-wide cache counters")
    parser.add_argument("kind", choices=sorted(_REPORTS) + ["federation"],
                        help="which stakeholder's report; 'federation' "
                             "renders the cross-cluster rollup "
                             "(--federation mode only)")
    parser.add_argument("target", nargs="?", default=None,
                        help="username (user) or app tag (developer)")
    return parser


def _main_federation(args) -> int:
    """Federation mode: route to a shard or render the rollup."""
    from repro.federation import FederatedWarehouse

    try:
        federated = FederatedWarehouse.open(args.federation)
    except (FileNotFoundError, ValueError) as e:
        return die(str(e))
    try:
        if args.kind == "federation":
            if args.target:
                return die("report 'federation' takes no target")
            print(federated.render_overview())
            return 0
        if not args.cluster:
            return die(f"report {args.kind!r} needs --cluster "
                       f"(federation has: {federated.clusters})")
        if args.cluster not in federated.clusters:
            return die(f"cluster {args.cluster!r} not in federation; "
                       f"has: {federated.clusters}")
        shard = federated.shard(args.cluster)
        systems = shard.systems()
        system = args.system or (systems[0] if len(systems) == 1 else None)
        if system is None or system not in systems:
            return die(f"--system must be one of {systems} for cluster "
                       f"{args.cluster!r}")
        # Identical call path to classic mode on the shard file, so the
        # rendered text is byte-identical to --warehouse output.
        report = _REPORTS[args.kind](shard, system)
        if args.kind in _NEEDS_TARGET:
            if not args.target:
                return die(f"report {args.kind!r} needs {args.kind} "
                           f"target: {_NEEDS_TARGET[args.kind]}")
            try:
                print(report.render(args.target))
            except ValueError as e:
                return die(str(e))
        else:
            if args.target:
                return die(f"report {args.kind!r} takes no target")
            print(report.render())
        return 0
    finally:
        federated.close()


@pipe_safe
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    # Resolve knobs before touching the warehouse, mirroring the
    # --ingest-workers up-front validation in repro-simulate.
    set_cache_enabled(args.report_cache)
    if args.federation and args.warehouse:
        return die("--warehouse and --federation are different modes; "
                   "pick one")
    if args.federation:
        return _main_federation(args)
    if args.kind == "federation":
        return die("report 'federation' needs --federation DIR")
    if not args.warehouse or not args.system:
        return die("--warehouse and --system are required "
                   "(or --federation DIR for federation mode)")
    warehouse = Warehouse(args.warehouse)
    try:
        if args.system not in warehouse.systems():
            return die(f"system {args.system!r} not in {args.warehouse}; "
                       f"has: {warehouse.systems()}")
        report = _REPORTS[args.kind](warehouse, args.system)
        if args.kind in _NEEDS_TARGET:
            if not args.target:
                return die(f"report {args.kind!r} needs {args.kind} "
                           f"target: {_NEEDS_TARGET[args.kind]}")
            try:
                print(report.render(args.target))
            except ValueError as e:
                return die(str(e))
        else:
            if args.target:
                return die(f"report {args.kind!r} takes no target")
            print(report.render())
        if args.cache_stats:
            snap = WarehouseSnapshot.for_warehouse(warehouse)
            registry = get_registry()
            print(f"\ncache: {snap.cache_stats['hits']} hits, "
                  f"{snap.cache_stats['misses']} misses, "
                  f"{snap.cache_stats['entries']} entries "
                  f"(process counters: "
                  f"hits={registry.counter('analytics.cache_hits').value:.0f} "
                  f"misses="
                  f"{registry.counter('analytics.cache_misses').value:.0f})")
        return 0
    finally:
        warehouse.close()


if __name__ == "__main__":
    sys.exit(main())
