"""``repro-simulate``: run one simulated study period.

Examples::

    repro-simulate --system ranger --nodes 64 --days 30 \
        --warehouse ranger.sqlite
    repro-simulate --system lonestar4 --nodes 16 --days 2 \
        --warehouse ls4.sqlite --archive /tmp/ls4-stats
    repro-simulate --system lonestar4 --nodes 16 --days 4 \
        --warehouse ls4.sqlite --archive /tmp/ls4-stats --append

With ``--archive`` the run goes through the full text-format tool chain
(slower; intended for small configs); otherwise the fast synthesis path
is used.  Multiple systems can share one warehouse file — run the
command once per system.  ``--ingest-days N`` consumes only the first N
facility days of the archive; a later ``--append`` run diffs the
archive against the warehouse's ingest ledger and parses only what is
new (see docs/PERFORMANCE.md).

Federation mode (docs/FEDERATION.md) simulates several clusters at
once, one warehouse shard each::

    repro-simulate --clusters ranger,lonestar4,stampede \
        --federation fed/ --nodes 8 --days 2
    repro-simulate --federation fed/ --with-archives --append

``--clusters`` takes archetype names (optionally aliased,
``ranger-a=ranger``); every shard gets the same scaling knobs.
``--with-archives`` runs each cluster through the slow text-format
path into ``fed/archives/<cluster>/`` so later ``--append`` runs use
the per-shard ingest ledgers.  Each shard is exactly the plain run of
its system, one after another, and prints the same lines.  A later run
against an existing federation reads the member list back from
``fed/federation.json``.

Live mode (docs/OBSERVABILITY.md, "Live monitoring") streams the same
study period as rolling micro-batches instead of one offline pass::

    repro-simulate --system ranger --nodes 8 --days 1 \
        --warehouse live.sqlite --archive /tmp/live-stats --live

Each batch advances the replay by ``--live-segment-seconds`` of
facility time, rotates the completed archive segment (a v2 file; no
text is made — ``repro-convert --to text`` compacts the archive
afterwards), appends it through the watermark ledger, and refreshes
the warehouse snapshot in place — watch it with ``repro-top`` or
``repro-serve`` against the same warehouse file while it runs
(``--live-sleep`` paces batches in wall-clock time for that).  The final warehouse is byte-identical to
a one-shot run at the same rotation period.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing, contextmanager
from itertools import islice
from types import SimpleNamespace

from repro.cli.common import die
from repro.config import LONESTAR4, RANGER, STAMPEDE, FacilityConfig
from repro.facility import Facility
from repro.federation.simulate import open_for_write, simulate_system
from repro.telemetry.log import run_scope
from repro.telemetry.manifest import build_manifest
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import get_tracer, span

#: The published systems (also ``repro.cli.common.SYSTEMS``).
SYSTEMS: dict[str, FacilityConfig] = {
    "ranger": RANGER,
    "lonestar4": LONESTAR4,
    "stampede": STAMPEDE,
}


def add_system_args(parser: argparse.ArgumentParser) -> None:
    """The scaling knobs every simulation-facing command shares."""
    parser.add_argument("--system", choices=sorted(SYSTEMS),
                        default="ranger",
                        help="which published system to replicate")
    parser.add_argument("--nodes", type=int, default=32,
                        help="scaled node count (default 32)")
    parser.add_argument("--days", type=float, default=14,
                        help="simulated horizon in days (default 14)")
    parser.add_argument("--users", type=int, default=80,
                        help="user population size (default 80)")
    parser.add_argument("--seed", type=int, default=42,
                        help="master seed (default 42)")


def _scaled(archetype: str, nodes: int, days: float,
            users: int) -> FacilityConfig:
    """A published system scaled by the shared knobs."""
    if archetype not in SYSTEMS:
        raise ValueError(f"unknown archetype {archetype!r} "
                         f"(have: {sorted(SYSTEMS)})")
    return SYSTEMS[archetype].scaled(num_nodes=nodes, horizon_days=days,
                                     n_users=users)


def config_from_args(args: argparse.Namespace) -> FacilityConfig:
    """Build the scaled FacilityConfig the parsed args describe."""
    return _scaled(args.system, args.nodes, args.days, args.users)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-simulate`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_system_args(parser)
    parser.add_argument("--warehouse", default=None,
                        help="SQLite file to create/extend (required "
                             "unless running in federation mode)")
    parser.add_argument("--clusters", default=None, metavar="A,B,...",
                        help="federation mode: comma-separated member "
                             "clusters (archetype names, optionally "
                             "aliased as name=archetype); each gets its "
                             "own warehouse shard under --federation")
    parser.add_argument("--federation", default=None, metavar="DIR",
                        help="federation directory (shards + manifest); "
                             "required with --clusters, sufficient alone "
                             "for --append runs against an existing "
                             "federation")
    parser.add_argument("--with-archives", action="store_true",
                        help="federation mode: run each cluster through "
                             "the slow archive path into "
                             "DIR/archives/<cluster>/ (enables later "
                             "--append runs via the per-shard ledgers)")
    parser.add_argument("--archive", default=None,
                        help="directory for a full stats archive "
                             "(enables the slow path)")
    parser.add_argument("--archive-format", choices=("text", "v2"),
                        default="text",
                        help="on-disk format the daemons write: the "
                             "paper-faithful self-describing text "
                             "(default) or the binary columnar v2 "
                             "(docs/FORMAT.md); ingest autodetects per "
                             "file and both produce byte-identical "
                             "warehouses")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-parallel node replay for --archive "
                             "runs (output is byte-identical)")
    parser.add_argument("--ingest-workers", type=int, default=1,
                        help="process-parallel host parsing when reading "
                             "the archive back (warehouse is "
                             "byte-identical for any worker count)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="jobs per warehouse transaction during "
                             "ingest")
    parser.add_argument("--error-policy",
                        choices=("strict", "quarantine", "repair"),
                        default="strict",
                        help="what malformed archive data does during "
                             "ingest: strict fails loudly (default), "
                             "quarantine drops affected hosts with full "
                             "provenance, repair salvages parseable "
                             "lines (see docs/ROBUSTNESS.md)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries per host for transient worker "
                             "failures during parallel ingest")
    parser.add_argument("--append", action="store_true",
                        help="incremental ingest into an existing system: "
                             "diff the archive against the warehouse's "
                             "ingest ledger and parse only new host-day "
                             "files (requires --archive; see "
                             "docs/PERFORMANCE.md)")
    parser.add_argument("--ingest-days", type=int, default=None,
                        metavar="N",
                        help="consume only the first N facility days of "
                             "the archive (requires --archive); a later "
                             "--append run folds in the remainder")
    parser.add_argument("--fast-writes", action="store_true",
                        help="open the warehouse with WAL journaling and "
                             "synchronous=NORMAL (faster ingest; query "
                             "results are identical)")
    parser.add_argument("--no-syslog", action="store_true",
                        help="skip syslog generation (fast path only: an "
                             "archive run always generates it)")
    parser.add_argument("--policy", choices=("easy", "fcfs", "aware"),
                        default="easy",
                        help="scheduling policy: EASY backfill (default), "
                             "plain FCFS, or the §5 complement-aware "
                             "backfill")
    parser.add_argument("--appkernels", action="store_true",
                        help="submit the standard application-kernel "
                             "battery on its cadence")
    parser.add_argument("--live", action="store_true",
                        help="stream the study period as rolling "
                             "micro-batches of v2 segments through the "
                             "append ledger (requires --archive; watch "
                             "with repro-top or repro-serve on the same "
                             "warehouse)")
    parser.add_argument("--live-segment-seconds", type=int, default=3600,
                        metavar="S",
                        help="live mode: archive rotation period in "
                             "facility seconds (default 3600)")
    parser.add_argument("--live-batch-segments", type=int, default=1,
                        metavar="K",
                        help="live mode: completed segments folded in "
                             "per micro-batch (default 1)")
    parser.add_argument("--live-max-batches", type=int, default=None,
                        metavar="N",
                        help="live mode: stop after N micro-batches "
                             "(default: run the whole horizon)")
    parser.add_argument("--live-sleep", type=float, default=0.0,
                        metavar="SEC",
                        help="live mode: wall-clock pause between "
                             "micro-batches, so concurrent viewers see "
                             "rates evolve (default 0)")
    parser.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="write the run's telemetry manifest (stage "
                             "spans, metric totals, ingest health, "
                             "slowest hosts) as JSON to PATH")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _parse_clusters(spec: str) -> list[tuple[str, str]]:
    """``"ranger,ls4-b=lonestar4"`` -> [(cluster, archetype), ...]."""
    out = []
    for entry in (e.strip() for e in spec.split(",")):
        if not entry:
            continue
        cluster, _, archetype = entry.partition("=")
        out.append((cluster, archetype or cluster))
    return out


def _federation_plans(args) -> tuple[str, "list", bool]:
    """Resolve the member plans: from the manifest of an existing
    federation, or from ``--clusters`` for a fresh one.

    Returns ``(root, plans, existed)``.
    """
    from pathlib import Path

    from repro.federation import ClusterPlan, FederationLayout, ShardSpec

    root = args.federation
    existed = (Path(root) / "federation.json").exists()
    if existed:
        specs = list(FederationLayout.open(root).shards.values())
        if args.clusters:
            wanted = sorted(c for c, _a in _parse_clusters(args.clusters))
            have = sorted(s.cluster for s in specs)
            if wanted != have:
                raise ValueError(
                    f"--clusters {wanted} does not match the existing "
                    f"federation {have}; omit --clusters to reuse the "
                    f"manifest")
    elif not args.clusters:
        raise ValueError(f"no federation at {root} — pass --clusters to "
                         f"create one")
    else:
        specs = [ShardSpec(cluster=cluster, system=archetype,
                           seed=args.seed, nodes=args.nodes,
                           days=args.days, users=args.users)
                 for cluster, archetype in _parse_clusters(args.clusters)]
    plans = [ClusterPlan(s.cluster, _scaled(s.system, s.nodes, s.days,
                                            s.users), s.seed)
             for s in specs]
    return root, plans, existed


#: The flags that are ``run_with_files`` arguments under their own name.
_FILE_PATH_KNOBS = ("workers", "ingest_workers", "batch_size",
                    "error_policy", "max_retries", "archive_format")


def _run_knobs(args) -> dict:
    """:func:`simulate_system`'s keyword arguments, the same in both
    modes."""
    return dict(append=args.append, through_day=args.ingest_days,
                fast_writes=args.fast_writes,
                with_syslog=not args.no_syslog,
                **{name: getattr(args, name) for name in _FILE_PATH_KNOBS})


def _print_system(summary: dict) -> None:
    """The lines a run prints for one system, in either mode."""
    print(f"[{summary['system']}] {summary['jobs']} jobs simulated, "
          f"{summary['summarized']} with full summaries, "
          f"{summary['node_hours']:,.0f} node-hours, "
          f"efficiency {summary['efficiency']:.1%} "
          f"({summary['seconds']:.1f}s)")
    stats, report = summary["archive_stats"], summary["ingest_report"]
    if stats is not None:
        print(f"archive: {stats.file_count} files, "
              f"{stats.raw_bytes / 1e6:.1f} MB raw, "
              f"{stats.compression_ratio:.1f}x gzip")
    if report is not None and report.delta is not None:
        print(f"ingest delta ({report.mode}): {report.delta}")
    if report is not None and report.health is not None:
        print(f"ingest health: {report.health}")
    print(f"warehouse: {summary['warehouse']}")


@contextmanager
def _telemetry_run(args, name: str, **attrs):
    """What every mode runs its work in: registry and tracer start clean
    so the manifest describes exactly this invocation, one run scope,
    and one root span *name* whose duration is ``elapsed`` on the
    yielded namespace.  The body leaves :func:`build_manifest`'s arguments
    in ``manifest`` on the yielded namespace; the manifest is built once
    the root span has closed, if ``--telemetry-out`` asks for one."""
    get_registry().reset()
    get_tracer().reset()
    run = SimpleNamespace(manifest=None, elapsed=0.0)
    with run_scope() as run_id:
        with span(name, **attrs) as root:
            yield run
        run.elapsed = root.duration
        if args.telemetry_out and run.manifest is not None:
            path = build_manifest(**run.manifest).write(args.telemetry_out)
            if not args.quiet:
                print(f"telemetry manifest: {path} (run {run_id})")


def _run_federation(args) -> int:
    """Federation mode: one shard per cluster under ``--federation``."""
    from repro.federation import (
        FederatedFacility,
        FederatedWarehouse,
        FederationLayout,
    )

    if args.warehouse:
        return die("--warehouse and --federation are different modes; "
                   "pick one")
    if args.archive:
        return die("federation mode manages archive paths itself; use "
                   "--with-archives instead of --archive")
    if args.policy != "easy":
        return die("--policy is not supported in federation mode "
                   "(every shard schedules with EASY backfill)")
    if args.appkernels:
        return die("--appkernels is not supported in federation mode")
    try:
        root, plans, existed = _federation_plans(args)
        federated = (FederatedFacility(FederationLayout.open(root), plans)
                     if existed else FederatedFacility.plan(root, plans))
    except ValueError as e:
        return die(str(e))

    with _telemetry_run(args, "federation.simulate",
                        clusters=len(plans)) as run:
        try:
            results = federated.run(archive=args.with_archives,
                                    **_run_knobs(args))
        except ValueError as e:
            return die(str(e))
        run.manifest = dict(
            systems=[p.cluster for p in plans],
            extra={
                "federation": root,
                "jobs_simulated": sum(r["jobs"] for r in results.values()),
            },
        )

    if not args.quiet:
        for _cluster, summary in sorted(results.items()):
            _print_system(summary)
        with closing(FederatedWarehouse.open(root)) as fw:
            print(fw.render_overview())
        print(f"federation: {root} ({run.elapsed:.1f}s)")
    return 0


def _run_live(args, cfg, facility, warehouse) -> int:
    """Live mode: stream the horizon as micro-batches (see
    docs/OBSERVABILITY.md, "Live monitoring")."""
    import time as _time

    from repro.live.runner import LiveSession

    try:
        session = LiveSession(
            facility, args.archive, warehouse=warehouse,
            segment_seconds=args.live_segment_seconds,
            batch_segments=args.live_batch_segments)
    except ValueError as e:
        return die(str(e))

    reports = []
    with _telemetry_run(args, "live.session", system=cfg.name,
                        segment_seconds=args.live_segment_seconds) as run:
        for report in islice(iter(session.run_batch, None),
                             args.live_max_batches):
            reports.append(report)
            if not args.quiet:
                print(report, flush=True)
            if args.live_sleep and not session.done:
                _time.sleep(args.live_sleep)
        run.manifest = dict(
            systems=[cfg.name],
            extra={
                "live": {
                    "segment_seconds": args.live_segment_seconds,
                    "batch_segments": args.live_batch_segments,
                    "batches": len(reports),
                    "complete": session.done,
                    "snapshot_rows": [r.snapshot_rows for r in reports],
                    "jobs_loaded": sum(r.jobs_loaded for r in reports),
                    "counter_rows": sum(r.counter_rows for r in reports),
                },
            },
        )

    if not args.quiet:
        jobs = warehouse.job_count(cfg.name)
        rows = reports[-1].snapshot_rows if reports else 0
        state = "complete" if session.done else "stopped"
        print(f"[{cfg.name}] live {state}: {len(reports)} batches, "
              f"{jobs} jobs in warehouse, {rows} snapshot rows "
              f"({run.elapsed:.1f}s)")
        print(f"warehouse: {args.warehouse}")
    return 0


def _run_single(args, facility) -> int:
    """One system, one offline pass into ``--warehouse``."""
    with _telemetry_run(args, "simulate", system=facility.config.name,
                        path="archive" if args.archive else "fast") as run:
        try:
            summary = simulate_system(facility, args.warehouse,
                                      args.archive, **_run_knobs(args))
        except ValueError as e:
            return die(str(e))
        report = summary["ingest_report"]
        extra = {"jobs_simulated": summary["jobs"]}
        if report is not None:
            extra["ingest_mode"] = report.mode
            if report.delta is not None:
                extra["ingest_delta"] = report.delta.to_dict()
        run.manifest = dict(
            systems=[summary["system"]],
            ingest_health=(report.health.to_dict()
                           if report is not None
                           and report.health is not None else None),
            effective_workers=(report.effective_workers
                               if report is not None else 1),
            extra=extra,
        )

    if not args.quiet:
        _print_system(summary)
    return 0


def _policy(name: str):
    if name == "fcfs":
        from repro.scheduler.policies import FCFSPolicy
        return FCFSPolicy()
    if name == "aware":
        from repro.scheduler.resource_aware import (
            ResourceAwareBackfillPolicy,
        )
        return ResourceAwareBackfillPolicy()
    from repro.scheduler.policies import EasyBackfillPolicy
    return EasyBackfillPolicy()


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1 or args.ingest_workers < 1:
        return die("--workers and --ingest-workers must be >= 1")
    if args.batch_size < 1:
        return die("--batch-size must be >= 1")
    if args.max_retries < 0:
        return die("--max-retries must be >= 0")
    if args.clusters and not args.federation:
        return die("--clusters requires --federation DIR")
    if args.with_archives and not args.federation:
        return die("--with-archives is a federation-mode flag (pass "
                   "--federation DIR)")
    if args.live:
        if args.federation:
            return die("--live streams a single system; federation "
                       "mode is batch-only")
        if not args.archive:
            return die("--live requires --archive (the rolling "
                       "segments live there)")
        if args.append or args.ingest_days is not None:
            return die("--live manages its own incremental ingest; "
                       "drop --append/--ingest-days")
        for name in _FILE_PATH_KNOBS:
            if getattr(args, name) != parser.get_default(name):
                return die(f"--{name.replace('_', '-')} does not apply to "
                           f"--live (it replays in-process into a v2 "
                           f"archive and ingests each batch strictly, in "
                           f"one transaction)")
        if args.live_segment_seconds < 1:
            return die("--live-segment-seconds must be >= 1")
        if args.live_batch_segments < 1:
            return die("--live-batch-segments must be >= 1")
        if (args.live_max_batches is not None
                and args.live_max_batches < 1):
            return die("--live-max-batches must be >= 1")
        if args.live_sleep < 0:
            return die("--live-sleep must be >= 0")
    needs = "--with-archives" if args.federation else "--archive"
    if not (args.with_archives if args.federation else args.archive):
        for name in (*_FILE_PATH_KNOBS, "append", "ingest_days"):
            if getattr(args, name) != parser.get_default(name):
                return die(f"--{name.replace('_', '-')} requires {needs} "
                           f"(the fast path writes and reads no files)")
    elif args.no_syslog:
        return die(f"--no-syslog is fast-path only; a run with {needs} "
                   f"always generates the syslog stream")
    if args.ingest_days is not None:
        if args.append:
            return die("--ingest-days only windows a full ingest; "
                       "--append derives its window from the ledger")
        if args.ingest_days < 1:
            return die("--ingest-days must be >= 1")
    if args.federation:
        return _run_federation(args)
    if not args.warehouse:
        return die("--warehouse is required (or --federation DIR for "
                   "federation mode)")
    cfg = config_from_args(args)
    kernels = None
    if args.appkernels:
        from repro.xdmod.appkernels import DEFAULT_KERNELS
        kernels = DEFAULT_KERNELS
    facility = Facility(cfg, seed=args.seed, policy=_policy(args.policy),
                        appkernels=kernels)
    if not args.live:
        return _run_single(args, facility)
    try:
        warehouse = open_for_write(cfg.name, args.warehouse,
                                   fast_writes=args.fast_writes)
    except ValueError as e:
        return die(str(e))
    with closing(warehouse):
        return _run_live(args, cfg, facility, warehouse)


if __name__ == "__main__":
    sys.exit(main())
