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
the per-shard ingest ledgers; ``--shard-workers`` fans whole shards
over a process pool.  A later run against an existing federation reads
the member list back from ``fed/federation.json``.

Live mode (docs/OBSERVABILITY.md, "Live monitoring") streams the same
study period as rolling micro-batches instead of one offline pass::

    repro-simulate --system ranger --nodes 8 --days 1 \
        --warehouse live.sqlite --archive /tmp/live-stats --live

Each batch advances the replay by ``--live-segment-seconds`` of
facility time, rotates the completed archive segment, appends it
through the watermark ledger, and refreshes the warehouse snapshot in
place — watch it with ``repro-top`` or ``repro-serve`` against the
same warehouse file while it runs (``--live-sleep`` paces batches in
wall-clock time for that).  The final warehouse is byte-identical to
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
from repro.ingest.warehouse import Warehouse
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


def config_from_args(args: argparse.Namespace) -> FacilityConfig:
    """Build the scaled FacilityConfig the parsed args describe."""
    base = SYSTEMS[args.system]
    return base.scaled(num_nodes=args.nodes, horizon_days=args.days,
                       n_users=args.users)


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
    parser.add_argument("--shard-workers", type=int, default=1,
                        help="federation mode: process-parallel shard "
                             "fan-out (each shard is an independent "
                             "file set; output is identical for any "
                             "worker count)")
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
    parser.add_argument("--synthesis", choices=("fast", "scalar"),
                        default="fast",
                        help="replay engine for --archive runs: the "
                             "vectorized per-node synthesis (batched "
                             "collector kernels, direct-to-v2 column "
                             "writes; default) or the per-sample scalar "
                             "daemon loop kept as the oracle — both "
                             "produce byte-identical archives and "
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
                        help="skip syslog generation (fast path only)")
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
                             "micro-batches through the append ledger "
                             "(requires --archive; watch with repro-top "
                             "or repro-serve on the same warehouse)")
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

    from repro.federation import ClusterPlan, FederationLayout

    root = args.federation
    manifest = Path(root) / "federation.json"
    if manifest.exists():
        layout = FederationLayout.open(root)
        if args.clusters:
            wanted = sorted(c for c, _a in _parse_clusters(args.clusters))
            if wanted != layout.clusters:
                raise ValueError(
                    f"--clusters {wanted} does not match the existing "
                    f"federation {layout.clusters}; omit --clusters to "
                    f"reuse the manifest")
        plans = []
        for spec in layout.shards.values():
            base = SYSTEMS.get(spec.system)
            if base is None:
                raise ValueError(f"manifest names unknown archetype "
                                 f"{spec.system!r}")
            config = base.scaled(num_nodes=spec.nodes,
                                 horizon_days=spec.days,
                                 n_users=spec.users)
            plans.append(ClusterPlan(spec.cluster, config, spec.seed))
        return root, plans, True
    if not args.clusters:
        raise ValueError(f"no federation at {root} — pass --clusters to "
                         f"create one")
    plans = []
    for cluster, archetype in _parse_clusters(args.clusters):
        base = SYSTEMS.get(archetype)
        if base is None:
            raise ValueError(f"unknown archetype {archetype!r} "
                             f"(have: {sorted(SYSTEMS)})")
        config = base.scaled(num_nodes=args.nodes, horizon_days=args.days,
                             n_users=args.users)
        plans.append(ClusterPlan(cluster, config, args.seed))
    return root, plans, False


def _file_path_knobs(args) -> dict:
    """The flags that are ``run_with_files`` arguments under their own
    name; a shard run forwards them exactly as the plain run does."""
    return {name: getattr(args, name) for name in (
        "workers", "ingest_workers", "batch_size", "error_policy",
        "max_retries", "archive_format", "synthesis")}


@contextmanager
def _telemetry_run(args, name: str, **attrs):
    """What every mode runs its work in: registry and tracer start clean
    so the manifest describes exactly this invocation, one run scope,
    and one root span *name* whose duration is the elapsed time the
    summary prints.  The body leaves :func:`build_manifest`'s arguments
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
    if args.shard_workers < 1:
        return die("--shard-workers must be >= 1")
    if args.policy != "easy":
        return die("--policy is not supported in federation mode "
                   "(every shard schedules with EASY backfill)")
    if args.appkernels:
        return die("--appkernels is not supported in federation mode")
    if args.append and not args.with_archives:
        return die("--append requires --with-archives in federation mode "
                   "(the per-shard ledgers live with the archives)")
    if args.ingest_days is not None and not args.with_archives:
        return die("--ingest-days requires --with-archives")
    if args.archive_format != "text" and not args.with_archives:
        return die("--archive-format requires --with-archives")
    if args.synthesis != "fast" and not args.with_archives:
        return die("--synthesis requires --with-archives")
    try:
        root, plans, existed = _federation_plans(args)
    except ValueError as e:
        return die(str(e))
    if existed and not args.append:
        from pathlib import Path
        built = [p.cluster for p in plans
                 if Path(root, f"{p.cluster}.sqlite").exists()]
        if built:
            return die(f"federation at {root} already has shards "
                       f"{built}; use --append to extend them")
    federated = (FederatedFacility(FederationLayout.open(root), plans)
                 if existed else FederatedFacility.plan(root, plans))

    with _telemetry_run(args, "federation.simulate",
                        clusters=len(plans)) as run:
        try:
            results = federated.run(
                archive=args.with_archives,
                shard_workers=args.shard_workers,
                append=args.append,
                through_day=args.ingest_days,
                fast_writes=args.fast_writes,
                with_syslog=not args.no_syslog,
                **_file_path_knobs(args))
        except ValueError as e:
            return die(str(e))
        run.manifest = dict(
            systems=[p.cluster for p in plans],
            extra={
                "federation": root,
                "jobs_simulated": sum(r["jobs"] for r in results.values()),
                "shard_workers": args.shard_workers,
            },
        )

    if not args.quiet:
        for cluster, r in sorted(results.items()):
            line = (f"[{cluster}] {r['jobs']} jobs simulated, "
                    f"{r['summarized']} with full summaries, "
                    f"{r['node_hours']:,.0f} node-hours, "
                    f"efficiency {r['efficiency']:.1%}")
            if r["delta"]:
                line += f" — ingest delta ({r['mode']}): {r['delta']}"
            print(line)
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
            batch_segments=args.live_batch_segments,
            synthesis=args.synthesis)
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


def _run_single(args, cfg, facility, warehouse) -> int:
    """One system, one offline pass: the archive tool chain with
    ``--archive``, the in-memory fast path without."""
    with _telemetry_run(args, "simulate", system=cfg.name,
                        path="archive" if args.archive else "fast") as run:
        if args.archive:
            result = facility.run_with_files(
                args.archive, warehouse=warehouse,
                ingest_mode="append" if args.append else "full",
                ingest_through_day=args.ingest_days,
                **_file_path_knobs(args))
        else:
            result = facility.run(warehouse=warehouse,
                                  with_syslog=not args.no_syslog)
        report = result.ingest_report
        extra = {"jobs_simulated": len(result.records)}
        if report is not None:
            extra["ingest_mode"] = report.mode
            if report.delta is not None:
                extra["ingest_delta"] = report.delta.to_dict()
        run.manifest = dict(
            systems=[cfg.name],
            ingest_health=(report.health.to_dict()
                           if report is not None
                           and report.health is not None else None),
            effective_workers=(report.effective_workers
                               if report is not None else 1),
            extra=extra,
        )

    if not args.quiet:
        q = result.query()
        print(f"[{cfg.name}] {len(result.records)} jobs simulated, "
              f"{len(q)} with full summaries, "
              f"{q.node_hours:,.0f} node-hours, "
              f"efficiency {1 - q.weighted_mean('cpu_idle'):.1%} "
              f"({run.elapsed:.1f}s)")
        if result.archive_stats is not None:
            s = result.archive_stats
            print(f"archive: {s.file_count} files, "
                  f"{s.raw_bytes / 1e6:.1f} MB raw, "
                  f"{s.compression_ratio:.1f}x gzip")
        if report is not None and report.delta is not None:
            print(f"ingest delta ({report.mode}): {report.delta}")
        if report is not None and report.health is not None:
            print(f"ingest health: {report.health}")
        print(f"warehouse: {args.warehouse}")
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
    args = build_parser().parse_args(argv)
    if args.workers < 1 or args.ingest_workers < 1:
        return die("--workers and --ingest-workers must be >= 1")
    if args.batch_size < 1:
        return die("--batch-size must be >= 1")
    if args.max_retries < 0:
        return die("--max-retries must be >= 0")
    if args.clusters and not args.federation:
        return die("--clusters requires --federation DIR")
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
        if args.archive_format != "text":
            return die("--live writes the text archive format")
        if args.workers != 1 or args.ingest_workers != 1:
            return die("--live replays in-process; drop --workers/"
                       "--ingest-workers")
        if args.no_syslog:
            return die("--live always generates the syslog stream")
        if args.live_segment_seconds < 1:
            return die("--live-segment-seconds must be >= 1")
        if args.live_batch_segments < 1:
            return die("--live-batch-segments must be >= 1")
        if (args.live_max_batches is not None
                and args.live_max_batches < 1):
            return die("--live-max-batches must be >= 1")
        if args.live_sleep < 0:
            return die("--live-sleep must be >= 0")
    if args.federation:
        return _run_federation(args)
    if args.with_archives or args.shard_workers != 1:
        return die("--with-archives/--shard-workers are federation-mode "
                   "flags (pass --federation DIR)")
    if not args.warehouse:
        return die("--warehouse is required (or --federation DIR for "
                   "federation mode)")
    if args.append and not args.archive:
        return die("--append requires --archive (the ingest ledger "
                   "tracks archive files)")
    if args.archive_format != "text" and not args.archive:
        return die("--archive-format requires --archive (the fast path "
                   "writes no files)")
    if args.synthesis != "fast" and not args.archive:
        return die("--synthesis requires --archive (without an archive "
                   "no replay runs at all)")
    if args.ingest_days is not None:
        if not args.archive:
            return die("--ingest-days requires --archive")
        if args.append:
            return die("--ingest-days only windows a full ingest; "
                       "--append derives its window from the ledger")
        if args.ingest_days < 1:
            return die("--ingest-days must be >= 1")
    cfg = config_from_args(args)
    with closing(Warehouse(args.warehouse,
                           fast_writes=args.fast_writes)) as warehouse:
        if cfg.name in warehouse.systems() and not args.append:
            return die(f"system {cfg.name!r} already present in "
                       f"{args.warehouse}; use a fresh file, another "
                       f"system, or --append to ingest incrementally")
        kernels = None
        if args.appkernels:
            from repro.xdmod.appkernels import DEFAULT_KERNELS
            kernels = DEFAULT_KERNELS
        facility = Facility(cfg, seed=args.seed,
                            policy=_policy(args.policy), appkernels=kernels)
        run_mode = _run_live if args.live else _run_single
        return run_mode(args, cfg, facility, warehouse)


if __name__ == "__main__":
    sys.exit(main())
