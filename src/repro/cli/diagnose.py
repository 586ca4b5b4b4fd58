"""``repro-diagnose``: ANCOR-style failure diagnosis from a warehouse.

Examples::

    repro-diagnose --warehouse ranger.sqlite --system ranger
    repro-diagnose --warehouse ranger.sqlite --system ranger --job 2000123
    repro-diagnose --warehouse ranger.sqlite --system ranger --associations
    repro-diagnose --warehouse ranger.sqlite --system ranger --ingest-health
    repro-diagnose --warehouse ranger.sqlite --system ranger --ledger
    repro-diagnose --warehouse ranger.sqlite --system ranger --verify arch/
    repro-diagnose --telemetry manifest.json

``--telemetry`` inspects a run manifest written by ``repro-simulate
--telemetry-out`` (stage span tree, slowest hosts, counter totals) and
needs no warehouse.

A federation directory (docs/FEDERATION.md) is read the same way::

    repro-diagnose --federation fed/ --ledger
    repro-diagnose --federation fed/ --cluster ranger --verify arch/

``--federation DIR --cluster C`` and ``--warehouse DIR/C.sqlite
--system C`` are two spellings of one shard.  Without ``--cluster`` the
ledger/ingest-health views print one section per shard; ANCOR diagnosis
and ``--verify`` read a single system, so they need ``--cluster``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing

from repro.anomaly.ancor import AncorAnalysis
from repro.cli.common import (
    UsageError,
    add_store_args,
    die,
    one_selected,
    open_store,
    pipe_safe,
    selected,
)
from repro.ingest.columnar_scan import JobScanState, scan_host
from repro.ingest.warehouse import Warehouse
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.parser import ParseError
from repro.telemetry.manifest import RunManifest
from repro.telemetry.trace import render_span_tree
from repro.util.tables import render_kv, render_table


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-diagnose`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-diagnose",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_store_args(parser)
    parser.add_argument("--job", default=None,
                        help="diagnose one job id (default: all failures)")
    parser.add_argument("--associations", action="store_true",
                        help="print the mined anomaly->failure table")
    parser.add_argument("--limit", type=int, default=10,
                        help="max failures to print (default 10)")
    parser.add_argument("--ingest-health", action="store_true",
                        help="print the stored ingest-health accounting "
                             "(hosts ok/degraded/dropped, quarantined "
                             "records, retries) for the system")
    parser.add_argument("--ledger", action="store_true",
                        help="print the ingest ledger (consumed archive "
                             "host-days with fingerprints, status and "
                             "open-job counts; the cells the next append "
                             "may re-read, the scan states kept for open "
                             "jobs and the ten oldest open jobs) "
                             "and the recorded ingest runs with their "
                             "appended row ranges")
    parser.add_argument("--verify", default=None, metavar="ARCHIVE",
                        help="check the ledger against the archive "
                             "directory it was ingested from, trusting "
                             "nothing: every ledgered file is hashed again "
                             "(an append re-hashes only files whose size or "
                             "mtime changed) and every kept scan state is "
                             "recomputed from the files; exits 1 on any "
                             "difference")
    parser.add_argument("--telemetry", default=None, metavar="MANIFEST",
                        help="inspect a telemetry manifest JSON (from "
                             "repro-simulate --telemetry-out): span tree, "
                             "slowest hosts, counter totals")
    parser.add_argument("--min-ms", type=float, default=0.0,
                        help="with --telemetry, hide spans faster than "
                             "this many milliseconds")
    return parser


def _print_telemetry(manifest: RunManifest, min_ms: float) -> None:
    """Render one run manifest: spans, slowest hosts, counters, health."""
    print(render_kv({
        "run": manifest.run_id,
        "systems": ", ".join(manifest.systems) or "(none)",
        "effective ingest workers": manifest.effective_workers,
    }, title="Run telemetry"))
    if manifest.stages:
        print("\nstage timings:")
        print(render_span_tree(manifest.stages, min_ms=min_ms))
    else:
        # An explicit line beats silence: an empty tree usually means
        # the run was traced with a reset registry or the producer
        # never entered a span, and the operator should know which.
        print("\nstage timings: no spans recorded")
    if manifest.slowest_hosts:
        print("\nslowest hosts (scan wall time):")
        for host, seconds in manifest.slowest_hosts:
            print(f"  {host:<32} {seconds * 1000.0:>10.1f} ms")
    counters = manifest.metrics.counters
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name:<36} {counters[name]:>14,.0f}")
    if manifest.ingest_health is not None:
        _print_ingest_health(manifest.ingest_health,
                             ", ".join(manifest.systems) or "run")


def _print_ingest_health(payload: dict | None, system: str) -> None:
    """Render the warehouse's stored ingest-health accounting."""
    from repro.errors import IngestHealth

    if payload is None:
        print(f"no ingest-health record for {system!r} "
              f"(the ingest ran with the strict policy)")
        return
    health = IngestHealth.from_dict(payload)
    print(render_kv({
        "policy": health.policy,
        "hosts ok": len(health.hosts_ok),
        "hosts degraded": len(health.hosts_degraded) or "(none)",
        "hosts dropped": ", ".join(health.hosts_dropped) or "(none)",
        "records quarantined": health.records_quarantined,
        "retries": health.total_retries,
    }, title=f"Ingest health — {system}"))
    for rec in health.quarantined[:20]:
        where = rec.path if rec.lineno is None else f"{rec.path}:{rec.lineno}"
        print(f"  {rec.hostname}: [{rec.kind}] {where} — {rec.error}")
    if health.records_quarantined > 20:
        print(f"  ... and {health.records_quarantined - 20} more "
              f"(see the archive's quarantine/ sidecar)")


def _print_ledger(warehouse: Warehouse, system: str) -> None:
    """Render the ingest ledger and the recorded ingest runs."""
    ledger = warehouse.ledger_map(system)
    if not ledger:
        print(f"no ingest ledger for {system!r} (the warehouse was "
              f"filled by the fast path or predates the ledger)")
        return
    days = sorted({day for _h, day in ledger})
    by_status: dict[str, int] = {}
    #: open job id -> the labels of the cells that still carry it.
    open_cells: dict[str, list[str]] = {}
    n_open = n_unknown = 0
    for (_host, day), entry in ledger.items():
        by_status[entry.status] = by_status.get(entry.status, 0) + 1
        if entry.open_jobs is None:
            n_unknown += 1
        elif entry.open_jobs:
            n_open += 1
            for jobid in entry.open_jobs:
                open_cells.setdefault(jobid, []).append(day)
    states = warehouse.scan_states(system)
    oldest = sorted(open_cells.items(), key=lambda kv: (min(kv[1]), kv[0]))
    print(render_kv({
        "host-days consumed": len(ledger),
        "days": f"{days[0]} .. {days[-1]} ({len(days)})",
        "status": ", ".join(f"{k}={v}"
                            for k, v in sorted(by_status.items())),
        "cells with open jobs": f"{n_open} (continued from scan state, "
                                f"or re-read where none was kept)",
        "cells with no job record": f"{n_unknown} (re-read whenever a "
                                    f"pending job spans their segment)",
        "scan states kept": f"{len(states)} (host, open job) rows, "
                            f"{sum(map(len, states.values())):,} bytes",
        "oldest open job": f"{oldest[0][0]} (since {min(oldest[0][1])})"
        if oldest else "(none)",
    }, title=f"Ingest ledger — {system}"))
    if open_cells:
        oldest = oldest[:10]
        print(render_table([
            {"job": jobid, "first": min(cells), "last": max(cells),
             "cells": len(cells)}
            for jobid, cells in oldest
        ], ["job", "first", "last", "cells"],
            title=f"Oldest open jobs ({len(open_cells)} open; mentioned "
                  f"by a consumed file, not loaded)"))
    rows = [
        {"host": host, "day": day,
         "size": f"{entry.size:,}",
         "sha256": entry.sha256[:12],
         "status": entry.status,
         "open": "?" if entry.open_jobs is None else len(entry.open_jobs),
         "run": entry.run_id}
        for (host, day), entry in sorted(ledger.items())
    ]
    print(render_table(
        rows, ["host", "day", "size", "sha256", "status", "open", "run"],
        title="Consumed host-days",
    ))
    runs = warehouse.ingest_runs(system)
    if runs:
        print(render_table([
            {"run": r["run_id"], "mode": r["mode"],
             **{t: f"{lo}..{hi}" if hi > lo else "-"
                for t, (lo, hi) in sorted(r["row_ranges"].items())}}
            for r in runs
        ], ["run", "mode", "jobs", "job_metrics", "system_series",
            "syslog_events"],
            title="Ingest runs (appended rowid ranges, half-open)"))


def _verify(warehouse: Warehouse, system: str, root: str) -> int:
    """The untrusting pass: hash every ledgered file of the archive at
    *root* again and recompute every kept scan state from the files;
    prints what differs and returns the exit status."""
    archive = HostArchive(root)
    ledger = warehouse.ledger_map(system)
    manifest = archive.manifest()
    problems = []
    for cell, entry in sorted(ledger.items()):
        if cell not in manifest:
            problems.append(("/".join(cell), "ledgered file is missing"))
        elif manifest[cell].sha256 != entry.sha256:
            problems.append(("/".join(cell), "content differs from the "
                             "ingested file (sha256)"))
    kept: dict[str, dict[str, bytes]] = {}
    for (host, jobid), blob in warehouse.scan_states(system).items():
        kept.setdefault(host, {})[jobid] = blob
    for host, blobs in sorted(kept.items()):
        paths = [manifest[cell].path for cell in sorted(ledger)
                 if cell[0] == host and cell in manifest]
        try:
            fresh = scan_host(archive, host, allow_truncated=True,
                              paths=paths)[0].states
        except (ParseError, ValueError, OSError) as e:
            problems.append((host, f"cannot be scanned again: {e}"))
            continue
        problems.extend(
            (f"{host}/{jobid}", "scan state differs from a scan of the "
             "ledgered files") for jobid, blob in sorted(blobs.items())
            if fresh.get(jobid) != JobScanState.from_blob(blob))
    print(f"verified {len(ledger)} ledgered files and "
          f"{sum(map(len, kept.values()))} scan states of {system!r} "
          f"against {root}: {len(problems) or 'no'} differences")
    for what, why in problems:
        print(f"  {what}: {why}")
    return 1 if problems else 0


def _print_diagnosis(d) -> None:
    print(render_kv({
        "job": d.jobid,
        "user": d.user,
        "app": d.app,
        "exit": d.exit_status,
        "failure events": ", ".join(d.failure_events) or "(none)",
        "anomalies": ", ".join(
            f"{a.metric}({a.robust_z:+.1f})" for a in d.anomalies
        ) or "(none)",
        "lead time": f"{d.lead_time_s / 60:.0f} min"
        if d.lead_time_s is not None else "-",
    }, title=f"Diagnosis — job {d.jobid}"))
    for hypothesis, score in d.hypotheses[:3]:
        print(f"  -> {hypothesis} (score {score:.1f})")
    print()


def _diagnose_one(args, warehouse: Warehouse, system: str) -> int:
    """The ANCOR diagnosis flows against one (warehouse, system)."""
    ancor = AncorAnalysis(warehouse, system)

    if args.associations:
        rows = [
            {"metric": a.metric, "failure": a.kind,
             "lift": f"{a.lift:.1f}",
             "confidence": f"{a.confidence:.1%}",
             "support": a.support}
            for a in ancor.association_table()
        ]
        if not rows:
            print("no associations with sufficient support")
            return 0
        print(render_table(
            rows, ["metric", "failure", "lift", "confidence",
                   "support"],
            title=f"Anomaly -> failure associations — {system}",
        ))
        return 0

    if args.job:
        try:
            _print_diagnosis(ancor.diagnose(args.job))
        except KeyError as e:
            return die(str(e), code=1)
        return 0

    diagnoses = ancor.diagnose_failures()
    if not diagnoses:
        print("no diagnosable failures")
        return 0
    lead = ancor.mean_lead_time()
    print(f"{len(diagnoses)} diagnosable failures"
          + (f"; mean warning window {lead / 60:.0f} min"
             if lead is not None else "") + "\n")
    for d in diagnoses[: args.limit]:
        _print_diagnosis(d)
    return 0


@pipe_safe
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)

    if args.telemetry:
        try:
            manifest = RunManifest.read(args.telemetry)
        except (OSError, ValueError) as e:
            return die(f"cannot read telemetry manifest: {e}")
        _print_telemetry(manifest, args.min_ms)
        return 0

    try:
        with closing(open_store(args)) as store:
            if args.verify and not args.ledger:
                return _verify(*one_selected(args, store, "--verify"),
                               args.verify)
            if args.ledger or args.ingest_health:
                pairs = selected(args, store)
                for i, (shard, system) in enumerate(pairs):
                    if i and shard is not pairs[i - 1][0]:
                        print()  # between shards
                    if args.ledger:
                        _print_ledger(shard, system)
                    else:
                        _print_ingest_health(
                            shard.ingest_health(system), system)
                return 0
            return _diagnose_one(
                args, *one_selected(args, store, "ANCOR diagnosis"))
    except UsageError as e:
        return die(str(e))


if __name__ == "__main__":
    sys.exit(main())
