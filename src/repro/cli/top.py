"""``repro-top``: a terminal top-N view of live per-job rates.

Examples::

    repro-top --warehouse ranger.sqlite --system ranger
    repro-top --url http://127.0.0.1:8810 --system ranger -i 5 -r 0
    repro-top --warehouse ranger.sqlite --system ranger --user u007
    repro-top --warehouse ranger.sqlite --system ranger --json -r 3

Rates are computed *between successive polls* of the warehouse's live
job-counter table (glljobstat-style monotonic-counter deltas, wrap-safe
at 2^48): the first poll only establishes a baseline, every later poll
prints units-per-second over the elapsed window.  ``--warehouse`` polls
a SQLite file directly (rereading the on-disk generation, so an
external ``repro-simulate --live`` feeding the same file is picked up);
``--url`` polls a running ``repro-serve`` instead, whose per-client
rate engine keys off ``--client``.

The TREND column is a sparkline of each job's ordering-metric rate
across this invocation's windows.  ``--json`` emits one JSON document
per poll for scripting; see docs/OBSERVABILITY.md ("Live monitoring").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.cli.common import die, pipe_safe
from repro.live.rates import (
    LIVE_COUNTER_METRICS,
    RateEngine,
    top_jobs,
    total_rates,
)
from repro.util.textchart import sparkline

#: Column headers for the four live counter metrics, in metric order.
_HEADERS = {
    "flops_gf": "GFLOP/S",
    "cpu_user_frac": "CPU-S/S",
    "io_scratch_write_mb": "IO-MB/S",
    "net_mpi_mb": "NET-MB/S",
}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-top`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--warehouse", default=None,
                        help="SQLite warehouse file to poll directly")
    source.add_argument("--url", default=None,
                        help="base URL of a running repro-serve "
                             "(e.g. http://127.0.0.1:8810)")
    parser.add_argument("--system", required=True,
                        help="system name to watch")
    parser.add_argument("-n", "--count", type=int, default=10,
                        help="jobs shown per refresh (default 10)")
    parser.add_argument("-i", "--interval", type=float, default=2.0,
                        help="seconds between polls (default 2.0)")
    parser.add_argument("-r", "--repeat", type=int, default=2,
                        help="total polls, including the baseline; "
                             "0 polls until interrupted (default 2)")
    parser.add_argument("--metric", default="flops_gf",
                        choices=sorted(LIVE_COUNTER_METRICS),
                        help="rate metric to rank by "
                             "(default flops_gf)")
    parser.add_argument("--user", default=None,
                        help="only this user's jobs")
    parser.add_argument("--app", default=None,
                        help="only this application's jobs")
    parser.add_argument("--client", default="repro-top",
                        help="rate-engine client name for --url mode "
                             "(default repro-top)")
    parser.add_argument("--json", action="store_true",
                        help="one JSON document per poll instead of "
                             "tables")
    return parser


def _poll_warehouse(warehouse, engine: RateEngine, system: str,
                    args: argparse.Namespace) -> dict:
    """One direct-SQL poll shaped like ``GET /api/v1/live/top``."""
    warehouse.reread_generation()
    samples = warehouse.live_counters(system)
    rates = engine.observe(samples)
    top = top_jobs(rates, n=args.count, order_by=args.metric,
                   user=args.user, app=args.app)
    return {
        "system": system,
        "order_by": args.metric,
        "n": args.count,
        "t": max((s["t"] for s in samples), default=0.0),
        "jobs_observed": len(samples),
        "baseline": bool(samples) and not rates,
        "total": total_rates(rates),
        "jobs": [r.to_dict() for r in top],
    }


def _poll_url(base: str, system: str, args: argparse.Namespace) -> dict:
    """One poll against a running ``repro-serve``."""
    params = {"system": system, "n": str(args.count),
              "metric": args.metric, "client": args.client}
    if args.user:
        params["user"] = args.user
    if args.app:
        params["app"] = args.app
    url = (base.rstrip("/") + "/api/v1/live/top?"
           + urllib.parse.urlencode(params))
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read().decode())


def render_table(poll: dict, trend: dict[str, list[float]],
                 order_by: str) -> str:
    """The human refresh: header line, per-job rows, TOTAL row."""
    lines = [
        f"repro-top — system {poll['system']}  t={poll['t']:.0f}  "
        f"jobs={poll['jobs_observed']}  order={order_by}"
    ]
    if poll["baseline"]:
        lines.append(f"  baseline established "
                     f"({poll['jobs_observed']} jobs); rates follow "
                     f"the next poll")
        return "\n".join(lines)
    if not poll["jobs"]:
        lines.append("  no active jobs in window")
        return "\n".join(lines)
    cols = [m for m in LIVE_COUNTER_METRICS]
    header = (f"  {'JOBID':<10} {'USER':<8} {'APP':<12} "
              + " ".join(f"{_HEADERS[m]:>9}" for m in cols)
              + f" {'DT':>6}  TREND")
    lines.append(header)
    for job in poll["jobs"]:
        history = trend.setdefault(job["jobid"], [])
        history.append(job["rates"].get(order_by, 0.0))
        tag = "*" if job.get("ended") else " "
        lines.append(
            f"  {job['jobid']:<10} {job['user']:<8} {job['app']:<12} "
            + " ".join(f"{job['rates'].get(m, 0.0):>9.2f}"
                       for m in cols)
            + f" {job['dt']:>6.0f}{tag} {sparkline(history)}"
        )
    total = poll["total"]
    lines.append(
        f"  {'TOTAL':<10} {'':<8} {'':<12} "
        + " ".join(f"{total.get(m, 0.0):>9.2f}" for m in cols))
    return "\n".join(lines)


@pipe_safe
def main(argv: list[str] | None = None) -> int:
    """Entry point: poll, difference, render, repeat."""
    args = build_parser().parse_args(argv)
    if args.count < 1:
        return die("--count must be >= 1")
    if args.interval < 0:
        return die("--interval must be >= 0")
    if args.repeat < 0:
        return die("--repeat must be >= 0 (0 = until interrupted)")

    warehouse = None
    engine = None
    if args.warehouse is not None:
        from repro.ingest.warehouse import Warehouse
        try:
            warehouse = Warehouse(args.warehouse)
        except Exception as e:
            return die(f"cannot open warehouse {args.warehouse!r}: {e}")
        if args.system not in warehouse.systems():
            known = ", ".join(warehouse.systems()) or "none"
            warehouse.close()
            return die(f"unknown system {args.system!r} "
                       f"(warehouse holds: {known})")
        engine = RateEngine()

    trend: dict[str, list[float]] = {}
    polls = 0
    try:
        while args.repeat == 0 or polls < args.repeat:
            if polls:
                time.sleep(args.interval)
            try:
                if warehouse is not None:
                    poll = _poll_warehouse(warehouse, engine,
                                           args.system, args)
                else:
                    poll = _poll_url(args.url, args.system, args)
            except urllib.error.HTTPError as e:
                body = e.read().decode(errors="replace")
                try:
                    code = json.loads(body)["error"]["code"]
                except (ValueError, KeyError):
                    code = f"http {e.code}"
                return die(f"service error: {code}")
            except urllib.error.URLError as e:
                return die(f"cannot reach {args.url!r}: {e.reason}")
            polls += 1
            if args.json:
                print(json.dumps(poll), flush=True)
            else:
                print(render_table(poll, trend, args.metric),
                      flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        if warehouse is not None:
            warehouse.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
