"""``repro-serve``: serve a warehouse over HTTP/JSON.

Examples::

    repro-serve --warehouse ranger.sqlite
    repro-serve --warehouse ranger.sqlite --host 0.0.0.0 --port 8810
    repro-serve --warehouse ranger.sqlite --telemetry-out serve.json
    repro-serve --federation fed/

``--federation DIR`` serves a directory of warehouse shards (created
by ``repro-simulate --federation``; docs/FEDERATION.md): per-system
requests route to the owning shard unchanged, ``system=all`` answers
cross-cluster scatter-gather queries, and two extra endpoints appear
(``GET /api/v1/clusters``, ``GET /api/v1/federation/overview``).

The server is read-only and stateless: every request resolves the
current shared :class:`~repro.xdmod.snapshot.WarehouseSnapshot`, so
restarting it loses nothing but warm caches.  Concurrent ingest into
the same file is adopted with ``POST /api/v1/refresh`` (an O(delta)
snapshot swap).  See docs/SERVICE.md for the protocol; scrape
Prometheus metrics at ``/metrics``.  On shutdown (SIGINT/SIGTERM) a
telemetry manifest is written when ``--telemetry-out`` is given —
inspect it with ``repro-diagnose --telemetry``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before the imports: they are timed first

import argparse
import signal
import sys

from repro.cli.common import die
from repro.service.server import RequestHandler, make_server
from repro.service.state import ServiceState
from repro.telemetry.log import run_scope
from repro.telemetry.manifest import build_manifest
from repro.telemetry.metrics import get_registry

#: Stamp -> every module this process serves with is loaded.
_IMPORT_SECONDS = time.perf_counter() - _T0


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-serve`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--warehouse", default=None,
                        help="SQLite warehouse file to serve")
    parser.add_argument("--federation", default=None, metavar="DIR",
                        help="federation directory of warehouse shards "
                             "to serve (alternative to --warehouse)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8810,
                        help="bind port; 0 picks a free one "
                             "(default 8810)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="per-tenant L1 report-cache capacity "
                             "(default 256)")
    parser.add_argument("--max-tenants", type=int, default=64,
                        help="most tenant LRUs kept live; the least-"
                             "recently-used whole tenant is evicted "
                             "beyond this (default 64)")
    parser.add_argument("--log-requests", action="store_true",
                        help="log one stderr line per request")
    parser.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="on shutdown, write the serving period's "
                             "telemetry manifest (request counts, cache "
                             "hits, latency histogram) as JSON to PATH")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; serves until SIGINT/SIGTERM."""
    entered = time.perf_counter()
    args = build_parser().parse_args(argv)
    if args.cache_size < 1:
        return die("--cache-size must be >= 1")
    if args.max_tenants < 1:
        return die("--max-tenants must be >= 1")
    if bool(args.warehouse) == bool(args.federation):
        return die("pass exactly one of --warehouse / --federation")
    source = args.federation or args.warehouse
    opening = time.perf_counter()
    try:
        state = ServiceState(warehouse_path=args.warehouse,
                             cache_capacity=args.cache_size,
                             max_tenants=args.max_tenants,
                             federation_root=args.federation)
    except Exception as e:
        what = "federation" if args.federation else "warehouse"
        return die(f"cannot open {what} {source!r}: {e}")
    open_seconds = time.perf_counter() - opening
    systems = state.store.all_systems()
    if not systems:
        state.close()
        return die(f"{source!r} holds no systems")

    RequestHandler.log_requests = args.log_requests
    server = make_server(state, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # The cold start, explained from the inside (docs/SERVICE.md "Cold
    # start"): what a restart costs before the socket exists.
    registry = get_registry()
    registry.gauge("service.startup.import_seconds").set(_IMPORT_SECONDS)
    registry.gauge("service.startup.open_seconds").set(open_seconds)
    registry.gauge("service.startup.seconds").set(
        _IMPORT_SECONDS + time.perf_counter() - entered)
    registry.gauge("process.modules_loaded").set(len(sys.modules))
    if not args.quiet:
        what = (f"federation {source} "
                f"[{', '.join(state.store.clusters)}]"
                if args.federation else source)
        print(f"serving {what} ({', '.join(systems)}) "
              f"on http://{host}:{port} — Ctrl-C stops", flush=True)

    # CI and process managers stop us with SIGTERM; turn it into the
    # same clean unwind KeyboardInterrupt gives Ctrl-C.
    signal.signal(signal.SIGTERM,
                  lambda *_: (_ for _ in ()).throw(SystemExit(0)))
    with run_scope() as run_id:
        try:
            server.serve_forever()
        except (KeyboardInterrupt, SystemExit):
            pass
        finally:
            # Handler threads are daemons, so server_close does not
            # join them; drain the dispatched requests first so none
            # dies on the closed warehouse connection below (late
            # arrivals on open keep-alive connections get a 503).
            server.drain()
            server.server_close()
            state.close()
            if args.telemetry_out:
                manifest = build_manifest(
                    systems=systems,
                    extra={"warehouse": source,
                           "bind": f"{host}:{port}"},
                )
                path = manifest.write(args.telemetry_out)
                if not args.quiet:
                    print(f"telemetry manifest: {path} (run {run_id})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
