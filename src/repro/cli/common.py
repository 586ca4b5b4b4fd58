"""Shared CLI plumbing."""

from __future__ import annotations

import functools
import os
import signal
import sys

from repro._lazy import lazy_exports

# The simulation-facing names live with their one user and pull in
# repro.config; resolved on first use, so the read-side tools, which
# only want die(), load neither.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cli.simulate": ("SYSTEMS", "add_system_args", "config_from_args"),
})
__all__ += ["UsageError", "add_store_args", "die", "one_selected",
            "open_store", "pipe_safe", "selected"]


def die(message: str, code: int = 2) -> "int":
    """Print an error to stderr; returns the exit code to propagate."""
    print(f"error: {message}", file=sys.stderr)
    return code


class UsageError(Exception):
    """The flags name nothing to read; ``str()`` is the :func:`die` text."""


def add_store_args(parser) -> None:
    """The flags that name a store and what to read in it.

    ``--warehouse FILE --system S`` and ``--federation DIR --cluster C``
    are two spellings of "this shard, this system": a tool resolves
    both through :func:`open_store` and :func:`selected`, so whatever
    else it can do, it can do for either spelling.
    """
    parser.add_argument("--warehouse", default=None,
                        help="SQLite warehouse file (with --system)")
    parser.add_argument("--system", default=None,
                        help="system inside the warehouse; required with "
                             "--warehouse, with --federation only for a "
                             "shard that holds several")
    parser.add_argument("--federation", default=None, metavar="DIR",
                        help="federation directory of warehouse shards "
                             "(alternative to --warehouse)")
    parser.add_argument("--cluster", default=None,
                        help="the one member cluster to read (required "
                             "by whatever reads a single system)")


def open_store(args):
    """Open what ``--warehouse`` or ``--federation`` names as the one
    kind of store there is; the caller closes it.

    The flag picks the constructor, never the look of the path: SQLite
    creates a file that does not exist, so a mistyped ``--federation
    nope/`` taken for a file would leave an empty database behind
    instead of an error.
    """
    from repro.federation.federated import FederatedWarehouse

    if args.federation and args.warehouse:
        raise UsageError("--warehouse and --federation are different "
                         "modes; pick one")
    if args.federation:
        try:
            return FederatedWarehouse.open(args.federation)
        except (FileNotFoundError, ValueError) as e:
            raise UsageError(str(e)) from e
    if not args.warehouse or not args.system:
        raise UsageError("--warehouse and --system are required "
                         "(or --federation DIR [--cluster C])")
    return FederatedWarehouse.open_file(args.warehouse)


def selected(args, store) -> list:
    """Every ``(shard, system)`` the flags select, in scatter order:
    all of them, narrowed by ``--cluster`` and then by ``--system``."""
    clusters = store.clusters
    if args.cluster:
        if args.cluster not in clusters:
            raise UsageError(f"cluster {args.cluster!r} not in "
                             f"federation; has: {clusters}")
        clusters = [args.cluster]
    pairs = [(store.shard(cluster), system) for cluster in clusters
             for system in store.shard(cluster).systems()
             if args.system in (None, system)]
    if args.system and not pairs:
        raise UsageError(f"system {args.system!r} not in "
                         f"{args.warehouse or args.federation}; has: "
                         f"{store.all_systems()}")
    return pairs


def one_selected(args, store, what: str) -> tuple:
    """The single ``(shard, system)`` that *what* (a report, a
    diagnosis, a verification) reads — never a silent pick among many."""
    pairs = selected(args, store)
    if len(pairs) == 1:
        return pairs[0]
    if not args.cluster:
        raise UsageError(f"{what} needs --cluster "
                         f"(federation has: {store.clusters})")
    raise UsageError(f"--system must be one of "
                     f"{[system for _shard, system in pairs]} for "
                     f"cluster {args.cluster!r}")


def pipe_safe(main):
    """Decorate a printing tool's ``main``: when the reader of stdout
    goes away (``repro-report … | head``) the tool stops quietly with
    the status a SIGPIPE death would give, instead of a traceback."""
    @functools.wraps(main)
    def wrapper(argv: list[str] | None = None) -> int:
        try:
            code = main(argv)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # What is still buffered can go nowhere; point stdout at
            # /dev/null so the interpreter's exit flush does not print
            # "Exception ignored ... BrokenPipeError" either.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 128 + signal.SIGPIPE
    return wrapper
