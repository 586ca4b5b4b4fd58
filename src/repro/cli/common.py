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
__all__ += ["die", "pipe_safe"]


def die(message: str, code: int = 2) -> "int":
    """Print an error to stderr; returns the exit code to propagate."""
    print(f"error: {message}", file=sys.stderr)
    return code


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
