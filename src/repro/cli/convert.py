"""``repro-convert``: convert a stats archive between text and v2.

Examples::

    repro-convert --archive /tmp/ls4-stats --to v2
    repro-convert --archive /tmp/ls4-stats --to text --out /tmp/ls4-text

Conversion is lossless and ledger-preserving: text -> v2 stores the text
path's fingerprint in the v2 header and is verified to round-trip back
to the exact source bytes before the source is replaced; v2 -> text
regenerates the original stored bytes (same gzip parameters), so an
``ingest --append`` over a converted archive consumes zero files.
Files that cannot be converted losslessly (corrupt or non-canonical)
are passed through untouched and listed on stderr — a later ingest
quarantines them exactly as it would have before conversion.  See
docs/FORMAT.md ("Archive v2 columnar layout").
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import die
from repro.tacc_stats.convert import convert_archive


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-convert`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-convert",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--archive", required=True,
                        help="archive root directory to convert")
    parser.add_argument("--to", required=True, choices=("text", "v2"),
                        help="target on-disk format")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write the converted tree here instead of "
                             "replacing files in place (source archive "
                             "is left untouched)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the text->v2 round-trip proof "
                             "(faster; conversion is still refused for "
                             "unparseable files)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    from pathlib import Path

    if not Path(args.archive).is_dir():
        return die(f"no such archive directory: {args.archive}")
    report = convert_archive(args.archive, to=args.to,
                             out_root=args.out,
                             verify=not args.no_verify)
    for path in report.passthrough:
        print(f"passthrough (not convertible): {path}", file=sys.stderr)
    for path in report.drifted:
        print(f"fingerprint drift (an append onto a warehouse that "
              f"ingested it will refuse it as mutated; re-ingest in "
              f"full): {path}", file=sys.stderr)
    if not args.quiet:
        dest = args.out or args.archive
        print(f"{dest}: {report} "
              f"({report.bytes_in / 1e6:.1f} MB -> "
              f"{report.bytes_out / 1e6:.1f} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
