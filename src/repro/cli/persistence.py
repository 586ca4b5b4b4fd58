"""``repro-persistence``: Table 1 / Figure 6 from a warehouse.

Example::

    repro-persistence --warehouse ranger.sqlite --system ranger
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import die, pipe_safe
from repro.ingest.warehouse import Warehouse
from repro.util.tables import render_table
from repro.xdmod.persistence import PersistenceAnalysis


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-persistence`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-persistence",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--warehouse", required=True)
    parser.add_argument("--system", required=True)
    parser.add_argument("--offsets", default="10,30,100,500,1000",
                        help="comma-separated offsets in minutes")
    return parser


@pipe_safe
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        offsets = tuple(int(x) for x in args.offsets.split(","))
        if not offsets or any(o <= 0 for o in offsets):
            raise ValueError
    except ValueError:
        return die("--offsets wants positive comma-separated minutes")

    warehouse = Warehouse(args.warehouse)
    try:
        if args.system not in warehouse.systems():
            return die(f"system {args.system!r} not in {args.warehouse}")
        try:
            analysis = PersistenceAnalysis(warehouse, args.system,
                                           offsets_min=offsets)
            table = analysis.table()
        except (KeyError, ValueError) as e:
            return die(f"cannot compute persistence: {e}", code=1)
        rows = []
        for off in table[0].offsets_min:
            row = {"offset(min)": off}
            for r in table:
                k = (r.offsets_min.index(off)
                     if off in r.offsets_min else None)
                row[r.metric] = (f"{r.ratios[k]:.3f}"
                                 if k is not None else "-")
            rows.append(row)
        rows.append({"offset(min)": "fit R^2",
                     **{r.metric: f"{r.fit_r_squared:.3f}" for r in table}})
        print(render_table(rows,
                           ["offset(min)"] + [r.metric for r in table],
                           title=f"Persistence — {args.system}"))
        print(f"\ncombined fit: {analysis.combined_fit().summary()}")
        print("least predictable first: "
              + " < ".join(analysis.predictability_order()))
        return 0
    finally:
        warehouse.close()


if __name__ == "__main__":
    sys.exit(main())
