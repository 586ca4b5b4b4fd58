"""``repro-export``: dump analytics data as CSV or chart JSON.

Examples::

    repro-export --warehouse wh.sqlite --system ranger \
        groups science_field --metric mem_used --format csv
    repro-export --warehouse wh.sqlite --system ranger \
        profile user user0042 --format json
    repro-export --warehouse wh.sqlite --system ranger series flops_tf
    repro-export --warehouse wh.sqlite --system ranger \
        density mem_used --format json -o mem.json
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import die, pipe_safe
from repro.ingest.warehouse import Warehouse
from repro.xdmod.density import metric_density
from repro.xdmod.export import (
    density_chart,
    dump_json,
    groups_chart,
    groups_to_csv,
    profile_chart,
    series_chart,
    to_csv,
)
from repro.xdmod.profiles import UsageProfiler
from repro.xdmod.query import JobQuery
from repro.xdmod.timeseries import SystemTimeseries


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-export`` (docstring = usage text)."""
    parser = argparse.ArgumentParser(
        prog="repro-export",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--warehouse", required=True)
    parser.add_argument("--system", required=True)
    parser.add_argument("--format", choices=("csv", "json"),
                        default="json")
    parser.add_argument("-o", "--output", default=None,
                        help="write to a file instead of stdout")
    sub = parser.add_subparsers(dest="what", required=True)

    p_groups = sub.add_parser("groups", help="group-by aggregates")
    p_groups.add_argument("dimension")
    p_groups.add_argument("--metric", default=None)

    p_profile = sub.add_parser("profile", help="normalized usage profile")
    p_profile.add_argument("dimension")
    p_profile.add_argument("value")

    p_series = sub.add_parser("series", help="system time series")
    p_series.add_argument("name")

    p_density = sub.add_parser("density", help="per-job metric KDE")
    p_density.add_argument("metric")
    return parser


@pipe_safe
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    warehouse = Warehouse(args.warehouse)
    try:
        if args.system not in warehouse.systems():
            return die(f"system {args.system!r} not in {args.warehouse}")
        query = JobQuery(warehouse, args.system)
        try:
            if args.what == "groups":
                metrics = (args.metric,) if args.metric else ()
                groups = query.group_by(args.dimension, metrics=metrics)
                if args.format == "csv":
                    text = groups_to_csv(groups, metrics=metrics)
                else:
                    text = dump_json(groups_chart(
                        groups, args.metric,
                        f"{args.dimension} by "
                        f"{args.metric or 'node_hours'}",
                    ))
            elif args.what == "profile":
                profile = UsageProfiler(query).profile(args.dimension,
                                                       args.value)
                if args.format == "csv":
                    text = to_csv([
                        {"metric": m, "ratio": v, "raw": profile.raw[m]}
                        for m, v in profile.values.items()
                    ])
                else:
                    text = dump_json(profile_chart(profile))
            elif args.what == "series":
                ts = SystemTimeseries(warehouse, args.system)
                series = ts._get(args.name)
                if args.format == "csv":
                    text = to_csv([
                        {"t": float(t), "value": float(v)}
                        for t, v in zip(series.times, series.values)
                    ])
                else:
                    text = dump_json(series_chart(series))
            else:  # density
                curve = metric_density(query, args.metric)
                if args.format == "csv":
                    text = to_csv([
                        {"x": float(x), "density": float(y)}
                        for x, y in zip(curve.grid, curve.density)
                    ])
                else:
                    text = dump_json(density_chart(curve))
        except (KeyError, ValueError) as e:
            return die(str(e), code=1)

        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        else:
            print(text)
        return 0
    finally:
        warehouse.close()


if __name__ == "__main__":
    sys.exit(main())
