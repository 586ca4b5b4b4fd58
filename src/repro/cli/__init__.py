"""Command-line tools.

The paper's tool chain is operated from cron jobs and admin shells; this
package provides the equivalent operational surface:

* ``repro-simulate`` — run a simulated facility and persist the warehouse
  (optionally the full text-format archive);
* ``repro-report`` — render any stakeholder report from a warehouse;
* ``repro-stats-cat`` — inspect a TACC_Stats archive file (header,
  schemas, blocks, job windows);
* ``repro-persistence`` — print Table 1 / the Figure 6 fit for a system;
* ``repro-diagnose`` — ANCOR-style failure diagnosis and the mined
  anomaly→failure association table;
* ``repro-export`` — dump any aggregate/profile/series/density as CSV or
  chart JSON;
* ``repro-serve`` — serve reports/queries/timeseries over HTTP/JSON
  (the dashboard back end; see docs/SERVICE.md).

All entry points accept ``--help`` and return a nonzero exit status on
error, so they compose in shell pipelines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cli.diagnose": ("diagnose_main=main",),
    "repro.cli.export": ("export_main=main",),
    "repro.cli.persistence": ("persistence_main=main",),
    "repro.cli.report": ("report_main=main",),
    "repro.cli.serve": ("serve_main=main",),
    "repro.cli.simulate": ("simulate_main=main",),
    "repro.cli.stats_cat": ("stats_cat_main=main",),
})
