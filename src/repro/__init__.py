"""repro: a working reproduction of "Enabling Comprehensive Data-Driven
System Management for Large Computational Facilities" (SC13).

The package rebuilds the paper's full tool chain against a simulated
facility: the TACC_Stats job-aware collector suite and text format, the
Lariat job summarizer, the rationalized syslog, the SUPReMM ingest
pipeline into a relational warehouse, and the XDMoD-style analytics that
regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import Facility, RANGER
    from repro.xdmod import UsageProfiler

    run = Facility(RANGER.scaled(num_nodes=128, horizon_days=30),
                   seed=42).run()
    profiler = UsageProfiler(run.query())
    for p in profiler.top_profiles("user", 5):      # Figure 2
        print(p.entity, p.values)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.config": (
        "LONESTAR4", "RANGER", "STAMPEDE", "TEST_SYSTEM", "FacilityConfig"
    ),
    "repro.facility": ("Facility", "FacilityRun"),
    "repro.ingest.vocabulary": ("KEY_METRICS", "SUMMARY_METRICS"),
    "repro.ingest.warehouse": ("Warehouse",),
})

__version__ = "1.0.0"
__all__.append("__version__")
