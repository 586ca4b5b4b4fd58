"""Ingest/ETL: raw TACC_Stats + accounting + Lariat → data warehouse.

This is the SUPReMM integration layer (paper Figure 1): match each
accounting record to the stats streams of the nodes it ran on, reduce the
counter data to one per-job metric summary (rollover-aware deltas for
events, means/maxima for gauges), attribute the job to an application
(accounting tag, falling back to Lariat's library fingerprint), and load
everything into a relational star schema.  The paper used an IBM Netezza
appliance plus MySQL; we substitute SQLite (see DESIGN.md).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.errors": (
        "ErrorPolicy", "HostScanError", "IngestHealth", "QuarantinedRecord"
    ),
    "repro.ingest.matcher": (
        "HostJobView", "MatchedJob", "MatchReport", "ViewMatchedJob",
        "host_job_views", "match_job_views", "match_jobs"
    ),
    "repro.ingest.parallel": (
        "HostScan", "HostScanResult", "effective_workers", "scan_archive",
        "scan_host_data"
    ),
    "repro.ingest.pipeline": ("IngestPipeline", "IngestReport"),
    "repro.ingest.summarize": (
        "HostJobPartial", "SummaryError", "host_job_partials",
        "merge_job_partials", "summarize_job_from_hosts",
        "summarize_job_from_rates"
    ),
    "repro.ingest.vocabulary": (
        "METRICS", "SUMMARY_METRICS", "JobSummary", "Metric"
    ),
    "repro.ingest.warehouse": ("Warehouse",),
})
