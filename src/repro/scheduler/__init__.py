"""Batch scheduler substrate.

A discrete-event scheduler (FCFS or EASY backfill) drives jobs through a
:class:`repro.cluster.Cluster`, producing the two artifacts the paper's
pipeline ingests: completed job records (→ SGE-style accounting log) and the
node-occupancy intervals that the TACC_Stats daemons sample.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.scheduler.accounting": ("AccountingWriter", "parse_accounting"),
    "repro.scheduler.engine": ("SchedulerEngine", "SimulationResult"),
    "repro.scheduler.events": ("SchedulerEventLog", "parse_event_log"),
    "repro.scheduler.job": ("ExitStatus", "JobRecord", "JobRequest"),
    "repro.scheduler.policies": (
        "EasyBackfillPolicy", "FCFSPolicy", "SchedulingPolicy"
    ),
    "repro.scheduler.queue": ("WaitQueue",),
})
