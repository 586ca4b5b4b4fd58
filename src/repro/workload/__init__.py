"""Synthetic workload: who submits what, and how it behaves while running.

This package replaces the paper's 20 months of production XSEDE jobs with a
statistically calibrated synthetic population: science fields, application
archetypes with per-metric resource signatures, a heavy-tailed user
population (including the pathological high-idle users of Figures 4/5),
Poisson-with-diurnal-cycle arrivals, and a within-job AR(1) phase model
whose per-metric correlation times drive the persistence results of
Table 1 / Figure 6.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workload.applications": (
        "APP_CATALOG", "RATE_FIELDS", "RATE_INDEX", "AppSignature"
    ),
    "repro.workload.arrivals": ("arrival_times",),
    "repro.workload.behavior": ("DerivedRates", "JobBehavior"),
    "repro.workload.fields": ("SCIENCE_FIELDS", "field_weights"),
    "repro.workload.generator": ("WorkloadGenerator",),
    "repro.workload.phases": ("PHASE_CALIBRATION", "PhaseModel"),
    "repro.workload.users": ("UserProfile", "generate_users"),
})
