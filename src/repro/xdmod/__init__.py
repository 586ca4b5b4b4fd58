"""XDMoD-style analytics and reporting over the SUPReMM warehouse.

Implements the paper's analysis surface: the eight key metrics and their
normalized usage profiles (Figures 2/3/5), the wasted-node-hour efficiency
analysis (Figure 4), the persistence/forecastability model (Table 1,
Figure 6), system-level reports and time series (Figures 7-12), the
correlation analysis that selected the key metrics (§4.2), and the
per-stakeholder report generators (§4.3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.xdmod.appkernels": (
        "DEFAULT_KERNELS", "AppKernelMonitor", "AppKernelSpec",
        "PerfRegression"
    ),
    "repro.xdmod.bouquet": ("BouquetAnalysis",),
    "repro.xdmod.characterization": ("WorkloadCharacterization",),
    "repro.xdmod.correlation": ("correlation_matrix", "select_independent"),
    "repro.xdmod.density": ("metric_density", "series_density"),
    "repro.xdmod.efficiency": ("EfficiencyAnalysis", "UserEfficiency"),
    "repro.xdmod.jobview": ("JobTimeline", "job_timeline"),
    "repro.xdmod.metrics": ("KEY_METRICS", "METRIC_INFO", "MetricInfo"),
    "repro.xdmod.persistence": ("PERSISTENCE_METRICS", "PersistenceAnalysis"),
    "repro.xdmod.profiles": ("UsageProfiler",),
    "repro.xdmod.query": ("GroupResult", "JobQuery"),
    "repro.xdmod.realm": ("SupremmRealm",),
    "repro.xdmod.reports": (
        "AdminReport", "DeveloperReport", "FundingAgencyReport",
        "ResourceManagerReport", "SupportStaffReport", "UserReport"
    ),
    "repro.xdmod.scheduling": ("SchedulingAnalysis",),
    "repro.xdmod.snapshot": (
        "WarehouseSnapshot", "cache_enabled", "set_cache_enabled"
    ),
    "repro.xdmod.timeseries": ("SystemTimeseries",),
    "repro.xdmod.trends": ("TrendAnalysis", "TrendResult"),
})
