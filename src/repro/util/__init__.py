"""Shared low-level utilities: RNG streams, units, time, statistics, KDE,
table/chart rendering.

These modules depend on numpy and the standard library only — the read
side (serving, reporting) imports them, so scipy stays out: ``fit_line``
computes its Student-t p-values with a local incomplete beta.  They are
used by every other subpackage; nothing in here knows about clusters,
jobs, or metrics.  Names resolve lazily (:mod:`repro._lazy`): importing
``repro.util.units`` does not run ``kde`` or ``stats``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.util.kde": ("GaussianKDE", "scott_bandwidth"),
    "repro.util.rng": ("RngFactory",),
    "repro.util.stats": (
        "LinearFit", "coefficient_of_variation", "fit_line", "pearson_matrix",
        "weighted_mean", "weighted_quantile", "weighted_std"
    ),
    "repro.util.timeutil": (
        "DAY", "HOUR", "MINUTE", "WEEK", "diurnal_factor", "format_epoch"
    ),
    "repro.util.units": (
        "GB", "GIGA", "KB", "MB", "MEGA", "TB", "TERA", "format_bytes",
        "format_count", "parse_bytes"
    ),
})
