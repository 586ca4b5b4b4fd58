"""Kernel-density distributions — Figures 10 and 12.

The paper shows kernel densities "rather than a histogram in order to
avoid making binning choices" (Scott 1992); we use our own Gaussian KDE
with Scott's rule (:mod:`repro.util.kde`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ingest.warehouse import Warehouse
from repro.util.kde import GaussianKDE
from repro.xdmod.query import JobQuery
from repro.xdmod.snapshot import WarehouseSnapshot

__all__ = ["DensityCurve", "series_density", "metric_density"]


@dataclass(frozen=True)
class DensityCurve:
    """One estimated density, ready to print or plot."""

    label: str
    grid: np.ndarray
    density: np.ndarray
    mean: float
    mode: float

    def fraction_above(self, x: float) -> float:
        """Mass above *x* (e.g. "negligible usage above 16 GB", Fig. 12)."""
        sel = self.grid >= x
        if not sel.any():
            return 0.0
        return float(np.trapezoid(self.density[sel], self.grid[sel]))


def _curve(label: str, values: np.ndarray, weights=None,
           n_grid: int = 512, clip_negative: bool = True) -> DensityCurve:
    kde = GaussianKDE(values, weights=weights)
    grid = kde.grid(n_grid)
    if clip_negative:
        # Physical quantities (TF, GB) cannot be negative; keep the grid
        # non-negative so printed curves do not show impossible mass.
        grid = grid[grid >= 0.0]
        if grid.size < 2:
            grid = np.linspace(0.0, float(values.max()) * 1.1, n_grid)
    dens = kde(grid)
    if weights is None:
        mean = float(np.mean(values))
    else:
        w = np.asarray(weights, dtype=float)
        mean = float(np.sum(values * w) / w.sum())
    return DensityCurve(
        label=label, grid=grid, density=dens, mean=mean,
        mode=float(grid[int(np.argmax(dens))]),
    )


def series_density(warehouse: Warehouse, system: str, series_name: str,
                   label: str | None = None) -> DensityCurve:
    """Density of a system-level series (Figure 10: flops_tf)."""
    _, values = WarehouseSnapshot.for_warehouse(warehouse).series(
        system, series_name)
    return _curve(label or series_name, values)


def metric_density(query: JobQuery, metric: str,
                   weight_by_node_hours: bool = True,
                   label: str | None = None) -> DensityCurve:
    """Density of a per-job metric (Figure 12: mem_used / mem_used_max),
    node-hour weighted by default per the paper's §4.1 convention."""
    values = query.column(metric)
    if values.size < 2:
        raise ValueError(f"not enough jobs for a density of {metric!r}")
    weights = query.column("node_hours") if weight_by_node_hours else None
    return _curve(label or metric, values, weights=weights)
