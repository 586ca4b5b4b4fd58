"""Statistics primitives used throughout the analytics layer.

The paper's analyses are built on three tools: node-hour *weighted* moments
(every per-job metric is "calculated by the job weighted by node*hour",
§4.1), Pearson correlation (used to select the 8 key metrics, §4.2), and
ordinary least squares with parameter p-values (the persistence fits of
Table 1 / Figure 6 quote slope/intercept p-values and R²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "weighted_mean",
    "weighted_std",
    "weighted_quantile",
    "coefficient_of_variation",
    "pearson_matrix",
    "LinearFit",
    "fit_line",
]


def _as_weights(values: np.ndarray, weights) -> np.ndarray:
    if weights is None:
        return np.ones_like(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != values.shape:
        raise ValueError(f"weights shape {w.shape} != values shape {values.shape}")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if w.sum() == 0:
        raise ValueError("weights sum to zero")
    return w


def weighted_mean(values, weights=None) -> float:
    """Weighted arithmetic mean; ``weights=None`` means uniform."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty input")
    w = _as_weights(v, weights)
    return float(np.sum(v * w) / np.sum(w))


def weighted_std(values, weights=None, ddof: int = 0) -> float:
    """Weighted standard deviation.

    With ``ddof=1`` applies the frequency-weights correction
    ``sum(w) / (sum(w) - 1)`` (node-hours act as frequency weights here).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty input")
    w = _as_weights(v, weights)
    mu = np.sum(v * w) / np.sum(w)
    var = np.sum(w * (v - mu) ** 2) / np.sum(w)
    if ddof:
        wsum = np.sum(w)
        if wsum <= ddof:
            raise ValueError("not enough weight for requested ddof")
        var *= wsum / (wsum - ddof)
    return float(np.sqrt(var))


def weighted_quantile(values, q: float, weights=None) -> float:
    """Weighted quantile by inverting the weighted empirical CDF.

    Uses the midpoint convention (C = 1/2), which reduces to the usual
    ``numpy.quantile(..., method='linear')`` neighbourhood for uniform
    weights and is exact at the weighted median.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty input")
    w = _as_weights(v, weights)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w) - 0.5 * w
    cum /= np.sum(w)
    return float(np.interp(q, cum, v))


def coefficient_of_variation(values, weights=None) -> float:
    """std / |mean| — the paper orders metric predictability by this."""
    mu = weighted_mean(values, weights)
    if mu == 0:
        raise ValueError("mean is zero; CV undefined")
    return weighted_std(values, weights) / abs(mu)


def pearson_matrix(columns: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    """Pearson correlation matrix of named, equal-length series.

    Returns ``(names, R)`` where ``R[i, j]`` is the correlation between
    columns ``names[i]`` and ``names[j]``.  Constant columns are rejected —
    their correlation is undefined and silently returning NaN would poison
    the independent-set selection downstream.
    """
    names = list(columns)
    if not names:
        raise ValueError("no columns")
    mat = np.vstack([np.asarray(columns[n], dtype=float) for n in names])
    if mat.shape[1] < 2:
        raise ValueError("need at least two observations")
    stds = mat.std(axis=1)
    for name, s in zip(names, stds):
        if s == 0:
            raise ValueError(f"column {name!r} is constant; correlation undefined")
    r = np.corrcoef(mat)
    return names, r


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularised incomplete beta ``I_x(a, b)``; *y* is ``1 - x``,
    passed in because the caller can form it without cancellation.

    Continued fraction by the modified Lentz method (Numerical Recipes
    §6.4) with ``math.lgamma`` for the prefactor — all the read side
    needs of ``scipy.stats``, whose import costs more than a report.
    """
    if x <= 0.0 or y <= 0.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):  # converges fast on the other side
        return 1.0 - _betainc(b, a, y, x)
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * log_x + b * log_y) / a
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or 1e-300)
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or 1e-300)
            c = 1.0 + num / c or 1e-300
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return front * h
    raise ArithmeticError(f"incomplete beta({a}, {b}, {x}) did not converge")


def _t_two_sided(t: float, dof: int) -> float:
    """Two-sided Student-t p-value ``P(|T| >= t)`` = ``I_x(dof/2, 1/2)``
    at ``x = dof / (dof + t²)``."""
    return _betainc(dof / 2.0, 0.5, dof / (dof + t * t),
                    t * t / (dof + t * t))


@dataclass(frozen=True)
class LinearFit:
    """OLS fit ``y ≈ intercept + slope * x`` with inference statistics.

    Attributes mirror what the paper quotes for Figure 6: point estimates,
    standard errors, two-sided p-values (t distribution, n-2 dof), and R².
    """

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    intercept_stderr: float
    slope_p: float
    intercept_p: float
    n: int

    def predict(self, x) -> np.ndarray:
        """Evaluate the fitted line at *x*."""
        return self.intercept + self.slope * np.asarray(x, dtype=float)

    def summary(self) -> str:
        """One-line rendering in the paper's style: value(err) p=…"""
        return (
            f"intercept {self.intercept:+.3f}({self.intercept_stderr:.3f}) "
            f"p={self.intercept_p:.2g}, slope {self.slope:+.3f}"
            f"({self.slope_stderr:.3f}) p={self.slope_p:.2g}, "
            f"R^2={self.r_squared:.3f}"
        )


def fit_line(x, y) -> LinearFit:
    """Ordinary least squares with full inference (see :class:`LinearFit`)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 points for inference")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0:
        raise ValueError("x is constant; slope undefined")
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = n - 2
    sigma2 = ss_res / dof if dof > 0 else float("nan")
    slope_se = float(np.sqrt(sigma2 / sxx))
    intercept_se = float(np.sqrt(sigma2 * (1.0 / n + xm**2 / sxx)))

    def _pvalue(estimate: float, se: float) -> float:
        if se == 0:
            # A perfect fit: the estimate is either exactly zero (no
            # evidence of an effect) or exactly nonzero (infinite t).
            return 1.0 if estimate == 0 else 0.0
        return _t_two_sided(abs(estimate / se), dof)

    return LinearFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        slope_stderr=slope_se,
        intercept_stderr=intercept_se,
        slope_p=_pvalue(slope, slope_se),
        intercept_p=_pvalue(intercept, intercept_se),
        n=n,
    )
