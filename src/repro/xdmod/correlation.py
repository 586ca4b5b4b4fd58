"""Metric correlation and independent-set selection (§4.2).

The paper chose its eight key metrics "based on a correlation analysis
over all of the measured metrics", observing e.g. cpu_user strongly
anti-correlated with cpu_idle and net_ib_rx with net_ib_tx, and keeping
"the smallest independent set".  We reproduce both the matrix and the
greedy selection.
"""

from __future__ import annotations

import numpy as np

from repro.ingest.vocabulary import SUMMARY_METRICS
from repro.util.stats import pearson_matrix
from repro.xdmod.query import JobQuery

__all__ = ["correlation_matrix", "select_independent", "strong_pairs"]


def correlation_matrix(
    query: JobQuery,
    metrics: tuple[str, ...] = SUMMARY_METRICS,
    derive_cpu_user_complement: bool = True,
) -> tuple[list[str], np.ndarray]:
    """Pearson matrix over per-job metric values.

    Jobs are the observations (as in the paper's job-level analysis).
    """
    cols = {}
    for m in metrics:
        v = query.column(m)
        if v.std() == 0:
            continue  # constant metrics carry no correlation information
        cols[m] = v
    if len(cols) < 2:
        raise ValueError("need at least two non-constant metrics")
    return pearson_matrix(cols)


def strong_pairs(names: list[str], r: np.ndarray,
                 threshold: float = 0.8) -> list[tuple[str, str, float]]:
    """Metric pairs with |correlation| above *threshold*, strongest first."""
    out = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if abs(r[i, j]) >= threshold:
                out.append((names[i], names[j], float(r[i, j])))
    out.sort(key=lambda t: -abs(t[2]))
    return out


def select_independent(
    names: list[str],
    r: np.ndarray,
    threshold: float = 0.8,
    priority: tuple[str, ...] = (),
) -> list[str]:
    """Greedy smallest-independent-set selection.

    Walk metrics in priority order (then input order); keep a metric only
    if its |correlation| with every already-kept metric stays below
    *threshold*.  With the paper's redundant pairs (tx/rx, user/idle) this
    reproduces the collapse from the full measured set to eight.
    """
    if r.shape != (len(names), len(names)):
        raise ValueError("matrix/name shape mismatch")
    order = [n for n in priority if n in names]
    order += [n for n in names if n not in order]
    idx = {n: i for i, n in enumerate(names)}
    kept: list[str] = []
    for n in order:
        i = idx[n]
        if all(abs(r[i, idx[k]]) < threshold for k in kept):
            kept.append(n)
    return kept
