"""Tests for weighted statistics and OLS inference."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.util.stats import (
    _t_two_sided,
    coefficient_of_variation,
    fit_line,
    pearson_matrix,
    weighted_mean,
    weighted_quantile,
    weighted_std,
)


def test_weighted_mean_uniform_matches_numpy():
    v = np.array([1.0, 2.0, 5.0, 9.0])
    assert weighted_mean(v) == pytest.approx(v.mean())


def test_weighted_mean_weights():
    assert weighted_mean([1.0, 3.0], [3.0, 1.0]) == pytest.approx(1.5)


def test_weighted_mean_frequency_semantics():
    # Weights of (2, 1) must equal repeating the first value twice.
    assert weighted_mean([4.0, 7.0], [2.0, 1.0]) == pytest.approx(
        np.mean([4.0, 4.0, 7.0])
    )


def test_weighted_std_frequency_semantics():
    assert weighted_std([4.0, 7.0], [2.0, 1.0]) == pytest.approx(
        np.std([4.0, 4.0, 7.0])
    )


def test_weighted_std_ddof():
    v = [1.0, 2.0, 3.0, 4.0]
    assert weighted_std(v, ddof=1) == pytest.approx(np.std(v, ddof=1))


def test_weighted_mean_validation():
    with pytest.raises(ValueError):
        weighted_mean([])
    with pytest.raises(ValueError):
        weighted_mean([1.0], [-1.0])
    with pytest.raises(ValueError):
        weighted_mean([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        weighted_mean([1.0, 2.0], [1.0])


def test_weighted_quantile_median():
    v = [1.0, 2.0, 3.0, 4.0, 100.0]
    assert weighted_quantile(v, 0.5) == pytest.approx(3.0)


def test_weighted_quantile_respects_weights():
    # Nearly all the weight on the large value pulls the median up.
    q = weighted_quantile([1.0, 10.0], 0.5, weights=[1.0, 99.0])
    assert q > 9.0


def test_weighted_quantile_bounds():
    with pytest.raises(ValueError):
        weighted_quantile([1.0], 1.5)


def test_coefficient_of_variation():
    v = np.array([2.0, 4.0, 6.0])
    assert coefficient_of_variation(v) == pytest.approx(v.std() / v.mean())
    with pytest.raises(ValueError):
        coefficient_of_variation([-1.0, 1.0])


def test_pearson_matrix_recovers_known_structure():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    names, r = pearson_matrix({"x": x, "neg": -x + rng.normal(0, 0.01, 500),
                               "indep": rng.normal(size=500)})
    i, j, k = names.index("x"), names.index("neg"), names.index("indep")
    assert r[i, i] == pytest.approx(1.0)
    assert r[i, j] < -0.99
    assert abs(r[i, k]) < 0.15


def test_pearson_matrix_rejects_constant_column():
    with pytest.raises(ValueError, match="constant"):
        pearson_matrix({"a": np.ones(10), "b": np.arange(10.0)})


def test_fit_line_matches_scipy_linregress():
    rng = np.random.default_rng(3)
    x = np.linspace(0, 10, 40)
    y = 2.5 * x - 1.0 + rng.normal(0, 0.5, x.size)
    ours = fit_line(x, y)
    ref = sps.linregress(x, y)
    assert ours.slope == pytest.approx(ref.slope)
    assert ours.intercept == pytest.approx(ref.intercept)
    assert ours.r_squared == pytest.approx(ref.rvalue**2)
    assert ours.slope_stderr == pytest.approx(ref.stderr)
    assert ours.slope_p == pytest.approx(ref.pvalue, rel=1e-6)
    assert ours.intercept_stderr == pytest.approx(ref.intercept_stderr)


def test_t_pvalue_matches_scipy_on_a_grid():
    """The local incomplete beta (no scipy on the read side) agrees
    with ``2 * scipy.stats.t.sf`` to 1e-9 relative, dof 1 up to the
    dashboard shard's job count, |t| from noise to underflow."""
    ts = np.concatenate([10.0 ** np.linspace(-6, 3, 91), [0.0, 1.96]])
    for dof in [*range(1, 41), 100, 402, 1000, 6437, 10_000]:
        ref = 2.0 * sps.t.sf(ts, dof)
        ours = np.array([_t_two_sided(float(t), dof) for t in ts])
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-300), dof


def test_fit_line_pvalues_match_scipy_at_three_points():
    # dof == 1: the Cauchy tail, where the continued fraction runs on
    # its mirrored side for small t.
    x = np.array([0.0, 1.0, 2.0])
    for y in ([1.0, 3.1, 4.9], [0.0, 1.0, 0.1], [5.0, 5.0, 5.1]):
        fit, ref = fit_line(x, y), sps.linregress(x, y)
        assert fit.slope_p == pytest.approx(ref.pvalue, rel=1e-9)


def test_fit_line_perfect_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = fit_line(x, 3.0 * x + 1.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.slope == pytest.approx(3.0)
    assert fit.slope_p == pytest.approx(0.0, abs=1e-12)
    # se == 0 exactly: an exactly-zero estimate is no evidence (p = 1),
    # an exactly-nonzero one is an infinite t (p = 0).
    flat = fit_line(x, np.zeros(4))
    assert (flat.slope_stderr, flat.slope_p, flat.intercept_p) == (0, 1, 1)
    exact = fit_line(x, 2.0 * x)
    assert (exact.slope_stderr, exact.slope_p) == (0.0, 0.0)


def test_fit_line_predict_and_summary():
    fit = fit_line([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert fit.predict([3.0])[0] == pytest.approx(7.0)
    assert "R^2" in fit.summary()


def test_fit_line_validation():
    with pytest.raises(ValueError):
        fit_line([1.0, 2.0], [1.0, 2.0])  # too few points
    with pytest.raises(ValueError):
        fit_line([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # constant x
    with pytest.raises(ValueError):
        fit_line([[1.0, 2.0]], [[1.0, 2.0]])  # not 1-D
