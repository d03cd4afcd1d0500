"""O(n^2) reference implementations of the rank statistics.

Independent of the fast counting kernel in `nactree.dependence`, so the
tests can check that kernel against them exactly.  The Cramer-von-Mises
references integrate the step CDFs in floats on the merged jump grid of
their scores, independent of the integer lattice sums of
`nactree.dependence`.  The fan test's reference recomputes the three EKDs
and that float statistic resample by resample, on the same random streams
as the batched integer `nactree.collapse.su_triple_test`.
"""

import numpy as np
from scipy.stats import rankdata

from nactree.dependence import (
    DataError,
    _hoeffding_from_counts,
    empirical_kendall_distribution,
    pseudo_observations,
)
from nactree.trees import TreeError


def kendall_tau_quadratic(x, y) -> float:
    """O(n^2) pair-enumeration oracle for :func:`kendall_tau`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("kendall_tau needs two equal-length vectors")
    n = x.size
    if n < 2:
        raise DataError("kendall_tau needs at least two observations")
    s = 0.0
    for i in range(n - 1):
        s += float(np.sum(np.sign(x[i + 1:] - x[i]) * np.sign(y[i + 1:] - y[i])))
    return s / (n * (n - 1) // 2)


def dominance_counts_quadratic(x, y) -> np.ndarray:
    """O(n^2) oracle for :func:`dominance_counts`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        out[i] = int(np.sum((x < x[i]) & (y < y[i])))
    return out


def hoeffding_d_quadratic(x, y) -> float:
    """O(n^2) quadrant-count oracle for :func:`hoeffding_d`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 5:
        raise DataError("hoeffding_d needs at least 5 observations")
    r = rankdata(x, method="average")
    s = rankdata(y, method="average")
    c = dominance_counts_quadratic(x, y)
    return _hoeffding_from_counts(r, s, c)


def _merged_grid(*w_arrays):
    # Kendall scores lie in [0, 1], the grid's span
    return np.unique(np.concatenate([np.array([0.0, 1.0]), *w_arrays]))


def kendall_dist_distance_grid(a, b) -> float:
    """Float reference for :func:`kendall_dist_distance`: the integral of
    (K_a - K_b)^2 summed over the merged jump grid, any two sizes."""
    grid = _merged_grid(a.w, b.w)
    fa = a.cdf(grid[:-1])
    fb = b.cdf(grid[:-1])
    return float(np.sum(np.diff(grid) * (fa - fb) ** 2))


def mean_distance_to_grid(a, b, c) -> float:
    """Float reference for :func:`mean_distance_to`: the integral of
    ((K_a + K_b)/2 - K_c)^2 over the merged jump grid."""
    grid = _merged_grid(a.w, b.w, c.w)
    fm = 0.5 * (a.cdf(grid[:-1]) + b.cdf(grid[:-1]))
    fc = c.cdf(grid[:-1])
    return float(np.sum(np.diff(grid) * (fm - fc) ** 2))


def _indep_cdf_antiderivative(t: np.ndarray) -> np.ndarray:
    # antiderivative of K(t) = t - t ln t, with the t->0 limit 0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = 0.75 * tp**2 - 0.5 * tp**2 * np.log(tp)
    return out


def _indep_cdf_sq_antiderivative(t: np.ndarray) -> np.ndarray:
    # antiderivative of K(t)^2 = t^2 (1 - ln t)^2, with the t->0 limit 0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    lt = np.log(tp)
    out[pos] = tp**3 * (17.0 / 27.0 - (8.0 / 9.0) * lt + (1.0 / 3.0) * lt**2)
    return out


def independence_deviation_grid(ekd) -> float:
    """Float reference for :func:`independence_deviation`: the closed form
    on each segment of the distribution's own jump grid."""
    grid = _merged_grid(ekd.w)
    f = ekd.cdf(grid[:-1])
    t0, t1 = grid[:-1], grid[1:]
    const = f**2 * (t1 - t0)
    cross = -2.0 * f * (_indep_cdf_antiderivative(t1) - _indep_cdf_antiderivative(t0))
    square = _indep_cdf_sq_antiderivative(t1) - _indep_cdf_sq_antiderivative(t0)
    return float(np.sum(const + cross + square))


def fan_statistic(ekds) -> float:
    """Float fan statistic of the EKDs of the pairs (i,j), (i,k), (j,k)."""
    # the CvM distance from the mean of the two closest to the third
    # (argmin keeps the first tied pair)
    pairs = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    dists = [kendall_dist_distance_grid(ekds[a], ekds[b]) for a, b, _ in pairs]
    a, b, third = pairs[int(np.argmin(dists))]
    return mean_distance_to_grid(ekds[a], ekds[b], ekds[third])


def su_triple_test_loop(u, i, j, k, b: int = 200, seed=0) -> float:
    """Per-resample float oracle for :func:`su_triple_test`, on the same
    random streams."""
    if len({i, j, k}) != 3:
        raise TreeError("triple test needs three distinct labels")
    if b < 1:
        raise DataError("need at least one bootstrap resample")
    obs = pseudo_observations(u)
    data = obs.u[:, [obs.columns.index(lab) for lab in (i, j, k)]]
    n = data.shape[0]
    t_obs = fan_statistic([obs.ekd(i, j), obs.ekd(i, k), obs.ekd(j, k)])
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(b):
        block = data[rng.integers(0, n, n)]
        within_row = np.argsort(rng.random((n, 3)), axis=1)
        block = np.take_along_axis(block, within_row, axis=1)
        ekds = [empirical_kendall_distribution(block[:, a], block[:, c])
                for a, c in ((0, 1), (0, 2), (1, 2))]
        if fan_statistic(ekds) >= t_obs:
            exceed += 1
    return (1 + exceed) / (b + 1)
