"""O(n^2) reference implementations of the rank statistics.

Independent of the fast counting kernel in `nactree.dependence`, so the
tests can check that kernel against them exactly.  The fan test's
reference recomputes the three EKDs and the float statistic resample by
resample, on the same random streams as the batched integer
`nactree.collapse.su_triple_test`.
"""

import numpy as np
from scipy.stats import rankdata

from nactree.dependence import (
    DataError,
    _hoeffding_from_counts,
    empirical_kendall_distribution,
    kendall_dist_distance,
    mean_distance_to,
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


def fan_statistic(ekds) -> float:
    """Float fan statistic of the EKDs of the pairs (i,j), (i,k), (j,k)."""
    # the CvM distance from the mean of the two closest to the third
    # (argmin keeps the first tied pair)
    pairs = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    dists = [kendall_dist_distance(ekds[a], ekds[b]) for a, b, _ in pairs]
    a, b, third = pairs[int(np.argmin(dists))]
    return mean_distance_to(ekds[a], ekds[b], ekds[third])


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
