"""Rank-based dependence measures and distance matrices.

Everything here works on ranks, so measures computed on raw data equal the
measures computed on the (unobserved) copula scale.  The module provides
the three pairwise dependence distances used to drive tree building
(Kendall's tau, Hoeffding's D, deviation of the empirical Kendall
distribution from independence), plus the empirical Kendall distribution
itself and the Cramer-von-Mises-type distances between such distributions.

Everything derived from one sample lives on its `PseudoObservations`: the
Kendall tau matrix (`obs.tau`), the per-pair empirical Kendall
distributions (`obs.ekd(a, b)`) and, through `obs.derived`, whatever the
builders and collapse rules compute from it (triple shapes, binary trees,
fan-test p-values).  Each is computed on first use and then reused by tree
building, collapsing, annotation and every estimator that sees the same
sample.

Kendall's tau, the empirical Kendall distribution, Hoeffding's D and the
fan test's bootstrap all rest on one quadrant count, `dominance_counts`: a
vectorized quadratic sweep for small samples and an O(n log n) sort plus
bitwise rank count for large ones.  It takes one pair of vectors or a
batch of them, as ``(..., n)`` arrays counted along the last axis.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.stats import rankdata

KT = "kt"
HD = "hD"
KIND = "kind"
MATRIX_KINDS = (KT, HD, KIND)


class DataError(ValueError):
    """Raised for malformed datasets or matrix inputs."""


# --------------------------------------------------------------------------- #
# Data containers
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Dataset:
    """An n x d sample with named columns and no missing cells."""

    values: np.ndarray
    columns: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))
        if values.ndim != 2:
            raise DataError("dataset must be a 2-d array")
        if values.shape[0] < 3:
            raise DataError("dataset needs at least 3 rows")
        if values.shape[1] != len(self.columns):
            raise DataError("column name count does not match data width")
        if len(set(self.columns)) != len(self.columns):
            raise DataError("duplicate column names")
        if not np.all(np.isfinite(values)):
            raise DataError("dataset contains missing or non-finite cells")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_csv(cls, path_or_buffer) -> "Dataset":
        """Read a comma-separated file with a header row of column names."""
        if hasattr(path_or_buffer, "read"):
            text = path_or_buffer.read()
        else:
            with open(path_or_buffer, "r", encoding="utf-8") as fh:
                text = fh.read()
        rows = list(csv.reader(io.StringIO(text)))
        rows = [r for r in rows if r]
        if len(rows) < 2:
            raise DataError("CSV needs a header row and data rows")
        header = tuple(name.strip() for name in rows[0])
        if any(len(row) != len(header) for row in rows[1:]):
            raise DataError("ragged CSV rows")
        try:
            values = np.array([[float(cell) for cell in row] for row in rows[1:]])
        except ValueError as exc:
            raise DataError(f"non-numeric cell in CSV: {exc}") from None
        return cls(values, header)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.values:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


@dataclass(frozen=True)
class PseudoObservations:
    """Column-wise normalized ranks, strictly inside (0,1).

    Also the owner of the work derived from the sample, each piece
    computed on first use and kept for the life of the object (``u`` must
    not be modified in place).
    """

    u: np.ndarray
    columns: tuple
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]

    @cached_property
    def index(self) -> dict:
        """Column label -> column position."""
        return {lab: i for i, lab in enumerate(self.columns)}

    def column(self, label) -> np.ndarray:
        return self.u[:, self.index[label]]

    @cached_property
    def tau(self) -> np.ndarray:
        """Kendall tau-a matrix of the columns (zero diagonal)."""
        return kendall_tau_matrix(self.u)

    def derived(self, key: tuple, compute):
        """The value stored under ``key``, made by ``compute()`` on first
        use.  The key names everything besides the sample that the value
        depends on (a method, a resample count, a seed), so two callers
        share a value exactly when they would compute the same one."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def ekd(self, a, b) -> KendallDistribution:
        """Empirical Kendall distribution of the column pair (a, b)."""
        a, b = (a, b) if a <= b else (b, a)
        return self.derived(("ekd", a, b), lambda: (
            empirical_kendall_distribution(self.column(a), self.column(b))))


@dataclass(frozen=True)
class DependenceMatrix:
    """Symmetric matrix of pairwise dependence distances (small = dependent)."""

    values: np.ndarray
    labels: tuple
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "labels", tuple(self.labels))
        m = self.values
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError("dependence matrix must be square")
        if m.shape[0] != len(self.labels):
            raise DataError("label count does not match matrix size")
        if not np.all(np.isfinite(m)):
            raise DataError("non-finite dependence distance")
        if not np.allclose(m, m.T):
            raise DataError("dependence matrix must be symmetric")
        if np.any(np.diag(m) != 0):
            raise DataError("dependence matrix must have a zero diagonal")

    @property
    def d(self) -> int:
        return len(self.labels)

    def entry(self, a, b) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("," + ",".join(self.labels) + "\n")
            for lab, row in zip(self.labels, self.values):
                fh.write(lab + "," + ",".join(repr(float(x)) for x in row) + "\n")


@dataclass(frozen=True)
class KendallDistribution:
    """Sorted pseudo-Kendall scores W_i of one pair of variables."""

    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.sort(np.asarray(self.w, dtype=float))
        if w.size == 0:
            raise DataError("empty Kendall distribution")
        if w[0] < 0 or w[-1] > 1:
            raise DataError("Kendall scores must lie in [0,1]")
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.size

    def cdf(self, t) -> np.ndarray:
        """Right-continuous empirical CDF evaluated at t."""
        return np.searchsorted(self.w, np.asarray(t), side="right") / self.n


# --------------------------------------------------------------------------- #
# Ranks and pseudo-observations
# --------------------------------------------------------------------------- #


def pseudo_observations(data) -> PseudoObservations:
    """Column ranks scaled by 1/(n+1); ties get average ranks.

    A constant column carries no dependence information (every pair with
    it is tied), so it is rejected rather than placed in a tree.
    """
    if isinstance(data, PseudoObservations):
        return data
    values = data.values
    constant = np.all(values == values[0], axis=0)
    if constant.any():
        names = ", ".join(c for c, k in zip(data.columns, constant) if k)
        raise DataError(f"constant column(s) carry no dependence: {names}")
    n = values.shape[0]
    u = rankdata(values, axis=0, method="average") / (n + 1)
    return PseudoObservations(u, data.columns)


# --------------------------------------------------------------------------- #
# Kendall's tau
# --------------------------------------------------------------------------- #


def kendall_tau(x, y) -> float:
    """Kendall's tau-a: (concordant - discordant) / C(n,2).

    A point's concordant partners below it are its dominance count on
    (x, y), its discordant partners below it the count on (x, -y); pairs
    tied in either coordinate count in neither, so ties shrink the absolute
    value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("kendall_tau needs two equal-length vectors")
    n = x.size
    if n < 2:
        raise DataError("kendall_tau needs at least two observations")
    concordant = int(dominance_counts(x, y).sum())
    discordant = int(dominance_counts(x, -y).sum())
    return float(concordant - discordant) / (n * (n - 1) // 2)

def kendall_tau_matrix(u: np.ndarray) -> np.ndarray:
    """Pairwise tau-a over the columns of an n x d array."""
    u = np.asarray(u, dtype=float)
    return _pair_matrix(u.shape[1], lambda i, j: kendall_tau(u[:, i], u[:, j]))


def _pair_matrix(d: int, value) -> np.ndarray:
    """Symmetric d x d matrix with a zero diagonal, ``value(i, j)`` above
    and below it, filled in `itertools.combinations` order."""
    out = np.zeros((d, d))
    for i, j in itertools.combinations(range(d), 2):
        out[i, j] = out[j, i] = value(i, j)
    return out


# --------------------------------------------------------------------------- #
# Dominance counts and the empirical Kendall distribution
# --------------------------------------------------------------------------- #


def _smaller_before_counts(r: np.ndarray) -> np.ndarray:
    """counts[k] = #{m < k : r[m] < r[k]} for non-negative integer ranks.

    r[m] < r[k] exactly when, at their highest differing bit b, r[m] has a
    0 and r[k] a 1.  So for each bit b, a stable sort groups the positions
    by r >> (b + 1) in sequence order, and every element with bit b set
    gains the number of zeros at bit b before it in its group.
    """
    n = r.size
    counts = np.zeros(n, dtype=np.int64)
    for b in range(int(r.max()).bit_length()):
        prefix = r >> (b + 1)
        order = np.argsort(prefix, kind="stable")
        prefix = prefix[order]
        zero = (r[order] >> b) & 1 == 0
        zeros = np.cumsum(zero)
        # position of each element's group start, in the sorted order
        first = np.maximum.accumulate(
            np.where(np.r_[True, prefix[1:] != prefix[:-1]], np.arange(n), 0))
        one = ~zero
        counts[order[one]] += (zeros - (zeros - zero)[first])[one]
    return counts


# measured crossover with the sort kernel: the two are within noise from
# n = 600 to 700, and the kernel is 1.3-2x faster from 750 on
_BROADCAST_MAX_N = 700
# comparison cells per chunk of the broadcast, about 1 MB per boolean
# buffer: chunks of 2^18 to 2^21 cells timed alike at n = 100 to 700,
# 2^22 up to 1.3x slower
_BROADCAST_CELLS = 1 << 20


def _counting_array(v) -> np.ndarray:
    # signed integers are compared as they are; anything else as floats
    v = np.asarray(v)
    return v if v.dtype.kind == "i" else np.asarray(v, dtype=float)


def _sorted_dominance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sort by x ascending with ties in y descending, so that no point is
    # preceded by a point tied with it in x and smaller in y; the dense
    # ranks of y are negated rather than y, which may be an integer type
    # that has no negative of its minimum
    ranks = np.unique(y, return_inverse=True)[1]
    order = np.lexsort((-ranks, x))
    counts = np.empty(x.size, dtype=np.int64)
    counts[order] = _smaller_before_counts(ranks[order])
    return counts


def dominance_counts(x, y) -> np.ndarray:
    """c[..., i] = #{j : x[..., j] < x[..., i] and y[..., j] < y[..., i]}.

    ``x`` and ``y`` are equal-shape ``(..., n)`` arrays, counted row by row
    along the last axis; signed integers stay integers, other values are
    compared as floats.  Up to ``_BROADCAST_MAX_N`` points a row is a
    vectorized quadratic sweep: one broadcast for a single vector, and for
    a batch a loop over chunks of rows so that no comparison buffer
    exceeds about ``_BROADCAST_CELLS`` cells.  Larger rows go one at a
    time through an O(n log n) sort plus bitwise rank count.
    """
    x, y = _counting_array(x), _counting_array(y)
    if x.shape != y.shape:
        raise DataError(f"dominance_counts needs equal shapes, got {x.shape} "
                        f"and {y.shape}")
    n = x.shape[-1]
    if x.ndim == 1 and n <= _BROADCAST_MAX_N:
        # the chunk loop and its buffers cost 10-40 us a call at n = 100
        # to 500, which the pairwise matrices pay thousands of times
        return np.count_nonzero((x < x[:, None]) & (y < y[:, None]), axis=1)
    rows = math.prod(x.shape[:-1])
    xs, ys = x.reshape(rows, n), y.reshape(rows, n)
    out = np.empty(xs.shape, dtype=np.int64)
    if n > _BROADCAST_MAX_N:
        for r in range(rows):
            out[r] = _sorted_dominance(xs[r], ys[r])
        return out.reshape(x.shape)
    step = max(1, min(rows, _BROADCAST_CELLS // max(n * n, 1)))
    # two comparison buffers for all chunks: fresh ones per chunk would
    # be returned to the system and faulted in again each time
    below = np.empty((step, n, n), dtype=bool)
    both = np.empty((step, n, n), dtype=bool)
    for s in range(0, rows, step):
        xc, yc = xs[s:s + step], ys[s:s + step]
        m = xc.shape[0]
        np.less(xc[:, None], xc[..., None], out=below[:m])
        np.less(yc[:, None], yc[..., None], out=both[:m])
        both[:m] &= below[:m]
        out[s:s + step] = np.count_nonzero(both[:m], axis=2)
    return out.reshape(x.shape)


def empirical_kendall_distribution(x, y) -> KendallDistribution:
    """Pseudo-Kendall scores W_i = #{j != i : x_j < x_i, y_j < y_i}/(n-1),
    returned sorted.  The 1/(n-1) normalization keeps W_i inside [0,1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("empirical Kendall distribution needs equal-length vectors")
    if x.size < 2:
        raise DataError("need at least two observations")
    return KendallDistribution(dominance_counts(x, y) / (x.size - 1))


# --------------------------------------------------------------------------- #
# Cramer-von-Mises distances between Kendall distributions
# --------------------------------------------------------------------------- #


def _merged_grid(*w_arrays):
    # KendallDistribution validates its scores into [0, 1], the grid's span
    return np.unique(np.concatenate([np.array([0.0, 1.0]), *w_arrays]))


def kendall_dist_distance(a: KendallDistribution, b: KendallDistribution) -> float:
    """Exact integral of (K_a - K_b)^2 over [0,1] for the two step
    functions; zero iff they are the same step function.  Distributions of
    different sizes are compared on the merged jump grid."""
    grid = _merged_grid(a.w, b.w)
    fa = a.cdf(grid[:-1])
    fb = b.cdf(grid[:-1])
    return float(np.sum(np.diff(grid) * (fa - fb) ** 2))


def mean_distance_to(a: KendallDistribution, b: KendallDistribution,
                     c: KendallDistribution) -> float:
    """Exact integral of ((K_a + K_b)/2 - K_c)^2 over [0,1]."""
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


def independence_kendall_cdf(t) -> np.ndarray:
    """Kendall distribution of two independent variables:
    K(t) = t - t ln t on (0,1], K(0) = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] - t[pos] * np.log(t[pos])
    return np.clip(out, 0.0, 1.0)


def independence_deviation(ekd: KendallDistribution) -> float:
    """Exact Cramer-von-Mises distance between an empirical Kendall
    distribution and the independence Kendall distribution.

    The integral of (F - K)^2 is computed in closed form on each segment
    where the empirical CDF F is constant.
    """
    grid = _merged_grid(ekd.w)
    f = ekd.cdf(grid[:-1])
    t0, t1 = grid[:-1], grid[1:]
    const = f**2 * (t1 - t0)
    cross = -2.0 * f * (_indep_cdf_antiderivative(t1) - _indep_cdf_antiderivative(t0))
    square = _indep_cdf_sq_antiderivative(t1) - _indep_cdf_sq_antiderivative(t0)
    return float(np.sum(const + cross + square))


# --------------------------------------------------------------------------- #
# Hoeffding's D
# --------------------------------------------------------------------------- #


def _hoeffding_from_counts(r: np.ndarray, s: np.ndarray, c: np.ndarray) -> float:
    # c[i] = #{j: x_j < x_i, y_j < y_i}; comonotone tie-free data gives 1.0
    n = r.size
    d1 = float(np.sum(c * (c - 1)))
    d2 = float(np.sum((r - 1) * (r - 2) * (s - 1) * (s - 2)))
    d3 = float(np.sum((r - 2) * (s - 2) * c))
    num = 30.0 * ((n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3)
    den = float(n * (n - 1) * (n - 2) * (n - 3) * (n - 4))
    return num / den


def hoeffding_d(x, y) -> float:
    """Hoeffding's D statistic (the classical rank-based estimator built
    from quadrant counts; requires n >= 5)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("hoeffding_d needs two equal-length vectors")
    if x.size < 5:
        raise DataError("hoeffding_d needs at least 5 observations")
    r = rankdata(x, method="average")
    s = rankdata(y, method="average")
    c = dominance_counts(x, y)
    return _hoeffding_from_counts(r, s, c)

@lru_cache(maxsize=None)
def hoeffding_d_max(n: int) -> float:
    """Largest attainable D at sample size n: the comonotone value, whose
    ranks are 1..n on both axes and whose i-th point dominates i others."""
    r = np.arange(1.0, n + 1)
    return _hoeffding_from_counts(r, r, np.arange(n))


# --------------------------------------------------------------------------- #
# Distance matrices
# --------------------------------------------------------------------------- #


def dependence_matrix(data, kind: str = KT) -> DependenceMatrix:
    """Pairwise dependence distances over the columns of ``data``.

    kt   : 1 - tau-hat
    hD   : D_max(n) - D-hat           (D_max = comonotone value at this n)
    kind : rescaled (max deviation - deviation) where deviation is the
           Cramer-von-Mises distance of the empirical Kendall distribution
           from independence

    All three shrink as dependence grows, which is what linkage needs.
    """
    if kind not in MATRIX_KINDS:
        raise DataError(f"unknown dependence matrix kind {kind!r}")
    obs = pseudo_observations(data)
    u, cols = obs.u, obs.columns
    out = np.zeros((obs.d, obs.d))
    if kind == KT:
        out = 1.0 - obs.tau
        np.fill_diagonal(out, 0.0)
    elif kind == HD:
        dmax = hoeffding_d_max(obs.n)
        out = _pair_matrix(obs.d, lambda i, j: max(
            dmax - hoeffding_d(u[:, i], u[:, j]), 0.0))
    else:
        dev = _pair_matrix(obs.d, lambda i, j: independence_deviation(
            obs.ekd(cols[i], cols[j])))
        top = dev.max()
        if top > 0:
            out = (top - dev) / top
            np.fill_diagonal(out, 0.0)
    return DependenceMatrix(out, obs.columns, kind)
