"""O(n^2) reference implementations of the rank statistics.

Independent of the fast counting kernel in `nactree.dependence`, so the
tests can check that kernel against them exactly.  The Cramer-von-Mises
references take float Kendall scores (`kendall_scores_quadratic`) and
integrate their step CDFs on the merged jump grid, independent of the
integer lattice of `nactree.dependence.KendallDistribution`.  The fan
test's reference recomputes the three score sets and that float statistic
resample by resample, on the same random streams as the batched integer
`nactree.collapse.su_triple_test`, and its resample batch is checked
against one built value by value from the same draw.  Its rank-domain
bit planes and its six-product statistic are checked against the argsort
packer and the subtract-and-square statistic that they replaced, which
`su_triple_test_batched` chains into a p-value.  The tau(theta)
maps of `nactree.nac` are checked against adaptive quadrature of the
Kendall integral and a brentq inverse, and its Sibuya survival function
against `gammaln`.  Its CSV reader is checked against Python's float of
every cell.
The agglomerations of `nactree.builders` are checked against their
pair-dictionary forms, which rescan every live pair at every merge.  Its
bit-set parsimony score is checked against per-column numpy state counts,
its supertree search against a climb that validates every NNI neighbor
and rescores it in full, and its character matrix against one rooted tree
per triple.  The collapse rules of `nactree.collapse`, which mark nodes on
their input tree, are checked against walks that rebuild the tree after
every collapse.  The triple codes of `nactree.trees` are checked against
shapes read from a frozenset-keyed table of pair LCAs, and its
witness-list reconstruction against one that looks up every third leaf's
shape; `TripleShape` is the tests' value of one triple.  The batched
trivariate estimates of `nactree.builders` are checked against a loop
that sorts each triple's three scalar distances with their cherries.
The closed-form independence deviation is checked by quadrature of the
independence Kendall distribution (`independence_kendall_cdf`), and the
parsimony scores are taken on rooted trees with an outgroup attached
(`attach_outgroup`).
"""

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import rankdata

from nactree import builders, collapse
from nactree.builders import UNKNOWN
from nactree.dependence import (
    DataError,
    Dataset,
    kendall_dist_distance,
    lattice_cdf,
    pseudo_observations,
)
from nactree.trees import (
    RootedTree,
    TreeError,
    UnrootedTree,
    root_with_outgroup,
    unroot,
)


def dataset_from_csv_cells(text: str) -> Dataset:
    """Cell-by-cell reference for `Dataset.from_csv`: the `csv` rows of
    ``text`` without a leading byte-order mark, and Python's float of every
    cell of the body."""
    rows = [r for r in csv.reader(io.StringIO(text.removeprefix("\ufeff")))
            if r]
    if len(rows) < 2:
        raise DataError("CSV needs a header row and data rows")
    header = tuple(name.strip() for name in rows[0])
    if any(len(row) != len(header) for row in rows[1:]):
        raise DataError("ragged CSV rows")
    try:
        values = np.array([[float(cell) for cell in row] for row in rows[1:]])
    except ValueError as exc:
        raise DataError(f"non-numeric cell in CSV: {exc}") from None
    return Dataset(values, header)


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
    n = x.size
    r = rankdata(x, method="average")
    s = rankdata(y, method="average")
    c = dominance_counts_quadratic(x, y)
    d1 = float(np.sum(c * (c - 1)))
    d2 = float(np.sum((r - 1) * (r - 2) * (s - 1) * (s - 2)))
    d3 = float(np.sum((r - 2) * (s - 2) * c))
    num = 30.0 * ((n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3)
    return num / float(n * (n - 1) * (n - 2) * (n - 3) * (n - 4))


def kendall_scores_quadratic(x, y) -> np.ndarray:
    """Sorted pseudo-Kendall scores W_i = #{j : x_j < x_i, y_j < y_i}/(n-1)
    from the O(n^2) counts."""
    counts = dominance_counts_quadratic(x, y)
    return np.sort(counts) / (counts.size - 1)


def _scores(w) -> np.ndarray:
    # a score array; a library KendallDistribution gives the scores it
    # reads off its lattice
    return np.sort(np.asarray(getattr(w, "w", w), dtype=float))


def step_cdf(w, t) -> np.ndarray:
    """Right-continuous empirical CDF of the scores ``w`` at t."""
    w = _scores(w)
    return np.searchsorted(w, np.asarray(t), side="right") / w.size


def _merged_grid(*w_arrays):
    # Kendall scores lie in [0, 1], the grid's span
    return np.unique(np.concatenate([np.array([0.0, 1.0]),
                                     *map(_scores, w_arrays)]))


def kendall_dist_distance_grid(a, b) -> float:
    """Float reference for :func:`kendall_dist_distance` of the score sets
    ``a`` and ``b``: the integral of (K_a - K_b)^2 summed over the merged
    jump grid, any two sizes."""
    grid = _merged_grid(a, b)
    fa = step_cdf(a, grid[:-1])
    fb = step_cdf(b, grid[:-1])
    return float(np.sum(np.diff(grid) * (fa - fb) ** 2))


def mean_distance_to_grid(a, b, c) -> float:
    """Float reference for :func:`mean_distance_to` of three score sets:
    the integral of ((K_a + K_b)/2 - K_c)^2 over the merged jump grid."""
    grid = _merged_grid(a, b, c)
    fm = 0.5 * (step_cdf(a, grid[:-1]) + step_cdf(b, grid[:-1]))
    fc = step_cdf(c, grid[:-1])
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


def independence_deviation_grid(w) -> float:
    """Float reference for :func:`independence_deviation` of the scores
    ``w``: the closed form on each segment of their own jump grid."""
    grid = _merged_grid(w)
    f = step_cdf(w, grid[:-1])
    t0, t1 = grid[:-1], grid[1:]
    const = f**2 * (t1 - t0)
    cross = -2.0 * f * (_indep_cdf_antiderivative(t1) - _indep_cdf_antiderivative(t0))
    square = _indep_cdf_sq_antiderivative(t1) - _indep_cdf_sq_antiderivative(t0)
    return float(np.sum(const + cross + square))


def fan_statistic(scores) -> float:
    """Float fan statistic of the Kendall scores of the pairs (i,j), (i,k),
    (j,k)."""
    # the CvM distance from the mean of the two closest to the third
    # (argmin keeps the first tied pair)
    pairs = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    dists = [kendall_dist_distance_grid(scores[a], scores[b])
             for a, b, _ in pairs]
    a, b, third = pairs[int(np.argmin(dists))]
    return mean_distance_to_grid(scores[a], scores[b], scores[third])


def _tie_starts_sorted(s) -> np.ndarray:
    # where each entry's tie group starts along the last axis of sorted rows
    start = np.zeros(s.shape, dtype=np.intp)
    start[..., 1:] = np.where(s[..., 1:] != s[..., :-1],
                              np.arange(1, s.shape[-1]), 0)
    return np.maximum.accumulate(start, axis=-1)


def below_planes_argsort(v) -> np.ndarray:
    """Argsort reference for `nactree.dependence._below_planes`: one
    comparison argsort per row, each point reading the prefix-OR table at
    the tie start of its sorted row, for any ordered values."""
    v = np.asarray(v)
    m, n = v.shape
    words = -(-n // 64)
    order = np.argsort(v, axis=1)
    row = np.arange(m)[:, None]
    at = (row * n + order).ravel()
    table_row = row * (n + 1)
    table = np.zeros((m, n + 1, words), dtype=np.uint64)
    table.reshape(-1)[((table_row + np.arange(1, n + 1)) * words
                       + (order >> 6)).ravel()] = (
        np.uint64(1) << (order & 63).astype(np.uint64)).ravel()
    np.bitwise_or.accumulate(table, axis=1, out=table)
    read = np.empty(m * n, dtype=np.intp)
    read[at] = (table_row + _tie_starts_sorted(
        np.take(v, at).reshape(m, n))).ravel()
    return table.reshape(m * (n + 1), words)[read].reshape(m, n, words)


def column_pair_dominance_argsort(batch) -> np.ndarray:
    """Reference for `nactree.dependence._column_pair_dominance`: the
    argsort packer on the whole ``(3, m, n)`` batch at once, one pair's
    popcounts summed by einsum."""
    planes = [below_planes_argsort(column) for column in np.asarray(batch)]
    return np.stack([np.einsum("...w->...", np.bitwise_count(
        planes[a] & planes[c]), dtype=np.int64)
        for a, c in ((0, 1), (0, 2), (1, 2))])


def lattice_fan_statistics_subtract(cdfs) -> np.ndarray:
    """Subtract-and-square reference for
    `nactree.collapse._lattice_fan_statistics`: each pair's distance and
    each fan sum from its combined CDF, squared and summed."""
    pairs = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    dist = np.stack([np.sum((cdfs[a] - cdfs[b]) ** 2, axis=-1)
                     for a, b, _ in pairs], axis=1)
    fan = np.stack([np.sum((cdfs[a] + cdfs[b] - 2 * cdfs[c]) ** 2, axis=-1)
                    for a, b, c in pairs], axis=1)
    return fan[np.arange(fan.shape[0]), np.argmin(dist, axis=1)]


def su_triple_test_batched(u, i, j, k, b: int = 200, seed=0) -> float:
    """Batched reference for :func:`su_triple_test` on the same random
    streams: the per-resample batch, the argsort packer and the
    subtract-and-square statistic."""
    obs = pseudo_observations(u)
    n = obs.n
    ranks = np.unique(obs.u[:, [obs.index[lab] for lab in (i, j, k)]],
                      return_inverse=True)[1].reshape(n, 3)
    counts = column_pair_dominance_argsort(resample_batch_argsort(
        ranks, b, seed))
    t = lattice_fan_statistics_subtract([lattice_cdf(c) for c in counts])
    return (1 + int(np.count_nonzero(t[1:] >= t[0]))) / (b + 1)


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
    pairs = ((0, 1), (0, 2), (1, 2))
    t_obs = fan_statistic([kendall_scores_quadratic(data[:, a], data[:, c])
                           for a, c in pairs])
    orders = list(itertools.permutations(range(3)))
    draw = np.random.default_rng(seed).integers(0, 6 * n, (b, n),
                                                dtype=np.int32)
    exceed = 0
    for v in draw:
        block = np.array([data[x // 6][list(orders[x % 6])] for x in v])
        scores = [kendall_scores_quadratic(block[:, a], block[:, c])
                  for a, c in pairs]
        if fan_statistic(scores) >= t_obs:
            exceed += 1
    return (1 + exceed) / (b + 1)


def resample_batch_argsort(ranks, b: int, seed) -> np.ndarray:
    """Per-resample reference for `nactree.collapse._resample_batch`: the
    same one draw of 6n values per resample row, each value v read as
    source row v // 6 and the (v % 6)-th permutation of its columns, one
    resample after another."""
    n = ranks.shape[0]
    orders = list(itertools.permutations(range(3)))
    batch = np.empty((3, b + 1, n), dtype=np.int32)
    batch[:, 0] = ranks.T
    draw = np.random.default_rng(seed).integers(0, 6 * n, (b, n),
                                                dtype=np.int32)
    for r, v in enumerate(draw, start=1):
        batch[:, r] = np.array([ranks[x // 6][list(orders[x % 6])]
                                for x in v]).T
    return batch


def collapse_kagg_recompute(tree, u, tau_c):
    """From-scratch reference for :func:`collapse_kagg`: every node's mean
    tau is summed again after every collapse."""
    obs = pseudo_observations(u)
    col = obs.index

    def mean_tau(t, v):
        pairs = list(t.leaf_pairs_across(t.children[v]))
        return sum(obs.tau[col[a], col[b]] for a, b in pairs) / len(pairs)

    while True:
        means = {v: mean_tau(tree, v) for v in tree.internal_nodes}
        best = None
        for v in tree.internal_nodes:
            if v != tree.root:
                key = (abs(means[tree.parent[v]] - means[v]),
                       tuple(sorted(tree.leaf_set(v))))
                if best is None or key < best[0]:
                    best = (key, v)
        if best is None or not best[0][0] < tau_c:
            return tree
        tree = tree.collapse_edges({best[1]})


def collapse_kb_rebuild(tree, u, alpha=0.05, b=200, seed=0):
    """Rebuilding reference for :func:`collapse_kb`: every accepted
    collapse builds the tree again, and the walk restarts on the new
    tree's depths and leaf pairs."""
    obs = pseudo_observations(u)
    while True:
        candidates = sorted(
            (v for v in tree.internal_nodes if v != tree.root),
            key=lambda v: (-tree.depth(v), tuple(sorted(tree.leaf_set(v)))))
        for child in candidates:
            outer = sorted(tree.leaf_set(tree.parent[child])
                           - tree.leaf_set(child))
            pvals = [collapse.fan_test_p_value(obs, (la, lb, z), b, seed)
                     for la, lb in tree.leaf_pairs_across(tree.children[child])
                     for z in outer]
            if sum(pvals) / len(pvals) > alpha:
                tree = tree.collapse_edges({child})
                break
        else:
            return tree


def _kendall_integrand(family: str, theta: float):
    # psi_inv(t) / psi_inv'(t), written per family to avoid 0/0 endpoints
    if family == "gumbel":
        return lambda t: t * math.log(t) / theta
    if family == "frank":
        def ratio(t):
            phi = -math.log(math.expm1(-theta * t) / math.expm1(-theta))
            dphi = theta * math.exp(-theta * t) / math.expm1(-theta * t)
            return phi / dphi
        return ratio
    if family == "joe":
        def ratio(u):
            x = (1.0 - u) ** theta
            return math.log1p(-x) * (1.0 - x) / (theta * (1.0 - u) ** (theta - 1.0))
        return ratio
    raise ValueError(f"no Kendall integrand for family {family!r}")


def theta_to_tau_quad(family: str, theta: float) -> float:
    """Kendall's tau of a Gumbel, Frank or Joe generator as
    1 + 4 * integral_0^1 psi_inv(t)/psi_inv'(t) dt by adaptive quadrature.
    Accurate to about 1e-11 for Frank theta <= 15 and for Joe; Frank's
    integral loses digits above theta = 20."""
    if theta == 1.0 and family in ("gumbel", "joe"):
        return 0.0
    with warnings.catch_warnings():
        # the integrand is mildly singular at the endpoints; quad grumbles
        # about roundoff at large theta
        warnings.simplefilter("ignore", IntegrationWarning)
        integral, _ = quad(_kendall_integrand(family, theta), 0.0, 1.0,
                           limit=500, epsabs=1e-11)
    return 1.0 + 4.0 * integral


def tau_to_theta_brentq(family: str, tau: float) -> float:
    """Inverse of :func:`theta_to_tau_quad` by brentq on a doubling bracket,
    to 1e-8 in theta."""
    lo = 1e-9 if family == "frank" else 1.0
    hi = 2.0
    while theta_to_tau_quad(family, hi) < tau:
        hi *= 2.0
    return float(brentq(lambda th: theta_to_tau_quad(family, th) - tau,
                        lo, hi, xtol=1e-8))


def sibuya_survival_gammaln(n, alpha: float) -> np.ndarray:
    """P(N > n) of a Sibuya(alpha) law through `scipy.special.gammaln`."""
    n = np.asarray(n, dtype=float)
    return np.exp(gammaln(n + 1.0 - alpha) - gammaln(n + 1.0)
                  - gammaln(1.0 - alpha))


def average_linkage_pairs(dist) -> RootedTree:
    """Pair-dictionary reference for :func:`average_linkage`.

    Agglomerate the two clusters with minimal average inter-cluster
    distance until one remains; the merge order is the binary tree.

    Ties break toward the lexicographically smallest pair of cluster
    representatives (a cluster is represented by its smallest leaf label).
    """
    m = np.asarray(dist.values, dtype=float)
    if not np.all(np.isfinite(m)) or not np.allclose(m, m.T):
        raise ValueError("average linkage needs a finite symmetric matrix")
    labels = dist.labels
    if len(labels) < 2:
        raise ValueError("average linkage needs at least two items")
    rep = {i: labels[i] for i in range(len(labels))}  # smallest leaf label
    nested = {i: labels[i] for i in range(len(labels))}
    d = {(i, j): float(m[i, j])
         for i, j in itertools.combinations(range(len(labels)), 2)}
    sizes = {i: 1 for i in rep}
    next_id = len(labels)
    while len(rep) > 1:
        best = None
        for i, j in itertools.combinations(sorted(rep), 2):
            lo, hi = sorted((rep[i], rep[j]))
            key = (d[(i, j)], lo, hi)
            if best is None or key < best[0]:
                best = (key, i, j)
        (_, lo, _), i, j = best
        new = next_id
        next_id += 1
        for k in rep:
            if k in (i, j):
                continue
            dik = d[tuple(sorted((i, k)))]
            djk = d[tuple(sorted((j, k)))]
            d[(k, new)] = (sizes[i] * dik + sizes[j] * djk) / (sizes[i] + sizes[j])
        rep[new] = lo
        nested[new] = [nested[i], nested[j]]
        sizes[new] = sizes[i] + sizes[j]
        for k in (i, j):
            del rep[k], nested[k], sizes[k]
    (root,) = nested.values()
    return RootedTree.from_nested(root)


def nj_tree_pairs(dist, labels) -> UnrootedTree:
    """Pair-dictionary reference for :func:`nj_tree`.

    Saitou-Nei agglomeration on a symmetric distance matrix; ties break
    toward the lexicographically smallest label pair."""
    m = np.array(dist, dtype=float)
    labels = tuple(labels)
    d = len(labels)
    if d < 3:
        raise TreeError("neighbor joining needs at least 3 items")
    if m.shape != (d, d) or not np.all(np.isfinite(m)) or not np.allclose(m, m.T):
        raise TreeError("neighbor joining needs a finite symmetric matrix")

    adj = [[] for _ in range(d)]
    node_labels = {i: labels[i] for i in range(d)}
    active = {i: labels[i] for i in range(d)}  # node id -> representative
    dmat = {(i, j): m[i, j] for i, j in itertools.combinations(range(d), 2)}

    def dget(i, j):
        return dmat[(i, j) if i < j else (j, i)]

    while len(active) > 3:
        ids = sorted(active)
        r = {i: sum(dget(i, k) for k in ids if k != i) for i in ids}
        best = None
        for i, j in itertools.combinations(ids, 2):
            q = (len(ids) - 2) * dget(i, j) - r[i] - r[j]
            rep = tuple(sorted((active[i], active[j])))
            key = (q, rep)
            if best is None or key < best[0]:
                best = (key, i, j)
        _, i, j = best
        new = len(adj)
        adj.append([i, j])
        adj[i].append(new)
        adj[j].append(new)
        for k in ids:
            if k in (i, j):
                continue
            dmat[(k, new)] = 0.5 * (dget(i, k) + dget(j, k) - dget(i, j))
        active[new] = min(active[i], active[j])
        del active[i], active[j]
    ids = sorted(active)
    center = len(adj)
    adj.append(list(ids))
    for i in ids:
        adj[i].append(center)
    return UnrootedTree(adj, node_labels)


def hamming_distances_loop(matrix) -> np.ndarray:
    """Row-pair loop reference for :func:`hamming_distances`.

    Row-wise mismatch fraction, ignoring columns where either row is
    unknown (0 when no column is shared)."""
    data = matrix.data
    n = data.shape[0]
    out = np.zeros((n, n))
    known = data != UNKNOWN
    for i, j in itertools.combinations(range(n), 2):
        both = known[i] & known[j]
        m = int(both.sum())
        if m:
            out[i, j] = out[j, i] = float(np.sum(data[i, both] != data[j, both])) / m
    return out


def fitch_score_counts(tree, matrix, weights=None) -> float:
    """Per-column numpy reference for :func:`fitch_score`.

    Minimum number of state changes over all columns (weighted sum).

    Bottom-up state-set pass rooted at an arbitrary leaf; unknown cells
    carry the full state set.  Hartigan's counting rule is used at each
    node, which equals Fitch on binary trees and stays exact on
    polytomies.
    """
    if set(tree.leaf_labels) != set(matrix.rows):
        raise TreeError("tree leaves do not match matrix rows")
    ncols = matrix.n_columns
    if ncols == 0:
        return 0.0
    if weights is None:
        weights = np.ones(ncols)
    weights = np.asarray(weights, dtype=float)
    changes = np.zeros(ncols, dtype=float)
    # Fitch state sets of the cells: 1 -> {0}, 2 -> {1}, 3 -> {0, 1}
    masks = np.array([3, 1, 2], np.uint8)[matrix.data + 1]

    def state_mask(node, parent):
        # state sets of the subtree at ``node`` seen from ``parent``,
        # children visited in reverse adjacency order
        nonlocal changes
        if tree.is_leaf(node):
            return masks[matrix.rows.index(tree.labels[node])]
        kids = [w for w in tree.adj[node] if w != parent]
        count0 = np.zeros(ncols, dtype=np.int16)
        count1 = np.zeros(ncols, dtype=np.int16)
        for w in reversed(kids):
            mask = state_mask(w, node)
            count0 += mask & 1
            count1 += (mask >> 1) & 1
        top = np.maximum(count0, count1)
        changes += (len(kids) - top) * weights
        return ((count0 == top).astype(np.uint8)
                | ((count1 == top).astype(np.uint8) << 1))

    start = tree.node_of_label(min(tree.leaf_labels))
    disjoint = (state_mask(tree.adj[start][0], start)
                & state_mask(start, None)) == 0
    return float(np.sum(changes) + np.sum(weights[disjoint]))


def nni_neighbors_validated(tree) -> list:
    """Reference for :func:`nni_neighbors`: every neighbor is a fully
    validated `UnrootedTree`."""
    if len(tree.leaf_labels) < 4:
        raise TreeError("NNI needs at least 4 leaves")
    out = []
    for u, v in tree.internal_edges():
        u_subs = [w for w in tree.adj[u] if w != v]
        v_subs = [w for w in tree.adj[v] if w != u]
        if len(u_subs) != 2 or len(v_subs) != 2:
            raise TreeError("NNI is defined on binary trees")
        b = u_subs[1]
        for c in v_subs:
            adj = [list(nb) for nb in tree.adj]
            adj[u][adj[u].index(b)] = c
            adj[v][adj[v].index(c)] = b
            adj[b][adj[b].index(u)] = v
            adj[c][adj[c].index(v)] = u
            out.append(UnrootedTree(adj, tree.labels))
    return out


def hill_climb_rescore(tree, matrix, weights, max_rounds):
    """Reference for the supertree NNI climb: every validated neighbor is
    rescored in full by `fitch_score`, itself checked against
    :func:`fitch_score_counts`."""
    score = builders.fitch_score(tree, matrix, weights)
    for _ in range(max_rounds):
        best_tree, best_score = None, score
        for nb in nni_neighbors_validated(tree):
            s = builders.fitch_score(nb, matrix, weights)
            if s < best_score:
                best_tree, best_score = nb, s
        if best_tree is None:
            break
        tree, score = best_tree, best_score
    return tree, score


def _triples_to_trees(codes, labels) -> list:
    """The rooted tree of each binary triple code over the sorted
    ``labels``, in code order: the input trees whose
    `builders.build_character_matrix` is the supertree searches' character
    matrix."""
    shapes = shapes_from_codes(codes, labels)
    return [RootedTree.from_nested([sorted(shape.cherry), shape.outlier])
            for shape in shapes.values()]


def supertree_from_shapes_rescore(codes, labels, *, ratchet, seed=0):
    """Reference for :func:`supertree_from_shapes` (four or more labels)
    on :func:`hill_climb_rescore`, with the same start trees and ratchet
    draws."""
    labels = sorted(labels)
    outgroup = builders._search_outgroup(labels)
    matrix = builders.build_character_matrix(
        _triples_to_trees(codes, labels), labels, outgroup)
    rounds = builders.MAX_ROUNDS
    if not ratchet:
        start = builders.nj_tree(builders.hamming_distances(matrix), matrix.rows)
        best, _ = hill_climb_rescore(start, matrix, None, rounds)
        return root_with_outgroup(best, outgroup)
    rng = np.random.default_rng(seed)
    start = builders._random_binary_unrooted(matrix.rows, rng)
    best, best_score = hill_climb_rescore(start, matrix, None, rounds)
    current = best
    ncols = matrix.n_columns
    n_up = max(1, int(round(builders.RATCHET_REWEIGHT_FRACTION * ncols)))
    for _ in range(builders.RATCHET_ITERATIONS):
        weights = np.ones(ncols)
        chosen = rng.choice(ncols, size=n_up, replace=False)
        weights[chosen] = builders.RATCHET_WEIGHT_FACTOR
        perturbed, _ = hill_climb_rescore(current, matrix, weights, rounds)
        candidate, score = hill_climb_rescore(perturbed, matrix, None, rounds)
        if score <= best_score:
            if score < best_score:
                best, best_score = candidate, score
            current = candidate
        else:
            current = best
    return root_with_outgroup(best, outgroup)


def shapes_from_codes(codes, labels) -> dict:
    """One `TripleShape` per triple code over the sorted ``labels``, keyed
    by leaf triple in `itertools.combinations` order: 0 a fan, 1, 2 or 3
    the cherry ab, ac or bc of the triple a < b < c."""
    out = {}
    for (a, b, c), code in zip(itertools.combinations(sorted(labels), 3),
                               np.asarray(codes).tolist()):
        cherry = (None, (a, b), (a, c), (b, c))[code]
        out[frozenset((a, b, c))] = TripleShape(
            frozenset((a, b, c)), None if cherry is None else frozenset(cherry))
    return out


@dataclass(frozen=True)
class TripleShape:
    """Topology of a tree restricted to three leaves: the 3-fan, or one of
    the three cherries.  ``cherry`` holds the pair of labels sharing the
    deeper node, or ``None`` for a fan."""

    leaves: frozenset
    cherry: frozenset | None = None

    @property
    def is_fan(self) -> bool:
        return self.cherry is None

    @property
    def outlier(self):
        """The leaf left apart by a cherry."""
        (out,) = self.leaves - self.cherry
        return out

    @property
    def code(self) -> int:
        """0 for a fan, else 1, 2 or 3 for the cherry ab, ac or bc of the
        sorted leaves a < b < c."""
        if self.cherry is None:
            return 0
        return 3 - sorted(self.leaves).index(self.outlier)


def trivariate_binary_estimate_loop(u) -> np.ndarray:
    """Reference for :func:`nactree.builders.trivariate_binary_estimate`,
    triple by triple: the scalar distances between the EKDs of the
    triple's three pairs, sorted with the cherry that each pair of pairs
    leaves (their symmetric difference), and the code of the first."""
    obs = pseudo_observations(u)
    codes = []
    for triple in itertools.combinations(sorted(obs.columns), 3):
        ekd = {pair: obs.ekd(*pair) for pair in itertools.combinations(triple, 2)}
        candidates = []
        for q1, q2 in itertools.combinations(ekd, 2):
            cherry = frozenset(set(q1) ^ set(q2))
            candidates.append((kendall_dist_distance(ekd[q1], ekd[q2]),
                               tuple(sorted(cherry)), cherry))
        candidates.sort()
        codes.append(TripleShape(frozenset(triple), candidates[0][2]).code)
    return np.array(codes, dtype=np.int8)


def attach_outgroup(tree, outgroup: str) -> UnrootedTree:
    """Hang an extra leaf off the root of the rooted ``tree``, then unroot:
    the outgroup edge marks where the root was, as in the supertree
    searches' character matrix."""
    if outgroup in tree.label_set:
        raise TreeError(f"outgroup label {outgroup!r} already in tree")
    return unroot(RootedTree.from_nested([tree.to_nested(), outgroup]))


def independence_kendall_cdf(t) -> np.ndarray:
    """Kendall distribution of two independent variables:
    K(t) = t - t ln t on (0,1], K(0) = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] - t[pos] * np.log(t[pos])
    return np.clip(out, 0.0, 1.0)


def lca_table(tree) -> dict:
    """The LCA node of every unordered leaf-label pair, keyed by
    frozenset: each internal node holds the pairs split between two of its
    children."""
    return {frozenset(pair): v for v in tree.internal_nodes
            for pair in tree.leaf_pairs_across(tree.children[v])}


def decompose_lca_table(tree) -> dict:
    """Reference for :func:`nactree.trees.decompose`: the `TripleShape` of
    every triple of sorted labels, in `itertools.combinations` order, from
    the depths of its three pairs' nodes in :func:`lca_table`."""
    table = lca_table(tree)
    out = {}
    for a, b, c in itertools.combinations(sorted(tree.label_set), 3):
        dab, dac, dbc = (tree.depth(table[frozenset(p)])
                         for p in ((a, b), (a, c), (b, c)))
        top = max(dab, dac, dbc)
        leaves = frozenset((a, b, c))
        if dab == dac == dbc:
            out[leaves] = TripleShape(leaves)
        else:
            cherry = (a, b) if dab == top else (a, c) if dac == top else (b, c)
            out[leaves] = TripleShape(leaves, frozenset(cherry))
    return out


def tree_distance_tri_lca_table(a, b) -> int:
    """Reference for :func:`nactree.trees.tree_distance_tri`: the triples
    whose :func:`decompose_lca_table` shapes differ."""
    sa, sb = decompose_lca_table(a), decompose_lca_table(b)
    return sum(sa[key] != sb[key] for key in sa)


def reconstruct_shapes(shapes: dict, labels) -> RootedTree:
    """Reference for :func:`nactree.trees.reconstruct` over a complete
    dict of `TripleShape` keyed by leaf triple: each pair's votes are
    counted by looking up every third leaf's triple."""
    labels = sorted(labels)

    def components(group, edges):
        idx = {lab: i for i, lab in enumerate(group)}
        up = list(range(len(group)))

        def find(i):
            while up[i] != i:
                up[i] = up[up[i]]
                i = up[i]
            return i

        for a, b in edges:
            ra, rb = find(idx[a]), find(idx[b])
            if ra != rb:
                up[ra] = rb
        comps = {}
        for lab in group:
            comps.setdefault(find(idx[lab]), []).append(lab)
        return sorted(comps.values())

    def build(group):
        if len(group) == 1:
            return group[0]
        if len(group) == 2:
            return list(group)
        support = {}
        members = set(group)
        for a, b in itertools.combinations(group, 2):
            pair = frozenset((a, b))
            votes = sum(1 for k in group if k not in pair
                        and shapes[frozenset((a, b, k))].cherry == pair)
            if votes:
                support[(a, b)] = votes
        comps = components(group, support)
        while len(comps) == 1 and len(comps[0]) == len(group) and support:
            weakest = min(support.values())
            support = {e: w for e, w in support.items() if w > weakest}
            comps = components(group, support)
        assert members == {lab for comp in comps for lab in comp}
        return [build(comp) for comp in comps]

    return RootedTree.from_nested(build(labels))
