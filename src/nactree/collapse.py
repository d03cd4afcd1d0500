"""Step two: collapse internal edges of an estimated binary tree.

Two rules.  The aggregation rule (kagg) summarizes each internal node by
the mean Kendall's tau over the leaf pairs meeting there and collapses a
parent-child pair whenever the absolute difference of the two summaries
falls below a critical threshold.  The bootstrap rule (kb) asks, for every
leaf triple that a candidate collapse would turn from a cherry into a
3-fan, whether the data can tell the triple apart from a fan: the triple
test compares the average of the two closest empirical Kendall
distributions to the third and gets its p-value from a nonparametric
bootstrap.  The candidate collapses only if the average p-value exceeds
the significance threshold.

The triple test draws its resamples one by one, in a fixed order from its
seed, and then counts them all at once: one batched dominance count per
column pair on integer ranks.  Its statistic is the integer lattice sum
that every Cramer-von-Mises distance uses, so the bootstrap comparison
involves no rounding.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .builders import BUILD_METHODS
from .dependence import (
    DataError,
    dominance_counts,
    lattice_cdf,
    lattice_sq_sum,
    pseudo_observations,
)
from .trees import RootedTree, TreeError

KAGG = "kagg"
KB = "kb"
COLLAPSE_RULES = (KAGG, KB)


@dataclass(frozen=True)
class NodeSummary:
    node: int
    mean_tau: float

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.mean_tau <= 1.0 + 1e-12:
            raise ValueError("mean tau outside [-1, 1]")


# --------------------------------------------------------------------------- #
# Node summaries and the aggregation rule
# --------------------------------------------------------------------------- #


def _node_mean_tau(tree: RootedTree, node: int, obs) -> float:
    taus, col = obs.tau, obs.index
    total = 0.0
    count = 0
    for la, lb in tree.leaf_pairs_at(node):
        total += taus[col[la], col[lb]]
        count += 1
    return total / count


def node_tau_summary(tree: RootedTree, node: int, u) -> NodeSummary:
    """Mean estimated Kendall's tau over the leaf pairs whose LCA is
    ``node`` (the scalar summary of the node's generator)."""
    if tree.is_leaf(node):
        raise TreeError("leaves have no generator to summarize")
    return NodeSummary(node, _node_mean_tau(tree, node, pseudo_observations(u)))


def annotate_mean_taus(tree: RootedTree, u, digits: int | None = None
                       ) -> RootedTree:
    """Attach the mean-tau summary of every internal node as annotations."""
    obs = pseudo_observations(u)
    values = {}
    for v in tree.internal_nodes:
        val = _node_mean_tau(tree, v, obs)
        values[v] = round(val, digits) if digits is not None else val
    return tree.with_annotations(values)


def collapse_kagg(tree: RootedTree, u, tau_c: float) -> RootedTree:
    """Repeatedly collapse the parent-child internal pair with the smallest
    absolute mean-tau difference while that difference stays below tau_c;
    summaries are recomputed after every collapse.  tau_c <= 0 is a no-op.
    """
    obs = pseudo_observations(u)
    while True:
        summaries = {v: _node_mean_tau(tree, v, obs)
                     for v in tree.internal_nodes}
        best = None
        for v in tree.internal_nodes:
            if v == tree.root:
                continue
            diff = abs(summaries[tree.parent[v]] - summaries[v])
            key = (diff, tuple(sorted(tree.leaf_set(v))))
            if best is None or key < best[0]:
                best = (key, v)
        if best is None or best[0][0] >= tau_c:
            return tree
        tree = tree.collapse_edge(best[1])


# --------------------------------------------------------------------------- #
# The trivariate fan test
# --------------------------------------------------------------------------- #


# (first, second, third) of each way to pick the two closest EKDs among
# those of the pairs (i,j), (i,k), (j,k), in argmin's tie order
_FAN_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _lattice_fan_statistics(cdfs) -> np.ndarray:
    """The fan statistic of each row, exactly, as an integer.

    ``cdfs`` are the `lattice_cdf` arrays of the pairs (i,j), (i,k), (j,k).
    The integer sums of `kendall_dist_distance` pick the two closest pairs
    (the first of tied ones, which share a member and so give the same T);
    T is the sum of `mean_distance_to` from their mean to the third.
    """
    dist = np.stack([lattice_sq_sum(cdfs[a] - cdfs[b])
                     for a, b, _ in _FAN_PAIRS], axis=1)
    fan = np.stack([lattice_sq_sum(cdfs[a] + cdfs[b] - 2 * cdfs[c])
                    for a, b, c in _FAN_PAIRS], axis=1)
    return fan[np.arange(fan.shape[0]), np.argmin(dist, axis=1)]


def su_triple_test(u, i, j, k, b: int = 200, seed=0) -> float:
    """Bootstrap p-value for the null that the triple (i,j,k) is a 3-fan
    (all three Kendall distributions coincide).

    The statistic T is the Cramer-von-Mises distance between the pointwise
    mean of the two closest empirical Kendall distributions and the third.
    Under the fan null the trivariate copula is exchangeable, so each of
    the ``b`` row resamples is aligned with the null by shuffling the
    three values within every row; the statistic recomputed on such a
    resample is a genuine null draw and the p-value is the add-one count
    (1 + #{T* >= T})/(b + 1), strictly positive so that boundary collapse
    thresholds behave.  Small p-values reject the fan.

    The resamples are drawn one after another from ``seed`` (row indices,
    then the within-row shuffle keys) and stacked under the sample itself
    as integer ranks.  Then all of them are counted together: three
    batched `dominance_counts` calls, one per column pair.  Every
    statistic is an exact integer on the EKDs' lattice
    (`_lattice_fan_statistics`), so T* and T are compared without
    rounding.
    """
    if len({i, j, k}) != 3:
        raise TreeError("triple test needs three distinct labels")
    if b < 1:
        raise DataError("need at least one bootstrap resample")
    obs = pseudo_observations(u)
    unknown = [lab for lab in (i, j, k) if lab not in obs.index]
    if unknown:
        raise DataError(f"unknown column label(s): {', '.join(map(str, unknown))}")
    n = obs.n
    # the within-row shuffle mixes the columns, so all 3n values share one
    # dense ranking: exact for any u, ties kept; int16 compares about twice
    # as fast as float64 in the broadcast at n = 500
    values, ranks = np.unique(obs.u[:, [obs.index[lab] for lab in (i, j, k)]],
                              return_inverse=True)
    dtype = np.int16 if values.size <= np.iinfo(np.int16).max else np.int32
    ranks = ranks.reshape(n, 3).astype(dtype)
    batch = np.empty((3, b + 1, n), dtype=dtype)  # column, resample, row
    batch[:, 0] = ranks.T
    rng = np.random.default_rng(seed)
    for r in range(1, b + 1):
        block = ranks[rng.integers(0, n, n)]
        within_row = np.argsort(rng.random((n, 3)), axis=1)
        batch[:, r] = np.take_along_axis(block, within_row, axis=1).T
    t = _lattice_fan_statistics([
        lattice_cdf(dominance_counts(batch[a], batch[c]))
        for a, c in ((0, 1), (0, 2), (1, 2))])
    return (1 + int(np.count_nonzero(t[1:] >= t[0]))) / (b + 1)


# --------------------------------------------------------------------------- #
# The bootstrap collapse rule
# --------------------------------------------------------------------------- #


def _changed_triples(tree: RootedTree, child: int) -> list:
    """Leaf triples whose shape flips from cherry to fan when ``child``
    collapses into its parent: pairs meeting at the child, third leaf
    meeting them at the parent."""
    parent = tree.parent[child]
    outer = sorted(tree.leaf_set(parent) - tree.leaf_set(child))
    return [tuple(sorted((la, lb, z)))
            for la, lb in tree.leaf_pairs_at(child) for z in outer]


def _triple_seed(seed, triple) -> np.random.SeedSequence:
    # one independent, traversal-order-free stream per triple; crc32 keeps
    # the key stable across processes (str hash is salted)
    key = tuple(zlib.crc32(lab.encode("utf-8")) for lab in sorted(triple))
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.SeedSequence(entropy=seed.entropy,
                                  spawn_key=tuple(seed.spawn_key) + key)


def fan_test_p_value(obs, triple, b: int, seed) -> float:
    """The fan test's p-value for one leaf triple, kept on the sample.

    Each triple gets its own stream spawned from ``seed``, so a p-value
    depends only on (sample, triple, b, seed) and is stored under exactly
    that key: every kb collapse and SU on one sample share it.
    """
    key = tuple(sorted(triple))
    stream = _triple_seed(seed, key)
    return obs.derived(
        ("fan test", key, b, stream.entropy, stream.spawn_key),
        lambda: su_triple_test(obs, *key, b=b, seed=stream))


def collapse_kb(tree: RootedTree, u, alpha: float = 0.05, b: int = 200,
                seed=0) -> RootedTree:
    """Bootstrap collapse: walk parent-child internal pairs bottom-up
    (deepest child first); for each candidate, test every triple whose
    shape the collapse would change and collapse iff the average p-value
    exceeds alpha.  After an accepted collapse the candidate list is
    rebuilt.  alpha >= 1 never collapses; alpha = 0 collapses everything.
    P-values go through `fan_test_p_value`, so each triple is tested once
    per sample, ``b`` and ``seed``.
    """
    obs = pseudo_observations(u)
    while True:
        candidates = sorted(
            (v for v in tree.internal_nodes if v != tree.root),
            key=lambda v: (-tree.depth(v), tuple(sorted(tree.leaf_set(v)))))
        collapsed = False
        for child in candidates:
            pvals = [fan_test_p_value(obs, t, b, seed)
                     for t in _changed_triples(tree, child)]
            if sum(pvals) / len(pvals) > alpha:
                tree = tree.collapse_edge(child)
                collapsed = True
                break
        if not collapsed:
            return tree


# --------------------------------------------------------------------------- #
# Estimator names
# --------------------------------------------------------------------------- #


ESTIMATOR_NAMES = tuple(f"{m}_{r}" for m in BUILD_METHODS
                        for r in COLLAPSE_RULES) + ("SU",)


def parse_estimator(name: str):
    """Split a composed estimator name like ``kt_kagg`` into its build
    method and collapse rule; ``SU`` is the triple-test baseline."""
    if name == "SU":
        return ("SU", None)
    if "_" not in name:
        raise ValueError(f"unknown estimator {name!r}")
    method, rule = name.rsplit("_", 1)
    methods = {m.lower(): m for m in BUILD_METHODS}
    if method.lower() not in methods or rule not in COLLAPSE_RULES:
        raise ValueError(f"unknown estimator {name!r}")
    return (methods[method.lower()], rule)
