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
the significance threshold; its triples are tested only until that is
decided.  Both rules mark their collapses on the input tree, whose node
ids stay put, find a node's current parent and children by skipping the
marked nodes, and build the output once (`RootedTree.collapse_edges`).

The triple test takes all its resamples from its seed in one draw of 6n
values per resample row, each value a row and the order of its three
columns, and then counts them all at once, in the chunk loop that counts
every dominance batch: one pass over the uint16 ranks packs each column's
bit planes once per chunk of resamples, in the rank domain, counts the
three column pairs from them and releases them before the next chunk.  Its
statistic is the integer lattice sum that every Cramer-von-Mises distance
uses, written with the six products of the three pairs' lattice CDFs, so
the bootstrap comparison involves no rounding.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np

from .builders import BUILD_METHODS, CANONICAL_METHODS
from .dependence import (
    DataError,
    _column_pair_dominance,
    lattice_cdf,
    lattice_dot,
    pseudo_observations,
)
from .trees import RootedTree, TreeError

KAGG = "kagg"
KB = "kb"
COLLAPSE_RULES = (KAGG, KB)


# --------------------------------------------------------------------------- #
# Node summaries and the aggregation rule
# --------------------------------------------------------------------------- #


def _mean_tau(tree: RootedTree, kids, obs) -> float:
    """Mean tau over the leaf pairs split by a node's current children
    ``kids``, added in `RootedTree.leaf_pairs_across` order."""
    pairs = list(tree.leaf_pairs_across(kids))
    total = 0.0
    for la, lb in pairs:
        total += obs.tau[obs.index[la], obs.index[lb]]
    return total / len(pairs)


def annotate_mean_taus(tree: RootedTree, u, digits: int | None = None
                       ) -> RootedTree:
    """Attach the mean-tau summary of every internal node as annotations."""
    obs = pseudo_observations(u)
    obs.check_labels(tree.leaf_labels)
    means = {v: _mean_tau(tree, tree.children[v], obs)
             for v in tree.internal_nodes}
    return tree.with_annotations(means if digits is None else {
        v: round(m, digits) for v, m in means.items()})


def _parent(tree: RootedTree, collapsed, v: int) -> int:
    """``v``'s parent once the nodes in ``collapsed`` are gone."""
    p = tree.parent[v]
    return _parent(tree, collapsed, p) if p in collapsed else p


def _children(tree: RootedTree, collapsed, v: int) -> list:
    """``v``'s children, in order, once the nodes in ``collapsed`` are gone."""
    return [g for c in tree.children[v]
            for g in (_children(tree, collapsed, c) if c in collapsed else [c])]


def collapse_kagg(tree: RootedTree, u, tau_c: float) -> RootedTree:
    """Repeatedly collapse the parent-child internal pair with the smallest
    absolute mean-tau difference while that difference stays below tau_c;
    summaries follow every collapse.  tau_c <= 0 (or NaN) is a no-op.
    A collapse changes the leaf pairs of the parent only, so only the
    parent's mean is summed again.
    """
    obs = pseudo_observations(u)
    obs.check_labels(tree.leaf_labels)
    mean = {v: _mean_tau(tree, tree.children[v], obs)
            for v in tree.internal_nodes}
    order = {v: tuple(sorted(tree.leaf_set(v))) for v in mean}
    collapsed = set()
    while True:
        gaps = {v: abs(mean[_parent(tree, collapsed, v)] - mean[v])
                for v in mean if v != tree.root and v not in collapsed}
        best = min(gaps, key=lambda v: (gaps[v], order[v]), default=None)
        if best is None or not gaps[best] < tau_c:
            return tree.collapse_edges(collapsed)
        collapsed.add(best)
        parent = _parent(tree, collapsed, best)
        mean[parent] = _mean_tau(tree, _children(tree, collapsed, parent), obs)


# --------------------------------------------------------------------------- #
# The trivariate fan test
# --------------------------------------------------------------------------- #


# (first, second, third) of each way to pick the two closest EKDs among
# those of the pairs (i,j), (i,k), (j,k), in argmin's tie order
_FAN_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _lattice_fan_statistics(cdfs) -> np.ndarray:
    """The fan statistic of each row, exactly, as an integer.

    ``cdfs`` holds the ``(m, n - 1)`` lattice CDFs of the pairs (i,j),
    (i,k), (j,k).  The integer sums of `kendall_dist_distance` pick the
    two closest pairs (the first of tied ones, which share a member and
    so give the same T); T is the sum of `mean_distance_to` from their
    mean to the third.  Both sums expand into the six products of three
    CDFs, |a - b|^2 = aa + bb - 2ab and |a + b - 2c|^2 = aa + bb + 4cc +
    2ab - 4ac - 4bc, so no combined CDF is formed.
    """
    m = cdfs[0].shape[0]
    dot = np.empty((3, 3, m), dtype=np.int64)
    for p, q in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        dot[p, q] = dot[q, p] = lattice_dot(cdfs[p], cdfs[q])
    a, b, c = np.transpose(_FAN_PAIRS)
    dist = dot[a, a] + dot[b, b] - 2 * dot[a, b]
    fan = (dot[a, a] + dot[b, b] + 4 * dot[c, c] + 2 * dot[a, b]
           - 4 * dot[a, c] - 4 * dot[b, c])
    return fan[np.argmin(dist, axis=0), np.arange(m)]


# the column at each place (row) in each order v % 6 of a draw (column)
_ORDERS = np.array(list(itertools.permutations(range(3))), np.int32).T.copy()


def _resample_batch(ranks: np.ndarray, b: int, seed) -> np.ndarray:
    """The ``(3, b + 1, n)`` column, resample, row batch of the fan test:
    the ``(n, 3)`` integer ``ranks`` themselves, then ``b`` resamples from
    one draw of 6n values per resample row.  A value v takes source row
    v // 6 with its three columns in the order v % 6, so row and order are
    uniform and independent.  Ranks below 2^16 are held as uint16, which
    `_column_pair_dominance` packs in the rank domain; larger ones as
    int32."""
    n = ranks.shape[0]
    dtype = np.uint16 if ranks.max() < 1 << 16 else np.int32
    flat = np.ascontiguousarray(ranks, dtype=dtype).reshape(-1)
    batch = np.empty((3, b + 1, n), dtype=dtype)
    batch[:, 0] = ranks.T
    v = np.random.default_rng(seed).integers(0, 6 * n, (b, n), dtype=np.int32)
    order = v % 6
    v -= order
    v //= 2  # 3 * row, the row's first value in ``flat``
    # one index buffer for all places: fresh ones per place raised peak RSS
    at = np.empty_like(v)
    for p, columns in enumerate(_ORDERS):
        columns.take(order, out=at)
        at += v
        # every index is in range; "clip" writes to ``out`` unbuffered
        np.take(flat, at, out=batch[p, 1:], mode="clip")
    return batch


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

    The resamples come from one draw of 6n values per resample row from
    ``seed``, each value a row and the order of its three columns, and are
    stacked under the sample itself as uint16 ranks (`_resample_batch`).
    Then all of them are counted together by the one dominance chunk
    loop (`dependence._column_pair_dominance`, a `dependence._pair_counts`
    call): it packs each column once per chunk of resamples, in the rank
    domain, and counts the three column pairs from those planes, holding
    no more than one chunk's three planes at a time.
    Every statistic is an exact integer on the EKDs' lattice
    (`_lattice_fan_statistics`), so T* and T are compared without
    rounding.
    """
    if len({i, j, k}) != 3:
        raise TreeError("triple test needs three distinct labels")
    if b < 1:
        raise DataError("need at least one bootstrap resample")
    obs = pseudo_observations(u)
    obs.check_labels((i, j, k))
    n = obs.n
    # the within-row shuffle mixes the columns, so all 3n values share one
    # dense ranking: exact for any u, ties kept
    ranks = np.unique(obs.u[:, [obs.index[lab] for lab in (i, j, k)]],
                      return_inverse=True)[1].reshape(n, 3)
    # the batch is released once counted, before the lattices are built
    t = _lattice_fan_statistics([lattice_cdf(counts) for counts in
                                 _column_pair_dominance(
                                     _resample_batch(ranks, b, seed))])
    return (1 + int(np.count_nonzero(t[1:] >= t[0]))) / (b + 1)


# --------------------------------------------------------------------------- #
# The bootstrap collapse rule
# --------------------------------------------------------------------------- #


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


# relative room from alpha * m that an early kb decision must clear: far
# above the rounding of a float sum of thousands of p-values (about 1e-12
# of it), so the early answer is the one that summing them all would give
_DECIDED = 1e-9


def _mean_exceeds(p_values, m: int, alpha: float) -> bool:
    """``sum(p) / m > alpha`` for the ``m`` p-values, each in (0, 1], that
    the iterable ``p_values`` yields, asking for no p-value once the answer
    is settled.

    With s the sum of the first i p-values, the mean exceeds alpha once
    s > alpha * m, and cannot once s + (m - i) <= alpha * m.  Either bound
    decides early only when it clears alpha * m by ``_DECIDED`` of it;
    otherwise every p-value is asked and the mean is taken as
    ``sum(p) / len(p)``, so a tie or near-tie is decided as before.
    """
    target = alpha * m
    room = _DECIDED * abs(target)
    p_values = iter(p_values)
    asked, total = [], 0.0
    while len(asked) < m:
        if total + (m - len(asked)) < target - room:
            return False
        asked.append(next(p_values))
        total += asked[-1]
        if total > target + room:
            return True
    return sum(asked) / len(asked) > alpha


def collapse_kb(tree: RootedTree, u, alpha: float = 0.05, b: int = 200,
                seed=0) -> RootedTree:
    """Bootstrap collapse: walk parent-child internal pairs bottom-up
    (deepest child first); for each candidate, test the triples whose
    shape the collapse would change and collapse iff their average p-value
    exceeds alpha.  After an accepted collapse the walk starts again.
    alpha >= 1 never collapses; alpha = 0 collapses everything.
    P-values go through `fan_test_p_value`, so each triple is tested once
    per sample, ``b`` and ``seed``.

    A candidate's triples are tested in a fixed order, and only until the
    average is decided (`_mean_exceeds`): every p-value lies in (0, 1], so
    the ones already drawn can put the mean above alpha whatever follows,
    or leave it unable to get there.  The output is the tree that testing
    every triple gives; the p-values are the same, only fewer are drawn.
    """
    obs = pseudo_observations(u)
    obs.check_labels(tree.leaf_labels)
    collapsed = set()
    while True:
        # a node's depth drops by one per collapsed ancestor, whose leaf
        # set holds the node's strictly
        candidates = sorted(
            (v for v in tree.internal_nodes
             if v != tree.root and v not in collapsed),
            key=lambda v: (sum(tree.leaf_set(v) < tree.leaf_set(c)
                               for c in collapsed) - tree.depth(v),
                           tuple(sorted(tree.leaf_set(v)))))
        for child in candidates:
            # the triples that turn from cherry to fan: pairs meeting at the
            # child, third leaf meeting them at the parent
            outer = sorted(tree.leaf_set(_parent(tree, collapsed, child))
                           - tree.leaf_set(child))
            triples = [(la, lb, z) for la, lb in tree.leaf_pairs_across(
                           _children(tree, collapsed, child))
                       for z in outer]
            if _mean_exceeds((fan_test_p_value(obs, t, b, seed)
                              for t in triples), len(triples), alpha):
                collapsed.add(child)
                break
        else:
            return tree.collapse_edges(collapsed)


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
    if method.lower() not in CANONICAL_METHODS or rule not in COLLAPSE_RULES:
        raise ValueError(f"unknown estimator {name!r}")
    return (CANONICAL_METHODS[method.lower()], rule)
