"""Step one: build a strictly binary tree from pseudo-observations.

Two routes are implemented.  The linkage route turns a pairwise dependence
matrix into a binary tree by average linkage.  The supertree route first
estimates the binary trivariate tree of every leaf triple (which pair of
empirical Kendall distributions is closest decides the outlier), encodes
all those rooted triples into a 0/1/unknown character matrix with an
outgroup row, and then searches unrooted-topology space for a minimum
Fitch parsimony score, either from a neighbor-joining start (NJNNI) or
from a random start with the parsimony ratchet (RNix).  The outgroup
finally roots the winner.

Average linkage and neighbor joining share one agglomeration layout: a
slot matrix with one slot per cluster in creation order (the leaves,
then one slot per merge), +inf on the diagonal and in retired slots,
and one closest-pair rule whose ties break toward the smallest sorted
pair of cluster representatives (each cluster's smallest leaf label).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dependence import (
    DependenceMatrix,
    dependence_matrix,
    kendall_dist_distance,
    pseudo_observations,
)
from .trees import (
    RootedTree,
    TreeError,
    TripleShape,
    UnrootedTree,
    root_with_outgroup,
)

UNKNOWN = -1
OUTGROUP = "O"

LINKAGE_METHODS = ("kt", "hD", "kind")
SUPERTREE_METHODS = ("NJNNI", "RNix")
BUILD_METHODS = LINKAGE_METHODS + SUPERTREE_METHODS


# supertree search budget
MAX_ROUNDS = 200                 # NNI hill-climbing rounds per climb
RATCHET_ITERATIONS = 50
RATCHET_REWEIGHT_FRACTION = 0.25  # share of columns upweighted per iteration
RATCHET_WEIGHT_FACTOR = 2.0


# --------------------------------------------------------------------------- #
# Agglomeration: average linkage and neighbor joining
# --------------------------------------------------------------------------- #


def _slot_matrix(m, slots: int) -> np.ndarray:
    """``m``'s upper triangle, mirrored, in a ``slots``-square matrix that
    is +inf on the diagonal and in every slot beyond ``m``."""
    out = np.full((slots, slots), np.inf)
    out[:len(m), :len(m)] = np.where(np.tri(len(m), dtype=bool), np.inf, m)
    return np.minimum(out, out.T)


def _closest_pair(score: np.ndarray, reps) -> tuple:
    """The slots (i, j), i < j, of the least upper-triangle entry of
    ``score``.  Ties break toward the smallest sorted pair of representative
    labels ``reps[i]``, ``reps[j]``, then toward the first pair in row order."""
    upper = np.where(np.tri(len(score), dtype=bool), np.inf, score)
    pairs = np.argwhere(upper == upper.min()).tolist()
    return min((sorted((reps[i], reps[j])), i, j) for i, j in pairs)[1:]


def _merge(dmat: np.ndarray, reps: list, i: int, j: int, row) -> None:
    """Retire slots i and j into the next slot, whose distances are ``row``."""
    dmat[[i, j], :] = dmat[:, [i, j]] = np.inf
    dmat[len(reps), :] = dmat[:, len(reps)] = row
    reps.append(min(reps[i], reps[j]))


def average_linkage(dist: DependenceMatrix) -> RootedTree:
    """Agglomerate the two clusters with minimal average inter-cluster
    distance until one remains; the merge order is the binary tree.

    Cluster k has slot k of a (2d-1)-square distance matrix: the d leaves,
    then one slot per merge, whose row is the size-weighted mean of the
    merged rows.  Ties break by `_closest_pair` on smallest leaf labels.
    """
    m = np.asarray(dist.values, dtype=float)
    if not np.all(np.isfinite(m)) or not np.allclose(m, m.T):
        raise ValueError("average linkage needs a finite symmetric matrix")
    labels, d = dist.labels, len(dist.labels)
    if d < 2:
        raise ValueError("average linkage needs at least two items")
    dmat = _slot_matrix(m, 2 * d - 1)
    reps, nested, sizes = list(labels), list(labels), [1] * d
    for _ in range(d - 1):
        i, j = _closest_pair(dmat, reps)
        _merge(dmat, reps, i, j, (sizes[i] * dmat[i] + sizes[j] * dmat[j])
               / (sizes[i] + sizes[j]))
        nested.append([nested[i], nested[j]])
        sizes.append(sizes[i] + sizes[j])
    return RootedTree.from_nested(nested[-1])


def nj_tree(dist, labels) -> UnrootedTree:
    """Saitou-Nei agglomeration on a symmetric distance matrix.

    Node k has slot k of a (2d-3)-square distance matrix: the d leaves,
    then one slot per join.  With m live slots, the join minimises
    Q = (m-2) D[i,j] - r[i] - r[j], r summing each row's live entries in
    slot order; ties break by `_closest_pair` on each node's smallest leaf
    label.  The last three live slots meet at the centre node 2d-3.
    """
    m, labels = np.array(dist, dtype=float), tuple(labels)
    d = len(labels)
    if d < 3:
        raise TreeError("neighbor joining needs at least 3 items")
    if m.shape != (d, d) or not np.all(np.isfinite(m)) or not np.allclose(m, m.T):
        raise TreeError("neighbor joining needs a finite symmetric matrix")
    dmat, reps = _slot_matrix(m, 2 * d - 3), list(labels)
    adj = [[] for _ in range(d)]
    for new in range(d, 2 * d - 3):
        # cumsum adds in slot order, as a plain loop does; np.sum would not
        r = np.cumsum(np.where(np.isfinite(dmat), dmat, 0.0), axis=1)[:, -1]
        i, j = _closest_pair((2 * d - new - 2) * dmat - r[:, None] - r[None, :],
                             reps)
        _merge(dmat, reps, i, j, 0.5 * (dmat[i] + dmat[j] - dmat[i, j]))
        adj.append([i, j])
        adj[i].append(new)
        adj[j].append(new)
    live = np.flatnonzero(np.isfinite(dmat).any(axis=1)).tolist()
    for i in live:
        adj[i].append(len(adj))
    adj.append(live)
    return UnrootedTree(adj, dict(enumerate(labels)))


# --------------------------------------------------------------------------- #
# Trivariate estimates
# --------------------------------------------------------------------------- #


def trivariate_binary_estimate(u, a, b, c) -> TripleShape:
    """Binary trivariate tree of three columns: the two closest empirical
    Kendall distributions share the outlier variable, the other two leaves
    form the cherry.  Never returns a fan (step one assumes a binary
    target; fans only appear in the collapse step)."""
    if len({a, b, c}) != 3:
        raise TreeError("trivariate estimate needs three distinct labels")
    obs = pseudo_observations(u)
    obs.check_labels((a, b, c))
    ekd = {pair: obs.ekd(*pair)
           for pair in itertools.combinations(sorted((a, b, c)), 2)}
    # distance between the distributions of two pairs; the shared label is
    # the outlier and the cherry is the symmetric difference
    candidates = []
    for q1, q2 in itertools.combinations(ekd, 2):
        cherry = frozenset(set(q1) ^ set(q2))
        candidates.append((kendall_dist_distance(ekd[q1], ekd[q2]),
                           tuple(sorted(cherry)), cherry))
    candidates.sort()
    return TripleShape(frozenset((a, b, c)), candidates[0][2])


def estimate_triples(u) -> dict:
    """Binary TripleShape for every 3-subset of the columns, computed once
    per sample and shared by the supertree builders and SU."""
    obs = pseudo_observations(u)
    return dict(obs.derived(("triples",), lambda: {
        frozenset(t): trivariate_binary_estimate(obs, *t)
        for t in itertools.combinations(sorted(obs.columns), 3)}))


# --------------------------------------------------------------------------- #
# Character matrix
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class CharacterMatrix:
    """0/1/unknown encoding of the input trees' clades.

    One column per internal edge of each input tree once an outgroup leaf
    is attached to its root: leaves inside the clade get 1, leaves on the
    outgroup side get 0, leaves absent from that input tree get unknown.
    The outgroup row is all zeros.
    """

    rows: tuple
    data: np.ndarray  # int8, values {0, 1, UNKNOWN}
    # Fitch state sets of the cells: 1 -> {0}, 2 -> {1}, 3 -> {0, 1}
    masks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        data = np.asarray(self.data)
        outside = data[~np.isin(data, (0, 1, UNKNOWN))]
        if outside.size:
            raise ValueError(f"character matrix cell {outside[0]} is not "
                             f"0, 1 or {UNKNOWN} (unknown)")
        data = data.astype(np.int8)
        object.__setattr__(self, "data", data)
        if data.shape[0] != len(self.rows):
            raise ValueError("row count does not match matrix")
        object.__setattr__(self, "masks", np.array([3, 1, 2], np.uint8)[data + 1])

    @property
    def n_columns(self) -> int:
        return self.data.shape[1]

    def row(self, label) -> np.ndarray:
        return self.data[self.rows.index(label)]

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("row," + ",".join(f"c{i}" for i in range(self.n_columns)) + "\n")
            for lab, row in zip(self.rows, self.data):
                cells = ["?" if v == UNKNOWN else str(int(v)) for v in row]
                fh.write(lab + "," + ",".join(cells) + "\n")


def build_character_matrix(input_trees, all_leaves, outgroup: str = OUTGROUP
                           ) -> CharacterMatrix:
    """Encode rooted input trees as characters over ``all_leaves`` plus an
    outgroup row.

    Attaching the outgroup to each root and unrooting turns every internal
    edge of the rooted tree into an internal edge of the unrooted tree, so
    the columns are exactly the non-root clades of the rooted inputs.
    """
    input_trees = list(input_trees)
    if not input_trees:
        raise TreeError("no input trees")
    all_leaves = sorted(all_leaves)
    leafset = set(all_leaves)
    if outgroup in leafset:
        raise TreeError(f"outgroup label {outgroup!r} clashes with a leaf")
    rows = tuple(all_leaves) + (outgroup,)
    index = {lab: i for i, lab in enumerate(rows)}
    columns = []
    for tree in input_trees:
        if not tree.label_set <= leafset:
            raise TreeError("input tree has leaves outside the target leaf set")
        for v in tree.internal_nodes:
            if v == tree.root:
                continue
            col = np.full(len(rows), UNKNOWN, dtype=np.int8)
            for lab in tree.label_set:
                col[index[lab]] = 0
            for lab in tree.leaf_set(v):
                col[index[lab]] = 1
            col[index[outgroup]] = 0
            columns.append(col)
    if columns:
        data = np.stack(columns, axis=1)
    else:
        data = np.zeros((len(rows), 0), dtype=np.int8)
    return CharacterMatrix(rows, data)


def hamming_distances(matrix: CharacterMatrix) -> np.ndarray:
    """Row-wise mismatch fraction over the columns known in both rows (0
    when no column is shared), from one (rows, rows, columns) broadcast."""
    rows, cols = matrix.data[:, None], matrix.data[None]
    both = (rows != UNKNOWN) & (cols != UNKNOWN)
    shared = np.count_nonzero(both, axis=2)
    return np.divide(np.count_nonzero(both & (rows != cols), axis=2), shared,
                     out=np.zeros(shared.shape), where=shared > 0)


# --------------------------------------------------------------------------- #
# Parsimony scoring (Fitch on binary trees, Hartigan on polytomies)
# --------------------------------------------------------------------------- #


def fitch_score(tree: UnrootedTree, matrix: CharacterMatrix, weights=None) -> float:
    """Minimum number of state changes over all columns (weighted sum).

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

    def state_mask(node, parent):
        # state sets of the subtree at ``node`` seen from ``parent``,
        # children visited in reverse adjacency order
        nonlocal changes
        if tree.is_leaf(node):
            return matrix.masks[matrix.rows.index(tree.labels[node])]
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


# --------------------------------------------------------------------------- #
# NNI rearrangements
# --------------------------------------------------------------------------- #


def nni_neighbors(tree: UnrootedTree):
    """The two alternative subtree exchanges across every internal edge of
    a binary unrooted tree (2 neighbors per internal edge)."""
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


# --------------------------------------------------------------------------- #
# Supertree searches
# --------------------------------------------------------------------------- #


def _hill_climb(tree, matrix, weights, max_rounds):
    score = fitch_score(tree, matrix, weights)
    for _ in range(max_rounds):
        best_tree, best_score = None, score
        for nb in nni_neighbors(tree):
            s = fitch_score(nb, matrix, weights)
            if s < best_score:
                best_tree, best_score = nb, s
        if best_tree is None:
            break
        tree, score = best_tree, best_score
    return tree, score


def _random_binary_unrooted(labels, rng) -> UnrootedTree:
    """Uniform random sequential insertion: each new leaf subdivides a
    uniformly chosen edge."""
    labels = list(labels)
    order = list(rng.permutation(len(labels)))
    adj = [[1], [0]]
    node_labels = {0: labels[order[0]], 1: labels[order[1]]}
    for pos in order[2:]:
        edges = [(v, w) for v in range(len(adj)) for w in adj[v] if v < w]
        v, w = edges[int(rng.integers(len(edges)))]
        mid = len(adj)
        leaf = len(adj) + 1
        adj[v][adj[v].index(w)] = mid
        adj[w][adj[w].index(v)] = mid
        adj.append([v, w, leaf])
        adj.append([mid])
        node_labels[leaf] = labels[pos]
    return UnrootedTree(adj, node_labels)


def _triples_to_trees(shapes) -> list:
    trees = []
    for key in sorted(shapes, key=lambda k: tuple(sorted(k))):
        shape = shapes[key]
        pair = sorted(shape.cherry)
        trees.append(RootedTree.from_nested([pair, shape.outlier]))
    return trees


def _search_outgroup(labels) -> str:
    name = OUTGROUP
    while name in labels:
        name += "_"
    return name


def supertree_from_shapes(shapes: dict, labels, *, ratchet: bool,
                          seed: int = 0) -> RootedTree:
    """Parsimony supertree over the given binary triple shapes (one per
    3-subset of ``labels``).

    Without ``ratchet`` (NJNNI): greedy NNI hill climbing from a
    neighbor-joining start tree built on row-wise Hamming distances of the
    character matrix.  With it (RNix): the parsimony ratchet from a random
    start drawn with ``seed``, alternating hill climbing on a reweighted
    column sample with hill climbing on the original weights and keeping
    the best tree seen.
    """
    labels = sorted(labels)
    if len(labels) < 2:
        raise TreeError("supertree estimation needs at least 2 leaves")
    if len(labels) == 2:
        return RootedTree.from_nested(labels)  # the only 2-leaf tree
    if len(labels) == 3:
        shape = next(iter(shapes.values()))
        return RootedTree.from_nested([sorted(shape.cherry), shape.outlier])
    outgroup = _search_outgroup(labels)
    matrix = build_character_matrix(_triples_to_trees(shapes), labels, outgroup)
    if not ratchet:
        start = nj_tree(hamming_distances(matrix), matrix.rows)
        best, _ = _hill_climb(start, matrix, None, MAX_ROUNDS)
    else:
        rng = np.random.default_rng(seed)
        start = _random_binary_unrooted(matrix.rows, rng)
        best, best_score = _hill_climb(start, matrix, None, MAX_ROUNDS)
        current = best
        ncols = matrix.n_columns
        n_up = max(1, int(round(RATCHET_REWEIGHT_FRACTION * ncols)))
        for _ in range(RATCHET_ITERATIONS):
            weights = np.ones(ncols)
            chosen = rng.choice(ncols, size=n_up, replace=False)
            weights[chosen] = RATCHET_WEIGHT_FACTOR
            perturbed, _ = _hill_climb(current, matrix, weights, MAX_ROUNDS)
            candidate, score = _hill_climb(perturbed, matrix, None, MAX_ROUNDS)
            if score <= best_score:
                if score < best_score:
                    best, best_score = candidate, score
                current = candidate
            else:
                current = best
    return root_with_outgroup(best, outgroup)


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #


def build_binary(u, method: str = "kt", seed: int = 0) -> RootedTree:
    """Step-one dispatcher: kt/hD/kind run average linkage on the matching
    dependence matrix, NJNNI/RNix run the supertree searches over the
    estimated triple shapes (``seed`` draws RNix's start and reweightings).
    Output is always strictly binary.  The tree is kept on the sample, one
    per method (and per seed for RNix)."""
    obs = pseudo_observations(u)
    canonical = {name.lower(): name for name in BUILD_METHODS}
    name = canonical.get(method.lower())
    if name is None:
        raise ValueError(f"unknown build method {method!r}")
    if name in LINKAGE_METHODS:
        return obs.derived(("tree", name), lambda: average_linkage(
            dependence_matrix(obs, name)))
    ratchet = name == "RNix"
    return obs.derived(("tree", name, seed if ratchet else None),
                       lambda: supertree_from_shapes(
                           estimate_triples(obs), obs.columns,
                           ratchet=ratchet, seed=seed))
