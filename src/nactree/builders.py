"""Step one: build a strictly binary tree from pseudo-observations.

Two routes are implemented.  The linkage route turns a pairwise dependence
matrix into a binary tree by average linkage.  The supertree route first
estimates the binary trivariate tree of every leaf triple (which pair of
empirical Kendall distributions is closest decides the outlier), writes
each triple's cherry as one column of a 0/1/unknown character matrix with
an outgroup row, and then searches unrooted-topology space for a minimum
Fitch parsimony score, either from a neighbor-joining start (NJNNI) or
from a random start with the parsimony ratchet (RNix).  The outgroup
finally roots the winner.  The trivariate estimates are one code array
from one batched pass: the triples that share their first sorted label
are a batch, whose pairs' lattice CDFs are gathered from the sample's
stored Kendall distributions and compared by three batched
Cramer-von Mises distance calls.

Average linkage and neighbor joining share one agglomeration layout: a
slot matrix with one slot per cluster in creation order (the leaves,
then one slot per merge), +inf on the diagonal and in retired slots,
and one closest-pair rule whose ties break toward the smallest sorted
pair of cluster representatives (each cluster's smallest leaf label).

Parsimony runs on bit sets.  The character matrix keeps each row's state
sets as two Python ints over the columns, "may hold 0" and "may hold 1",
and the column weights become one column mask per distinct weight.  A
binary node intersects its children's sets with two ANDs where they meet
and takes the union at one change per column where they do not (Fitch);
a polytomy counts, per column, the children holding only 0 (n0) and only
1 (n1), costs min(n0, n1) changes and holds the majority state, both on a
tie (Hartigan).  The NNI climb caches the state sets of every subtree of
the current tree and scores each neighbor from the four subtrees around
its edge (Goloboff 1993); its neighbors are built without revalidation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dependence import (
    DependenceMatrix,
    KendallDistribution,
    dependence_matrix,
    kendall_dist_distance,
    pair_index,
    pseudo_observations,
)
from .trees import (
    SPLITS,
    RootedTree,
    TreeError,
    UnrootedTree,
    check_codes,
    root_with_outgroup,
    triple_index,
)

UNKNOWN = -1
OUTGROUP = "O"

LINKAGE_METHODS = ("kt", "hD", "kind")
SUPERTREE_METHODS = ("NJNNI", "RNix")
BUILD_METHODS = LINKAGE_METHODS + SUPERTREE_METHODS
CANONICAL_METHODS = {m.lower(): m for m in BUILD_METHODS}  # by lower-case name


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


def trivariate_binary_estimate(u) -> np.ndarray:
    """The read-only code array (`trees` module docstring) of the binary
    trivariate estimates of every triple of the sorted columns.

    In each triple a < b < c the two closest empirical Kendall
    distributions share the outlier, and the other two leaves form the
    cherry: the distances of (ac, bc), (ab, bc) and (ab, ac) select the
    codes 1, 2 and 3, and argmin keeps the first of tied ones, the cherry
    that sorts first.  Never a fan (step one assumes a binary target; fans
    only appear in the collapse step).  The triples that share their first
    label are one batch: their pairs' lattices are gathered from the
    stacked `PseudoObservations.ekds` and each distance is one batched
    `kendall_dist_distance` call.
    """
    obs = pseudo_observations(u)
    if len(obs.index) < obs.d:
        raise TreeError("trivariate estimates need distinct column labels")
    d, index = obs.d, triple_index(obs.d)
    codes = np.empty(len(index), dtype=np.int8)
    if len(index):
        lattices = np.concatenate([e.lattice for e in obs.ekds])
        # the column of each sorted label
        col = np.array([obs.index[lab] for lab in sorted(obs.columns)])
        start = 0
        for first in range(d - 2):
            stop = start + math.comb(d - 1 - first, 2)
            a, b, c = col[index[start:stop]].T
            ab, ac, bc = (KendallDistribution.of_checked(lattices[pair_index(
                np.minimum(x, y), np.maximum(x, y), d)], obs.n)
                for x, y in ((a, b), (a, c), (b, c)))
            codes[start:stop] = 1 + np.argmin([
                kendall_dist_distance(ac, bc), kendall_dist_distance(ab, bc),
                kendall_dist_distance(ab, ac)], axis=0)
            start = stop
    codes.flags.writeable = False
    return codes


def estimate_triples(u) -> np.ndarray:
    """`trivariate_binary_estimate` of the sample, computed once per
    sample and shared by the supertree builders and SU."""
    obs = pseudo_observations(u)
    return obs.derived(("triples",), lambda: trivariate_binary_estimate(obs))


# --------------------------------------------------------------------------- #
# Character matrix
# --------------------------------------------------------------------------- #


def _bits(flags) -> int:
    """The boolean vector ``flags`` as an int: bit j is set where flags[j]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


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
    # each row's Fitch state sets as two column bit sets: (may hold 0,
    # may hold 1); an unknown cell may hold either
    states: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError(f"character matrix data must be 2-D (rows x "
                             f"columns), not {data.ndim}-D")
        outside = data[~np.isin(data, (0, 1, UNKNOWN))]
        if outside.size:
            raise ValueError(f"character matrix cell {outside[0]} is not "
                             f"0, 1 or {UNKNOWN} (unknown)")
        data = data.astype(np.int8)
        object.__setattr__(self, "data", data)
        if data.shape[0] != len(self.rows):
            raise ValueError("row count does not match matrix")
        if len(set(self.rows)) != len(self.rows):
            dup = next(lab for lab in self.rows if self.rows.count(lab) > 1)
            raise ValueError(f"duplicate character matrix row {dup!r}")
        object.__setattr__(self, "states", {
            lab: (_bits(row != 1), _bits(row != 0))
            for lab, row in zip(self.rows, data)})

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
    if outgroup in all_leaves:
        raise TreeError(f"outgroup label {outgroup!r} clashes with a leaf")
    if any(not tree.label_set <= set(all_leaves) for tree in input_trees):
        raise TreeError("input tree has leaves outside the target leaf set")
    rows = tuple(all_leaves) + (outgroup,)
    index = {lab: i for i, lab in enumerate(rows)}
    clades = [(tree.label_set, tree.leaf_set(v)) for tree in input_trees
              for v in tree.internal_nodes if v != tree.root]
    data = np.full((len(rows), len(clades)), UNKNOWN, dtype=np.int8)
    data[-1] = 0  # 0 on the outgroup and every known leaf, 1 on the clade
    for j, (known, clade) in enumerate(clades):
        data[[index[lab] for lab in known], j] = 0
        data[[index[lab] for lab in clade], j] = 1
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


def _weight_masks(matrix: CharacterMatrix, weights):
    """Column weights as ((w, mask), ...): one column bit set per distinct
    positive weight w, in increasing w; None for unit weights."""
    if weights is None:
        return None
    ncols = matrix.n_columns
    w = np.asarray(weights, dtype=float)
    if w.shape != (ncols,):
        raise ValueError(f"fitch_score needs one weight per column ({ncols}),"
                         f" got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("fitch_score weights must be finite")
    values = sorted(set(w.tolist()))
    if values and values[0] < 0:
        raise ValueError("fitch_score weights must be non-negative")
    return tuple((v, _bits(w == v)) for v in values if v > 0)


def _cost(changed: int, masks):
    """Weighted count of the columns in the bit set ``changed``."""
    if masks is None:
        return changed.bit_count()
    return sum(w * (changed & m).bit_count() for w, m in masks)


def _tally(counts: list, x: int) -> None:
    """Count the columns of ``x`` once more: counts[t] is the bit set of
    the columns counted more than t times."""
    for t in range(len(counts)):
        counts[t], x = counts[t] | x, counts[t] & x
    if x:
        counts.append(x)


def _join(kids, masks) -> tuple:
    """(may0, may1, length) of a node from those of its child subtrees.

    Two children (Fitch): the intersection of their sets where it is
    non-empty, else the union, at one change per column with disjoint sets.
    More children (Hartigan): with n0 children holding only 0 and n1 only
    1, the node holds 0 where n0 >= n1 and 1 where n1 >= n0, at min(n0, n1)
    changes per column.
    """
    if len(kids) == 2:
        (a0, a1, al), (b0, b1, bl) = kids
        # state sets are never empty, so they are disjoint exactly where
        # both "may hold" bits differ
        empty = (a0 ^ b0) & (a1 ^ b1)
        if not empty:
            return a0 & b0, a1 & b1, al + bl
        return ((a0 & b0) | empty, (a1 & b1) | empty,
                al + bl + _cost(empty, masks))
    only0, only1, union0, union1, length = [], [], 0, 0, 0
    for s0, s1, sl in kids:
        _tally(only0, s0 & ~s1)
        _tally(only1, s1 & ~s0)
        union0, union1, length = union0 | s0, union1 | s1, length + sl
    gt0 = gt1 = 0   # columns with n0 > n1, n1 > n0
    for c0, c1 in itertools.zip_longest(only0, only1, fillvalue=0):
        gt0, gt1 = gt0 | (c0 & ~c1), gt1 | (c1 & ~c0)
        length += _cost(c0 & c1, masks)
    return union0 & ~gt1, union1 & ~gt0, length


def _subtree_sets(tree: UnrootedTree, matrix: CharacterMatrix, masks):
    """A function (p, v) -> (may0, may1, length): the state sets and the
    weighted Fitch length of the subtree at node v seen from its neighbour
    p, each computed once."""
    adj, states = tree.adj, matrix.states
    memo = {(p, v): states[lab] + (0,)
            for v, lab in tree.labels.items() for p in adj[v]}

    def sets(p, v):
        got = memo.get((p, v))
        if got is None:
            got = memo[p, v] = _join([sets(v, w) for w in adj[v] if w != p],
                                     masks)
        return got

    return sets


def fitch_score(tree: UnrootedTree, matrix: CharacterMatrix, weights=None) -> float:
    """Minimum number of state changes over all columns (weighted sum).

    Bit-parallel over the columns: each state set is two Python ints, the
    columns that may hold 0 and those that may hold 1 (an unknown cell may
    hold either), so a node costs a few integer ANDs and popcounts whatever
    the column count.  One bottom-up pass from the smallest-label leaf, by
    Fitch's rule at binary nodes and Hartigan's counting rule at
    polytomies, both exact.  ``weights`` (one finite non-negative value per
    column) weigh each column's changes; the default is 1 each.
    """
    if set(tree.labels.values()) != matrix.states.keys():
        raise TreeError("tree leaves do not match matrix rows")
    masks = _weight_masks(matrix, weights)
    if len(tree.adj) == 1:
        return 0.0  # a lone leaf changes no state
    start = tree.node_of_label(min(tree.labels.values()))
    sets = _subtree_sets(tree, matrix, masks)
    return float(_join([sets(tree.adj[start][0], start),
                        sets(start, tree.adj[start][0])], masks)[2])


# --------------------------------------------------------------------------- #
# NNI rearrangements
# --------------------------------------------------------------------------- #


def _swap(nbs: tuple, old: int, new: int) -> tuple:
    i = nbs.index(old)
    return nbs[:i] + (new,) + nbs[i + 1:]


def nni_neighbors(tree: UnrootedTree):
    """The two alternative subtree exchanges across every internal edge of
    a binary unrooted tree (2 neighbors per internal edge).  An exchange
    keeps a valid tree valid, so the neighbors skip revalidation."""
    if len(tree.labels) < 4:
        raise TreeError("NNI needs at least 4 leaves")
    adj, out = tree.adj, []
    for u, v in tree.internal_edges():
        u_subs = [w for w in adj[u] if w != v]
        v_subs = [w for w in adj[v] if w != u]
        if len(u_subs) != 2 or len(v_subs) != 2:
            raise TreeError("NNI is defined on binary trees")
        b = u_subs[1]
        for c in v_subs:
            nb = list(adj)
            nb[u], nb[v] = _swap(adj[u], b, c), _swap(adj[v], c, b)
            nb[b], nb[c] = _swap(adj[b], u, v), _swap(adj[c], v, u)
            out.append(UnrootedTree._trusted(tuple(nb), tree.labels))
    return out


def _nni_scores(tree: UnrootedTree, matrix: CharacterMatrix, masks) -> list:
    """The Fitch length of each tree of ``nni_neighbors(tree)``, in order.

    An exchange across the edge (u, v) keeps the four subtrees around it,
    so each neighbor joins their cached state sets three times instead of
    rescoring the tree (Goloboff 1993).  Equals `fitch_score` of the
    neighbor (exactly under integer weights)."""
    sets = _subtree_sets(tree, matrix, masks)
    adj, out = tree.adj, []
    for u, v in tree.internal_edges():
        a, b = (sets(u, w) for w in adj[u] if w != v)
        c, d = (sets(v, w) for w in adj[v] if w != u)
        # b exchanged with c, then with d
        for x, y in ((c, d), (d, c)):
            out.append(_join([_join([a, x], masks), _join([b, y], masks)],
                             masks)[2])
    return out


# --------------------------------------------------------------------------- #
# Supertree searches
# --------------------------------------------------------------------------- #


def _hill_climb(tree, matrix, weights, max_rounds):
    """Move to the first best-scoring NNI neighbor while it is strictly
    better; the column weights become bit masks once per climb."""
    masks = _weight_masks(matrix, weights)
    score = fitch_score(tree, matrix, weights)
    for _ in range(max_rounds):
        neighbors = nni_neighbors(tree)
        scores = _nni_scores(tree, matrix, masks)
        best = min(range(len(scores)), key=scores.__getitem__)
        if not scores[best] < score:
            break
        tree, score = neighbors[best], scores[best]
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


def _search_outgroup(labels) -> str:
    name = OUTGROUP
    while name in labels:
        name += "_"
    return name


def supertree_from_shapes(codes, labels, *, ratchet: bool,
                          seed: int = 0) -> RootedTree:
    """Parsimony supertree over binary triple shapes, given as the code
    array ``codes`` (`trees` module docstring) over the sorted ``labels``.

    Without ``ratchet`` (NJNNI): greedy NNI hill climbing from a
    neighbor-joining start tree built on row-wise Hamming distances of the
    character matrix.  With it (RNix): the parsimony ratchet from a random
    start drawn with ``seed``, alternating hill climbing on a reweighted
    column sample with hill climbing on the original weights and keeping
    the best tree seen.
    """
    labels, codes = check_codes(labels, codes, (1, 2, 3),
                                "supertree estimation")
    if len(labels) == 2:
        return RootedTree.from_nested(list(labels))  # the only 2-leaf tree
    if len(labels) == 3:
        a, b, out = SPLITS[codes[0]]
        return RootedTree.from_nested([[labels[a], labels[b]], labels[out]])
    outgroup = _search_outgroup(labels)
    # one character per triple, in code order: its cherry, as in
    # `build_character_matrix` of the triple's rooted tree
    index, cols = triple_index(len(labels)), np.arange(len(codes))[:, None]
    data = np.full((len(labels) + 1, len(codes)), UNKNOWN, dtype=np.int8)
    data[-1] = 0
    data[index, cols] = 0
    data[index[cols, np.array(SPLITS[1:])[codes - 1, :2]], cols] = 1
    matrix = CharacterMatrix(labels + (outgroup,), data)
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
    name = CANONICAL_METHODS.get(method.lower())
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
