"""Rooted and unrooted phylogenetic trees over labeled leaves.

The rooted tree is the central value type of the package: a nested
Archimedean copula hangs one generator on every internal node of such a
tree.  Trees are immutable after construction; every edit (collapsing
edges, rerooting) returns a new instance, so tree values can be shared
freely between concurrent workers.

Equality is label-preserving isomorphism of the rooted topology: internal
node identity and child order never matter, only which leaves end up
grouped under which nodes.

A tree's C(d,3) trivariate shapes are one int8 code array, one code per
triple of ``itertools.combinations(range(d), 3)`` over the string-sorted
labels (``U10`` before ``U2``): 0 for a fan, 1, 2 or 3 for the cherry ab,
ac or bc of the triple a < b < c.  It is the only value of a triple:
scoring, decomposition, reconstruction, the trivariate estimates, the
supertree builders and SU all read or write it.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np


class TreeError(ValueError):
    """Raised for malformed trees, Newick strings or tree queries."""


# --------------------------------------------------------------------------- #
# Trivariate shapes
# --------------------------------------------------------------------------- #

# positions (cherry, cherry, outlier) in a sorted triple of the cherry codes
SPLITS = (None, (0, 1, 2), (0, 2, 1), (1, 2, 0))


@functools.lru_cache(maxsize=64)
def triple_index(d: int) -> np.ndarray:
    """The read-only rows i < j < k of the triples of d sorted labels, in
    `itertools.combinations` order: the order of every triple code array."""
    index = np.array(list(itertools.combinations(range(d), 3)),
                     dtype=np.intp).reshape(-1, 3)
    index.flags.writeable = False
    return index


# --------------------------------------------------------------------------- #
# Rooted trees
# --------------------------------------------------------------------------- #


class RootedTree:
    """A rooted tree with uniquely labeled leaves and multifurcating
    internal nodes (every internal node has at least two children).

    Nodes are integer ids, root = 0, assigned in preorder.  Use
    :meth:`from_nested` or :func:`parse_newick` to build one.
    """

    __slots__ = ("parent", "children", "labels", "annotations",
                 "_leafset", "_depth", "_canon", "_codes")

    def __init__(self, parent, children, labels, annotations=None):
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        self.labels = tuple(labels)
        self.annotations = dict(annotations or {})
        self._validate()
        n = len(self.parent)
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[self.parent[v]] + 1
        self._depth = tuple(depth)
        leafset = [None] * n
        for v in reversed(range(n)):
            if self.labels[v] is not None:
                leafset[v] = frozenset((self.labels[v],))
            else:
                acc = set()
                for c in self.children[v]:
                    acc |= leafset[c]
                leafset[v] = frozenset(acc)
        self._leafset = tuple(leafset)
        self._canon = None
        self._codes = None

    # -- construction ---------------------------------------------------- #

    @classmethod
    def from_nested(cls, nested) -> "RootedTree":
        """Build from nested lists of labels, e.g. ``[["A", "B"], "C"]``.

        A bare string is a single-leaf tree.  Attach an annotation to an
        internal node by using a 2-tuple ``(children_list, value)``.
        """
        parent, children, labels = [], [], []
        annotations = {}

        def add(node, par):
            v = len(parent)
            parent.append(par)
            children.append([])
            labels.append(None)
            if par >= 0:
                children[par].append(v)
            ann = None
            if isinstance(node, tuple):
                node, ann = node
            if isinstance(node, str):
                labels[v] = node
            else:
                for sub in node:
                    add(sub, v)
            if ann is not None:
                annotations[v] = float(ann)
            return v

        add(nested, -1)
        return cls(parent, children, labels, annotations)

    def _validate(self):
        n = len(self.parent)
        if n == 0:
            raise TreeError("empty tree")
        if self.parent[0] != -1 or any(self.parent[v] < 0 for v in range(1, n)):
            raise TreeError("tree must have exactly one root")
        seen = set()
        for v in range(n):
            lab = self.labels[v]
            if self.children[v]:
                if lab is not None:
                    raise TreeError("internal nodes carry no leaf label")
                if len(self.children[v]) < 2:
                    raise TreeError("internal node with fewer than two children")
            else:
                if not lab:
                    raise TreeError("leaf with empty label")
                if lab in seen:
                    raise TreeError(f"duplicate leaf label {lab!r}")
                seen.add(lab)

    # -- basic queries ----------------------------------------------------- #

    root = 0

    def __len__(self):
        return len(self.parent)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    @property
    def leaves(self) -> tuple:
        """Leaf node ids in preorder."""
        return tuple(v for v in range(len(self.parent)) if self.is_leaf(v))

    @property
    def leaf_labels(self) -> tuple:
        """Leaf labels in preorder (the tree's natural column order)."""
        return tuple(self.labels[v] for v in self.leaves)

    @property
    def label_set(self) -> frozenset:
        return self._leafset[self.root]

    @property
    def n_leaves(self) -> int:
        return len(self._leafset[self.root])

    @property
    def internal_nodes(self) -> tuple:
        return tuple(v for v in range(len(self.parent)) if not self.is_leaf(v))

    def depth(self, v: int) -> int:
        return self._depth[v]

    def leaf_set(self, v: int) -> frozenset:
        """Labels of the leaves below ``v`` (inclusive)."""
        return self._leafset[v]

    def node_of_label(self, label: str) -> int:
        for v in range(len(self.parent)):
            if self.labels[v] == label:
                return v
        raise TreeError(f"unknown leaf label {label!r}")

    def is_binary(self) -> bool:
        return all(len(self.children[v]) == 2 for v in self.internal_nodes)

    # -- isomorphism ------------------------------------------------------- #

    def canonical_key(self) -> str:
        """Canonical form: children sorted recursively by their own key.

        Two trees have the same key iff they are label-preserving
        isomorphic as rooted topologies.
        """
        if self._canon is None:
            def rec(v):
                if self.is_leaf(v):
                    return "'" + self.labels[v] + "'"
                return "(" + ",".join(sorted(rec(c) for c in self.children[v])) + ")"
            self._canon = rec(self.root)
        return self._canon

    def __eq__(self, other):
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"RootedTree({write_newick(self)!r})"

    # -- LCA and triples ----------------------------------------------------- #

    def leaf_pairs_across(self, kids):
        """Yield the leaf-label pairs split by the subtrees at ``kids``: one
        leaf from each of two distinct subtrees, subtrees in order and each
        one's labels sorted, so the walk never depends on string hashing."""
        groups = [sorted(self._leafset[c]) for c in kids]
        for a_i, left in enumerate(groups):
            for right in groups[a_i + 1:]:
                for la in left:
                    for lb in right:
                        yield la, lb

    def triple_codes(self) -> np.ndarray:
        """The tree's read-only triple code array, computed once.  A 0/1
        matrix marks each leaf's internal ancestors; its product with its
        transpose counts each leaf pair's shared ancestors, one more than
        the depth of their LCA, and each code compares three such counts."""
        if self._codes is None:
            col = {lab: i for i, lab in enumerate(sorted(self.label_set))}
            marks = np.array([(col[lab], v) for v in self.internal_nodes
                              for lab in self._leafset[v]],
                             dtype=np.intp).reshape(-1, 2)
            under = np.zeros((len(col), len(self.parent)), dtype=np.intp)
            under[marks[:, 0], marks[:, 1]] = 1
            # an integer product runs numpy's own loop; a float one loads
            # BLAS buffers, about 0.2 MB more of a study's peak RSS
            shared = under @ under.T
            i, j, k = triple_index(len(col)).T
            ab, ac, bc = shared[i, j], shared[i, k], shared[j, k]
            self._codes = ((ab > ac) + 2 * (ac > ab) + 3 * (bc > ab)).astype(
                np.int8)
            self._codes.flags.writeable = False
        return self._codes

    # -- structural edits -------------------------------------------------- #

    def collapse_edges(self, nodes) -> "RootedTree":
        """Remove the internal nodes ``nodes`` in one build; each removed
        node's children take its place among its parent's children, in
        order.  The leaf set is preserved.  An empty set returns the tree
        itself."""
        nodes = frozenset(nodes)
        if not nodes:
            return self
        if self.root in nodes or any(self.is_leaf(v) for v in nodes):
            raise TreeError("cannot collapse the root or a leaf")

        def rec(v):  # the nested forms that v adds to its parent's children
            if self.is_leaf(v):
                return [self.labels[v]]
            kids = [sub for c in self.children[v] for sub in rec(c)]
            return kids if v in nodes else [kids]

        return RootedTree.from_nested(rec(self.root)[0])

    def with_annotations(self, mapping: dict) -> "RootedTree":
        """Copy of the tree with ``mapping`` (node id -> value) attached."""
        return RootedTree(self.parent, self.children, self.labels, mapping)


# --------------------------------------------------------------------------- #
# Newick I/O
# --------------------------------------------------------------------------- #

_TOKEN = re.compile(r"\s*([(),;]|[^\s(),:;]+|:)")
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_newick(text: str) -> RootedTree:
    """Parse a rooted Newick string.

    Branch lengths (``:0.1``) are accepted and discarded; numeric internal
    node labels are kept as annotations.  Raises :class:`TreeError` on
    malformed syntax, duplicate leaf labels, or internal nodes with fewer
    than two children.
    """
    pos = 0
    text = text.strip()

    def next_token():
        nonlocal pos
        m = _TOKEN.match(text, pos)
        if not m:
            return None
        pos = m.end()
        return m.group(1)

    def skip_length(tok):
        # consume an optional ":<len>" suffix, return the following token
        nonlocal pos
        if tok == ":":
            length = next_token()
            if length is None or length in "(),;:":
                raise TreeError("missing branch length after ':'")
            tok = next_token()
        return tok

    def parse_clade():
        # returns (node, lookahead token following the clade)
        tok = next_token()
        if tok == "(":
            subs = []
            while True:
                node, tok = parse_clade()
                subs.append(node)
                if tok == ",":
                    continue
                if tok == ")":
                    break
                raise TreeError("expected ',' or ')' in Newick string")
            if len(subs) < 2:
                raise TreeError("internal node with fewer than two children")
            tok = next_token()
            ann = None
            if tok is not None and tok not in "(),;:":
                if _NUMBER.match(tok):
                    ann = float(tok)
                tok = next_token()
            tok = skip_length(tok)
            node = subs if ann is None else (subs, ann)
            return node, tok
        if tok is None or tok in "(),;:":
            raise TreeError("expected a label in Newick string")
        label = tok
        tok = skip_length(next_token())
        return label, tok

    # parse_clade consumes one token beyond each clade, which at top level
    # must be the terminating ';'
    nested, tok = parse_clade()
    if tok != ";":
        raise TreeError("Newick string must end with ';'")
    if pos != len(text):
        raise TreeError("trailing characters after ';'")
    return RootedTree.from_nested(nested)


def read_newick(text: str) -> RootedTree:
    """Parse the contents of a Newick file: blank lines and lines whose
    first non-blank character is ``#`` are dropped, the rest joined."""
    return parse_newick("".join(
        ln for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")))


def write_newick(tree: RootedTree, with_annotations: bool = False) -> str:
    """Serialize a tree to Newick; inverse of :func:`parse_newick` up to
    isomorphism."""

    def rec(v):
        if tree.is_leaf(v):
            return tree.labels[v]
        inner = "(" + ",".join(rec(c) for c in tree.children[v]) + ")"
        if with_annotations and v in tree.annotations:
            inner += format(tree.annotations[v], "g")
        return inner

    return rec(tree.root) + ";"


# --------------------------------------------------------------------------- #
# Decomposition into triples and reconstruction
# --------------------------------------------------------------------------- #


def check_codes(labels, codes, allowed, what: str) -> tuple:
    """The sorted ``labels`` and the int8 code array ``codes`` over them,
    after checking that there are at least 2 labels and one code in
    ``allowed`` per 3-subset of them."""
    labels, codes = tuple(sorted(labels)), np.asarray(codes)
    if (len(labels) < 2 or codes.shape != (math.comb(len(labels), 3),)
            or not np.isin(codes, allowed).all()):
        raise TreeError(f"{what} needs at least 2 leaves and one code in "
                        f"{tuple(allowed)} per 3-subset of them")
    return labels, codes.astype(np.int8)


def decompose(tree: RootedTree) -> tuple:
    """All C(d,3) trivariate shapes of ``tree``: its sorted leaf labels and
    its triple codes over them."""
    if tree.n_leaves < 3:
        raise TreeError("decompose needs at least 3 leaves")
    return tuple(sorted(tree.label_set)), tree.triple_codes()


def reconstruct(labels, codes) -> RootedTree:
    """Rebuild a rooted tree from the trivariate shapes ``codes`` of every
    triple of the sorted ``labels``.

    Two leaves belong to the same child subtree of the current node iff at
    least one third leaf witnesses them as a cherry; the connected
    components of that relation become the children, and the procedure
    recurses inside each component.  On a consistent triple set (one
    produced by :func:`decompose`) the result is isomorphic to the original
    tree.  Two labels have no triple and give their cherry.

    Estimated triple sets can be contradictory.  If the witness graph ends
    up as a single component spanning the whole current group, edges are
    discarded from the weakest support level upward until the group splits,
    which biases conflicts toward less resolved (fan-like) structures.
    """
    labels, codes = check_codes(labels, codes, range(4), "reconstruction")
    # the third leaves that witness each pair (a, b), a < b, as a cherry
    witnesses = {}
    for triple, code in zip(triple_index(len(labels)).tolist(),
                            codes.tolist()):
        if code:
            a, b, w = SPLITS[code]
            witnesses.setdefault((triple[a], triple[b]), []).append(triple[w])

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
            return labels[group[0]]
        if len(group) == 2:
            return [labels[v] for v in group]
        support = {}
        members = set(group)
        for pair in itertools.combinations(group, 2):
            votes = sum(w in members for w in witnesses.get(pair, ()))
            if votes:
                support[pair] = votes
        comps = components(group, support)
        while len(comps) == 1 and len(comps[0]) == len(group) and support:
            weakest = min(support.values())
            support = {e: w for e, w in support.items() if w > weakest}
            comps = components(group, support)
        assert members == {lab for comp in comps for lab in comp}
        return [build(comp) for comp in comps]

    return RootedTree.from_nested(build(list(range(len(labels)))))


# --------------------------------------------------------------------------- #
# Tree distances
# --------------------------------------------------------------------------- #


def tree_distance_01(a: RootedTree, b: RootedTree) -> int:
    """0 if the trees are isomorphic as labeled rooted topologies, else 1."""
    return 0 if a == b else 1


def tree_distance_tri(a: RootedTree, b: RootedTree) -> int:
    """Number of leaf triples whose trivariate shape differs between the
    trees; 0 iff the trees are isomorphic, at most C(d,3)."""
    if a.label_set != b.label_set:
        raise TreeError("tri-distance needs identical leaf sets")
    return int(np.count_nonzero(a.triple_codes() != b.triple_codes()))


def max_tri_distance(d: int) -> int:
    return d * (d - 1) * (d - 2) // 6


# --------------------------------------------------------------------------- #
# Unrooted trees
# --------------------------------------------------------------------------- #


class UnrootedTree:
    """An unrooted tree: adjacency lists plus leaf labels.

    Leaves have degree 1, internal nodes degree >= 3 (a 2-leaf tree, a bare
    edge, is the minimal case).  Used by the supertree searches, which
    operate on unrooted topologies until the final outgroup rooting.
    """

    __slots__ = ("adj", "labels")

    def __init__(self, adj, labels):
        self.adj = tuple(tuple(nb) for nb in adj)
        self.labels = dict(labels)
        self._validate()

    @classmethod
    def _trusted(cls, adj: tuple, labels: dict) -> "UnrootedTree":
        """A tree over adjacency tuples known to be valid, such as an NNI
        exchange of a valid tree, without `_validate`; ``labels`` is
        shared, not copied."""
        tree = cls.__new__(cls)
        tree.adj, tree.labels = adj, labels
        return tree

    def _validate(self):
        n = len(self.adj)
        if n == 0:
            raise TreeError("empty unrooted tree")
        for v, nbs in enumerate(self.adj):
            for w in nbs:
                if v not in self.adj[w]:
                    raise TreeError("asymmetric adjacency")
            deg = len(nbs)
            if deg <= 1 and v not in self.labels:
                raise TreeError("unlabeled leaf in unrooted tree")
            if deg >= 2 and v in self.labels:
                raise TreeError("labeled internal node in unrooted tree")
            if deg == 2:
                raise TreeError("degree-2 node in unrooted tree")
        if n > 1:
            # connectivity
            seen = {0}
            stack = [0]
            while stack:
                for w in self.adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != n:
                raise TreeError("unrooted tree is not connected")
        labs = list(self.labels.values())
        if len(set(labs)) != len(labs):
            raise TreeError("duplicate leaf labels")

    @property
    def n_nodes(self):
        return len(self.adj)

    def degree(self, v):
        return len(self.adj[v])

    def is_leaf(self, v):
        return len(self.adj[v]) <= 1

    @property
    def leaves(self):
        return tuple(v for v in range(len(self.adj)) if self.is_leaf(v))

    @property
    def leaf_labels(self):
        return tuple(self.labels[v] for v in self.leaves)

    def node_of_label(self, label):
        for v, lab in self.labels.items():
            if lab == label:
                return v
        raise TreeError(f"unknown leaf label {label!r}")

    def edges(self):
        return [(v, w) for v in range(len(self.adj)) for w in self.adj[v] if v < w]

    def internal_edges(self):
        adj = self.adj
        return [(v, w) for v, nbs in enumerate(adj) if len(nbs) > 1
                for w in nbs if v < w and len(adj[w]) > 1]

    def is_binary(self) -> bool:
        return all(len(nb) in (1, 3) for nb in self.adj if nb) or len(self.adj) <= 2

    def canonical_key(self) -> str:
        # canonical form of the rooting at the smallest-label leaf
        return root_at(self, min(self.labels.values())).canonical_key()

    def __eq__(self, other):
        if not isinstance(other, UnrootedTree):
            return NotImplemented
        if set(self.labels.values()) != set(other.labels.values()):
            return False
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())


def unroot(tree: RootedTree) -> UnrootedTree:
    """Forget the root.  A binary root is suppressed (its two incident
    edges merge); a root with three or more children becomes a regular
    internal node."""
    if tree.n_leaves < 2:
        raise TreeError("cannot unroot a single leaf")
    adj = [list() for _ in range(len(tree.parent))]
    for v in range(1, len(tree.parent)):
        p = tree.parent[v]
        adj[p].append(v)
        adj[v].append(p)
    if len(tree.children[tree.root]) == 2:
        a, b = tree.children[tree.root]
        adj[a].remove(tree.root)
        adj[b].remove(tree.root)
        adj[a].append(b)
        adj[b].append(a)
        adj[tree.root] = []
        keep = [v for v in range(len(adj)) if v != tree.root]
    else:
        keep = list(range(len(adj)))
    remap = {v: i for i, v in enumerate(keep)}
    new_adj = [[remap[w] for w in adj[v]] for v in keep]
    labels = {remap[v]: tree.labels[v] for v in keep if tree.labels[v] is not None}
    return UnrootedTree(new_adj, labels)


def _nested_from(tree: UnrootedTree, node: int, parent) -> list | str:
    """Nested-list form of the subtree at ``node`` seen from ``parent``."""
    if tree.is_leaf(node):
        return tree.labels[node]
    return [_nested_from(tree, w, node) for w in tree.adj[node] if w != parent]


def root_at(tree: UnrootedTree, leaf_label: str) -> RootedTree:
    """Root an unrooted tree at the given leaf (the leaf becomes one child
    of a binary root).  Used for canonicalization."""
    v = tree.node_of_label(leaf_label)
    if tree.n_nodes == 1:
        return RootedTree.from_nested(tree.labels[v])
    (nb,) = tree.adj[v]
    return RootedTree.from_nested([tree.labels[v], _nested_from(tree, nb, v)])


def root_with_outgroup(tree: UnrootedTree, outgroup: str) -> RootedTree:
    """Root on the edge next to ``outgroup``, then drop the outgroup leaf.

    The node the outgroup was attached to becomes the root (in a two-leaf
    tree that is the other leaf, a single-leaf tree).
    """
    o = tree.node_of_label(outgroup)
    if tree.n_nodes == 1:
        raise TreeError("cannot root a single-node tree")
    (anchor,) = tree.adj[o]
    return RootedTree.from_nested(_nested_from(tree, anchor, o))
