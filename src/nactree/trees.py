"""Rooted and unrooted phylogenetic trees over labeled leaves.

The rooted tree is the central value type of the package: a nested
Archimedean copula hangs one generator on every internal node of such a
tree.  Trees are immutable after construction; every edit (collapsing an
edge, rerooting) returns a new instance, so tree values can be shared
freely between concurrent workers.

Equality is label-preserving isomorphism of the rooted topology: internal
node identity and child order never matter, only which leaves end up
grouped under which nodes.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass


class TreeError(ValueError):
    """Raised for malformed trees, Newick strings or tree queries."""


# --------------------------------------------------------------------------- #
# Trivariate shapes
# --------------------------------------------------------------------------- #

FAN = "FAN"
CHERRY = "CHERRY"


@dataclass(frozen=True)
class TripleShape:
    """Topology of a tree restricted to three leaves.

    There are only four possibilities: the 3-fan, or one of the three
    cherries.  ``cherry`` holds the pair of labels sharing the deeper node,
    or ``None`` for a fan.
    """

    leaves: frozenset
    cherry: frozenset | None = None

    def __post_init__(self):
        if len(self.leaves) != 3:
            raise TreeError("a triple shape needs exactly 3 leaves")
        if self.cherry is not None:
            if len(self.cherry) != 2 or not self.cherry <= self.leaves:
                raise TreeError("cherry must be a 2-subset of the triple")

    @property
    def kind(self) -> str:
        return FAN if self.cherry is None else CHERRY

    @property
    def is_fan(self) -> bool:
        return self.cherry is None

    @property
    def outlier(self):
        """The leaf left apart by a cherry; undefined for a fan."""
        if self.cherry is None:
            raise TreeError("a fan has no outlier")
        (out,) = self.leaves - self.cherry
        return out


class TripleSet:
    """All C(d,3) trivariate shapes of a tree, keyed by leaf triple."""

    def __init__(self, entries: dict):
        for key, shape in entries.items():
            if frozenset(key) != shape.leaves:
                raise TreeError(f"entry key {set(key)} does not match its shape")
        self.entries = {frozenset(k): v for k, v in entries.items()}
        labels = set()
        for key in self.entries:
            labels |= key
        self.labels = frozenset(labels)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, key) -> TripleShape:
        return self.entries[frozenset(key)]

    def __iter__(self):
        return iter(self.entries.values())

    def is_complete(self) -> bool:
        d = len(self.labels)
        return len(self.entries) == d * (d - 1) * (d - 2) // 6

    def require_complete(self):
        if len(self.labels) < 3 or not self.is_complete():
            raise TreeError("triple set does not cover all 3-subsets of its leaf set")


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
                 "_leafset", "_depth", "_canon", "_pair_lca")

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
        self._pair_lca = None

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

    def to_nested(self, with_annotations=False):
        def rec(v):
            if self.is_leaf(v):
                return self.labels[v]
            sub = [rec(c) for c in self.children[v]]
            if with_annotations and v in self.annotations:
                return (sub, self.annotations[v])
            return sub

        return rec(self.root)

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

    def is_fan(self) -> bool:
        return len(self.internal_nodes) == 1

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

    def leaf_pairs_at(self, v: int):
        """Yield the leaf-label pairs whose LCA is ``v``: one leaf from each
        of two distinct children, children in order and each child's labels
        sorted, so the walk never depends on string hashing."""
        kids = [sorted(self._leafset[c]) for c in self.children[v]]
        for a_i, left in enumerate(kids):
            for right in kids[a_i + 1:]:
                for la in left:
                    for lb in right:
                        yield la, lb

    def _lca_table(self):
        # lca node for every unordered leaf-label pair, built in O(d^2)
        if self._pair_lca is None:
            self._pair_lca = {frozenset(pair): v for v in self.internal_nodes
                              for pair in self.leaf_pairs_at(v)}
        return self._pair_lca

    def lca(self, a: str, b: str) -> int:
        """LCA node id of two distinct leaf labels."""
        if a == b:
            return self.node_of_label(a)
        for lab in (a, b):
            if lab not in self.label_set:
                raise TreeError(f"unknown leaf label {lab!r}")
        return self._lca_table()[frozenset((a, b))]

    def triple_shape(self, a: str, b: str, c: str) -> TripleShape:
        """Shape of the tree restricted to three distinct leaves.

        The triple is a fan iff all three pairwise LCAs coincide; otherwise
        exactly one pair has a strictly deeper LCA and forms the cherry.
        """
        if len({a, b, c}) != 3:
            raise TreeError("triple_shape needs three distinct leaves")
        dab = self._depth[self.lca(a, b)]
        dac = self._depth[self.lca(a, c)]
        dbc = self._depth[self.lca(b, c)]
        top = max(dab, dac, dbc)
        leaves = frozenset((a, b, c))
        if dab == dac == dbc:
            return TripleShape(leaves)
        if dab == top:
            return TripleShape(leaves, frozenset((a, b)))
        if dac == top:
            return TripleShape(leaves, frozenset((a, c)))
        return TripleShape(leaves, frozenset((b, c)))

    # -- structural edits -------------------------------------------------- #

    def collapse_edge(self, child: int) -> "RootedTree":
        """Remove internal node ``child``, reattaching its children to its
        parent.  The leaf set is preserved; the internal node count drops
        by one."""
        if self.is_leaf(child):
            raise TreeError("cannot collapse a leaf")
        if child == self.root:
            raise TreeError("cannot collapse the root")

        def rec(v):
            if self.is_leaf(v):
                return self.labels[v]
            out = []
            for c in self.children[v]:
                if c == child:
                    out.extend(rec(g) for g in self.children[c])
                else:
                    out.append(rec(c))
            return out

        return RootedTree.from_nested(rec(self.root))

    def with_annotations(self, mapping: dict) -> "RootedTree":
        """Copy of the tree with ``mapping`` (node id -> value) attached."""
        return RootedTree(self.parent, self.children, self.labels, mapping)

    # -- JSON form ----------------------------------------------------------- #

    def to_json_obj(self):
        def rec(v):
            if self.is_leaf(v):
                return {"label": self.labels[v]}
            obj = {"children": [rec(c) for c in self.children[v]]}
            if v in self.annotations:
                obj["annotation"] = self.annotations[v]
            return obj

        return rec(self.root)

    @classmethod
    def from_json_obj(cls, obj) -> "RootedTree":
        def rec(node):
            if "children" in node:
                sub = [rec(c) for c in node["children"]]
                if node.get("annotation") is not None:
                    return (sub, float(node["annotation"]))
                return sub
            label = node.get("label")
            if not isinstance(label, str):
                raise TreeError("JSON leaf needs a string label")
            return label

        return cls.from_nested(rec(obj))

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "RootedTree":
        return cls.from_json_obj(json.loads(text))


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


def decompose(tree: RootedTree) -> TripleSet:
    """The multiset of all C(d,3) trivariate shapes of ``tree``."""
    labels = sorted(tree.label_set)
    if len(labels) < 3:
        raise TreeError("decompose needs at least 3 leaves")
    return TripleSet({frozenset(t): tree.triple_shape(*t)
                      for t in itertools.combinations(labels, 3)})


def reconstruct(triples: TripleSet) -> RootedTree:
    """Rebuild a rooted tree from a complete set of trivariate shapes.

    Two leaves belong to the same child subtree of the current node iff at
    least one third leaf witnesses them as a cherry; the connected
    components of that relation become the children, and the procedure
    recurses inside each component.  On a consistent triple set (one
    produced by :func:`decompose`) the result is isomorphic to the original
    tree.

    Estimated triple sets can be contradictory.  If the witness graph ends
    up as a single component spanning the whole current group, edges are
    discarded from the weakest support level upward until the group splits,
    which biases conflicts toward less resolved (fan-like) structures.
    """
    triples.require_complete()
    labels = sorted(triples.labels)

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
            votes = sum(1 for k in group
                        if k not in pair and triples[(a, b, k)].cherry == pair)
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
    ta, tb = decompose(a), decompose(b)
    return sum(1 for key, shape in ta.entries.items() if tb[key] != shape)


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
        return [(v, w) for v, w in self.edges()
                if not self.is_leaf(v) and not self.is_leaf(w)]

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


def attach_outgroup(tree: RootedTree, outgroup: str) -> UnrootedTree:
    """Hang an extra leaf off the root, then unroot.  The outgroup edge
    marks where the root was, so the tree can be rerooted later."""
    if outgroup in tree.label_set:
        raise TreeError(f"outgroup label {outgroup!r} already in tree")
    nested = tree.to_nested()
    return unroot(RootedTree.from_nested([nested, outgroup]))


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
