import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nactree.trees import (
    SPLITS,
    RootedTree,
    TreeError,
    UnrootedTree,
    decompose,
    max_tri_distance,
    parse_newick,
    reconstruct,
    root_with_outgroup,
    tree_distance_01,
    tree_distance_tri,
    triple_index,
    unroot,
    write_newick,
)

from conftest import random_rooted_tree
from oracles import (
    attach_outgroup,
    decompose_lca_table,
    is_fan,
    lca,
    lca_table,
    reconstruct_shapes,
    shapes_from_codes,
    to_nested,
    tree_distance_tri_lca_table,
)


def numbered_tree(d, seed):
    """A random rooted tree with polytomies over U1..Ud, whose string order
    (U1, U10, U11, ..., U2, ...) is not their numeric order."""
    return random_rooted_tree([f"U{i}" for i in range(1, d + 1)],
                              np.random.default_rng(seed))


trees_3_to_40 = st.builds(numbered_tree, st.integers(3, 40),
                          st.integers(0, 2**32 - 1))


# ---------------------------------------------------------------------- #
# independent LCA oracle: path-to-root comparison, no shared code with
# the RootedTree implementation
# ---------------------------------------------------------------------- #


def oracle_triple_shape(tree, a, b, c):
    def ancestors(label):
        v = tree.node_of_label(label)
        out = [v]
        while v != tree.root:
            v = tree.parent[v]
            out.append(v)
        return out

    def lca_depth(x, y):
        px, py = ancestors(x), set(ancestors(y))
        for i, v in enumerate(px):
            if v in py:
                return len(px) - 1 - i  # depth counted from the root
        raise AssertionError("no common ancestor")

    dab, dac, dbc = lca_depth(a, b), lca_depth(a, c), lca_depth(b, c)
    top = max(dab, dac, dbc)
    if dab == dac == dbc:
        return None
    if dab == top:
        return frozenset((a, b))
    if dac == top:
        return frozenset((a, c))
    return frozenset((b, c))


class TestNewick:
    def test_cherry(self):
        tree = parse_newick("((U2,U3),U1);")
        assert tree.n_leaves == 3
        assert tree.triple_codes().tolist() == [3]  # the cherry bc

    def test_fan(self):
        tree = parse_newick("(U1,U2,U3);")
        assert tree.triple_codes().tolist() == [0]

    def test_single_child_root_rejected(self):
        with pytest.raises(TreeError):
            parse_newick("(A);")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(TreeError):
            parse_newick("(A,A);")

    def test_malformed(self):
        for bad in ["((A,B)", "A", "(A,B,);", "(,A);", ""]:
            with pytest.raises(TreeError):
                parse_newick(bad)

    def test_single_leaf_roundtrip(self):
        assert write_newick(parse_newick("A;")) == "A;"

    def test_branch_lengths_discarded(self):
        tree = parse_newick("((A:0.1,B:0.2)0.9:0.3,C:1);")
        assert tree == parse_newick("((A,B),C);")
        assert tree.annotations  # the 0.9 internal label is numeric

    def test_annotations_roundtrip(self):
        tree = parse_newick("((U2,U3)0.8,U1)0.33;")
        out = write_newick(tree, with_annotations=True)
        assert out == "((U2,U3)0.8,U1)0.33;"
        assert parse_newick(out).annotations == tree.annotations

    def test_parse_write_identity(self, rng):
        for trial in range(40):
            labels = [f"L{i}" for i in range(int(rng.integers(1, 15)))] or ["L0"]
            tree = random_rooted_tree(labels, rng)
            assert parse_newick(write_newick(tree)) == tree


class TestLeafPairs:
    def test_each_pair_walked_once_at_its_lca(self, rng):
        labels = [f"L{i}" for i in range(9)]
        for _ in range(20):
            tree = random_rooted_tree(labels, rng)
            walked = [(v, pair) for v in tree.internal_nodes
                      for pair in tree.leaf_pairs_across(tree.children[v])]
            assert len(walked) == len(labels) * (len(labels) - 1) // 2
            assert len({frozenset(p) for _, p in walked}) == len(walked)
            for v, (a, b) in walked:
                # v holds both leaves and no child of v does
                assert {a, b} <= tree.leaf_set(v)
                assert not any({a, b} <= tree.leaf_set(c)
                               for c in tree.children[v])

    def test_labels_walk_in_sorted_order(self):
        tree = parse_newick("((d,b,c),(a,e));")
        assert list(tree.leaf_pairs_across(tree.children[tree.root])) == [
            ("b", "a"), ("b", "e"), ("c", "a"), ("c", "e"),
            ("d", "a"), ("d", "e")]


class TestLca:
    @settings(max_examples=40, deadline=None)
    @given(trees_3_to_40)
    def test_parent_walk_equals_lca_table(self, tree):
        table = lca_table(tree)
        for a, b in itertools.combinations(sorted(tree.label_set), 2):
            assert lca(tree, a, b) == table[frozenset((a, b))]
        a = tree.leaf_labels[0]
        assert lca(tree, a, a) == tree.node_of_label(a)

    def test_unknown_label(self):
        with pytest.raises(TreeError):
            lca(parse_newick("((A,B),C);"), "A", "Z")


class TestTripleShape:
    # the four rooted trees over a < b < c, and the outlier of each cherry
    SHAPES = (("(a,b,c);", 0, None), ("((a,b),c);", 1, "c"),
              ("((a,c),b);", 2, "b"), ("((b,c),a);", 3, "a"))

    def test_four_shapes_only(self):
        codes = [parse_newick(text).triple_codes().tolist()
                 for text, _, _ in self.SHAPES]
        assert codes == [[0], [1], [2], [3]]

    def test_codes(self):
        for text, code, _ in self.SHAPES:
            labels, codes = decompose(parse_newick(text))
            assert labels == ("a", "b", "c") and codes.tolist() == [code]
            shape = shapes_from_codes(codes, labels)[frozenset("abc")]
            assert shape.code == code and shape.is_fan == (code == 0)

    def test_outlier(self):
        # SPLITS puts a cherry's two leaves first and its outlier last
        for _, code, outlier in self.SHAPES[1:]:
            a, b, out = SPLITS[code]
            assert "abc"[out] == outlier and {a, b, out} == {0, 1, 2}
        assert SPLITS[0] is None

    def test_permutation_invariance(self, rng):
        # a tree's codes do not depend on the order it lists children in
        def reverse(nested):
            return (nested if isinstance(nested, str)
                    else [reverse(sub) for sub in reversed(nested)])

        for _ in range(20):
            tree = random_rooted_tree([f"U{i}" for i in range(7)], rng)
            mirrored = parse_newick(write_newick(
                RootedTree.from_nested(reverse(to_nested(tree)))))
            assert np.array_equal(mirrored.triple_codes(), tree.triple_codes())

    def test_nested_vs_fan_discrimination(self):
        # the triple U2,U3,U4, the last of four labels, in two context trees
        left = parse_newick("(U1,((U3,U4),U2));")
        right = parse_newick("(U1,(U2,U3,U4));")
        assert decompose(left)[1][-1] == 3  # the cherry bc
        assert decompose(right)[1][-1] == 0


class TestDecompose:
    def test_balanced_four(self):
        tree = parse_newick("((U1,U2),(U3,U4));")
        labels, codes = decompose(tree)
        expect = {
            frozenset(("U1", "U2", "U3")): frozenset(("U1", "U2")),
            frozenset(("U1", "U2", "U4")): frozenset(("U1", "U2")),
            frozenset(("U1", "U3", "U4")): frozenset(("U3", "U4")),
            frozenset(("U2", "U3", "U4")): frozenset(("U3", "U4")),
        }
        assert {key: s.cherry for key, s in
                shapes_from_codes(codes, labels).items()} == expect
        assert labels == ("U1", "U2", "U3", "U4")
        assert codes.tolist() == [1, 1, 3, 3]

    def test_fan_all_fan(self):
        tree = parse_newick("(U1,U2,U3,U4,U5);")
        assert decompose(tree)[1].tolist() == [0] * 10

    def test_caterpillar_against_oracle(self):
        tree = parse_newick("((((U1,U2),U3),U4),U5);")
        labels, codes = decompose(tree)
        ts = shapes_from_codes(codes, labels)
        assert len(ts) == 10
        assert ts[frozenset(("U3", "U4", "U5"))].cherry == {"U3", "U4"}
        for a, b, c in itertools.combinations(labels, 3):
            assert ts[frozenset((a, b, c))].cherry == oracle_triple_shape(
                tree, a, b, c)

    def test_too_small(self):
        with pytest.raises(TreeError):
            decompose(parse_newick("(A,B);"))

    def test_random_trees_against_oracle(self, rng):
        for _ in range(15):
            tree = random_rooted_tree([f"U{i}" for i in range(6)], rng)
            labels, codes = decompose(tree)
            ts = shapes_from_codes(codes, labels)
            for a, b, c in itertools.combinations(labels, 3):
                assert ts[frozenset((a, b, c))].cherry == oracle_triple_shape(
                    tree, a, b, c)

    @settings(max_examples=60, deadline=None)
    @given(trees_3_to_40)
    def test_equals_lca_table_decomposition(self, tree):
        want = decompose_lca_table(tree)
        labels, codes = decompose(tree)
        assert labels == tuple(sorted(tree.label_set))
        assert shapes_from_codes(codes, labels) == want
        assert codes.tolist() == [s.code for s in want.values()]

    def test_codes_computed_once_and_read_only(self):
        tree = parse_newick("((U1,U2),(U3,U4));")
        codes = tree.triple_codes()
        assert tree.triple_codes() is codes and decompose(tree)[1] is codes
        with pytest.raises(ValueError):
            codes[0] = 0

    def test_codes_follow_string_order(self):
        # U10 sorts between U1 and U2: the triple (U1, U10, U2) has the
        # cherry U1,U2, which is "ac" of the sorted triple
        tree = parse_newick("((U1,U2),U10);")
        assert tree.triple_codes().tolist() == [2]
        assert decompose(tree)[0] == ("U1", "U10", "U2")

    def test_triple_index_rows(self):
        for d in range(0, 9):
            assert triple_index(d).tolist() == [
                list(t) for t in itertools.combinations(range(d), 3)]
        assert triple_index(7) is triple_index(7)


class TestReconstruct:
    def test_balanced_roundtrip(self):
        tree = parse_newick("((U1,U2),(U3,U4));")
        assert reconstruct(*decompose(tree)) == tree

    def test_all_fan_gives_fan(self):
        labels = [f"U{i}" for i in range(1, 6)]
        assert reconstruct(labels, np.zeros(10, dtype=np.int8)) == \
            parse_newick("(U1,U2,U3,U4,U5);")

    def test_two_labels_give_their_cherry(self):
        assert reconstruct(["U2", "U1"], []) == parse_newick("(U1,U2);")

    def test_fan_inside_tree_roundtrip(self):
        # pairs inside the fan have a single witness triple; the rebuild
        # must still group them
        tree = parse_newick("((U1,U2,U3,U4),U5);")
        assert reconstruct(*decompose(tree)) == tree

    def test_fifteen_leaf_roundtrip(self):
        text = ("((U1,U2,(U3,U4)),((U6,U7),U5),(U8,(U9,U10,U11,U12,U13)),"
                "U14,U15);")
        tree = parse_newick(text)
        assert reconstruct(*decompose(tree)) == tree

    def test_incomplete_rejected(self):
        labels, codes = decompose(parse_newick("((U1,U2),(U3,U4));"))
        for bad in (codes[1:], np.append(codes, 1), [-1, 1, 3, 3],
                    [1, 4, 3, 3]):
            with pytest.raises(TreeError, match="one code in"):
                reconstruct(labels, bad)
        with pytest.raises(TreeError, match="at least 2 leaves"):
            reconstruct(["U1"], [])

    def test_roundtrip_random(self, rng):
        for _ in range(60):
            d = int(rng.integers(3, 13))
            tree = random_rooted_tree([f"U{i}" for i in range(d)], rng)
            assert reconstruct(*decompose(tree)) == tree

    @settings(max_examples=60, deadline=None)
    @given(trees_3_to_40, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_contradictory_codes_equal_the_oracle(self, tree, share, seed):
        # a tree's codes with a random share of them redrawn from 0..3
        rng = np.random.default_rng(seed)
        codes = tree.triple_codes().copy()
        redraw = rng.random(codes.size) < share
        codes[redraw] = rng.integers(0, 4, size=int(redraw.sum()))
        labels = sorted(tree.label_set)
        got = reconstruct(labels, codes)
        want = reconstruct_shapes(shapes_from_codes(codes, labels), labels)
        assert write_newick(got) == write_newick(want)


class TestDistances:
    def test_identical(self):
        a = parse_newick("((U1,U2),(U3,U4));")
        assert tree_distance_01(a, a) == 0
        assert tree_distance_tri(a, a) == 0

    def test_child_order_irrelevant(self):
        a = parse_newick("((U1,U2),(U3,U4));")
        b = parse_newick("((U4,U3),(U2,U1));")
        assert tree_distance_01(a, b) == 0

    def test_two_triples_differ(self):
        a = parse_newick("((U1,U2),(U3,U4));")
        b = parse_newick("(U1,U2,(U3,U4));")
        assert tree_distance_01(a, b) == 1
        assert tree_distance_tri(a, b) == 2  # triples 123 and 124 flip

    def test_binary_vs_fan(self):
        a = parse_newick("((((U1,U2),U3),U4),U5);")
        fan = parse_newick("(U1,U2,U3,U4,U5);")
        non_fan = np.count_nonzero(decompose(a)[1])
        assert tree_distance_tri(a, fan) == non_fan

    def test_fewer_than_three_leaves(self):
        # no triple, so nothing to differ in
        for newick in ("(A,B);", "A;"):
            tree = parse_newick(newick)
            assert tree_distance_tri(tree, tree) == 0 == max_tri_distance(
                tree.n_leaves)

    def test_mismatched_leafsets(self):
        with pytest.raises(TreeError):
            tree_distance_tri(parse_newick("(A,B,C);"), parse_newick("(A,B,D);"))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_equals_lca_table_distance(self, d, seed_a, seed_b):
        a, b = numbered_tree(d, seed_a), numbered_tree(d, seed_b)
        assert tree_distance_tri(a, b) == tree_distance_tri_lca_table(a, b)

    def test_equivalence_and_bounds(self, rng):
        labels = [f"U{i}" for i in range(7)]
        for _ in range(25):
            a = random_rooted_tree(labels, rng)
            b = random_rooted_tree(labels, rng)
            tri = tree_distance_tri(a, b)
            assert 0 <= tri <= max_tri_distance(7)
            assert (tri == 0) == (tree_distance_01(a, b) == 0)
            assert tri == tree_distance_tri(b, a)


class TestCollapseEdge:
    def test_fig4_transformation(self):
        left = parse_newick("(U1,(U2,(U3,U4)));")
        node34 = next(v for v in left.internal_nodes
                      if left.leaf_set(v) == {"U3", "U4"})
        assert left.collapse_edges({node34}) == parse_newick("(U1,(U2,U3,U4));")

    def test_collapse_everything_gives_fan(self, rng):
        tree = random_rooted_tree([f"U{i}" for i in range(8)], rng)
        while len(tree.internal_nodes) > 1:
            child = next(v for v in tree.internal_nodes if v != tree.root)
            before = len(tree.internal_nodes)
            collapsed = tree.collapse_edges({child})
            assert len(collapsed.internal_nodes) == before - 1
            assert collapsed.label_set == tree.label_set
            tree = collapsed
        assert is_fan(tree)

    def test_three_leaf(self):
        tree = parse_newick("((U1,U2),U3);")
        inner = next(v for v in tree.internal_nodes if v != tree.root)
        assert tree.collapse_edges({inner}) == parse_newick("(U1,U2,U3);")

    def test_leaf_and_root_rejected(self):
        tree = parse_newick("((U1,U2),U3);")
        with pytest.raises(TreeError):
            tree.collapse_edges({tree.root})
        with pytest.raises(TreeError):
            tree.collapse_edges({tree.leaves[0]})
        with pytest.raises(TreeError):
            tree.collapse_edges({tree.root, tree.leaves[0]})

    def test_empty_set_returns_the_tree(self):
        tree = parse_newick("((U1,U2),U3);")
        assert tree.collapse_edges(set()) is tree

    def test_nested_pair_at_once_equals_one_by_one(self, rng):
        for _ in range(20):
            tree = random_rooted_tree([f"U{i}" for i in range(9)], rng)
            nested = [(v, c) for v in tree.internal_nodes if v != tree.root
                      for c in tree.children[v] if not tree.is_leaf(c)]
            if not nested:
                continue
            upper, lower = nested[int(rng.integers(len(nested)))]
            once = tree.collapse_edges({upper, lower})
            inner = tree.collapse_edges({lower})
            upper_after = next(v for v in inner.internal_nodes
                               if inner.leaf_set(v) == tree.leaf_set(upper))
            outer = tree.collapse_edges({upper})
            lower_after = next(v for v in outer.internal_nodes
                               if outer.leaf_set(v) == tree.leaf_set(lower))
            assert (to_nested(once)
                    == to_nested(inner.collapse_edges({upper_after}))
                    == to_nested(outer.collapse_edges({lower_after})))
            assert len(once.internal_nodes) == len(tree.internal_nodes) - 2


class TestUnrooted:
    def test_outgroup_star_of_cherries(self):
        # unrooted tree ((U1,U3),(U2,U4),O): rooting at O and dropping it
        # leaves the two cherries
        rooted = parse_newick("((U1,U3),(U2,U4));")
        un = attach_outgroup(rooted, "O")
        assert root_with_outgroup(un, "O") == rooted

    def test_attach_root_roundtrip_random(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 10))
            tree = random_rooted_tree([f"U{i}" for i in range(d)], rng)
            assert root_with_outgroup(attach_outgroup(tree, "OUT"), "OUT") == tree

    def test_missing_outgroup(self):
        un = unroot(parse_newick("((A,B),C);"))
        with pytest.raises(TreeError):
            root_with_outgroup(un, "Z")

    def test_unroot_suppresses_binary_root(self):
        un = unroot(parse_newick("((A,B),(C,D));"))
        assert sorted(len(nb) for nb in un.adj if nb) == [1, 1, 1, 1, 3, 3]

    def test_unrooted_equality(self):
        a = unroot(parse_newick("((A,B),(C,D));"))
        b = unroot(parse_newick("(A,(B,(C,D)));"))
        c = unroot(parse_newick("((A,C),(B,D));"))
        assert a == b
        assert a != c

    def test_degree_two_rejected(self):
        with pytest.raises(TreeError):
            UnrootedTree([[1], [0, 2], [1]], {0: "A", 2: "B"})
