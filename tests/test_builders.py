import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nactree.builders as builders
from nactree.builders import (
    UNKNOWN,
    CharacterMatrix,
    average_linkage,
    build_binary,
    build_character_matrix,
    fitch_score,
    hamming_distances,
    nj_tree,
    nni_neighbors,
    supertree_from_shapes,
    trivariate_binary_estimate,
)
from nactree.dependence import (
    DataError,
    Dataset,
    DependenceMatrix,
    PseudoObservations,
    pseudo_observations,
)
from nactree.nac import NacSpec, sample
from nactree.trees import (
    TreeError,
    UnrootedTree,
    decompose,
    parse_newick,
    unroot,
    write_newick,
)

from conftest import RANK_NS, random_binary_tree, random_rooted_tree
from oracles import (
    _triples_to_trees,
    attach_outgroup,
    average_linkage_pairs,
    fitch_score_counts,
    hamming_distances_loop,
    nj_tree_pairs,
    nni_neighbors_validated,
    supertree_from_shapes_rescore,
    trivariate_binary_estimate_loop,
)


def random_distance_matrices(seed, count, low, high):
    """``count`` random symmetric zero-diagonal matrices of size low..high
    with shuffled labels U1.., two in three of them on a coarse grid so
    that equal distances (and equal NJ scores) are common."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = int(rng.integers(low, high + 1))
        vals = rng.uniform(0.0, 1.0, size=(d, d))
        if k % 3:
            vals = np.round(vals * (4, 40)[k % 3 - 1]) / (4, 40)[k % 3 - 1]
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        yield vals, tuple(f"U{i}" for i in rng.permutation(d) + 1)


def all_unrooted_topologies(labels):
    """Exhaustive edge-insertion enumeration of unrooted binary trees."""
    trees = [UnrootedTree([[1], [0]], {0: labels[0], 1: labels[1]})]
    for lab in labels[2:]:
        grown = []
        for t in trees:
            for v, w in t.edges():
                adj = [list(nb) for nb in t.adj]
                mid, leaf = len(adj), len(adj) + 1
                adj[v][adj[v].index(w)] = mid
                adj[w][adj[w].index(v)] = mid
                adj.append([v, w, leaf])
                adj.append([mid])
                labs = dict(t.labels)
                labs[leaf] = lab
                grown.append(UnrootedTree(adj, labs))
        trees = grown
    return trees


def fig3_inputs():
    return [parse_newick("((U1,U3),(U2,U4));"), parse_newick("(U1,U3,(U4,U5));")]


def fig3_expected_columns():
    # rows U1..U5, O; one column per internal edge of the rooted inputs
    return {
        (0, 1, 0, 1, UNKNOWN, 0),   # {U2,U4} vs rest (U5 absent)
        (1, 0, 1, 0, UNKNOWN, 0),   # {U1,U3} vs rest (U5 absent)
        (0, UNKNOWN, 0, 1, 1, 0),   # {U4,U5} vs rest (U2 absent)
    }


def canonical_columns(matrix):
    """Columns as tuples, polarity normalized so the outgroup row reads 0."""
    out = set()
    for col in matrix.data.T:
        col = tuple(int(v) for v in col)
        if col[-1] == 1:
            col = tuple(1 - v if v != UNKNOWN else v for v in col)
        out.add(col)
    return out


def random_scored_tree(rng, d, ncols, binary=False):
    """A random tree over d labels plus the outgroup "O" (polytomies unless
    ``binary``) and a random 0/1/unknown matrix of ``ncols`` columns."""
    labels = [f"U{i}" for i in range(d)]
    rooted = (random_binary_tree if binary else random_rooted_tree)(labels, rng)
    data = rng.integers(-1, 2, size=(d + 1, ncols))
    return attach_outgroup(rooted, "O"), CharacterMatrix((*labels, "O"), data)


def ratchet_weights(rng, ncols):
    weights = np.ones(ncols)
    weights[rng.choice(ncols, size=max(1, ncols // 4), replace=False)] = 2.0
    return weights


def corrupted_shapes(rng, d):
    """The triple codes of a random binary tree over d labels with every
    third one replaced by a wrong cherry."""
    labels = [f"U{i}" for i in range(1, d + 1)]
    codes = decompose(random_binary_tree(labels, rng))[1].copy()
    for t in range(0, len(codes), 3):
        wrong = [code for code in (1, 2, 3) if code != codes[t]]
        codes[t] = wrong[int(rng.integers(2))]
    return codes, labels


class TestAverageLinkage:
    def test_three_items(self):
        m = DependenceMatrix(np.array([[0, .1, .9], [.1, 0, .9], [.9, .9, 0]]),
                             ("U1", "U2", "U3"), "kt")
        assert average_linkage(m) == parse_newick("((U1,U2),U3);")

    def test_two_blocks(self):
        vals = np.array([[0, .1, .8, .9],
                         [.1, 0, .85, .8],
                         [.8, .85, 0, .15],
                         [.9, .8, .15, 0]])
        m = DependenceMatrix(vals, ("U1", "U2", "U3", "U4"), "kt")
        assert average_linkage(m) == parse_newick("((U1,U2),(U3,U4));")

    def test_all_equal_is_deterministic(self):
        m = DependenceMatrix(1 - np.eye(5), tuple(f"U{i}" for i in range(5)), "kt")
        assert average_linkage(m) == average_linkage(m)

    def test_output_strictly_binary(self, rng):
        for d in (2, 3, 6, 9):
            vals = rng.uniform(0.1, 1.0, size=(d, d))
            vals = (vals + vals.T) / 2
            np.fill_diagonal(vals, 0.0)
            tree = average_linkage(DependenceMatrix(vals,
                                                    tuple(f"U{i}" for i in range(d)),
                                                    "kt"))
            assert tree.is_binary()
            assert len(tree.internal_nodes) == d - 1

    def test_non_finite_rejected(self):
        vals = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(Exception):
            average_linkage(DependenceMatrix(vals, ("a", "b"), "kt"))

    def test_matches_pair_dictionary_oracle(self):
        for vals, labels in random_distance_matrices(3, 600, 2, 13):
            m = DependenceMatrix(vals, labels, "kt")
            assert (write_newick(average_linkage(m))
                    == write_newick(average_linkage_pairs(m)))


class TestTrivariateEstimate:
    def test_degenerate_comonotone_pair(self, rng):
        x = rng.uniform(size=(200, 3))
        x[:, 1] = x[:, 0]
        u = pseudo_observations(Dataset(x, ("a", "b", "c")))
        assert trivariate_binary_estimate(u).tolist() == [1]  # the cherry ab

    def test_label_permutation_invariance(self, rng):
        x = rng.uniform(size=(150, 4))
        x[:, 2] += x[:, 0]
        labels = ("a", "b", "c", "d")
        want = trivariate_binary_estimate(Dataset(x, labels))
        for perm in itertools.permutations(range(4)):
            data = Dataset(x[:, perm], tuple(labels[i] for i in perm))
            assert np.array_equal(trivariate_binary_estimate(data), want)

    def test_never_fan(self, rng):
        x = rng.uniform(size=(100, 5))  # independent: content arbitrary
        codes = trivariate_binary_estimate(
            pseudo_observations(Dataset(x, tuple("abcde"))))
        assert codes.dtype == np.int8 and codes.shape == (10,)
        assert np.isin(codes, (1, 2, 3)).all()
        with pytest.raises(ValueError):
            codes[0] = 1

    def test_fewer_than_three_columns_have_no_triple(self, rng):
        data = Dataset(rng.uniform(size=(20, 2)), ("a", "b"))
        assert trivariate_binary_estimate(data).shape == (0,)

    def test_monte_carlo_recovery(self):
        nac = NacSpec.single_family("((U2,U3),U1);", "clayton", {
            ("U1", "U2", "U3"): 0.2, ("U2", "U3"): 0.8})
        hits = 0
        for seed in range(100):
            x = sample(nac, 1000, seed)
            u = pseudo_observations(Dataset(x, nac.tree.leaf_labels))
            if trivariate_binary_estimate(u).tolist() == [3]:  # the cherry bc
                hits += 1
        assert hits >= 95

    def test_duplicate_labels_rejected(self, rng):
        u = PseudoObservations(rng.uniform(size=(50, 3)), ("a", "a", "b"))
        with pytest.raises(TreeError, match="distinct column labels"):
            trivariate_binary_estimate(u)

    def test_dataset_accepted(self, rng):
        data = Dataset(rng.uniform(size=(60, 4)), ("a", "b", "c", "d"))
        assert np.array_equal(
            trivariate_binary_estimate(data),
            trivariate_binary_estimate(pseudo_observations(data)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_per_triple_loop(self, data):
        # labels U1..Ud in shuffled column order, whose string order
        # (U1, U10, U11, U12, U2, ...) is not their numeric order either
        d = data.draw(st.integers(3, 12), label="d")
        n = data.draw(st.sampled_from(RANK_NS), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        digits = data.draw(st.sampled_from((None, 0, 1)), label="digits")
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, d))
        x[:, 1:] += rng.uniform(0, 2, size=d - 1) * x[:, :1]
        if digits is not None:  # ties
            x = np.round(x, digits)
        labels = [f"U{i}" for i in rng.permutation(np.arange(1, d + 1))]
        # n = 1 and 2 are too few rows for a Dataset; the ranks serve
        obs = PseudoObservations(x, labels)
        if n < 2:
            for estimate in (trivariate_binary_estimate,
                             trivariate_binary_estimate_loop):
                with pytest.raises(DataError, match="at least 2"):
                    estimate(obs)
            return
        got = trivariate_binary_estimate(obs)
        assert got.dtype == np.int8
        assert got.tobytes() == trivariate_binary_estimate_loop(obs).tobytes()


class TestCharacterMatrix:
    def test_reference_two_tree_matrix(self):
        cm = build_character_matrix(fig3_inputs(), [f"U{i}" for i in range(1, 6)])
        assert cm.rows == ("U1", "U2", "U3", "U4", "U5", "O")
        assert cm.n_columns == 3
        assert canonical_columns(cm) == fig3_expected_columns()

    def test_outgroup_row_all_zero(self):
        cm = build_character_matrix(fig3_inputs(), [f"U{i}" for i in range(1, 6)])
        assert np.all(cm.row("O") == 0)

    def test_single_cherry_input(self):
        cm = build_character_matrix([parse_newick("((A,B),C);")],
                                    ["A", "B", "C", "D"])
        assert cm.n_columns == 1
        (col,) = canonical_columns(cm)
        assert col == (1, 1, 0, UNKNOWN, 0)

    def test_every_column_has_both_states(self, rng):
        trees = [random_binary_tree([f"U{i}" for i in range(1, 7)], rng)
                 for _ in range(4)]
        cm = build_character_matrix(trees, [f"U{i}" for i in range(1, 7)])
        for col in cm.data.T:
            known = col[col != UNKNOWN]
            assert (known == 0).any() and (known == 1).any()

    def test_empty_input_rejected(self):
        with pytest.raises(TreeError):
            build_character_matrix([], ["A", "B", "C"])

    def test_foreign_leaves_rejected(self):
        with pytest.raises(TreeError):
            build_character_matrix([parse_newick("((A,B),Z);")], ["A", "B", "C"])

    @pytest.mark.parametrize("cell", [2, -2])
    def test_cells_outside_the_states_rejected(self, cell):
        data = np.array([[0], [cell], [1]], dtype=np.int8)
        with pytest.raises(ValueError, match=f"cell {cell} is not"):
            CharacterMatrix(("A", "B", "C"), data)

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError, match="duplicate character matrix row 'A'"):
            CharacterMatrix(("A", "B", "C", "A"), np.zeros((4, 2), dtype=np.int8))

    @pytest.mark.parametrize("data", [np.array([1, 0]), np.zeros((2, 1, 1))])
    def test_data_must_be_two_dimensional(self, data):
        with pytest.raises(ValueError, match="must be 2-D"):
            CharacterMatrix(("A", "B"), data)

    def test_states_are_column_bit_sets(self):
        cm = CharacterMatrix(("A", "B"), [[0, 1, UNKNOWN], [1, 1, 0]])
        assert cm.states == {"A": (0b101, 0b110), "B": (0b100, 0b011)}

    def test_csv_export_uses_question_marks(self, tmp_path):
        cm = build_character_matrix(fig3_inputs(), [f"U{i}" for i in range(1, 6)])
        path = tmp_path / "cm.csv"
        cm.to_csv(path)
        assert "?" in path.read_text()


class TestFitchScore:
    def test_one_leaf_scores_zero(self):
        cm = CharacterMatrix(("A",), [[0, 1]])
        assert fitch_score(UnrootedTree([[]], {0: "A"}), cm) == 0.0

    def test_reference_supertree_scores_three(self):
        cm = build_character_matrix(fig3_inputs(), [f"U{i}" for i in range(1, 6)])
        sup = unroot(parse_newick("(((U1,U3),(U2,(U4,U5))),O);"))
        assert fitch_score(sup, cm) == 3.0

    def test_three_is_global_minimum(self):
        cm = build_character_matrix(fig3_inputs(), [f"U{i}" for i in range(1, 6)])
        scores = [fitch_score(t, cm)
                  for t in all_unrooted_topologies(["U1", "U2", "U3", "U4",
                                                    "U5", "O"])]
        assert len(scores) == 105
        assert min(scores) == 3.0

    def test_constant_column_costs_nothing(self):
        cm = CharacterMatrix(("A", "B", "C", "D"),
                             np.zeros((4, 1), dtype=np.int8))
        for t in all_unrooted_topologies(["A", "B", "C", "D"]):
            assert fitch_score(t, cm) == 0.0

    def test_pendant_column_costs_one_everywhere(self):
        data = np.array([[1], [0], [0], [0]], dtype=np.int8)
        cm = CharacterMatrix(("A", "B", "C", "D"), data)
        for t in all_unrooted_topologies(["A", "B", "C", "D"]):
            assert fitch_score(t, cm) == 1.0

    def test_informative_column_lower_bound(self, rng):
        labels = [f"U{i}" for i in range(6)]
        data = rng.integers(0, 2, size=(6, 5)).astype(np.int8)
        cm = CharacterMatrix(tuple(labels), data)
        informative = sum(1 for col in data.T if (col == 0).any() and (col == 1).any())
        for t in (all_unrooted_topologies(labels)[k] for k in (0, 10, 50)):
            assert fitch_score(t, cm) >= informative

    def test_weights(self):
        data = np.array([[1, 1], [0, 0], [0, 0], [0, 0]], dtype=np.int8)
        cm = CharacterMatrix(("A", "B", "C", "D"), data)
        t = all_unrooted_topologies(["A", "B", "C", "D"])[0]
        assert fitch_score(t, cm, weights=[2.0, 3.0]) == 5.0
        # a bare edge: every column whose two state sets are disjoint
        data = np.array([[1, 0, UNKNOWN, 1], [0, 0, 1, 0]], dtype=np.int8)
        edge = UnrootedTree([[1], [0]], {0: "A", 1: "B"})
        assert fitch_score(edge, CharacterMatrix(("A", "B"), data),
                           weights=[2.0, 3.0, 5.0, 7.0]) == 9.0

    def test_leaf_mismatch_rejected(self):
        cm = CharacterMatrix(("A", "B", "C"), np.zeros((3, 1), dtype=np.int8))
        t = all_unrooted_topologies(["A", "B", "X"])[0]
        with pytest.raises(TreeError):
            fitch_score(t, cm)

    @pytest.mark.parametrize("weights, match", [
        ([2.0], "one weight per column"),
        ([1.0, 1.0, 1.0], "one weight per column"),
        ([[1.0, 1.0]], "one weight per column"),
        ([np.nan, 1.0], "finite"),
        ([1.0, np.inf], "finite"),
        ([-1.0, 1.0], "non-negative"),
    ])
    def test_bad_weights_rejected(self, weights, match):
        cm = CharacterMatrix(("A", "B", "C", "D"),
                             np.array([[1, 0], [0, 1], [0, 0], [1, 1]]))
        t = all_unrooted_topologies(["A", "B", "C", "D"])[0]
        with pytest.raises(ValueError, match=match):
            fitch_score(t, cm, weights=weights)

    def test_polytomy_is_hartigan(self):
        # a star: n0 = 2 leaves hold only 0, n1 = 3 only 1, one unknown
        cm = CharacterMatrix(tuple("ABCDEF"), [[0], [0], [1], [1], [1], [UNKNOWN]])
        star = UnrootedTree([[1, 2, 3, 4, 5, 6]] + [[0]] * 6,
                            {v: lab for v, lab in enumerate("ABCDEF", 1)})
        assert fitch_score(star, cm) == 2.0
        assert fitch_score(star, cm, weights=[0.5]) == 1.0

    @pytest.mark.parametrize("ncols", [1, 63, 64, 65, 455])
    def test_equals_counting_oracle(self, rng, ncols):
        for d in range(4, 17):
            tree, cm = random_scored_tree(rng, d, ncols)
            integer = rng.integers(0, 6, size=ncols).astype(float)
            for weights in (None, ratchet_weights(rng, ncols), integer):
                assert (fitch_score(tree, cm, weights)
                        == fitch_score_counts(tree, cm, weights))
            floats = rng.uniform(0.0, 3.0, size=ncols)
            assert fitch_score(tree, cm, floats) == pytest.approx(
                fitch_score_counts(tree, cm, floats), rel=1e-12, abs=0.0)


class TestNni:
    def test_quartet_neighbors(self):
        q = unroot(parse_newick("((A,B),(C,D));"))
        nbs = nni_neighbors(q)
        assert len(nbs) == 2
        keys = {t.canonical_key() for t in nbs} | {q.canonical_key()}
        assert len(keys) == 3  # all three quartet topologies

    def test_five_leaf_count(self):
        t = unroot(parse_newick("((A,B),(C,(D,E)));"))
        assert len(nni_neighbors(t)) == 4  # 2 internal edges x 2

    def test_involution(self):
        q = unroot(parse_newick("((A,B),(C,(D,E)));"))
        for nb in nni_neighbors(q):
            assert any(back == q for back in nni_neighbors(nb))

    def test_too_small(self):
        with pytest.raises(TreeError):
            nni_neighbors(unroot(parse_newick("(A,B,C);")))

    def test_neighbors_valid_and_equal_to_validated_ones(self, rng):
        for d in range(3, 12):
            tree, _ = random_scored_tree(rng, d, 1, binary=True)
            nbs = nni_neighbors(tree)
            want = nni_neighbors_validated(tree)
            assert [nb.adj for nb in nbs] == [nb.adj for nb in want]
            for nb in nbs:
                nb._validate()
                assert nb.labels == tree.labels

    def test_local_move_scores_equal_rescoring(self, rng):
        from nactree.builders import _nni_scores, _weight_masks

        for ncols in (1, 64, 130):
            for d in range(3, 13):
                tree, cm = random_scored_tree(rng, d, ncols, binary=True)
                for weights in (None, ratchet_weights(rng, ncols)):
                    masks = _weight_masks(cm, weights)
                    assert _nni_scores(tree, cm, masks) == [
                        fitch_score_counts(nb, cm, weights)
                        for nb in nni_neighbors(tree)]


class TestNeighborJoining:
    def test_additive_quartet(self):
        # path metric: A-u=1, B-u=2, u-v=3, v-C=4, v-D=5
        d = np.array([[0, 3, 8, 9],
                      [3, 0, 9, 10],
                      [8, 9, 0, 9],
                      [9, 10, 9, 0]], float)
        tree = nj_tree(d, ("A", "B", "C", "D"))
        assert tree == unroot(parse_newick("((A,B),(C,D));"))

    def test_two_block_ultrametric(self):
        d = np.full((4, 4), 1.0)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 0.2
        d[2, 3] = d[3, 2] = 0.2
        tree = nj_tree(d, ("A", "B", "C", "D"))
        assert tree == unroot(parse_newick("((A,B),(C,D));"))

    def test_label_equivariance(self):
        d = np.array([[0, 3, 8, 9],
                      [3, 0, 9, 10],
                      [8, 9, 0, 9],
                      [9, 10, 9, 0]], float)
        perm = (2, 0, 3, 1)
        labels = ("A", "B", "C", "D")
        a = nj_tree(d, labels)
        b = nj_tree(d[np.ix_(perm, perm)], tuple(labels[i] for i in perm))
        assert a == b

    def test_too_small(self):
        with pytest.raises(TreeError):
            nj_tree(np.zeros((2, 2)), ("A", "B"))

    def test_matches_pair_dictionary_oracle(self):
        for vals, labels in random_distance_matrices(5, 600, 3, 13):
            got, want = nj_tree(vals, labels), nj_tree_pairs(vals, labels)
            assert got.adj == want.adj
            assert got.labels == want.labels


class TestSupertrees:
    def test_noise_free_recovery_both_methods(self, rng):
        for d in range(4, 9):
            labels = [f"U{i}" for i in range(1, d + 1)]
            target = random_binary_tree(labels, rng)
            shapes = decompose(target)[1]
            seed = int(rng.integers(1 << 30))
            assert supertree_from_shapes(shapes, labels, ratchet=False,
                                         seed=seed) == target
            assert supertree_from_shapes(shapes, labels, ratchet=True,
                                         seed=seed) == target

    def test_equal_to_validated_rescoring_search(self):
        # 105 corrupted shape sets, d = 4..9; RNix on a fresh seed each
        rng = np.random.default_rng(14)
        for k in range(105):
            shapes, labels = corrupted_shapes(rng, 4 + k % 6)
            for ratchet in (False, True):
                got = supertree_from_shapes(shapes, labels, ratchet=ratchet,
                                            seed=k)
                want = supertree_from_shapes_rescore(shapes, labels,
                                                     ratchet=ratchet, seed=k)
                assert write_newick(got) == write_newick(want), (k, ratchet)

    def test_characters_equal_those_of_the_triple_trees(self, monkeypatch):
        # the search's matrix, written straight from the shapes, equals the
        # matrix of one rooted tree per triple
        seen = []

        def climb(tree, matrix, weights, max_rounds):
            seen.append(matrix)
            return tree, 0.0

        monkeypatch.setattr(builders, "_hill_climb", climb)
        rng = np.random.default_rng(15)
        for k in range(30):
            shapes, labels = corrupted_shapes(rng, 4 + k % 6)
            supertree_from_shapes(shapes, labels, ratchet=False)
            want = build_character_matrix(_triples_to_trees(shapes, labels),
                                          labels)
            assert seen[-1].rows == want.rows
            assert np.array_equal(seen[-1].data, want.data), k

    def test_fans_and_missing_codes_rejected(self):
        labels = ["U1", "U2", "U3", "U4"]
        for codes in ([1, 1, 3, 0], [1, 1, 3], [1, 1, 3, 3, 1]):
            with pytest.raises(TreeError):
                supertree_from_shapes(np.array(codes), labels, ratchet=False)
        assert supertree_from_shapes([3], ["b", "a", "c"], ratchet=False) == \
            parse_newick("(a,(b,c));")

    def test_three_columns_single_triple(self, rng):
        nac = NacSpec.single_family("((U2,U3),U1);", "clayton", {
            ("U1", "U2", "U3"): 0.2, ("U2", "U3"): 0.8})
        u = pseudo_observations(Dataset(sample(nac, 500, 3), nac.tree.leaf_labels))
        assert build_binary(u, "NJNNI") == nac.tree
        assert build_binary(u, "RNix") == nac.tree

    def test_monte_carlo_recovery_fourvariate(self):
        nac = NacSpec.single_family("((U1,U2),(U3,U4));", "clayton", {
            ("U1", "U2", "U3", "U4"): 0.2, ("U1", "U2"): 0.8, ("U3", "U4"): 0.8})
        target = nac.tree
        ok_nj = ok_rx = 0
        for seed in range(100):
            x = sample(nac, 500, 1000 + seed)
            u = pseudo_observations(Dataset(x, target.leaf_labels))
            ok_nj += build_binary(u, "NJNNI", seed=seed) == target
            ok_rx += build_binary(u, "RNix", seed=seed) == target
        assert ok_nj >= 95
        assert ok_rx >= 95

    def test_rnix_reproducible(self, rng):
        nac = NacSpec.single_family("((U1,U2),(U3,U4));", "clayton", {
            ("U1", "U2", "U3", "U4"): 0.3, ("U1", "U2"): 0.7, ("U3", "U4"): 0.7})
        data = Dataset(sample(nac, 200, 8), nac.tree.leaf_labels)
        # a Dataset gets fresh pseudo-observations, so nothing is reused
        a = build_binary(data, "RNix", seed=12)
        b = build_binary(data, "RNix", seed=12)
        assert write_newick(a) == write_newick(b)

    def test_hill_climb_never_increases_score(self, rng):
        from nactree.builders import _hill_climb, _random_binary_unrooted

        labels = [f"U{i}" for i in range(7)]
        data = rng.integers(0, 2, size=(7, 12)).astype(np.int8)
        cm = CharacterMatrix(tuple(labels), data)
        for seed in range(5):
            start = _random_binary_unrooted(labels, np.random.default_rng(seed))
            start_score = fitch_score(start, cm)
            _, final = _hill_climb(start, cm, None, 50)
            assert final <= start_score

    def test_ratchet_never_worse_than_plain_climb(self, rng):
        # build a conflicted matrix from noisy shapes and compare final scores
        labels = [f"U{i}" for i in range(1, 8)]
        target = random_binary_tree(labels, rng)
        shapes = decompose(target)[1].copy()
        # corrupt a third of the triples: the cherry ac of each
        shapes[::3] = 2
        from nactree.builders import _hill_climb, _random_binary_unrooted

        cm = build_character_matrix(_triples_to_trees(shapes, labels), labels,
                                    "O")
        start = _random_binary_unrooted(cm.rows, np.random.default_rng(5))
        _, plain = _hill_climb(start, cm, None, 100)
        ratchet_tree = supertree_from_shapes(shapes, labels, ratchet=True,
                                             seed=5)
        ratchet_score = fitch_score(attach_outgroup(ratchet_tree, "O"), cm)
        assert ratchet_score <= plain


class TestBuildBinary:
    def test_dispatch_and_agreement_on_blocks(self, rng):
        base = rng.uniform(size=(200, 2))
        noise = 0.005 * rng.uniform(size=(200, 4))
        values = np.column_stack([base[:, 0] + noise[:, 0],
                                  base[:, 0] + noise[:, 1],
                                  base[:, 1] + noise[:, 2],
                                  base[:, 1] + noise[:, 3]])
        data = Dataset(values, ("a1", "a2", "b1", "b2"))
        u = pseudo_observations(data)
        trees = {m: build_binary(u, m, seed=3)
                 for m in ("kt", "hD", "kind", "NJNNI", "RNix")}
        first = trees["kt"]
        assert all(t == first for t in trees.values())
        assert first.is_binary()

    def test_comonotone_pair_forms_deepest_cherry(self, rng):
        col = rng.uniform(size=300)
        values = np.column_stack([col, col + 1e-9 * rng.uniform(size=300),
                                  rng.uniform(size=300)])
        tree = build_binary(Dataset(values, ("a", "b", "c")), "kt")
        assert tree == parse_newick("((a,b),c);")

    def test_unknown_method(self, rng):
        data = Dataset(rng.uniform(size=(30, 3)), ("a", "b", "c"))
        with pytest.raises(ValueError):
            build_binary(data, "spearman")

    def test_case_insensitive_names(self, rng):
        data = Dataset(rng.uniform(size=(30, 3)), ("a", "b", "c"))
        assert build_binary(data, "KT") == build_binary(data, "kt")

    def test_label_equivariance(self, rng):
        values = rng.uniform(size=(150, 4))
        values[:, 1] += values[:, 0]
        values[:, 3] += values[:, 2]
        labels = ("w", "x", "y", "z")
        data = Dataset(values, labels)
        perm = (3, 1, 0, 2)
        data_p = Dataset(values[:, perm], tuple(labels[i] for i in perm))
        assert build_binary(data, "kt") == build_binary(data_p, "kt")


class TestHammingDistances:
    def test_skips_unknown(self):
        data = np.array([[0, 1], [1, UNKNOWN], [UNKNOWN, 1]], dtype=np.int8)
        cm = CharacterMatrix(("a", "b", "c"), data)
        d = hamming_distances(cm)
        assert d[0, 1] == 1.0   # one shared column, mismatched
        assert d[1, 2] == 0.0   # no shared columns
        assert d[0, 2] == 0.0   # shared column matches

    def test_matches_row_pair_loop(self, rng):
        for _ in range(200):
            rows = int(rng.integers(1, 12))
            data = rng.integers(-1, 2, size=(rows, int(rng.integers(0, 30))))
            cm = CharacterMatrix(tuple(f"r{i}" for i in range(rows)), data)
            got, want = hamming_distances(cm), hamming_distances_loop(cm)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
