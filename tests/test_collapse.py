import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

import nactree.collapse as collapse
from nactree.builders import build_binary
from nactree.collapse import (
    _lattice_fan_statistics,
    annotate_mean_taus,
    collapse_kagg,
    collapse_kb,
    parse_estimator,
    su_triple_test,
)
from nactree.dependence import (
    DataError,
    Dataset,
    PseudoObservations,
    dominance_counts,
    kendall_tau,
    lattice_cdf,
    pseudo_observations,
)
from nactree.nac import NacSpec, sample
from nactree.study import DEFAULT_ALPHA_GRID, benchmark_configs, estimate
from nactree.trees import RootedTree, TreeError, parse_newick

from conftest import RANK_NS, chunk_rows
from oracles import (
    collapse_kagg_recompute,
    collapse_kb_rebuild,
    column_pair_dominance_argsort,
    fan_statistic,
    lattice_fan_statistics_subtract,
    resample_batch_argsort,
    su_triple_test_batched,
    su_triple_test_loop,
)


@pytest.fixture(scope="module")
def resolved():
    """Well-resolved fourvariate sample plus its generating tree."""
    spec = NacSpec.single_family("(U1,(U2,(U3,U4)));", "clayton", {
        ("U1", "U2", "U3", "U4"): 0.2, ("U2", "U3", "U4"): 0.45,
        ("U3", "U4"): 0.7})
    data = Dataset(sample(spec, 1500, 11), spec.tree.leaf_labels)
    return spec.tree, pseudo_observations(data)


@pytest.fixture(scope="module")
def poorly_resolved():
    """The two deepest nodes share their tau, so the true structure is the
    collapsed one."""
    spec = NacSpec.single_family("(U1,(U2,(U3,U4)));", "clayton", {
        ("U1", "U2", "U3", "U4"): 0.2, ("U2", "U3", "U4"): 0.6,
        ("U3", "U4"): 0.6})
    data = Dataset(sample(spec, 1500, 13), spec.tree.leaf_labels)
    return parse_newick("(U1,(U2,(U3,U4)));"), pseudo_observations(data)


def node_with_leaves(tree, labels):
    want = frozenset(labels)
    return next(v for v in tree.internal_nodes if tree.leaf_set(v) == want)


class TestNodeTauSummary:
    # a node's summary is its mean tau, as `annotate_mean_taus` attaches it
    def test_deep_cherry_equals_pair_tau(self, resolved):
        tree, u = resolved
        node = node_with_leaves(tree, ("U3", "U4"))
        expect = kendall_tau(u.column("U3"), u.column("U4"))
        assert annotate_mean_taus(tree, u).annotations[node] == \
            pytest.approx(expect)

    def test_mid_node_averages_cross_pairs(self, resolved):
        tree, u = resolved
        node = node_with_leaves(tree, ("U2", "U3", "U4"))
        expect = 0.5 * (kendall_tau(u.column("U2"), u.column("U3"))
                        + kendall_tau(u.column("U2"), u.column("U4")))
        assert annotate_mean_taus(tree, u).annotations[node] == \
            pytest.approx(expect)

    def test_fan_root_averages_all_pairs(self, rng):
        data = Dataset(rng.uniform(size=(100, 4)), tuple("abcd"))
        u = pseudo_observations(data)
        tree = parse_newick("(a,b,c,d);")
        taus = [kendall_tau(u.column(x), u.column(y))
                for x, y in (("a", "b"), ("a", "c"), ("a", "d"),
                             ("b", "c"), ("b", "d"), ("c", "d"))]
        assert annotate_mean_taus(tree, u).annotations == {
            tree.root: pytest.approx(np.mean(taus))}

    def test_leaves_get_no_summary(self, resolved):
        tree, u = resolved
        assert not set(annotate_mean_taus(tree, u).annotations) & set(
            tree.leaves)

    def test_annotations(self, resolved):
        tree, u = resolved
        out = annotate_mean_taus(tree, u, digits=2)
        assert set(out.annotations) == set(tree.internal_nodes)
        assert all(v == round(v, 2) for v in out.annotations.values())


TREE_CALLS = {
    "collapse_kagg": lambda tree, u: collapse_kagg(tree, u, 0.1),
    "collapse_kb": lambda tree, u: collapse_kb(tree, u, 0.05, 20),
    "annotate_mean_taus": lambda tree, u: annotate_mean_taus(tree, u),
}


class TestTreeLabels:
    @pytest.mark.parametrize("name", sorted(TREE_CALLS))
    def test_unknown_leaf_rejected_by_name(self, resolved, name):
        _, u = resolved
        # the fan has no internal edge to test, so only a label check sees U9
        for newick in ("(U1,(U2,U9));", "(U1,U2,U9);"):
            with pytest.raises(DataError,
                               match=r"unknown column label\(s\): U9$"):
                TREE_CALLS[name](parse_newick(newick), u)

    @pytest.mark.parametrize("name", sorted(TREE_CALLS))
    def test_tree_over_a_subset_of_the_columns(self, resolved, name):
        _, u = resolved
        TREE_CALLS[name](parse_newick("(U1,(U3,U4));"), u)


class TestCollapseKagg:
    def test_zero_threshold_is_identity(self, resolved):
        tree, u = resolved
        assert collapse_kagg(tree, u, 0.0) == tree

    def test_nan_threshold_is_identity(self, resolved):
        tree, u = resolved
        assert collapse_kagg(tree, u, float("nan")) == tree

    def test_two_collapses_everything(self, resolved):
        tree, u = resolved
        assert collapse_kagg(tree, u, 2.0) == parse_newick("(U1,U2,U3,U4);")

    def test_collapses_similar_nodes(self, poorly_resolved):
        binary, u = poorly_resolved
        assert collapse_kagg(binary, u, 0.075) == parse_newick("(U1,(U2,U3,U4));")

    def test_keeps_resolved_nodes(self, resolved):
        tree, u = resolved
        assert collapse_kagg(tree, u, 0.075) == tree

    def test_idempotent(self, poorly_resolved):
        binary, u = poorly_resolved
        once = collapse_kagg(binary, u, 0.075)
        assert collapse_kagg(once, u, 0.075) == once

    def test_internal_count_nonincreasing_in_threshold(self, poorly_resolved):
        binary, u = poorly_resolved
        counts = [len(collapse_kagg(binary, u, t).internal_nodes)
                  for t in (0.0, 0.05, 0.1, 0.2, 0.5, 2.0)]
        assert counts == sorted(counts, reverse=True)
        assert all(collapse_kagg(binary, u, t).label_set == binary.label_set
                   for t in (0.0, 0.1, 2.0))


    @pytest.mark.parametrize("model, method", [("fig12", "kt"),
                                               ("fig11", "NJNNI")])
    def test_equals_from_scratch_recompute(self, model, method):
        # kept node means give the recomputed tree, node order included,
        # also on a sample rounded to one decimal, whose taus tie
        nac = benchmark_configs()[model].nac
        x = sample(nac, 200, 4)
        for values in (x, np.round(x, 1)):
            obs = pseudo_observations(Dataset(values, nac.tree.leaf_labels))
            binary = build_binary(obs, method)
            for tau_c in (0.0, 0.02, 0.075, 0.2, 2.0):
                got = collapse_kagg(binary, obs, tau_c)
                want = collapse_kagg_recompute(binary, obs, tau_c)
                assert got.to_nested() == want.to_nested()

    def test_tied_gaps_break_toward_smaller_labels(self, rng):
        # mean taus 0.75 at (a,b), 0.5 at ((a,b),c) and 0.25 at the root:
        # both gaps are exactly 0.25.  (a,b) has the smaller sorted labels
        # and goes first, after which the other gap is 1/3; the other
        # order would give ((a,b),c,d)
        tree = parse_newick("(((a,b),c),d);")
        obs = pseudo_observations(Dataset(rng.uniform(size=(10, 4)),
                                          tuple("abcd")))
        tau = np.full((4, 4), 0.25)
        tau[0, 1] = tau[1, 0] = 0.75
        tau[:2, 2] = tau[2, :2] = 0.5
        vars(obs)["tau"] = tau  # where the cached tau matrix is kept
        got = collapse_kagg(tree, obs, 0.3)
        assert got == parse_newick("((a,b,c),d);")
        assert got.to_nested() == collapse_kagg_recompute(
            tree, obs, 0.3).to_nested()


class TestSuTripleTest:
    def test_p_value_range_and_determinism(self, resolved):
        _, u = resolved
        p1 = su_triple_test(u, "U1", "U2", "U3", b=50, seed=5)
        p2 = su_triple_test(u, "U3", "U2", "U1", b=50, seed=5)
        assert 0.0 < p1 <= 1.0
        assert p1 == p2
        assert (su_triple_test(u, "U1", "U2", "U3", b=50, seed=7)
                == su_triple_test(u, "U1", "U2", "U3", b=50,
                                  seed=np.random.SeedSequence(7)))

    def test_rejects_clear_cherry(self, resolved):
        _, u = resolved
        assert su_triple_test(u, "U2", "U3", "U4", b=100, seed=1) <= 0.05

    def test_accepts_fan_triple(self):
        fan = NacSpec.single_family("(U1,U2,U3);", "clayton",
                                    {("U1", "U2", "U3"): 0.4})
        u = pseudo_observations(Dataset(sample(fan, 500, 77),
                                        fan.tree.leaf_labels))
        assert su_triple_test(u, "U1", "U2", "U3", b=100, seed=2) > 0.05

    def test_duplicate_labels_rejected(self, resolved):
        _, u = resolved
        with pytest.raises(TreeError):
            su_triple_test(u, "U1", "U1", "U2")

    def test_unknown_label_rejected_by_name(self, resolved):
        _, u = resolved
        with pytest.raises(DataError, match="U9"):
            su_triple_test(u, "U1", "U2", "U9")


def fig7_right_obs(n):
    nac = benchmark_configs()["fig7_right"].nac
    return pseudo_observations(Dataset(sample(nac, n, 100 + n),
                                       nac.tree.leaf_labels))


def fan_null_obs(n):
    fan = NacSpec.single_family("(U1,U2,U3,U4);", "clayton",
                                {("U1", "U2", "U3", "U4"): 0.4})
    return pseudo_observations(Dataset(sample(fan, n, 31), fan.tree.leaf_labels))


class TestBatchedFanTestExactness:
    """The batched integer fan test against the per-resample float loop."""

    @pytest.mark.parametrize("make, n, b", [
        (fig7_right_obs, 30, 20), (fig7_right_obs, 100, 20),
        (fig7_right_obs, 500, 20), (fan_null_obs, 60, 50)],
        ids=["fig7_right-30", "fig7_right-100", "fig7_right-500", "fan-null-60"])
    def test_equals_float_loop(self, make, n, b):
        obs = make(n)
        for seed, triple in enumerate(itertools.combinations(obs.columns, 3)):
            got = su_triple_test(obs, *triple, b=b, seed=seed)
            fresh = PseudoObservations(obs.u, obs.columns)
            assert got == su_triple_test_loop(fresh, *triple, b=b, seed=seed)

    def test_values_off_the_rank_grid(self, rng):
        # u need not be rank / (n + 1): distinct values closer than one
        # grid step, and ties across columns, are ranked as they are
        u = rng.uniform(0.01, 0.99, size=(40, 3))
        u[1:6, 0] = u[0, 0] + 1e-9 * np.arange(1, 6)
        u[6:9, 1] = u[6:9, 2]
        obs = PseudoObservations(u, ("a", "b", "c"))
        for seed in range(4):
            fresh = PseudoObservations(u, ("a", "b", "c"))
            assert su_triple_test(obs, "a", "b", "c", b=30, seed=seed) == \
                su_triple_test_loop(fresh, "a", "b", "c", b=30, seed=seed)

    def test_tied_statistics_count_as_exceeding(self, rng):
        # three copies of one column: every resample's EKDs coincide too,
        # so T* = T = 0 each time and the p-value is 1
        x = rng.normal(size=40)
        obs = pseudo_observations(Dataset(np.column_stack([x, x, x]),
                                          ("a", "b", "c")))
        assert su_triple_test(obs, "a", "b", "c", b=30, seed=1) == 1.0

    @pytest.mark.parametrize("n", [30, 100, 500])
    def test_lattice_statistic_is_the_float_one_scaled(self, n):
        obs = fig7_right_obs(n)
        for i, j, k in itertools.combinations(obs.columns, 3):
            (t,) = _lattice_fan_statistics([
                lattice_cdf(dominance_counts(obs.column(a), obs.column(c))[None])
                for a, c in ((i, j), (i, k), (j, k))])
            assert isinstance(t, np.integer)
            expect = fan_statistic([obs.ekd(i, j), obs.ekd(i, k), obs.ekd(j, k)])
            assert t / (4 * n * n * (n - 1)) == pytest.approx(expect, abs=1e-12)


class TestRankDomainFanTest:
    """The fan test's six-product statistic and its p-values on tied
    samples whose joint ranks stay below n, 2n or 3n, against the
    subtract-and-square statistic and the argsort packer."""

    @staticmethod
    def tied_obs(seed, n, bound):
        # values drawn with repeats from bound * n grid points
        u = (np.random.default_rng(seed).integers(0, bound * n, (n, 3)) + 1
             ) / (bound * n + 1)
        return PseudoObservations(u, ("a", "b", "c"))

    @given(st.sampled_from(RANK_NS), st.sampled_from((1, 2, 3)),
           st.sampled_from((-1, 0, 1)), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_statistics_equal_subtract_and_square(self, n, bound, extra,
                                                  seed):
        m = max(1, chunk_rows(n) + extra)
        batch = np.random.default_rng(seed).integers(
            0, bound * n, (3, m, n)).astype(np.uint16)
        cdfs = [lattice_cdf(c) for c in column_pair_dominance_argsort(batch)]
        assert np.array_equal(_lattice_fan_statistics(cdfs),
                              lattice_fan_statistics_subtract(cdfs))

    @given(st.sampled_from(RANK_NS), st.sampled_from((1, 2, 3)),
           st.sampled_from((-1, 0, 1)), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_p_values_equal_the_batched_oracle(self, n, bound, extra, seed):
        # b + 1 batch rows on both sides of a chunk's end
        b = max(1, chunk_rows(n) + extra - 1)
        got = su_triple_test(self.tied_obs(seed, n, bound), "a", "b", "c",
                             b=b, seed=seed)
        assert got == su_triple_test_batched(self.tied_obs(seed, n, bound),
                                             "a", "b", "c", b=b, seed=seed)

    @given(st.sampled_from(RANK_NS[1:]), st.sampled_from((1, 2, 3)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_p_values_equal_the_loop_oracle(self, n, bound, seed):
        got = su_triple_test(self.tied_obs(seed, n, bound), "a", "b", "c",
                             b=12, seed=seed)
        assert got == su_triple_test_loop(self.tied_obs(seed, n, bound),
                                          "a", "b", "c", b=12, seed=seed)


class TestResampleBatch:
    """The fan test's one draw, turned into resamples by index arithmetic,
    against resamples built value by value from the same draw."""

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 500])
    @pytest.mark.parametrize("b", [1, 31, 32, 33, 200])
    def test_equals_per_resample_argsort(self, rng, b, n):
        ranks = rng.integers(0, 2 * n, (n, 3))  # ties within and across
        seed = np.random.SeedSequence([b, n])
        got = collapse._resample_batch(ranks, b, seed)
        want = resample_batch_argsort(ranks, b, seed)
        # ranks below 2^16 are held as uint16, for the rank-domain kernel
        assert got.dtype == np.uint16 and np.array_equal(got, want)

    def test_wide_ranks_stay_int32(self, rng):
        ranks = rng.integers(0, 1 << 17, (40, 3))
        seed = np.random.SeedSequence(3)
        got = collapse._resample_batch(ranks, 5, seed)
        want = resample_batch_argsort(ranks, 5, seed)
        assert got.dtype == np.int32 and np.array_equal(got, want)

    def test_rows_and_orders_are_uniform_and_independent(self):
        # distinct ranks: each resampled row names its source row and the
        # order of that row's columns
        ranks = np.random.default_rng(5).permutation(9).reshape(3, 3)
        row_of, col_of = np.empty(9, int), np.empty(9, int)
        row_of[ranks], col_of[ranks] = np.arange(3)[:, None], np.arange(3)
        batch = collapse._resample_batch(ranks, 60_000,
                                         np.random.SeedSequence(8))
        rows, cols = row_of[batch[:, 1:]], col_of[batch[:, 1:]]
        assert (rows == rows[0]).all()
        assert (np.sort(cols, axis=0) == np.arange(3)[:, None, None]).all()
        codes = {p: o for o, p in enumerate(itertools.permutations(range(3)))}
        order = np.vectorize(lambda a, b, c: codes[a, b, c])(*cols)
        table = np.zeros((3, 6), int)
        np.add.at(table, (rows[0].ravel(), order.ravel()), 1)
        assert table.sum() == 3 * 60_000
        assert chisquare(table.ravel()).pvalue > 1e-6
        assert chi2_contingency(table).pvalue > 1e-6


class TestMeanExceeds:
    """kb's early decision against the mean of every p-value, on lists of
    add-one p-values (1 + c)/(b + 1)."""

    @staticmethod
    def decide(pvals, alpha):
        asked = []

        def drawn():
            for p in pvals:
                asked.append(p)
                yield p

        return collapse._mean_exceeds(drawn(), len(pvals), alpha), len(asked)

    @staticmethod
    def lists(rng, b, alpha, count):
        """Random lists, most with a mean near alpha, and where the grid
        allows, lists whose exact mean is alpha."""
        for _ in range(count):
            m = int(rng.integers(1, 120))
            centre = alpha if rng.random() < 0.7 else rng.random()
            spread = rng.choice([0.5, 3, 30])
            c = np.clip(rng.normal(centre * (b + 1) - 1, spread, m).round(),
                        0, b).astype(int)
            yield list((1 + c) / (b + 1))
        units = alpha * (b + 1)  # the exact mean in 1/(b + 1) steps
        if units >= 1 and units == int(units):
            for _ in range(count):
                m = int(rng.integers(1, 120))
                u = np.full(m, int(units))
                for _ in range(3 * m):  # move units, keeping their sum
                    i, j = rng.integers(0, m, 2)
                    step = int(rng.integers(0, b + 1))
                    step = min(step, u[i] - 1, b + 1 - u[j])
                    u[i] -= step
                    u[j] += step
                assert u.sum() == units * m
                yield list(u / (b + 1))

    @pytest.mark.parametrize("alpha", DEFAULT_ALPHA_GRID)
    @pytest.mark.parametrize("b", [19, 199])
    def test_equals_the_mean_of_all_p_values(self, rng, b, alpha):
        settled_early = 0
        for pvals in self.lists(rng, b, alpha, 300):
            m = len(pvals)
            got, asked = self.decide(pvals, alpha)
            assert got == (sum(pvals) / len(pvals) > alpha), pvals
            # whatever the p-values not asked, the mean is decided alike
            for fill in (1 / (b + 1), 1.0):
                rest = pvals[:asked] + [fill] * (m - asked)
                assert (sum(rest) / m > alpha) == got, (pvals, asked)
            # and one p-value fewer had left it open: in exact arithmetic,
            # neither bound cleared alpha * m by more than the float room
            target = Fraction(alpha) * m
            room = target * Fraction(2, 10**9)
            before = sum(map(Fraction, pvals[:asked - 1]))
            assert before <= target + room, pvals
            assert before + m - (asked - 1) >= target - room, pvals
            settled_early += asked < m
        assert settled_early > 0


class TestCollapseKb:
    def test_alpha_one_keeps_tree(self, resolved):
        tree, u = resolved
        assert collapse_kb(tree, u, alpha=1.0, b=30, seed=3) == tree

    def test_alpha_zero_full_fan(self, resolved):
        tree, u = resolved
        assert collapse_kb(tree, u, alpha=0.0, b=30, seed=3) == parse_newick(
            "(U1,U2,U3,U4);")

    def test_collapses_fanlike_node_only(self, poorly_resolved):
        binary, u = poorly_resolved
        out = collapse_kb(binary, u, alpha=0.05, b=200, seed=4)
        assert out == parse_newick("(U1,(U2,U3,U4));")

    def test_keeps_resolved_tree(self, resolved):
        tree, u = resolved
        assert collapse_kb(tree, u, alpha=0.05, b=200, seed=4) == tree

    def test_leafset_preserved_and_internals_nonincreasing(self, resolved):
        tree, u = resolved
        out = collapse_kb(tree, u, alpha=0.5, b=50, seed=9)
        assert out.label_set == tree.label_set
        assert len(out.internal_nodes) <= len(tree.internal_nodes)

    @pytest.mark.parametrize("model", ["fig10_right", "fig7_right"])
    def test_equals_rebuilding_walk(self, model, monkeypatch):
        # marking collapses on the input tree gives the tree that one
        # rebuild per accepted collapse gives, node order included; it
        # meets the same candidates in the same order, and of each it asks
        # for a prefix of the p-values that the rebuild asks for
        asked, segments = [], []
        p_value = collapse.fan_test_p_value
        mean_exceeds = collapse._mean_exceeds

        def recorded(obs, triple, b, seed):
            asked.append(tuple(sorted(triple)))
            return p_value(obs, triple, b, seed)

        def segmented(p_values, m, alpha):
            start = len(asked)
            out = mean_exceeds(p_values, m, alpha)
            segments.append((m, asked[start:]))
            return out

        monkeypatch.setattr(collapse, "fan_test_p_value", recorded)
        monkeypatch.setattr(collapse, "_mean_exceeds", segmented)
        nac = benchmark_configs()[model].nac
        obs = pseudo_observations(Dataset(sample(nac, 100, 5),
                                          nac.tree.leaf_labels))
        binary = build_binary(obs, "kt")
        for alpha in (0.0, 0.05, 0.5, 1.0):
            got = collapse_kb(binary, obs, alpha=alpha, b=20, seed=3)
            walk = asked[:]
            asked.clear()
            want = collapse_kb_rebuild(binary, obs, alpha=alpha, b=20, seed=3)
            assert got.to_nested() == want.to_nested(), alpha
            rest = iter(asked)
            assert all(t in rest for t in walk), alpha  # a subsequence
            at = 0
            for m, seg in segments:
                assert seg == asked[at:at + len(seg)], alpha
                at += m
            assert at == len(asked), alpha
            asked.clear()
            segments.clear()

    def test_cache_shared_across_alphas(self, poorly_resolved, monkeypatch):
        binary, u = poorly_resolved
        tested = []

        def counted(obs, *triple, **kwargs):
            tested.append(triple)
            return su_triple_test(obs, *triple, **kwargs)

        monkeypatch.setattr(collapse, "su_triple_test", counted)

        def fresh():
            return PseudoObservations(u.u, u.columns)

        obs = fresh()
        a = collapse_kb(binary, obs, alpha=0.05, b=100, seed=6)
        hits = len(tested)
        b_ = collapse_kb(binary, obs, alpha=0.5, b=100, seed=6)
        assert hits > 0 and len(tested) >= hits
        assert len(set(tested)) == len(tested)  # the second sweep reuses
        assert a == collapse_kb(binary, fresh(), alpha=0.05, b=100, seed=6)
        assert b_ == collapse_kb(binary, fresh(), alpha=0.5, b=100, seed=6)


class TestOneBuildPerCall:
    @pytest.mark.parametrize("rule, threshold", [
        (collapse_kagg, 0.0), (collapse_kagg, 0.2), (collapse_kagg, 2.0),
        (collapse_kb, 1.0), (collapse_kb, 0.3), (collapse_kb, 0.0)])
    def test_at_most_one_tree_built(self, poorly_resolved, monkeypatch,
                                    rule, threshold):
        binary, u = poorly_resolved
        built = []
        init = RootedTree.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RootedTree, "__init__", counted)
        if rule is collapse_kb:
            out = rule(binary, u, threshold, b=20, seed=1)
        else:
            out = rule(binary, u, threshold)
        assert len(built) <= 1
        assert len(built) == (out is not binary)


class TestEstimateStructure:
    def test_kagg_pipeline_recovers_resolved_target(self, resolved):
        tree, u = resolved
        est = estimate(u, "kt_kagg", 0.075)
        assert est == tree

    def test_zero_threshold_keeps_binary(self, rng):
        data = Dataset(rng.uniform(size=(120, 4)), tuple("abcd"))
        est = estimate(data, "kt_kagg", 0.0)
        assert est.is_binary()

    def test_kb_pipeline(self, poorly_resolved):
        _, u = poorly_resolved
        est = estimate(u, "kt_kb", 0.05, boot=100, seed=21)
        assert est == parse_newick("(U1,(U2,U3,U4));")

    def test_identical_generators_estimate_as_fan(self):
        # a nested spec whose generators all coincide is really a plain AC:
        # the pipeline should collapse the estimate to the fan
        spec = NacSpec.single_family("((U1,U2),(U3,U4));", "clayton", {
            ("U1", "U2", "U3", "U4"): 0.5, ("U1", "U2"): 0.5,
            ("U3", "U4"): 0.5})
        fans = 0
        for seed in range(10):
            data = Dataset(sample(spec, 800, 400 + seed), spec.tree.leaf_labels)
            est = estimate(data, "kt_kagg", 0.075)
            fans += est == parse_newick("(U1,U2,U3,U4);")
        assert fans >= 8

    def test_estimator_name_parsing(self):
        assert parse_estimator("kt_kagg") == ("kt", "kagg")
        assert parse_estimator("hD_kagg") == ("hD", "kagg")
        assert parse_estimator("NJNNI_kb") == ("NJNNI", "kb")
        assert parse_estimator("RNix_kb") == ("RNix", "kb")
        assert parse_estimator("SU") == ("SU", None)
        with pytest.raises(ValueError):
            parse_estimator("kt")
        with pytest.raises(ValueError):
            parse_estimator("foo_kagg")

    def test_config_validation(self, resolved):
        _, u = resolved
        with pytest.raises(ValueError):
            estimate(u, "kt_nope", 0.075)
        with pytest.raises(ValueError):
            estimate(u, "kt_kagg", -0.1)
        with pytest.raises(ValueError):
            estimate(u, "kt_kb", 1.5)
        with pytest.raises(ValueError):
            estimate(u, "kt_kb", 0.05, boot=0)
