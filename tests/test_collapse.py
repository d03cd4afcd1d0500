import itertools

import numpy as np
import pytest

import nactree.collapse as collapse
from nactree.collapse import (
    _lattice_fan_statistics,
    annotate_mean_taus,
    collapse_kagg,
    collapse_kb,
    node_tau_summary,
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
from nactree.study import benchmark_configs, estimate
from nactree.trees import TreeError, parse_newick

from oracles import fan_statistic, su_triple_test_loop


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
    def test_deep_cherry_equals_pair_tau(self, resolved):
        tree, u = resolved
        node = node_with_leaves(tree, ("U3", "U4"))
        expect = kendall_tau(u.column("U3"), u.column("U4"))
        assert node_tau_summary(tree, node, u).mean_tau == pytest.approx(expect)

    def test_mid_node_averages_cross_pairs(self, resolved):
        tree, u = resolved
        node = node_with_leaves(tree, ("U2", "U3", "U4"))
        expect = 0.5 * (kendall_tau(u.column("U2"), u.column("U3"))
                        + kendall_tau(u.column("U2"), u.column("U4")))
        assert node_tau_summary(tree, node, u).mean_tau == pytest.approx(expect)

    def test_fan_root_averages_all_pairs(self, rng):
        data = Dataset(rng.uniform(size=(100, 4)), tuple("abcd"))
        u = pseudo_observations(data)
        tree = parse_newick("(a,b,c,d);")
        taus = [kendall_tau(u.column(x), u.column(y))
                for x, y in (("a", "b"), ("a", "c"), ("a", "d"),
                             ("b", "c"), ("b", "d"), ("c", "d"))]
        assert node_tau_summary(tree, tree.root, u).mean_tau == pytest.approx(
            np.mean(taus))

    def test_leaf_rejected(self, resolved):
        tree, u = resolved
        with pytest.raises(TreeError):
            node_tau_summary(tree, tree.leaves[0], u)

    def test_annotations(self, resolved):
        tree, u = resolved
        out = annotate_mean_taus(tree, u, digits=2)
        assert set(out.annotations) == set(tree.internal_nodes)
        assert all(v == round(v, 2) for v in out.annotations.values())


class TestCollapseKagg:
    def test_zero_threshold_is_identity(self, resolved):
        tree, u = resolved
        assert collapse_kagg(tree, u, 0.0) == tree

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
