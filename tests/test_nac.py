import itertools
import math

import numpy as np
import pytest
from scipy.stats import kstest

from nactree.dependence import kendall_tau, kendall_dist_distance, empirical_kendall_distribution
from nactree.nac import (
    FAIL,
    GeneratorSpec,
    NacError,
    NacSpec,
    OK,
    WARN,
    check_nesting,
    psi,
    psi_inv,
    sample,
    sibuya,
    stable_positive,
    tau_to_theta,
    theta_to_tau,
    tilted_stable,
)
from nactree.nac import _sibuya_survival, _sibuya_tempered
from nactree.study import benchmark_configs
from nactree.trees import parse_newick
from oracles import (
    sibuya_survival_gammaln,
    tau_to_theta_brentq,
    theta_to_tau_quad,
)

ALL_FAMILIES = ("clayton", "gumbel", "frank", "joe")


def spec_fig7_right():
    return NacSpec.single_family("((U1,U2),(U3,U4));", "clayton", {
        ("U1", "U2", "U3", "U4"): 0.2, ("U1", "U2"): 0.8, ("U3", "U4"): 0.8})


class TestGenerators:
    @pytest.mark.parametrize("family,theta", [
        ("clayton", 2.0), ("gumbel", 2.0), ("frank", 5.0), ("joe", 3.0),
        ("independence", 1.0)])
    def test_boundary_values(self, family, theta):
        assert psi(family, theta, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert psi(family, theta, 1e9) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("family,theta", [
        ("clayton", 0.5), ("clayton", 8.0), ("gumbel", 1.5), ("gumbel", 6.0),
        ("frank", 2.0), ("frank", 18.0), ("joe", 1.3), ("joe", 7.0)])
    def test_inverse_identity(self, family, theta):
        u = np.linspace(1e-6, 1.0, 200)
        back = psi(family, theta, psi_inv(family, theta, u))
        assert np.max(np.abs(back - u)) < 1e-12

    def test_clayton_closed_form(self):
        assert psi("clayton", 2.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("family,theta", [
        ("clayton", 1.7), ("gumbel", 2.3), ("frank", 4.0), ("joe", 2.5)])
    def test_decreasing_convex(self, family, theta):
        t = np.linspace(0.0, 20.0, 400)
        vals = psi(family, theta, t)
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-15)
        assert np.all(np.diff(diffs) >= -1e-9)  # convexity on the grid

    def test_theta_range_enforced(self):
        with pytest.raises(NacError):
            GeneratorSpec.from_theta("clayton", -1.0)
        with pytest.raises(NacError):
            GeneratorSpec.from_theta("gumbel", 0.5)

    def test_inconsistent_tau_rejected(self):
        with pytest.raises(NacError):
            GeneratorSpec("clayton", 2.0, 0.9)


class TestTauThetaMaps:
    def test_clayton_paper_values(self):
        assert tau_to_theta("clayton", 0.5) == pytest.approx(2.0, abs=1e-12)
        assert tau_to_theta("clayton", 0.8) == pytest.approx(8.0, abs=1e-12)

    def test_gumbel_half(self):
        assert tau_to_theta("gumbel", 0.5) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("family", ("gumbel", "frank", "joe"))
    def test_mutual_inverse_19_point_grid(self, family):
        for tau in np.arange(0.05, 0.951, 0.05):
            theta = tau_to_theta(family, float(tau))
            assert theta_to_tau(family, theta) == pytest.approx(tau, abs=1e-6)

    def test_gumbel_vs_monte_carlo(self):
        theta = tau_to_theta("gumbel", 0.5)
        nac = NacSpec.single_family("(U1,U2);", "gumbel", {("U1", "U2"): 0.5})
        x = sample(nac, 100_000, 123)
        assert kendall_tau(x[:, 0], x[:, 1]) == pytest.approx(0.5, abs=0.01)
        assert theta == pytest.approx(1.0 / (1.0 - 0.5), abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(NacError):
            tau_to_theta("clayton", 0.0)
        with pytest.raises(NacError):
            tau_to_theta("frank", 1.0)


class TestClosedFormTau:
    """The closed-form maps against quadrature, brentq and known limits."""

    def test_gumbel_inverse_exact(self):
        for tau in np.arange(0.05, 0.951, 0.05):
            assert tau_to_theta("gumbel", float(tau)) == 1.0 / (1.0 - float(tau))

    def test_frank_matches_quadrature(self):
        for theta in np.geomspace(1e-3, 15.0, 120):
            assert abs(theta_to_tau("frank", float(theta))
                       - theta_to_tau_quad("frank", float(theta))) <= 5e-12

    def test_joe_matches_quadrature(self):
        near_two = [2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0),
                    2.0 - 1e-9, 2.0 + 1e-9, 2.0 - 1e-6, 2.0 + 1e-6]
        for theta in [*np.linspace(1.0, 50.0, 99), *near_two]:
            assert abs(theta_to_tau("joe", float(theta))
                       - theta_to_tau_quad("joe", float(theta))) <= 5e-12

    def test_joe_limit_at_two(self):
        assert theta_to_tau("joe", 2.0) == pytest.approx(2.0 - math.pi ** 2 / 6,
                                                         abs=1e-15)

    @pytest.mark.parametrize("theta", [40.0, 45.0, 60.0, 100.0, 1e3, 1e6])
    def test_frank_large_theta_asymptote(self, theta):
        # the exponential terms of the Debye series are below e^-40 here
        expect = 1.0 - 4.0 / theta + 2.0 * math.pi ** 2 / (3.0 * theta ** 2)
        assert theta_to_tau("frank", theta) == pytest.approx(expect, abs=1e-12)

    def test_frank_strong_dependence_inverse(self):
        # quadrature lost 1.2e-2 in tau at theta = 45 and gave 54.45 here
        theta = tau_to_theta("frank", 0.95)
        assert theta == pytest.approx(78.3198, abs=1e-4)
        assert theta_to_tau("frank", theta) == pytest.approx(0.95, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.1, 2.0])
    def test_frank_pieces_join(self, theta):
        # Taylor series below 0.1, Gauss-Legendre to 2, Debye series above;
        # the closed form cancels to about 4 eps/theta in tau at 0.1
        below = theta_to_tau("frank", math.nextafter(theta, 0.0))
        above = theta_to_tau("frank", math.nextafter(theta, math.inf))
        assert below == pytest.approx(above, abs=1e-14)

    @pytest.mark.parametrize("family", ("frank", "joe"))
    def test_inverse_to_full_precision(self, family):
        for tau in [1e-6, *np.arange(0.05, 0.951, 0.05), 0.999]:
            theta = tau_to_theta(family, float(tau))
            assert theta_to_tau(family, theta) == pytest.approx(tau, abs=1e-15)

    def test_benchmark_thetas_within_brentq_tolerance(self):
        # brentq stopped at xtol=1e-8, the bound on how far theta may move
        for config in benchmark_configs().values():
            for gen in config.nac.generators.values():
                if gen.family in ("gumbel", "frank", "joe"):
                    assert abs(gen.theta - tau_to_theta_brentq(
                        gen.family, gen.tau)) <= 1e-8

    def test_sibuya_survival_matches_gammaln(self):
        # both subtract log-gammas near 2.7e3 at n = 512, so they agree to
        # the last places of those, not of the survival
        n = np.arange(1.0, 513.0)
        for alpha in (0.01, 0.15, 0.5, 0.9, 0.99):
            np.testing.assert_allclose(_sibuya_survival(n, alpha),
                                       sibuya_survival_gammaln(n, alpha),
                                       rtol=1e-11)


class TestNesting:
    def test_ok(self):
        assert check_nesting(spec_fig7_right()).status == OK

    def test_fail_reversed_thetas(self):
        spec = NacSpec.single_family("((U1,U2),U3);", "clayton", {
            ("U1", "U2", "U3"): 0.8, ("U1", "U2"): 0.5})
        assert check_nesting(spec).status == FAIL

    def test_warn_mixed_families(self):
        tree = parse_newick("((U1,U2),U3);")
        root_gen = GeneratorSpec.from_tau("gumbel", 0.5)
        child_gen = GeneratorSpec.from_tau("clayton", 0.7)
        inner = next(v for v in tree.internal_nodes if v != tree.root)
        spec = NacSpec(tree, {tree.root: root_gen, inner: child_gen})
        report = check_nesting(spec)
        assert report.status == WARN
        assert any("mixed" in issue for issue in report.issues)

    def test_missing_generator(self):
        tree = parse_newick("((U1,U2),U3);")
        with pytest.raises(NacError):
            NacSpec(tree, {tree.root: GeneratorSpec.from_tau("clayton", 0.3)})


class TestFrailtySamplers:
    def test_stable_laplace_transform(self, rng):
        for alpha in (0.2, 0.5, 0.8):
            s = stable_positive(alpha, 150_000, rng)
            for t in (0.5, 1.0, 2.0):
                assert np.mean(np.exp(-t * s)) == pytest.approx(
                    math.exp(-(t ** alpha)), abs=0.005)

    def test_sibuya_pgf_and_pmf(self, rng):
        for alpha in (0.15, 0.5, 0.9):
            v = sibuya(alpha, 200_000, rng)
            assert np.all(v >= 1)
            for x in (0.3, 0.8):
                assert np.mean(x ** v) == pytest.approx(1 - (1 - x) ** alpha,
                                                        abs=0.005)
            assert np.mean(v == 1) == pytest.approx(alpha, abs=0.005)
            assert np.mean(v == 2) == pytest.approx(alpha * (1 - alpha) / 2,
                                                    abs=0.005)

    def test_tempered_sibuya_pgf(self, rng):
        for alpha, p in ((0.4, 0.9), (0.3, 0.999)):
            v = _sibuya_tempered(alpha, p, 100_000, rng)
            norm = 1 - (1 - p) ** alpha
            for x in (0.3, 0.8):
                assert np.mean(x ** v) == pytest.approx(
                    (1 - (1 - p * x) ** alpha) / norm, abs=0.01)

    def test_tilted_stable_laplace_transform(self, rng):
        for alpha, tilt in ((0.5, 0.3), (0.25, 2.5), (0.8, 6.0)):
            v = tilted_stable(alpha, np.full(80_000, tilt), rng)
            for t in (0.5, 2.0):
                assert np.mean(np.exp(-t * v)) == pytest.approx(
                    math.exp(-tilt * ((1 + t) ** alpha - 1)), abs=0.01)


def pairwise_tau_errors(spec, n, seed):
    x = sample(spec, n, seed)
    labels = spec.tree.leaf_labels
    errs = {}
    for i, j in itertools.combinations(range(len(labels)), 2):
        target = spec.generators[spec.tree.lca(labels[i], labels[j])].tau
        errs[(labels[i], labels[j])] = kendall_tau(x[:, i], x[:, j]) - target
    return errs


class TestSampling:
    def test_fan_clayton_pairwise_tau(self):
        nac = NacSpec.single_family("(U1,U2,U3);", "clayton",
                                    {("U1", "U2", "U3"): 0.5})
        errs = pairwise_tau_errors(nac, 20_000, 42)
        assert max(abs(e) for e in errs.values()) <= 0.02

    def test_fig7_spec_pairwise_tau(self):
        errs = pairwise_tau_errors(spec_fig7_right(), 20_000, 7)
        assert len(errs) == 6
        assert max(abs(e) for e in errs.values()) <= 0.02

    def test_uniform_margins(self):
        nac = spec_fig7_right()
        x = sample(nac, 10_000, 3)
        for col in range(4):
            assert kstest(x[:, col], "uniform").statistic <= 0.015

    def test_values_strictly_inside_unit_interval(self):
        x = sample(spec_fig7_right(), 5000, 1)
        assert np.all((x > 0) & (x < 1))

    def test_reproducible(self):
        for seed, same_seed in [(5, 5), (7, np.random.SeedSequence(7))]:
            a = sample(spec_fig7_right(), 100, seed)
            b = sample(spec_fig7_right(), 100, same_seed)
            np.testing.assert_array_equal(a, b)

    def test_fail_spec_rejected(self):
        spec = NacSpec.single_family("((U1,U2),U3);", "clayton", {
            ("U1", "U2", "U3"): 0.8, ("U1", "U2"): 0.5})
        with pytest.raises(NacError):
            sample(spec, 10, 0)

    def test_mixed_families_rejected(self):
        tree = parse_newick("((U1,U2),U3);")
        inner = next(v for v in tree.internal_nodes if v != tree.root)
        spec = NacSpec(tree, {tree.root: GeneratorSpec.from_tau("gumbel", 0.3),
                              inner: GeneratorSpec.from_tau("clayton", 0.7)})
        with pytest.raises(NacError):
            sample(spec, 10, 0)

    def test_independence_parent_blocks(self):
        tree = parse_newick("((U1,U2),(U3,U4));")
        gens = {tree.root: GeneratorSpec.from_tau("independence", 0.0)}
        for v in tree.internal_nodes:
            if v != tree.root:
                gens[v] = GeneratorSpec.from_tau("clayton", 0.6)
        spec = NacSpec(tree, gens)
        errs = pairwise_tau_errors(spec, 20_000, 17)
        assert max(abs(e) for e in errs.values()) <= 0.02

    def test_equal_theta_nesting_degenerates_to_fan(self):
        # both nodes share the generator, so every pair has the same tau
        spec = NacSpec.single_family("((U1,U2),U3);", "clayton", {
            ("U1", "U2", "U3"): 0.5, ("U1", "U2"): 0.5})
        errs = pairwise_tau_errors(spec, 20_000, 23)
        assert max(abs(e) for e in errs.values()) <= 0.02

    def test_exchangeability_within_node(self):
        # leaves meeting at the same node have the same bivariate law
        nac = NacSpec.single_family("((U1,U2,U3),U4);", "clayton", {
            ("U1", "U2", "U3", "U4"): 0.2, ("U1", "U2", "U3"): 0.6})
        x = sample(nac, 8000, 31)
        pairs = [(0, 1), (0, 2), (1, 2)]
        ekds = [empirical_kendall_distribution(x[:, i], x[:, j])
                for i, j in pairs]
        for a, b in itertools.combinations(ekds, 2):
            assert kendall_dist_distance(a, b) < 5e-4

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_three_level_nesting_all_families(self, family):
        spec = NacSpec.single_family("(U1,(U2,(U3,U4)));", family, {
            ("U1", "U2", "U3", "U4"): 0.2, ("U2", "U3", "U4"): 0.45,
            ("U3", "U4"): 0.7})
        errs = pairwise_tau_errors(spec, 20_000, 91)
        assert max(abs(e) for e in errs.values()) <= 0.02


class TestNacSpecJson:
    def test_roundtrip(self):
        spec = spec_fig7_right()
        back = NacSpec.from_json(spec.to_json())
        assert back.tree == spec.tree
        assert {back.tree.leaf_set(v): g.tau for v, g in back.generators.items()} \
            == {spec.tree.leaf_set(v): g.tau for v, g in spec.generators.items()}

    def test_tau_is_authoritative(self):
        spec = NacSpec.from_json(
            '{"newick": "(U1,U2,U3);", '
            '"generators": [{"node_path": [], "family": "clayton", "tau": 0.5}]}')
        assert spec.generators[spec.tree.root].theta == pytest.approx(2.0)

    def test_bad_path_rejected(self):
        with pytest.raises(NacError):
            NacSpec.from_json(
                '{"newick": "(U1,U2,U3);", '
                '"generators": [{"node_path": [7], "family": "clayton", '
                '"tau": 0.5}]}')
