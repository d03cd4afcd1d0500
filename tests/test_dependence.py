import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import nactree.dependence as dependence
from nactree.builders import average_linkage
from nactree.dependence import (
    DataError,
    Dataset,
    KendallDistribution,
    dependence_matrix,
    dominance_counts,
    empirical_kendall_distribution,
    hoeffding_d,
    hoeffding_d_max,
    independence_deviation,
    independence_kendall_cdf,
    kendall_dist_distance,
    kendall_tau,
    mean_distance_to,
    pseudo_observations,
)
from nactree.study import estimate

from oracles import (
    dominance_counts_quadratic,
    hoeffding_d_quadratic,
    independence_deviation_grid,
    kendall_dist_distance_grid,
    kendall_tau_quadratic,
    mean_distance_to_grid,
)


unique_floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2,
    max_size=60, unique=True)


class TestPseudoObservations:
    def test_plain_ranks(self):
        data = Dataset(np.array([[10.0, 1], [20, 2], [30, 3]]), ("a", "b"))
        np.testing.assert_allclose(pseudo_observations(data).u[:, 0],
                                   [0.25, 0.5, 0.75])

    def test_average_ranks_for_ties(self):
        data = Dataset(np.array([[5.0, 1], [5, 2], [9, 3]]), ("a", "b"))
        np.testing.assert_allclose(pseudo_observations(data).u[:, 0],
                                   [0.375, 0.375, 0.75])

    def test_monotone_in_monotone_out(self, rng):
        col = np.sort(rng.normal(size=40))
        data = Dataset(np.column_stack([col, rng.normal(size=40)]), ("a", "b"))
        u = pseudo_observations(data).u[:, 0]
        assert np.all(np.diff(u) > 0)
        assert np.all((u > 0) & (u < 1))

    def test_tau_matrix_is_the_scalar_tau(self, rng):
        obs = pseudo_observations(Dataset(rng.normal(size=(50, 4)),
                                          tuple("abcd")))
        for i, j in itertools.combinations(range(4), 2):
            tau = kendall_tau(obs.u[:, i], obs.u[:, j])
            assert obs.tau[i, j] == obs.tau[j, i] == tau
        assert np.all(np.diag(obs.tau) == 0)
        assert obs.tau is obs.tau  # computed once

    def test_ekd_is_memoized_per_unordered_pair(self, rng):
        obs = pseudo_observations(Dataset(rng.normal(size=(50, 3)),
                                          tuple("abc")))
        ekd = obs.ekd("c", "a")
        assert obs.ekd("a", "c") is ekd
        direct = empirical_kendall_distribution(obs.column("a"),
                                                obs.column("c"))
        np.testing.assert_array_equal(ekd.w, direct.w)

    def test_constant_columns_rejected_by_name(self, rng):
        values = rng.normal(size=(40, 5))
        values[:, 1] = 3.0
        values[:, 4] = -1.0
        data = Dataset(values, ("U1", "U2", "U3", "U4", "U5"))
        with pytest.raises(DataError, match="no dependence: U2, U5$"):
            pseudo_observations(data)
        values[:, 1] = rng.normal(size=40)
        with pytest.raises(DataError, match="no dependence: U5$"):
            estimate(Dataset(values, data.columns), "NJNNI_kagg", 0.075)

    def test_dataset_validation(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), ("a", "b"))  # too few rows
        with pytest.raises(DataError):
            Dataset(np.ones((5, 2)), ("a", "a"))  # duplicate names
        bad = np.ones((5, 2))
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            Dataset(bad, ("a", "b"))

    @pytest.mark.parametrize("name", ["", "x:y", "a b", "b(1)", "c)", "d,e",
                                      "f;", "tab\t", "new\nline"])
    def test_names_newick_cannot_read_are_rejected(self, name):
        with pytest.raises(DataError, match="column name") as err:
            Dataset(np.ones((5, 2)), ("ok", name))
        assert repr(name) in str(err.value)


class TestKendallTau:
    def test_perfect_concordance(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_four_point_example(self):
        # 6 pairs: C=4, D=2
        assert kendall_tau([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(1 / 3)
        assert kendall_tau_quadratic([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(1 / 3)

    @given(unique_floats, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_oracle_exactly(self, xs, rnd):
        ys = list(xs)
        rnd.shuffle(ys)
        assert kendall_tau(xs, ys) == kendall_tau_quadratic(xs, ys)

    def test_fast_equals_oracle_with_ties(self, rng):
        # small sizes take the quadratic sweep, larger ones the sort
        # kernel, where ties in x must not count as dominance
        cut = dependence._BROADCAST_MAX_N
        sizes = ([int(n) for n in rng.integers(2, 50, size=80)]
                 + [cut, cut + 1, 1025, 3000])
        for n in sizes:
            x = np.round(rng.normal(size=n), 1)
            y = np.round(rng.normal(size=n), 1)
            assert kendall_tau(x, y) == kendall_tau_quadratic(x, y)

    def test_invariance_under_increasing_transforms(self, rng):
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert kendall_tau(x, y) == kendall_tau(np.exp(x), y ** 3)

    def test_errors(self):
        with pytest.raises(DataError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(DataError):
            kendall_tau([1, 2, 3], [1, 2])


class TestDominanceCounts:
    def test_matches_quadratic(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 120))
            x, y = rng.normal(size=n), rng.normal(size=n)
            if rng.random() < 0.3:
                x, y = np.round(x, 1), np.round(y, 1)
            assert np.array_equal(dominance_counts(x, y),
                                  dominance_counts_quadratic(x, y))

    @pytest.mark.parametrize("n", [dependence._BROADCAST_MAX_N,
                                   dependence._BROADCAST_MAX_N + 1,
                                   1025, 3000, 5000])
    def test_large_n_kernel_path_with_ties(self, rng, n):
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert np.array_equal(dominance_counts(x, y),
                              dominance_counts_quadratic(x, y))
        x, y = np.round(x, 1), np.round(y, 1)
        assert np.array_equal(dominance_counts(x, y),
                              dominance_counts_quadratic(x, y))

    @pytest.mark.parametrize("n", [5, 30, 500, dependence._BROADCAST_MAX_N,
                                   dependence._BROADCAST_MAX_N + 1])
    @pytest.mark.parametrize("dtype", [np.int16, np.int64, float])
    def test_batched_rows_equal_single_rows(self, rng, n, dtype):
        # integer ranks with ties, as the fan test passes them, in chunks
        # of rows (7 rows of 500 take two chunks)
        x = rng.integers(0, n // 2 + 1, size=(7, n)).astype(dtype)
        y = rng.integers(0, n // 2 + 1, size=(7, n)).astype(dtype)
        got = dominance_counts(x, y)
        assert got.shape == (7, n) and got.dtype.kind == "i"
        for r in range(7):
            assert np.array_equal(got[r], dominance_counts(x[r], y[r]))
            assert np.array_equal(got[r], dominance_counts_quadratic(x[r], y[r]))
        stacked = dominance_counts(x[:6].reshape(2, 3, n), y[:6].reshape(2, 3, n))
        assert np.array_equal(stacked.reshape(6, n), got[:6])

    def test_empty_inputs(self):
        assert dominance_counts([], []).shape == (0,)
        assert dominance_counts(np.zeros((0, 5)), np.zeros((0, 5))).shape == (0, 5)

    @pytest.mark.parametrize("x_shape, y_shape", [
        ((6,), (5,)), ((6,), (2, 3)), ((2, 3), (3, 2)), ((2, 3), (3,))])
    def test_unequal_shapes_rejected(self, x_shape, y_shape):
        with pytest.raises(DataError, match="equal shapes"):
            dominance_counts(np.zeros(x_shape), np.zeros(y_shape))

    @pytest.mark.parametrize("n", [30, dependence._BROADCAST_MAX_N + 1])
    def test_integer_minimum_on_both_paths(self, rng, n):
        # int8 -128 has no int8 negative; a point holding it in y, tied in
        # x with a larger y, must not count as smaller and earlier
        x = rng.integers(-128, 128, n).astype(np.int8)
        y = rng.integers(-128, 128, n).astype(np.int8)
        x[1], y[:2] = x[0], (-128, 0)
        assert np.array_equal(dominance_counts(x, y),
                              dominance_counts_quadratic(x, y))


class TestEmpiricalKendallDistribution:
    def test_comonotone_n3(self):
        x = np.array([1.0, 2, 3])
        np.testing.assert_allclose(empirical_kendall_distribution(x, x).w,
                                   [0.0, 0.5, 1.0])

    def test_countermonotone_all_zero(self):
        x = np.arange(10.0)
        assert np.all(empirical_kendall_distribution(x, -x).w == 0)

    def test_n2_values(self):
        w = empirical_kendall_distribution([1.0, 2], [5.0, 7]).w
        assert set(w).issubset({0.0, 1.0})

    def test_range_and_symmetry(self, rng):
        x, y = rng.normal(size=60), rng.normal(size=60)
        a = empirical_kendall_distribution(x, y)
        b = empirical_kendall_distribution(y, x)
        assert np.all((a.w >= 0) & (a.w <= 1))
        assert kendall_dist_distance(a, b) == 0.0


class TestKendallDistDistance:
    def test_self_distance_zero(self, rng):
        a = empirical_kendall_distribution(rng.normal(size=30), rng.normal(size=30))
        assert kendall_dist_distance(a, a) == 0.0

    def test_frozen_step_integral(self):
        # comonotone (W = 0, .5, 1) vs countermonotone (W = 0,0,0):
        # |F_a - F_b| is 2/3 on [0,.5) and 1/3 on [.5,1) -> 5/18
        x = np.array([1.0, 2, 3])
        a = empirical_kendall_distribution(x, x)
        b = empirical_kendall_distribution(x, -x)
        assert kendall_dist_distance(a, b) == pytest.approx(5 / 18, abs=1e-12)

    def test_matches_quadrature_oracle(self, rng):
        a = empirical_kendall_distribution(rng.normal(size=25), rng.normal(size=25))
        b = empirical_kendall_distribution(rng.normal(size=25), rng.normal(size=25))

        def integrand(t):
            return (a.cdf(t) - b.cdf(t)) ** 2

        knots = np.unique(np.concatenate([[0.0], a.w, b.w, [1.0]]))
        oracle = sum(quad(integrand, lo, hi, limit=100)[0]
                     for lo, hi in zip(knots[:-1], knots[1:]) if hi > lo)
        assert kendall_dist_distance(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_symmetry(self, rng):
        a = empirical_kendall_distribution(rng.normal(size=20), rng.normal(size=20))
        b = empirical_kendall_distribution(rng.normal(size=20), rng.normal(size=20))
        assert kendall_dist_distance(a, b) == kendall_dist_distance(b, a)

    def test_unequal_sizes_rejected(self, rng):
        a = empirical_kendall_distribution(rng.normal(size=20), rng.normal(size=20))
        b = empirical_kendall_distribution(rng.normal(size=35), rng.normal(size=35))
        with pytest.raises(DataError, match=r"different sizes \[20, 35\]"):
            kendall_dist_distance(a, b)
        with pytest.raises(DataError, match="different sizes"):
            mean_distance_to(a, a, b)

    def test_mean_distance_matches_manual(self, rng):
        dists = [empirical_kendall_distribution(rng.normal(size=15),
                                                rng.normal(size=15))
                 for _ in range(3)]
        a, b, c = dists

        def integrand(t):
            return (0.5 * (a.cdf(t) + b.cdf(t)) - c.cdf(t)) ** 2

        knots = np.unique(np.concatenate([[0.0], a.w, b.w, c.w, [1.0]]))
        oracle = sum(quad(integrand, lo, hi, limit=100)[0]
                     for lo, hi in zip(knots[:-1], knots[1:]) if hi > lo)
        assert mean_distance_to(a, b, c) == pytest.approx(oracle, abs=1e-9)


class TestLattice:
    @pytest.mark.parametrize("n", [2, 3, 30, 100, 500])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_the_float_grid_reference(self, rng, n, ties):
        def ekd():
            x, y = rng.normal(size=n), rng.normal(size=n)
            if ties:
                x, y = np.round(x), np.round(y)
            return empirical_kendall_distribution(x, y)

        for _ in range(5):
            a, b, c = ekd(), ekd(), ekd()
            assert kendall_dist_distance(a, b) == pytest.approx(
                kendall_dist_distance_grid(a, b), abs=1e-12)
            assert mean_distance_to(a, b, c) == pytest.approx(
                mean_distance_to_grid(a, b, c), abs=1e-12)
            assert independence_deviation(a) == pytest.approx(
                independence_deviation_grid(a), abs=1e-12)

    def test_cdf_is_the_lattice_count(self, rng):
        a = empirical_kendall_distribution(rng.normal(size=40),
                                           rng.normal(size=40))
        k = np.arange(39)
        assert a.lattice.dtype == np.int64
        assert np.array_equal(a.lattice, np.rint(a.cdf(k / 39) * 40))

    def test_off_lattice_scores_rejected_lazily(self):
        ekd = KendallDistribution([0.1, 0.5, 0.9])
        assert ekd.cdf(0.5) == pytest.approx(2 / 3)
        with pytest.raises(DataError, match="not on the lattice"):
            independence_deviation(ekd)
        with pytest.raises(DataError, match="not on the lattice"):
            kendall_dist_distance(ekd, ekd)

    def test_single_score_rejected(self):
        one = KendallDistribution([0.0])
        for call in (lambda: kendall_dist_distance(one, one),
                     lambda: mean_distance_to(one, one, one),
                     lambda: independence_deviation(one)):
            with pytest.raises(DataError, match="needs 2 Kendall scores"):
                call()

    def test_nan_scores_rejected(self):
        with pytest.raises(DataError, match=r"lie in \[0,1\]"):
            KendallDistribution([np.nan, 0.5])
        with pytest.raises(DataError, match=r"lie in \[0,1\]"):
            KendallDistribution([0.0, 1.5])


class TestIndependenceDeviation:
    def test_matches_quadrature_oracle(self, rng):
        x, y = rng.uniform(size=35), rng.uniform(size=35)
        ekd = empirical_kendall_distribution(x, y)

        def integrand(t):
            return (ekd.cdf(t) - independence_kendall_cdf(t)) ** 2

        knots = np.unique(np.concatenate([[0.0], ekd.w, [1.0]]))
        oracle = sum(quad(integrand, lo, hi, limit=200)[0]
                     for lo, hi in zip(knots[:-1], knots[1:]) if hi > lo)
        assert independence_deviation(ekd) == pytest.approx(oracle, abs=1e-9)

    def test_self_grid_near_zero(self):
        # W values placed where the independence curve reaches i/n: the
        # empirical CDF tracks the curve and the deviation nearly vanishes
        n = 200
        grid = np.linspace(1e-9, 1, 20001)
        w = np.interp(np.arange(1, n + 1) / n, independence_kendall_cdf(grid),
                      grid)
        ekd = KendallDistribution(w)

        def integrand(t):
            return (ekd.cdf(t) - independence_kendall_cdf(t)) ** 2

        knots = np.concatenate([[0.0], ekd.w, [1.0]])
        val = sum(quad(integrand, lo, hi)[0]
                  for lo, hi in zip(knots[:-1], knots[1:]) if hi > lo)
        assert val < 1e-4

    def test_independent_large_n(self, rng):
        x, y = rng.uniform(size=100_000), rng.uniform(size=100_000)
        ekd = empirical_kendall_distribution(x, y)
        assert independence_deviation(ekd) <= 0.001

    def test_independent_median_over_seeds(self):
        vals = []
        for seed in range(50):
            r = np.random.default_rng(seed)
            vals.append(independence_deviation(empirical_kendall_distribution(
                r.uniform(size=10_000), r.uniform(size=10_000))))
        assert np.median(vals) < 0.002

    def test_comonotone_positive_and_growing(self):
        x1 = np.arange(1.0, 51)
        x2 = np.arange(1.0, 501)
        d1 = independence_deviation(empirical_kendall_distribution(x1, x1))
        d2 = independence_deviation(empirical_kendall_distribution(x2, x2))
        assert d1 > 0.01 and d2 > d1 * 0.9
        # limit: integral of (t - K_indep(t))^2 over [0,1]
        limit = quad(lambda t: (t - independence_kendall_cdf(t)) ** 2, 0, 1)[0]
        assert d2 == pytest.approx(limit, rel=0.05)


class TestHoeffdingD:
    def test_comonotone_is_max(self):
        x = np.arange(1.0, 11)
        assert hoeffding_d(x, x) == pytest.approx(hoeffding_d_max(10), abs=1e-12)
        assert hoeffding_d_max(10) == pytest.approx(1.0, abs=1e-12)
        for n in (5, 10, 100, 500):
            grid = np.arange(1.0, n + 1)
            assert hoeffding_d_max(n) == hoeffding_d_quadratic(grid, grid)

    def test_independent_near_zero(self, rng):
        x, y = rng.uniform(size=100_000), rng.uniform(size=100_000)
        assert abs(hoeffding_d(x, y)) < 0.001

    def test_rank_invariance(self, rng):
        x, y = rng.normal(size=40), rng.normal(size=40)
        rx = np.argsort(np.argsort(x)).astype(float)
        ry = np.argsort(np.argsort(y)).astype(float)
        assert hoeffding_d(x, y) == hoeffding_d(rx, ry)

    def test_fast_equals_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 100))
            x, y = rng.normal(size=n), rng.normal(size=n)
            assert abs(hoeffding_d(x, y) - hoeffding_d_quadratic(x, y)) < 1e-12

    def test_requires_five(self):
        with pytest.raises(DataError):
            hoeffding_d([1.0, 2, 3, 4], [1.0, 2, 3, 4])

    def test_constant_vector_rejected(self):
        for x, y in (([1.0] * 5, [1.0, 2, 3, 4, 5]),
                     ([1.0, 2, 3, 4, 5], [7.0] * 5)):
            with pytest.raises(DataError, match="constant"):
                hoeffding_d(x, y)


class TestDependenceMatrix:
    def test_comonotone_entry_zero_kt(self):
        col = np.arange(30.0)
        data = Dataset(np.column_stack([col, col, np.cos(col)]), ("a", "b", "c"))
        m = dependence_matrix(data, "kt")
        assert m.entry("a", "b") == pytest.approx(0.0, abs=1e-12)

    def test_independent_entry_near_one_kt(self):
        r = np.random.default_rng(99)
        data = Dataset(r.uniform(size=(100_000, 2)), ("a", "b"))
        assert dependence_matrix(data, "kt").entry("a", "b") == pytest.approx(
            1.0, abs=0.02)

    def test_symmetric_zero_diag_all_kinds(self, rng):
        data = Dataset(rng.normal(size=(60, 4)), tuple("abcd"))
        for kind in ("kt", "hD", "kind"):
            m = dependence_matrix(data, kind)
            assert np.allclose(m.values, m.values.T)
            assert np.all(np.diag(m.values) == 0)
            assert np.all(m.values >= 0)
            assert m.kind == kind

    def test_unknown_kind(self, rng):
        data = Dataset(rng.normal(size=(10, 3)), tuple("abc"))
        with pytest.raises(DataError):
            dependence_matrix(data, "rho")

    def test_block_data_clusters_first_all_kinds(self, rng):
        # two comonotone blocks: every kind must find the same linkage tree
        base = rng.uniform(size=(80, 2))
        noise = 0.01 * rng.uniform(size=(80, 4))
        values = np.column_stack([base[:, 0] + noise[:, 0],
                                  base[:, 0] + noise[:, 1],
                                  base[:, 1] + noise[:, 2],
                                  base[:, 1] + noise[:, 3]])
        data = Dataset(values, ("a1", "a2", "b1", "b2"))
        trees = {kind: average_linkage(dependence_matrix(data, kind))
                 for kind in ("kt", "hD", "kind")}
        assert trees["kt"] == trees["hD"] == trees["kind"]
        assert {frozenset(("a1", "a2")), frozenset(("b1", "b2"))} <= {
            trees["kt"].leaf_set(v) for v in trees["kt"].internal_nodes}

    def test_csv_roundtrip(self, tmp_path, rng):
        data = Dataset(rng.normal(size=(30, 3)), ("x", "y", "z"))
        m = dependence_matrix(data, "kt")
        path = tmp_path / "m.csv"
        m.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",x,y,z"
        assert len(lines) == 4


class TestCsvIngestion:
    def test_roundtrip(self, tmp_path, rng):
        data = Dataset(rng.normal(size=(10, 3)), ("a", "b", "c"))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.columns == data.columns
        np.testing.assert_array_equal(back.values, data.values)

    def test_bad_cells(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, message in [("a,b\n1,2\n3,x\n4,5\n", "non-numeric cell"),
                              ("a,b\n1,2\n3\n4,5\n", "ragged CSV rows")]:
            path.write_text(text)
            with pytest.raises(DataError, match=message):
                Dataset.from_csv(path)
