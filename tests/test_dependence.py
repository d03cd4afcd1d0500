import csv
import io
import itertools
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import rankdata

import nactree.dependence as dependence
from nactree.builders import CharacterMatrix, average_linkage
from nactree.dependence import (
    DataError,
    Dataset,
    KendallDistribution,
    PseudoObservations,
    dependence_matrix,
    dominance_counts,
    empirical_kendall_distribution,
    hoeffding_d,
    hoeffding_d_max,
    independence_deviation,
    kendall_dist_distance,
    kendall_tau,
    lattice_cdf,
    mean_distance_to,
    pseudo_observations,
)
from nactree.study import estimate

from conftest import RANK_NS, chunk_rows
from oracles import (
    below_planes_argsort,
    column_pair_dominance_argsort,
    dataset_from_csv_cells,
    dominance_counts_quadratic,
    hoeffding_d_quadratic,
    independence_deviation_grid,
    independence_kendall_cdf,
    kendall_dist_distance_grid,
    kendall_scores,
    kendall_scores_quadratic,
    kendall_tau_quadratic,
    matrix_entry,
    mean_distance_to_grid,
    pair_ekd,
    step_cdf,
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

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.sampled_from([None, 0, 1]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_average_ranks_equal_rankdata(self, shape, decimals, seed):
        # float data and data with ties, 1-d to 4-d, along every axis
        v = np.random.default_rng(seed).normal(size=shape)
        if decimals is not None:
            v = np.round(v, decimals)
        for axis in range(v.ndim):
            ranks = np.moveaxis(dependence._average_ranks(
                np.moveaxis(v, axis, -1)), -1, axis)
            assert np.array_equal(ranks, rankdata(v, axis=axis,
                                                  method="average"))

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
        ekd = pair_ekd(obs, "c", "a")
        assert np.array_equal(pair_ekd(obs, "a", "c").lattice, ekd.lattice)
        direct = empirical_kendall_distribution(obs.column("a"),
                                                obs.column("c"))
        assert ekd.n == direct.n
        np.testing.assert_array_equal(ekd.lattice, direct.lattice)

    @pytest.mark.parametrize("cells", [1, 200, 1 << 16])
    def test_blocks_give_every_pair_once(self, rng, monkeypatch, cells):
        # blocks of one, of several and of all first columns; the pass's
        # planes packed in one chunk, then, of tied columns, in chunks of
        # two columns, then none at all, as above the pass's budget.  One
        # column has no pair, two have one.
        monkeypatch.setattr(dependence, "_BLOCK_CELLS", cells)
        for d in (1, 2, 9):
            values = rng.normal(size=(30, d))
            for chunk_words, grid_words in ((dependence._CHUNK_WORDS,
                                             dependence._GRID_WORDS),
                                            (4 * 30, dependence._GRID_WORDS),
                                            (4 * 30, 0)):
                monkeypatch.setattr(dependence, "_CHUNK_WORDS", chunk_words)
                monkeypatch.setattr(dependence, "_GRID_WORDS", grid_words)
                data = Dataset(values, tuple("abcdefghi"[:d]))
                obs = pseudo_observations(data)
                for i, j in itertools.combinations(range(d), 2):
                    a, b = obs.columns[i], obs.columns[j]
                    assert obs.tau[i, j] == obs.tau[j, i] == kendall_tau(
                        obs.u[:, i], obs.u[:, j])
                    assert np.array_equal(pair_ekd(obs, b, a).lattice,
                                          empirical_kendall_distribution(
                                              obs.u[:, i],
                                              obs.u[:, j]).lattice)
                assert obs.ekds.lattice.shape == (d * (d - 1) // 2, 29)
                if d == 1:
                    # counted alone, filled by the EKD pass, and every matrix
                    filled = pseudo_observations(data)
                    filled.ekds
                    assert obs.tau.tolist() == filled.tau.tolist() == [[0.0]]
                    assert all(dependence_matrix(obs, kind).values.tolist()
                               == [[0.0]] for kind in ("kt", "hD", "kind"))
                values = np.round(values, 1)  # ties on both sides

    def test_grid_counts_uint16_ranks(self, rng, monkeypatch):
        # tau, the EKDs and D of the grid count its columns' twice average
        # ranks as they are; hoeffding_d_max counts its own float ranks,
        # so it is computed before the spy goes in
        obs = pseudo_observations(Dataset(
            np.round(rng.normal(size=(500, 5)), 1), tuple("abcde")))
        hoeffding_d_max(obs.n)
        operands = []
        counts = dependence.dominance_counts
        monkeypatch.setattr(dependence, "dominance_counts",
                            lambda a, b: operands.extend((a, b))
                            or counts(a, b))
        obs.tau, obs.ekds, dependence_matrix(obs, "hD")
        assert operands and all(v.dtype == np.uint16 for v in operands)

    def test_nan_rejected_before_ranking(self, rng):
        # ranked, NaN would pass as the largest value; +-inf is ordered
        u = rng.uniform(size=(40, 4))
        u[7, 2] = np.nan
        for entry in (lambda obs: obs.tau, lambda obs: obs.ekds,
                      lambda obs: dependence_matrix(obs, "hD")):
            with pytest.raises(DataError, match="NaN"):
                entry(PseudoObservations(u, tuple("abcd")))
        finite = u.copy()
        finite[7, 2], finite[3, 1] = 2.0, -1.0
        u[7, 2], u[3, 1] = np.inf, -np.inf
        assert np.array_equal(PseudoObservations(u, tuple("abcd")).tau,
                              PseudoObservations(finite, tuple("abcd")).tau)

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
        # sizes up to the cap take the bit-plane kernel, larger ones the
        # sort kernel; on both, ties in x must not count as dominance
        cut = dependence._BITPLANE_MAX_N
        sizes = ([int(n) for n in rng.integers(2, 50, size=80)]
                 + [700, 701, 1025, 3000, cut, cut + 1])
        for n in sizes:
            x = np.round(rng.normal(size=n), 1)
            y = np.round(rng.normal(size=n), 1)
            assert kendall_tau(x, y) == kendall_tau_quadratic(x, y)

    @pytest.mark.parametrize("dtype", [np.int64, float])
    @pytest.mark.parametrize("tied", ["x", "y", "both", "neither"])
    def test_one_count_unless_both_sides_tie(self, rng, monkeypatch, dtype,
                                             tied):
        # C - D = 2C - C(n,2) + T_x + T_y - T_xy needs no discordant count,
        # whether or not a row pair has ties on both sides (T_xy > 0)
        n = 90
        x = rng.permutation(n).astype(dtype)
        y = rng.permutation(n).astype(dtype)
        if tied in ("x", "both"):
            x = x // 3
        if tied in ("y", "both"):
            y = y // 4
        calls = []
        counts = dependence.dominance_counts

        def spy(a, b):
            calls.append(a)
            return counts(a, b)

        monkeypatch.setattr(dependence, "dominance_counts", spy)
        assert kendall_tau(x, y) == kendall_tau_quadratic(x, y)
        assert len(calls) == 1
        # a batch counts once too: here the pairs (x, y) and (y, x)
        rows = np.stack([x, y])
        calls.clear()
        tau = kendall_tau(rows, rows[::-1])
        assert list(tau) == [kendall_tau_quadratic(x, y),
                             kendall_tau_quadratic(y, x)]
        assert len(calls) == 1

    def test_some_rows_tied_on_both_sides(self, rng, monkeypatch):
        # only the pairs of xs[1] with ys[0] or ys[2] tie on both sides: in
        # the rows (xs[:3], ys[[1, 0, 3]]) one, in the (3, 4) grid two
        xs, ys = rng.normal(size=(2, 4, 60))
        xs[1], ys[0] = np.round(xs[1], 1), np.round(ys[0])
        ys[2] = np.round(ys[2], 1)
        calls = []
        counts = dependence.dominance_counts
        monkeypatch.setattr(dependence, "dominance_counts",
                            lambda a, b: calls.append(a) or counts(a, b))
        rows = ys[[1, 0, 3]]
        tau = kendall_tau(xs[:3], rows)
        assert len(calls) == 1
        assert list(tau) == [kendall_tau_quadratic(x, y)
                             for x, y in zip(xs[:3], rows)]
        grid = kendall_tau(np.broadcast_to(xs[:3, None], (3, 4, 60)),
                           np.broadcast_to(ys, (3, 4, 60)))
        assert len(calls) == 2
        for i, j in np.ndindex(3, 4):
            assert grid[i, j] == kendall_tau_quadratic(xs[i], ys[j])

    def test_invariance_under_increasing_transforms(self, rng):
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert kendall_tau(x, y) == kendall_tau(np.exp(x), y ** 3)

    def test_errors(self):
        with pytest.raises(DataError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(DataError):
            kendall_tau([1, 2, 3], [1, 2])

    def test_nan_rejected_and_infinity_ordered(self):
        x = np.arange(6.0)
        for stat in (kendall_tau, hoeffding_d, empirical_kendall_distribution):
            with pytest.raises(DataError, match="NaN"):
                stat(np.r_[np.nan, x[1:]], x)
            with pytest.raises(DataError, match="NaN"):
                stat(np.broadcast_to(x, (3, 6)), np.stack([x, x, x * np.nan]))
        big = np.r_[-np.inf, x[1:-1], np.inf]
        assert kendall_tau(big, x) == 1.0
        assert hoeffding_d(big, x) == hoeffding_d(x, x)
        assert np.array_equal(empirical_kendall_distribution(big, x).lattice,
                              empirical_kendall_distribution(x, x).lattice)


def _tied_pair(seed, n, ties, rows=()):
    """Random ``(rows..., n)`` arrays x and y, with ties in neither, in x,
    in y or in both: a tied side takes about n/3 levels."""
    rng = np.random.default_rng(seed)
    levels = max(1, n // 3)
    x, y = (rng.integers(0, levels, size=(*rows, n)) if side in ties
            else rng.normal(size=(*rows, n)) for side in "xy")
    return x.astype(float), y.astype(float)


class TestTauFromEkd:
    """tau = 4 mean(W) - 1 plus tie terms: the concordant pairs read off an
    EKD's lattice give the tau of one more dominance count, bit for bit."""

    TIES = ("", "x", "y", "xy")

    @given(st.sampled_from((2, 3, 64, 65, 500)), st.sampled_from(TIES),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_vectors_and_broadcast_blocks(self, n, ties, seed):
        x, y = _tied_pair(seed, n, ties)
        ekd = empirical_kendall_distribution(x, y)
        assert (kendall_tau(x, y, ekd=ekd) == kendall_tau(x, y)
                == kendall_tau_quadratic(x, y))
        # a block as `PseudoObservations` passes it: 3 first columns
        # against 4 later ones
        xs, ys = _tied_pair(seed + 1, n, ties, rows=(4,))
        bx = np.broadcast_to(xs[:3, None], (3, 4, n))
        by = np.broadcast_to(ys, (3, 4, n))
        grid = kendall_tau(bx, by, ekd=empirical_kendall_distribution(bx, by))
        assert np.array_equal(grid, kendall_tau(bx, by))
        for i, j in np.ndindex(3, 4):
            assert grid[i, j] == kendall_tau_quadratic(xs[i], ys[j])

    @pytest.mark.parametrize("ties", TIES)
    def test_above_the_bit_plane_cap(self, ties):
        x, y = _tied_pair(7, dependence._BITPLANE_MAX_N + 1, ties)
        ekd = empirical_kendall_distribution(x, y)
        assert (kendall_tau(x, y, ekd=ekd) == kendall_tau(x, y)
                == kendall_tau_quadratic(x, y))

    def test_ekd_of_other_shape_rejected(self, rng):
        x, y = rng.normal(size=(2, 3, 20))
        with pytest.raises(DataError, match="Kendall distributions of shape"):
            kendall_tau(x, y, ekd=empirical_kendall_distribution(x[0], y[0]))
        with pytest.raises(DataError, match="n = 19"):
            kendall_tau(x, y, ekd=empirical_kendall_distribution(
                x[:, 1:], y[:, 1:]))

    @given(st.integers(2, 7), st.sampled_from((3, 64, 65, 200)),
           st.sampled_from((None, 3, 10)), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matrix_is_the_same_in_either_order(self, d, n, levels, seed):
        # tau asked first counts tau alone; ekds asked first fill it
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, d))
        if levels is not None:
            values = rng.integers(0, levels, size=(n, d)).astype(float)
            values[:2] = [[0.0] * d, [1.0] * d]  # no constant column
        data = Dataset(values, tuple(f"c{i}" for i in range(d)))
        # the pass's planes packed in one chunk or one or two columns each:
        # a chunk's tables and planes take twice its columns' planes
        words = n * -(-n // 64)
        for cells, chunk_words in itertools.product(
                (1, 200, 1 << 16), (dependence._CHUNK_WORDS, 2 * words,
                                    4 * words)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dependence, "_BLOCK_CELLS", cells)
                mp.setattr(dependence, "_CHUNK_WORDS", chunk_words)
                first = pseudo_observations(data)
                filled = pseudo_observations(data)
                tau = first.tau
                ekds = filled.ekds
                assert "tau" in filled.__dict__
                assert filled.tau.tobytes() == tau.tobytes()
                assert np.array_equal(first.ekds.lattice, ekds.lattice)


class TestDominanceCounts:
    def test_matches_quadratic(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 120))
            x, y = rng.normal(size=n), rng.normal(size=n)
            if rng.random() < 0.3:
                x, y = np.round(x, 1), np.round(y, 1)
            assert np.array_equal(dominance_counts(x, y),
                                  dominance_counts_quadratic(x, y))

    @pytest.mark.parametrize("n", [700, 701, 1025, 3000,
                                   dependence._BITPLANE_MAX_N,
                                   dependence._BITPLANE_MAX_N + 1, 5000])
    def test_large_n_kernel_path_with_ties(self, rng, n):
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert np.array_equal(dominance_counts(x, y),
                              dominance_counts_quadratic(x, y))
        x, y = np.round(x, 1), np.round(y, 1)
        assert np.array_equal(dominance_counts(x, y),
                              dominance_counts_quadratic(x, y))

    @pytest.mark.parametrize("n", [5, 30, 500, 700, 701,
                                   dependence._BITPLANE_MAX_N,
                                   dependence._BITPLANE_MAX_N + 1])
    @pytest.mark.parametrize("dtype", [np.int16, np.int64, float])
    def test_batched_rows_equal_single_rows(self, rng, n, dtype):
        # integer ranks with ties, as the fan test passes them
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

    @pytest.mark.parametrize("n", [30, 701, dependence._BITPLANE_MAX_N + 1])
    def test_integer_minimum_on_both_paths(self, rng, n):
        # int8 -128 has no int8 negative; a point holding it in y, tied in
        # x with a larger y, must not count as smaller and earlier
        x = rng.integers(-128, 128, n).astype(np.int8)
        y = rng.integers(-128, 128, n).astype(np.int8)
        x[1], y[:2] = x[0], (-128, 0)
        assert np.array_equal(dominance_counts(x, y),
                              dominance_counts_quadratic(x, y))


class TestBitPlaneKernel:
    """`dominance_counts` up to its cap against the quadratic oracle, at
    the 64-bit word boundaries, the cap and the chunk boundary."""

    CAP = dependence._BITPLANE_MAX_N

    @staticmethod
    def assert_rows_match(x, y):
        got = dominance_counts(x, y)
        for r in range(x.shape[0]):
            assert np.array_equal(got[r], dominance_counts_quadratic(x[r], y[r]))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, CAP, CAP + 1])
    @pytest.mark.parametrize("ties", [False, True])
    def test_word_boundaries(self, rng, n, ties):
        x, y = rng.normal(size=(2, 3, n))
        if ties:
            x, y = np.round(x), np.round(y)
        self.assert_rows_match(x, y)
        self.assert_rows_match(np.broadcast_to(x[0], x.shape), y)

    def test_uint16_spread_over_the_range(self, rng):
        # values of 3n or more are ranked before they are packed, so the
        # histogram spans ranks, not 2^16 values per row
        x, y = rng.integers(0, 1 << 16, (2, 100, 30)).astype(np.uint16)
        tracemalloc.start()
        try:
            got = dominance_counts(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, dominance_counts(x.astype(np.int32),
                                                    y.astype(np.int32)))
        assert peak < 5 << 20
        self.assert_rows_match(x[:5], y[:5])

    def test_ties_only(self):
        # every value tied: nothing is below anything
        x = np.zeros((2, 130))
        assert not dominance_counts(x, x).any()

    def test_int8_minimum_in_y(self, rng):
        x = rng.integers(-128, 128, (3, 200)).astype(np.int8)
        y = rng.integers(-128, 128, (3, 200)).astype(np.int8)
        x[:, 1], y[:, :2] = x[:, 0], (-128, 0)
        self.assert_rows_match(x, y)
        self.assert_rows_match(np.broadcast_to(x[0], x.shape), y)

    @pytest.mark.parametrize("shared", [False, True])
    def test_rows_not_a_multiple_of_the_chunk(self, rng, monkeypatch, shared):
        n = 500
        step = dependence._CHUNK_WORDS // (n * -(-n // 64))
        y = rng.normal(size=(2 * step + 5, n))
        x = rng.normal(size=y.shape)
        packed = []
        below_planes = dependence._below_planes

        def spy(v):
            packed.append(len(v))
            return below_planes(v)

        monkeypatch.setattr(dependence, "_below_planes", spy)
        if shared:
            # a one-row column, as a pass's block gives its first columns
            # to `_pair_counts`, counts against every row of y
            out = np.empty((1,) + y.shape, dtype=np.int64)
            dependence._pair_counts([x[:1], y], [(0, 1)], out)
            for r in range(y.shape[0]):
                assert np.array_equal(out[0, r],
                                      dominance_counts_quadratic(x[0], y[r]))
        else:
            self.assert_rows_match(x, y)
        # three chunks of y; a one-row x is packed once, for the call
        assert sorted(packed) == sorted(
            [step, step, 5] + ([1] if shared else [step, step, 5]))


class TestBroadcastOperands:
    """`dominance_counts` and the statistics of operands broadcast along
    batch axes against the quadratic oracle and single calls."""

    CAP = dependence._BITPLANE_MAX_N

    @staticmethod
    def assert_rows_match(x, y):
        got = dominance_counts(x, y)
        assert got.shape == x.shape
        for r in np.ndindex(x.shape[:-1]):
            assert np.array_equal(got[r], dominance_counts_quadratic(x[r], y[r]))

    @pytest.mark.parametrize("axes, n", [
        (axes, n) for axes in ("0", "1", "both", "neither")
        for n in (5, 64, 130)] + [("both", CAP + 1)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_grid(self, rng, axes, n, ties):
        # a (3, 4) grid of rows; "1" broadcasts x along axis 1, "0" y
        # along axis 0, "both" is the layout of `PseudoObservations.pairwise`
        x, y = rng.normal(size=(2, 3, 4, n))
        if ties:
            x, y = np.round(x), np.round(y)
        if axes in ("1", "both"):
            x = np.broadcast_to(x[:, :1], x.shape)
        if axes in ("0", "both"):
            y = np.broadcast_to(y[:1], y.shape)
        self.assert_rows_match(x, y)

    def test_each_distinct_row_packed_once(self, rng):
        # a block's layout whose y rows span several chunks
        n = 500
        k, m = 3, 2 * dependence._CHUNK_WORDS // (n * -(-n // 64)) + 5
        xs, ys = rng.normal(size=(k, n)), rng.normal(size=(m, n))
        self.assert_rows_match(np.broadcast_to(xs[:, None], (k, m, n)),
                               np.broadcast_to(ys, (k, m, n)))

    def test_three_batch_axes(self, rng):
        # x broadcast along axis 1, y along axes 0 and 2: 8 and 3 distinct rows
        x = np.broadcast_to(rng.normal(size=(2, 1, 4, 80)), (2, 3, 4, 80))
        y = np.broadcast_to(np.round(rng.normal(size=(1, 3, 1, 80))),
                            (2, 3, 4, 80))
        self.assert_rows_match(x, y)

    def test_tau_tied_on_both_sides_packs_distinct_rows(self, rng):
        # ties on both sides cost no second count
        xs = np.round(rng.normal(size=(3, 60)), 1)
        ys = np.round(rng.normal(size=(4, 60)), 1)
        x = np.broadcast_to(xs[:, None], (3, 4, 60))
        y = np.broadcast_to(ys, (3, 4, 60))
        tau = kendall_tau(x, y)
        for i, j in np.ndindex(3, 4):
            assert tau[i, j] == kendall_tau_quadratic(x[i, j], y[i, j])

    def test_broadcast_rows_equal_single_calls(self, rng):
        # tau, EKD lattices and D of the grid equal the calls of each pair;
        # the pair (xs[1], ys[0]) is tied on both sides
        xs, ys = rng.normal(size=(2, 3, 60))
        xs[1], ys[0] = np.round(xs[1], 1), np.round(ys[0], 1)
        x = np.broadcast_to(xs[:, None], (3, 3, 60))
        y = np.broadcast_to(ys, (3, 3, 60))
        tau, hd = kendall_tau(x, y), hoeffding_d(x, y)
        lattice = empirical_kendall_distribution(x, y).lattice
        for i, j in np.ndindex(3, 3):
            assert tau[i, j] == kendall_tau_quadratic(xs[i], ys[j])
            assert tau[i, j] == kendall_tau(xs[i], ys[j])
            assert hd[i, j] == hoeffding_d(xs[i], ys[j])
            assert np.array_equal(lattice[i, j], empirical_kendall_distribution(
                xs[i], ys[j]).lattice)


class TestColumnPairDominance:
    """The fan test's three-column kernel against three `dominance_counts`
    calls, at word and chunk boundaries and above the bit-plane cap."""

    CAP = dependence._BITPLANE_MAX_N

    @staticmethod
    def assert_pairs_match(batch, got=None):
        if got is None:
            got = dependence._column_pair_dominance(batch)
        assert got.dtype == np.int32 and got.shape == batch.shape
        for p, (a, c) in enumerate(((0, 1), (0, 2), (1, 2))):
            assert np.array_equal(got[p], dominance_counts(batch[a], batch[c]))

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 128, 129])
    def test_word_boundaries(self, rng, n):
        # int32 ranks of 3n values with ties take the comparison route
        self.assert_pairs_match(rng.integers(0, 2 * n, (3, 5, n)).astype(
            np.int32))

    @pytest.mark.parametrize("n, extra", [(64, 0), (64, 1), (500, 0),
                                          (500, 1), (500, 11)])
    def test_chunk_boundaries(self, rng, monkeypatch, n, extra):
        step = chunk_rows(n)
        m = step + extra
        batch = rng.integers(0, 3 * n, (3, m, n)).astype(np.int32)
        packed = []
        below_planes = dependence._below_planes

        def spy(v):
            packed.append(len(v))
            return below_planes(v)

        monkeypatch.setattr(dependence, "_below_planes", spy)
        got = dependence._column_pair_dominance(batch)
        monkeypatch.undo()
        self.assert_pairs_match(batch, got)
        # each column is packed once per chunk
        chunks = [step] * (m // step) + [m % step] * (m % step > 0)
        assert sorted(packed) == sorted(chunks * 3)

    def test_above_the_bit_plane_cap(self, rng):
        # b = 2: the sample and two resamples, counted row by row by sorting
        self.assert_pairs_match(rng.integers(0, 3 * (self.CAP + 1), (
            3, 3, self.CAP + 1)).astype(np.int32))

    def test_ranks_above_the_bit_plane_cap(self, rng):
        # the fan test's uint16 ranks take the same sort kernel
        self.assert_pairs_match(rng.integers(0, 2 * (self.CAP + 1), (
            3, 2, self.CAP + 1)).astype(np.uint16))


class TestPairCounts:
    """`dependence._pair_counts`, the one loop of every dominance count,
    against the quadratic oracle: lists that mix one-row and many-row
    columns, repeated, reversed and self pairs, on both sides of the
    bit-plane cap and across chunk ends."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_the_oracle(self, data):
        n = data.draw(st.sampled_from(RANK_NS), label="n")
        m = data.draw(st.integers(1, 7), label="m")
        dtype = data.draw(st.sampled_from((float, np.int64, np.uint16)))
        # values below n, 2n or 3n, so that most rows tie
        bound = data.draw(st.sampled_from((1, 2, 3)), label="bound")
        rows = data.draw(st.lists(st.sampled_from((1, m)), min_size=1,
                                  max_size=4), label="rows")
        column = st.integers(0, len(rows) - 1)
        pairs = data.draw(st.lists(st.tuples(column, column), min_size=1,
                                   max_size=6), label="pairs")
        # the sort path, or chunks of one or two rows
        path = data.draw(st.sampled_from(("sorted", "small chunks",
                                          "default")), label="path")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        columns = [rng.integers(0, bound * n, (r, n)).astype(dtype)
                   for r in rows]
        if dtype is not np.uint16:
            # negative values for the signed and float routes
            columns = [c - n for c in columns]
        out = np.empty((len(pairs), m, n), dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            if path == "sorted":
                patch.setattr(dependence, "_BITPLANE_MAX_N", n - 1)
            elif path == "small chunks":
                patch.setattr(dependence, "_CHUNK_WORDS", n * -(-n // 64))
            dependence._pair_counts(columns, pairs, out)
        oracle = {}
        for p, (a, b) in enumerate(pairs):
            for r in range(m):
                # a one-row column counts against every row
                ra = min(r, len(columns[a]) - 1)
                rb = min(r, len(columns[b]) - 1)
                key = (a, ra, b, rb)
                if key not in oracle:
                    oracle[key] = dominance_counts_quadratic(columns[a][ra],
                                                             columns[b][rb])
                assert np.array_equal(out[p, r], oracle[key])

    def test_a_fan_count_keeps_at_most_three_planes(self, rng, monkeypatch):
        # B = 200 resamples at n = 500 span 21 chunks; a chunk's three
        # planes are released before the next chunk is packed
        batch = rng.integers(0, 500, (3, 201, 500)).astype(np.uint16)
        live, most = [0], [0]
        below_planes = dependence._below_planes

        def released():
            live[0] -= 1

        def spy(v):
            planes = below_planes(v)
            live[0] += 1
            most[0] = max(most[0], live[0])
            weakref.finalize(planes, released)
            return planes

        monkeypatch.setattr(dependence, "_below_planes", spy)
        got = dependence._column_pair_dominance(batch)
        monkeypatch.undo()
        assert most[0] <= 3 and live[0] == 0
        assert np.array_equal(got, column_pair_dominance_argsort(batch))


class TestSharedPlanes:
    """A `PseudoObservations` pass packs each column once and counts its
    tied pairs once for all of its blocks (`dependence._Grid`), and the
    grid counts only the operands of the block that it handed out."""

    @staticmethod
    def spy(monkeypatch, name) -> list:
        # the first operand of every call of dependence.<name>
        seen = []
        original = getattr(dependence, name)

        def spy(v, *args, **kwargs):
            seen.append(v.shape)
            return original(v, *args, **kwargs)

        monkeypatch.setattr(dependence, name, spy)
        return seen

    @pytest.mark.parametrize("entry", ["tau", "ekds", "hD"])
    def test_each_pass_packs_each_column_once(self, rng, monkeypatch, entry):
        # d = 40, n = 500: 18 blocks, which read 40 rows packed in 5 chunks
        # and one tie count per column
        obs = pseudo_observations(Dataset(
            rng.normal(size=(500, 40)), tuple(f"c{i}" for i in range(40))))
        hoeffding_d_max(obs.n)  # counts its own ranks, outside any pass
        packed = self.spy(monkeypatch, "_below_planes")
        sorted_rows = self.spy(monkeypatch, "_tied_pairs")
        if entry == "hD":
            got = dependence_matrix(obs, "hD").values
        else:
            got = getattr(obs, entry)
        monkeypatch.undo()
        assert sum(rows for rows, _ in packed) == 40 and len(packed) == 5
        assert sorted_rows == [(40, 500)]
        # the same values as the whole grid counted outside a pass
        x = np.broadcast_to(obs.u.T[:, None], (40, 40, 500))
        y = np.broadcast_to(obs.u.T, (40, 40, 500))
        i, j = np.triu_indices(40, 1)
        if entry == "tau":
            assert np.array_equal(got[i, j], kendall_tau(x, y)[i, j])
        elif entry == "ekds":
            assert got.lattice.shape == (780, 499)
            assert np.array_equal(
                got.lattice, empirical_kendall_distribution(x, y).lattice[i, j])
        else:
            assert np.array_equal(got[i, j], np.maximum(
                hoeffding_d_max(obs.n) - hoeffding_d(x, y)[i, j], 0.0))

    def test_no_grid_outside_a_pass(self, rng):
        obs = pseudo_observations(Dataset(rng.normal(size=(40, 4)),
                                          tuple("abcd")))
        grids = []
        obs.pairwise(lambda x, y: grids.append(dependence._GRID.get())
                     or kendall_tau(x, y))
        assert grids and grids[0] is not None
        assert all(grid is grids[0] for grid in grids)
        assert dependence._GRID.get() is None
        # a pass that raises: NaN before its ranks, a statistic inside it
        u = obs.u.copy()
        u[7, 2] = np.nan
        with pytest.raises(DataError, match="NaN"):
            PseudoObservations(u, obs.columns).tau
        assert dependence._GRID.get() is None
        small = pseudo_observations(Dataset(rng.normal(size=(4, 3)),
                                            tuple("abc")))
        with pytest.raises(DataError, match="at least 5"):
            small.pairwise(hoeffding_d)
        assert dependence._GRID.get() is None

    def test_two_threads_get_the_serial_results(self, rng, monkeypatch):
        # both passes hold their grids at once: each of the 11 blocks of
        # one waits for a block of the other.  The threads run the pass of
        # `obs.tau` directly: Python 3.11's cached_property lets one thread
        # at a time compute a property, on any instance.
        monkeypatch.setattr(dependence, "_BLOCK_CELLS", 1)
        samples = [Dataset(rng.normal(size=(200, 12)),
                           tuple(f"c{i}" for i in range(12))) for _ in "ab"]
        samples[1] = Dataset(np.round(samples[1].values, 1),
                             samples[1].columns)
        serial = [pseudo_observations(data).tau for data in samples]
        barrier = threading.Barrier(2, timeout=60)
        own = []  # whether a block met its own pass's grid

        def kendall_tau_in_step(x, y):
            barrier.wait()
            own.append(np.shares_memory(dependence._GRID.get().ranks, x))
            return kendall_tau(x, y)

        results = [None, None]

        def run(k):
            obs = pseudo_observations(samples[k])
            results[k] = dependence._square(
                obs.pairwise(kendall_tau_in_step), obs.d)

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(got is not None and got.tobytes() == want.tobytes()
                   for got, want in zip(results, serial))
        assert len(own) == 22 and all(own)

    def test_copied_operands_pack_their_own_rows(self, rng, monkeypatch):
        # copies of a block's operands are not the block's: they are
        # counted as any operands are, to the same bits as the pass's tau
        monkeypatch.setattr(dependence, "_BLOCK_CELLS", 1)
        obs = pseudo_observations(Dataset(
            np.round(rng.normal(size=(200, 12)), 1),
            tuple(f"c{i}" for i in range(12))))
        want = obs.tau
        packed = self.spy(monkeypatch, "_below_planes")
        rows = []

        def copied(x, y):
            rows.append(x.size // x.shape[-1])
            return kendall_tau(x.copy(), y.copy())

        got = dependence._square(obs.pairwise(copied), obs.d)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()
        # the pass packs its 12 columns, each of the 11 blocks both of its
        # operands' rows
        assert len(rows) == 11
        assert sum(r for r, _ in packed) == 12 + 2 * sum(rows)

    def test_block_operands_outside_their_block(self, rng, monkeypatch):
        # a block's operands met in a later block or after the pass are
        # plain operands, counted as the oracle counts them
        monkeypatch.setattr(dependence, "_BLOCK_CELLS", 1)
        obs = pseudo_observations(Dataset(
            np.round(rng.normal(size=(60, 5)), 1), tuple("abcde")))
        kept, later = [], []

        def statistic(x, y):
            if kept:
                later.append(dominance_counts(*kept[-1]))
            kept.append((x, y))
            return kendall_tau(x, y)

        obs.pairwise(statistic)
        assert dependence._GRID.get() is None and len(later) == 3
        after = [dominance_counts(x, y) for x, y in kept]
        for got, (x, y) in zip(later + after[-1:], kept[:-1] + kept[-1:]):
            assert got.shape == x.shape
            for r in np.ndindex(x.shape[:-1]):
                assert np.array_equal(got[r],
                                      dominance_counts_quadratic(x[r], y[r]))
        for got, (x, y) in zip(after, kept):
            assert np.array_equal(got, dominance_counts(x.copy(), y.copy()))

    def test_above_the_bit_plane_cap(self, rng):
        # no planes; each column's tied pairs are still counted once
        n = dependence._BITPLANE_MAX_N + 1
        obs = pseudo_observations(Dataset(np.round(rng.normal(size=(n, 3)),
                                                   1), tuple("abc")))
        for i, j in itertools.combinations(range(3), 2):
            assert obs.tau[i, j] == kendall_tau(obs.u[:, i], obs.u[:, j])
        assert dependence._Grid.of(np.zeros((2, n), np.uint16)).planes is None

    def test_planes_within_the_budget(self):
        # the planes of all columns take at most _GRID_WORDS words: d = 262
        # columns of n = 500 points (4000 words each) fit, 263 do not
        budget = dependence._GRID_WORDS
        assert 262 * 500 * 8 <= budget < 263 * 500 * 8
        ranks = (2 * np.arange(500, dtype=np.uint16))[::-1]
        assert dependence._Grid.of(np.tile(ranks, (262, 1))).planes.shape == (
            262, 500, 8)
        assert dependence._Grid.of(np.tile(ranks, (263, 1))).planes is None


class TestRankDomain:
    """uint16 rank batches with ties, packed in the rank domain (radix
    sort, tie starts from one histogram), against the argsort packer that
    they replaced.  Ranks stay below n, 2n or 3n: the bounds of an untied
    sample, of a tied one and of values off the rank grid."""

    @given(st.sampled_from(RANK_NS), st.sampled_from((1, 2, 3)),
           st.sampled_from((-1, 0, 1)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_the_argsort_packer(self, n, bound, extra, seed):
        # rows on both sides of a chunk's end
        m = max(1, chunk_rows(n) + extra)
        batch = np.random.default_rng(seed).integers(
            0, bound * n, (3, m, n)).astype(np.uint16)
        got = dependence._column_pair_dominance(batch)
        assert got.dtype == np.int32
        assert np.array_equal(got, column_pair_dominance_argsort(batch))

    @given(st.sampled_from(RANK_NS), st.sampled_from((1, 2, 3)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_one_packer_for_ranks_and_floats(self, n, bound, seed):
        v = np.random.default_rng(seed).integers(0, bound * n, (5, n)).astype(
            np.uint16)
        planes = dependence._below_planes(v)
        assert np.array_equal(planes, below_planes_argsort(v))
        assert np.array_equal(planes, dependence._below_planes(v.astype(float)))
        # float rows in v's order and ties, the extremes tied at +-inf
        f = np.where(v == 0, -np.inf, np.where(v == v.max(), np.inf, v / 7))
        assert np.array_equal(planes, below_planes_argsort(f))
        assert np.array_equal(planes, dependence._below_planes(f))

    def test_top_of_the_uint16_range(self, rng):
        v = rng.integers(65530, 65536, (4, 70)).astype(np.uint16)
        assert np.array_equal(dependence._below_planes(v),
                              below_planes_argsort(v))


class TestBatches:
    @pytest.mark.parametrize("n", [40, 701, dependence._BITPLANE_MAX_N + 1])
    @pytest.mark.parametrize("ties", [False, True])
    def test_rows_equal_single_calls(self, rng, n, ties):
        # (2, 3, n) batches on both sides of the bit-plane kernel's cap
        x, y = rng.normal(size=(2, 2, 3, n))
        if ties:
            x, y = np.round(x), np.round(y)
        tau, hd = kendall_tau(x, y), hoeffding_d(x, y)
        ekds = empirical_kendall_distribution(x, y)
        dev = independence_deviation(ekds)
        assert tau.shape == hd.shape == dev.shape == (2, 3)
        assert ekds.lattice.shape == (2, 3, n - 1) and ekds.n == n
        for r in np.ndindex(2, 3):
            ekd = empirical_kendall_distribution(x[r], y[r])
            assert np.array_equal(ekds[r].lattice, ekd.lattice)
            assert np.array_equal(ekds[r].lattice, lattice_cdf(
                dominance_counts_quadratic(x[r], y[r])[None])[0])
            assert tau[r] == kendall_tau(x[r], y[r])
            assert hd[r] == hoeffding_d(x[r], y[r])
            assert dev[r] == independence_deviation(ekd)
        assert isinstance(kendall_tau(x[0, 0], y[0, 0]), float)
        assert isinstance(hoeffding_d(x[0, 0], y[0, 0]), float)
        # twice the average ranks, the pairwise grid's operands, give the
        # bits of the floats
        for dtype in (np.uint16, np.int64):
            rx, ry = ((2 * dependence._average_ranks(v)).astype(dtype)
                      for v in (x, y))
            assert kendall_tau(rx, ry).tobytes() == tau.tobytes()
            assert hoeffding_d(rx, ry).tobytes() == hd.tobytes()
            assert np.array_equal(
                empirical_kendall_distribution(rx, ry).lattice, ekds.lattice)


class TestEmpiricalKendallDistribution:
    def test_comonotone_n3(self):
        x = np.array([1.0, 2, 3])
        np.testing.assert_allclose(
            kendall_scores(empirical_kendall_distribution(x, x)),
            [0.0, 0.5, 1.0])

    def test_countermonotone_all_zero(self):
        x = np.arange(10.0)
        w = kendall_scores(empirical_kendall_distribution(x, -x))
        assert np.all(w == 0)

    def test_n2_values(self):
        w = kendall_scores(empirical_kendall_distribution([1.0, 2], [5.0, 7]))
        assert set(w).issubset({0.0, 1.0})

    def test_range_and_symmetry(self, rng):
        x, y = rng.normal(size=60), rng.normal(size=60)
        a = empirical_kendall_distribution(x, y)
        b = empirical_kendall_distribution(y, x)
        w = kendall_scores(a)
        assert np.all((w >= 0) & (w <= 1))
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
            return (step_cdf(a, t) - step_cdf(b, t)) ** 2

        knots = np.unique(np.concatenate(
            [[0.0], kendall_scores(a), kendall_scores(b), [1.0]]))
        oracle = sum(quad(integrand, lo, hi, limit=100)[0]
                     for lo, hi in zip(knots[:-1], knots[1:]) if hi > lo)
        assert kendall_dist_distance(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_symmetry(self, rng):
        a = empirical_kendall_distribution(rng.normal(size=20), rng.normal(size=20))
        b = empirical_kendall_distribution(rng.normal(size=20), rng.normal(size=20))
        assert kendall_dist_distance(a, b) == kendall_dist_distance(b, a)

    @pytest.mark.parametrize("n", [2, 3, 64, 500])
    def test_batches_give_the_bits_of_single_calls(self, rng, n):
        # rows of (4, 5) batches, and one distribution against a batch
        x, y = np.round(rng.normal(size=(2, 2, 4, 5, n)), 1)
        a = empirical_kendall_distribution(x[0], y[0])
        b = empirical_kendall_distribution(x[1], y[1])
        got = kendall_dist_distance(a, b)
        assert got.shape == (4, 5) and got.dtype == np.float64
        for i, j in itertools.product(range(4), range(5)):
            one = kendall_dist_distance(a[i, j], b[i, j])
            assert type(one) is float and got[i, j] == one
        against = kendall_dist_distance(a[1, 2], b)
        assert [against[i, j] for i, j in np.ndindex(4, 5)] == [
            kendall_dist_distance(a[1, 2], b[i, j]) for i, j in np.ndindex(4, 5)]

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
            return (0.5 * (step_cdf(a, t) + step_cdf(b, t))
                    - step_cdf(c, t)) ** 2

        knots = np.unique(np.concatenate(
            [[0.0], *map(kendall_scores, (a, b, c)), [1.0]]))
        oracle = sum(quad(integrand, lo, hi, limit=100)[0]
                     for lo, hi in zip(knots[:-1], knots[1:]) if hi > lo)
        assert mean_distance_to(a, b, c) == pytest.approx(oracle, abs=1e-9)


class TestLattice:
    @pytest.mark.parametrize("n", [2, 3, 30, 100, 500])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_the_float_grid_reference(self, rng, n, ties):
        def pair():
            x, y = rng.normal(size=n), rng.normal(size=n)
            if ties:
                x, y = np.round(x), np.round(y)
            return (empirical_kendall_distribution(x, y),
                    kendall_scores_quadratic(x, y))

        for _ in range(5):
            (a, wa), (b, wb), (c, wc) = pair(), pair(), pair()
            assert kendall_dist_distance(a, b) == pytest.approx(
                kendall_dist_distance_grid(wa, wb), abs=1e-12)
            assert mean_distance_to(a, b, c) == pytest.approx(
                mean_distance_to_grid(wa, wb, wc), abs=1e-12)
            assert independence_deviation(a) == pytest.approx(
                independence_deviation_grid(wa), abs=1e-12)

    def test_cdf_is_the_lattice_count(self, rng):
        a = empirical_kendall_distribution(rng.normal(size=40),
                                           rng.normal(size=40))
        k = np.arange(39)
        assert a.lattice.dtype == np.int64
        assert np.array_equal(a.lattice, np.rint(step_cdf(a, k / 39) * 40))

    def test_single_score_rejected(self):
        with pytest.raises(DataError, match=r"n >= 2 points .* got n = 1"):
            KendallDistribution(np.zeros(0, dtype=np.int64), 1)
        with pytest.raises(DataError, match="at least 2 observations"):
            empirical_kendall_distribution([0.5], [0.5])

    def test_nan_scores_rejected(self):
        # a lattice holds integer counts: no NaN, no fraction of a point
        for lattice in ([np.nan, 1.0], [0.0, 1.0], [0.5, 1.0]):
            with pytest.raises(DataError, match="must be integers that rise"):
                KendallDistribution(np.array(lattice), 3)

    @pytest.mark.parametrize("lattice, n, match", [
        ([0, 1], 2, "n - 1 entries"),
        ([[0, 1]], 2, "n - 1 entries"),
        (3, 4, "n - 1 entries"),
        ([1, 3, 2], 4, "rise from 0 to at most 4"),
        ([-1, 0, 2], 4, "rise from 0"),
        ([0, 2, 5], 4, "at most 4"),
    ])
    def test_constructor_rejects_what_no_ekd_has(self, lattice, n, match):
        with pytest.raises(DataError, match=match):
            KendallDistribution(np.array(lattice), n)

    def test_constructor_keeps_an_int64_view(self):
        lattice = np.array([[0, 1, 3], [1, 2, 4]], dtype=np.int64)
        ekd = KendallDistribution(lattice, 4)
        assert np.shares_memory(ekd.lattice, lattice)
        assert np.array_equal(ekd[1].lattice, lattice[1])
        assert np.array_equal(kendall_scores(ekd[1]),
                              [0, 1 / 3, 2 / 3, 2 / 3])
        assert KendallDistribution([1, 1], 3).lattice.dtype == np.int64
        for index in (np.s_[0, 1], np.s_[:, 2], np.s_[..., :2]):
            with pytest.raises(IndexError, match="batch axes"):
                ekd[index]


class TestIndependenceDeviation:
    def test_matches_quadrature_oracle(self, rng):
        x, y = rng.uniform(size=35), rng.uniform(size=35)
        ekd = empirical_kendall_distribution(x, y)

        def integrand(t):
            return (step_cdf(ekd, t) - independence_kendall_cdf(t)) ** 2

        knots = np.unique(np.concatenate([[0.0], kendall_scores(ekd), [1.0]]))
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

        def integrand(t):
            ecdf = np.searchsorted(w, t, side="right") / n
            return (ecdf - independence_kendall_cdf(t)) ** 2

        knots = np.concatenate([[0.0], w, [1.0]])
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
        assert matrix_entry(m, "a", "b") == pytest.approx(0.0, abs=1e-12)

    def test_independent_entry_near_one_kt(self):
        r = np.random.default_rng(99)
        data = Dataset(r.uniform(size=(100_000, 2)), ("a", "b"))
        assert matrix_entry(dependence_matrix(data, "kt"), "a",
                            "b") == pytest.approx(1.0, abs=0.02)

    def test_symmetric_zero_diag_all_kinds(self, rng):
        data = Dataset(rng.normal(size=(60, 4)), tuple("abcd"))
        for kind in ("kt", "hD", "kind"):
            m = dependence_matrix(data, kind)
            assert np.allclose(m.values, m.values.T)
            assert np.all(np.diag(m.values) == 0)
            assert np.all(m.values >= 0)
            assert m.kind == kind

    def test_hd_needs_five_rows(self):
        # D_max(4) divides by zero; the matrix is a data error instead
        data = Dataset(np.array([[1.0, 2, 3], [2, 1, 4], [3, 4, 1], [4, 3, 2]]),
                       tuple("abc"))
        with pytest.raises(DataError, match="at least 5 observations"):
            dependence_matrix(data, "hD")

    def test_ekd_of_one_column_rejected(self, rng):
        obs = pseudo_observations(Dataset(rng.normal(size=(20, 3)), tuple("abc")))
        with pytest.raises(DataError, match="two distinct columns"):
            pair_ekd(obs, "b", "b")

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


class TestContainers:
    def test_array_containers_compare_and_hash_by_identity(self, rng):
        data = Dataset(rng.normal(size=(30, 3)), ("a", "b", "c"))
        obs = pseudo_observations(data)
        pairs = [
            (data, Dataset(data.values, data.columns)),
            (obs, pseudo_observations(Dataset(data.values, data.columns))),
            (pair_ekd(obs, "a", "b"), pair_ekd(obs, "a", "c")),
            (dependence_matrix(data), dependence_matrix(data)),
            (CharacterMatrix(("x", "y"), [[0, 1], [1, 0]]),
             CharacterMatrix(("x", "y"), [[0, 1], [1, 0]])),
        ]
        for a, b in pairs:
            assert (a == a) is True and (a == b) is False and (a != b) is True
            assert len({a, a, b}) == 2


class TestCsvIngestion:
    def test_roundtrip(self, tmp_path, rng):
        data = Dataset(rng.normal(size=(10, 3)), ("a", "b", "c"))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.columns == data.columns
        np.testing.assert_array_equal(back.values, data.values)

    def test_byte_order_mark_dropped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with U+FEFF
        path = tmp_path / "excel.csv"
        path.write_bytes("a,b,c\n1,2,3\n4,5,6\n7,8,0\n".encode("utf-8-sig"))
        for source in (path, io.StringIO(path.read_text(encoding="utf-8"))):
            data = Dataset.from_csv(source)
            assert data.columns == ("a", "b", "c")
            assert data.values[2, 2] == 0.0

    def test_bad_cells(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, message in [("a,b\n1,2\n3,x\n4,5\n", "non-numeric cell"),
                              ("a,b\n1,2\n3,4#5\n6,7\n", "non-numeric cell"),
                              ("a,b\n1,2\n3\n4,5\n", "ragged CSV rows")]:
            path.write_text(text)
            with pytest.raises(DataError, match=message):
                Dataset.from_csv(path)

    def test_clean_body_is_read_in_one_call(self, monkeypatch):
        # whitespace, exponents and blank lines need no cell-by-cell pass
        text = "a, b\n 1.5e-3 ,2E+2\n\n-7,\t.5 \n3.,4\r\n"

        def refuse(text):
            raise AssertionError("read cell by cell")

        monkeypatch.setattr(dependence, "_csv_cells", refuse)
        data = Dataset.from_csv(io.StringIO(text))
        assert data.columns == ("a", "b")
        assert data.values.tolist() == [[0.0015, 200.0], [-7.0, 0.5],
                                        [3.0, 4.0]]

    numbers = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.6e}".format),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.25g}".format),
        st.integers(-10**20, 10**20).map(str),
        st.sampled_from([".5", "5.", "+1", "-0", "1E-3", "\xa03"]))
    # cells that Python's float reads only in part, or not at all
    odd = st.sampled_from(["1_000", '"2.5"', "x", "", "1e400", "0x10", "nan",
                           "1 2", "7#1"])
    pads = st.sampled_from(["", " ", "\t "])

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_float_of_every_cell(self, d, data):
        # any body, now and then with a ragged row: the same values as
        # Python's float of each cell, or the same error
        lines = [",".join("abc"[:d]) + "\n"]
        for _ in range(data.draw(st.integers(3, 6))):
            width = data.draw(st.sampled_from([d] * 18 + [d + 1, d - 1]))
            cells = data.draw(st.sampled_from([self.numbers] * 9 + [self.odd]))
            lines.append(",".join(
                data.draw(self.pads) + data.draw(cells) + data.draw(self.pads)
                for _ in range(width))
                + data.draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\n\n",
                                                           "\n  \n"])))
        text = "".join(lines)
        try:
            want = dataset_from_csv_cells(text)
        except (DataError, csv.Error) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                Dataset.from_csv(io.StringIO(text))
            return
        got = Dataset.from_csv(io.StringIO(text))
        assert got.columns == want.columns
        assert got.values.tobytes() == want.values.tobytes()
