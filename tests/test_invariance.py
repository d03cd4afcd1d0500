"""Invariances every structure estimator inherits from the method.

The estimators see the data only through column ranks and column labels,
so strictly increasing margin transforms and a permutation of the columns
that keeps each label with its column cannot change the estimated
structure; the kagg estimators also never look at the row order.  The
trees are compared as clade sets: the linkage builders write children in
input-column order, so equal trees can differ as Newick text.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nactree.collapse import ESTIMATOR_NAMES, KAGG, parse_estimator
from nactree.dependence import Dataset
from nactree.nac import sample
from nactree.study import benchmark_configs, estimate

KAGG_NAMES = tuple(name for name in ESTIMATOR_NAMES
                   if parse_estimator(name)[1] == KAGG)
MODELS = {4: benchmark_configs()["fig7_left"].nac,
          5: benchmark_configs()["fig9_right"].nac}
INCREASING = (np.exp, np.log, lambda x: x ** 3, lambda x: 5.0 * x - 2.0,
              np.arctan)
N = 40
BOOT = 5

samples = st.builds(
    lambda d, seed: Dataset(sample(MODELS[d], N, seed),
                            MODELS[d].tree.leaf_labels),
    st.sampled_from(sorted(MODELS)), st.integers(0, 2**32 - 1))


def clades(data, name):
    threshold = 0.075 if parse_estimator(name)[1] == KAGG else 0.05
    tree = estimate(data, name, threshold, boot=BOOT, seed=11)
    return {tree.leaf_set(v) for v in tree.internal_nodes}


def assert_same_clades(a, b, names=ESTIMATOR_NAMES):
    for name in names:
        assert clades(a, name) == clades(b, name), name


@given(samples)
@settings(max_examples=10, deadline=None)
def test_increasing_margin_transforms(data):
    moved = np.column_stack([INCREASING[j % len(INCREASING)](data.values[:, j])
                             for j in range(data.d)])
    assert_same_clades(data, Dataset(moved, data.columns))


@given(samples, st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_column_permutation_moves_labels(data, rnd):
    perm = list(range(data.d))
    rnd.shuffle(perm)
    permuted = Dataset(data.values[:, perm], [data.columns[j] for j in perm])
    assert_same_clades(data, permuted)


@given(samples, st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_row_permutation_kagg(data, rnd):
    rows = list(range(data.n))
    rnd.shuffle(rows)
    assert_same_clades(data, Dataset(data.values[rows], data.columns),
                       KAGG_NAMES)
