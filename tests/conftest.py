import numpy as np
import pytest

from nactree import dependence
from nactree.trees import RootedTree

# point counts of the rank-domain tests: both sides of the word edges, one
# and two points, and the fan test's largest bundled sample size
RANK_NS = (1, 2, 63, 64, 65, 500)


def chunk_rows(n):
    """Rows per chunk of `dependence._column_pair_dominance` at n points:
    `dependence._pair_counts` spreads the words of two columns' chunk over
    the fan test's three many-row columns."""
    return max(1, 2 * dependence._CHUNK_WORDS // 3 // (n * -(-n // 64)))


def negative_sample():
    """n = 300 points of four columns that no nested Archimedean copula
    describes: B follows A, C is close to -A (tau(A, C) = -0.83) and D is
    independent of all three."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=300)
    b = a + 0.5 * rng.normal(size=300)
    c = -a + 0.3 * rng.normal(size=300)
    return dependence.Dataset(
        np.column_stack([a, b, c, rng.normal(size=300)]), tuple("ABCD"))


def random_rooted_tree(labels, rng, fan_bias=0.35):
    """Random rooted tree over the given labels, mixing binary joins with
    multifurcations: built by merging 2..4 random groups at a time."""
    nodes = list(labels)
    while len(nodes) > 1:
        k = 2
        if len(nodes) > 2 and rng.random() < fan_bias:
            k = int(rng.integers(3, min(4, len(nodes)) + 1))
        picks = sorted(rng.choice(len(nodes), size=k, replace=False), reverse=True)
        group = [nodes.pop(i) for i in picks]
        nodes.append(group)
    root = nodes[0]
    if isinstance(root, str):  # single leaf
        return RootedTree.from_nested(root)
    return RootedTree.from_nested(root)


def random_binary_tree(labels, rng):
    return random_rooted_tree(labels, rng, fan_bias=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
