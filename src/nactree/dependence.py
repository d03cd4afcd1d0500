"""Rank-based dependence measures and distance matrices.

Everything here works on ranks, so measures computed on raw data equal the
measures computed on the (unobserved) copula scale.  The module provides
the three pairwise dependence distances used to drive tree building
(Kendall's tau, Hoeffding's D, deviation of the empirical Kendall
distribution from independence), plus the empirical Kendall distribution
itself and the Cramer-von-Mises-type distances between such distributions.

Everything derived from one sample lives on its `PseudoObservations`: the
Kendall tau matrix (`obs.tau`), the empirical Kendall distributions of all
column pairs (`obs.ekds`) and, through `obs.derived`, whatever the
builders and collapse rules compute from it (triple shapes, binary trees,
fan-test p-values).  Each is computed on first use and reused by every
estimator that sees the same sample.  A pairwise statistic runs once per
block of first columns (`obs.pairwise`), on the block's columns and all
later columns as two broadcast operands.  Tau is the mean of the Kendall
distribution, tau = 4 mean(W) - 1 up to tie terms, so the pass that
builds `obs.ekds` also fills `obs.tau` when tau has not been asked for
yet (`kendall_tau` with ``ekd=``): each column pair's dominance counts are
then made once for both.  A sample that asks for tau first counts tau
alone and builds no Kendall distribution.

Kendall's tau, the empirical Kendall distribution, Hoeffding's D and the
fan test's bootstrap all rest on one quadrant count, `dominance_counts`.
Up to a few thousand points per row it packs, for each coordinate, every
point's set of smaller points as uint64 bit planes (a prefix OR over the
sorted order, no n x n comparison) and counts the AND of the two sets
with popcounts.  Larger rows take an O(n log n) sort plus bitwise rank
count.  The three measures and the count take one pair of vectors or a
batch of them, as ``(..., n)`` arrays counted along the last axis.  One
chunk loop, `_pair_counts`, counts every batch: it takes a list of columns
of rows and the column pairs to count, walks the rows in chunks and
packs each column once per chunk (once per call if the column is one
row, as an operand broadcast along the rows is).  So a block of
`PseudoObservations.pairwise` packs each of its columns once, and the
fan test, which counts the pairs (0,1), (0,2) and (1,2) of its resample
batch (`_column_pair_dominance`), packs each column once for its two
pairs.  The one packer, `_below_planes`, works in the rank domain on
uint16 ranks, the fan test's batch and the pairwise grid's twice average
ranks alike, with a radix sort and one histogram per row; it ranks any
other row first.

Ties follow one rule: a point's tie group starts at the number of points
strictly below it.  The packer reads it off the prefix sums of its
histogram, sorted rows off their values (`_tie_starts`).  Tied points are
not below each other in a dominance count, share their average rank
(`_average_ranks`: the pseudo-observations, the pairwise grid, Hoeffding's
D) and make up the tied pairs (`_tied_pairs`) from which Kendall's tau
gets its discordant pairs, so that tau takes one dominance count whether
or not the data tie.  NaN has no place in an order and is rejected;
+-inf ranks like any other value.

Every Cramer-von-Mises distance, the fan test's included, reads a Kendall
distribution of n points as one integer vector on its lattice k/(n-1).
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

KT = "kt"
HD = "hD"
KIND = "kind"
MATRIX_KINDS = (KT, HD, KIND)


class DataError(ValueError):
    """Raised for malformed datasets or matrix inputs."""


# --------------------------------------------------------------------------- #
# Data containers
# --------------------------------------------------------------------------- #


# The containers holding arrays compare and hash by identity (eq=False): a
# generated == would ask an array for its truth value and raise.
@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x d sample with named columns and no missing cells."""

    values: np.ndarray
    columns: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))
        if values.ndim != 2:
            raise DataError("dataset must be a 2-d array")
        if values.shape[0] < 3:
            raise DataError("dataset needs at least 3 rows")
        if values.shape[1] != len(self.columns):
            raise DataError("column name count does not match data width")
        if len(set(self.columns)) != len(self.columns):
            raise DataError("duplicate column names")
        # names a Newick reader gives back: it splits at whitespace and (),:;
        bad = [repr(c) for c in self.columns
               if not (isinstance(c, str) and re.fullmatch(r"[^\s(),:;]+", c))]
        if bad:
            raise DataError("column names must be non-empty and hold no "
                            f"whitespace or any of '(),:;': {', '.join(bad)}")
        if not np.all(np.isfinite(values)):
            raise DataError("dataset contains missing or non-finite cells")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_csv(cls, path_or_buffer) -> "Dataset":
        """Read a comma-separated file with a header row of column names.

        One `np.loadtxt` call parses the body; its values equal Python's
        ``float`` of each cell, surrounding whitespace and exponents
        included.  A body that it cannot read as one table (ragged rows,
        quotes, cells such as ``1_000`` that only ``float`` reads) is read
        again row by row with `csv` and cell by cell with ``float``, which
        gives the same values or names the fault.
        """
        if hasattr(path_or_buffer, "read"):
            text = path_or_buffer.read()
        else:
            with open(path_or_buffer, "r", encoding="utf-8") as fh:
                text = fh.read()
        # the byte-order mark that spreadsheets write ahead of UTF-8
        text = text.removeprefix("\ufeff")
        source = io.StringIO(text)
        header = next(filter(None, csv.reader(source)), None)
        body = source.read()
        try:
            # an empty body has no table to give
            values = (np.loadtxt(io.StringIO(body), delimiter=",",
                                 comments=None, ndmin=2)
                      if body.strip() else None)
        except ValueError:
            values = None
        if header is None or values is None or values.shape[1] != len(header):
            header, values = _csv_cells(text)
        return cls(values, tuple(name.strip() for name in header))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.values:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _csv_cells(text: str) -> tuple:
    """The header and the float cells of CSV ``text``, row by row and cell
    by cell, or the `DataError` that names what is wrong with them."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if len(rows) < 2:
        raise DataError("CSV needs a header row and data rows")
    if any(len(row) != len(rows[0]) for row in rows[1:]):
        raise DataError("ragged CSV rows")
    try:
        return rows[0], np.array([[float(cell) for cell in row]
                                  for row in rows[1:]])
    except ValueError as exc:
        raise DataError(f"non-numeric cell in CSV: {exc}") from None


@dataclass(frozen=True, eq=False)
class PseudoObservations:
    """Column-wise normalized ranks, strictly inside (0,1).

    Also the owner of the work derived from the sample, each piece
    computed on first use and kept for the life of the object (``u`` must
    not be modified in place).
    """

    u: np.ndarray
    columns: tuple
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]

    @cached_property
    def index(self) -> dict:
        """Column label -> column position."""
        return {lab: i for i, lab in enumerate(self.columns)}

    def column(self, label) -> np.ndarray:
        return self.u[:, self.index[label]]

    @cached_property
    def tau(self) -> np.ndarray:
        """Kendall tau-a matrix of the columns (zero diagonal).  Asked
        before `ekds`, it counts tau alone; else the `ekds` pass has
        filled it."""
        return _square(self.pairwise(kendall_tau), self.d)

    @cached_property
    def ekds(self) -> list:
        """Empirical Kendall distributions of the column pairs (i, j > i)
        in `itertools.combinations` order, batched per block of first
        columns as `pairwise` returns them.

        If `tau` has not been computed yet, the same pass fills it: each
        block's distributions give `kendall_tau` its concordant pairs, so
        that every column pair is counted once for both."""
        fill = "tau" not in self.__dict__
        ekds, taus = [], []
        for x, y, pairs in self._blocks():
            grid = empirical_kendall_distribution(x, y)
            ekds.append(grid[pairs])
            if fill:
                taus.append(kendall_tau(x, y, ekd=grid)[pairs])
        if fill:
            # where the cached property `tau` keeps its value
            self.__dict__["tau"] = _square(taus, self.d)
        return ekds

    @cached_property
    def _ekd_starts(self) -> list:
        # the combinations index of each block's first pair
        return list(itertools.accumulate(
            (len(e.lattice) for e in self.ekds[:-1]), initial=0))

    def pairwise(self, statistic) -> list:
        """``statistic(x, y)`` of every column pair (i, j > i): one value
        per block of first columns, holding the block's pairs in
        `itertools.combinations` order."""
        return [statistic(x, y)[pairs] for x, y, pairs in self._blocks()]

    def _blocks(self):
        """The operands of every block of first columns, as ``(x, y,
        pairs)``: ``statistic(x, y)[pairs]`` holds the block's column pairs
        in `itertools.combinations` order.

        The columns are twice the average ranks of ``u``'s columns, uint16
        while 2n < 2^16: integers that order and tie as ``u`` does.  The
        block [a, a + k) gets its columns as ``x``, broadcast along the
        second axis, and the columns after a as ``y``, broadcast along the
        first, so that the kernel packs each column once per call.  k is
        set so that a call holds about ``_BLOCK_CELLS`` count cells; the
        pairs (i, j <= i) of its grid are computed and dropped.
        """
        if np.isnan(self.u).any():  # ranked, NaN would pass as the largest
            raise DataError("pseudo-observations with NaN have no ranks")
        d, n = self.d, self.n
        cols = (2 * _average_ranks(self.u.T)).astype(
            np.uint16 if 2 * n < 1 << 16 else np.int64)
        a = 0
        while a < d - 1:
            m = d - 1 - a
            k = min(m, max(1, _BLOCK_CELLS // (m * n)))
            yield (np.broadcast_to(cols[a:a + k, None], (k, m, n)),
                   np.broadcast_to(cols[a + 1:], (k, m, n)),
                   np.triu_indices(k, 0, m))
            a += k

    def derived(self, key: tuple, compute):
        """The value stored under ``key``, made by ``compute()`` on first
        use.  The key names everything besides the sample that the value
        depends on (a method, a resample count, a seed), so two callers
        share a value exactly when they would compute the same one."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def ekd(self, a, b) -> KendallDistribution:
        """Empirical Kendall distribution of the column pair (a, b)."""
        i, j = sorted((self.index[a], self.index[b]))
        if i == j:
            raise DataError(f"an EKD needs two distinct columns, got {a!r}")
        pair = pair_index(i, j, self.d)
        block = bisect.bisect_right(self._ekd_starts, pair) - 1
        return self.ekds[block][pair - self._ekd_starts[block]]

    def check_labels(self, labels):
        """Raise `DataError` naming those of ``labels`` that are no column."""
        unknown = [lab for lab in labels if lab not in self.index]
        if unknown:
            raise DataError("unknown column label(s): "
                            + ", ".join(map(str, unknown)))


def pair_index(i, j, d: int):
    """The `itertools.combinations` index of the column pair (i, j), i < j,
    of d columns: an int, or one per element of arrays ``i`` and ``j``."""
    return i * d - i * (i + 1) // 2 + j - i - 1


def _square(blocks: list, d: int) -> np.ndarray:
    """The symmetric d x d matrix with a zero diagonal that holds the
    values of the `PseudoObservations.pairwise` blocks right of the
    diagonal."""
    out = np.zeros((d, d))
    i, j = np.triu_indices(d, 1)
    # d = 1 has no blocks
    out[i, j] = out[j, i] = np.concatenate([np.zeros(0), *blocks])
    return out


@dataclass(frozen=True, eq=False)
class DependenceMatrix:
    """Symmetric matrix of pairwise dependence distances (small = dependent)."""

    values: np.ndarray
    labels: tuple
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "labels", tuple(self.labels))
        m = self.values
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError("dependence matrix must be square")
        if m.shape[0] != len(self.labels):
            raise DataError("label count does not match matrix size")
        if not np.all(np.isfinite(m)):
            raise DataError("non-finite dependence distance")
        if not np.allclose(m, m.T):
            raise DataError("dependence matrix must be symmetric")
        if np.any(np.diag(m) != 0):
            raise DataError("dependence matrix must have a zero diagonal")

    @property
    def d(self) -> int:
        return len(self.labels)

    def entry(self, a, b) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("," + ",".join(self.labels) + "\n")
            for lab, row in zip(self.labels, self.values):
                fh.write(lab + "," + ",".join(repr(float(x)) for x in row) + "\n")


@dataclass(frozen=True, eq=False)
class KendallDistribution:
    """Empirical Kendall distribution of n points as its `lattice_cdf`
    C[k] = #{W <= k/(n-1)}, k < n - 1, which every Cramer-von-Mises
    distance reads.  A ``(..., n-1)`` lattice is a batch, indexed like an
    array; ``w`` and ``cdf`` read the lattice of one distribution."""

    lattice: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self):
        lattice, n = np.asarray(self.lattice), self.n
        if n < 2 or lattice.ndim == 0 or lattice.shape[-1] != n - 1:
            raise DataError(f"the lattice of n >= 2 points has n - 1 entries, "
                            f"got n = {n} and shape {lattice.shape}")
        if (lattice.dtype.kind not in "iu"
                or np.any(np.diff(lattice, axis=-1, prepend=0, append=n) < 0)):
            raise DataError(f"lattice counts must be integers that rise from "
                            f"0 to at most {n}")
        object.__setattr__(self, "lattice", lattice.astype(np.int64, copy=False))

    @classmethod
    def of_checked(cls, lattice: np.ndarray, n: int) -> KendallDistribution:
        """The distributions of an int64 lattice known to be valid (built
        by `lattice_cdf`, or cut from a checked batch), without the check
        (20-30 us a part, and transient copies of a whole batch)."""
        out = object.__new__(cls)
        out.__dict__.update(lattice=lattice, n=n)
        return out

    def __getitem__(self, index) -> KendallDistribution:
        lattice = self.lattice[index]
        if lattice.shape[-1:] != (self.n - 1,):
            raise IndexError("index the batch axes of Kendall distributions")
        return KendallDistribution.of_checked(lattice, self.n)

    @property
    def w(self) -> np.ndarray:
        """The sorted scores: the i-th is k/(n-1) for the first k with
        C[k] > i, and 1 if there is none."""
        k = np.searchsorted(self.lattice, np.arange(self.n), side="right")
        return k / (self.n - 1)

    def cdf(self, t) -> np.ndarray:
        """Right-continuous empirical CDF evaluated at t."""
        return np.searchsorted(self.w, np.asarray(t), side="right") / self.n


# --------------------------------------------------------------------------- #
# Ranks and pseudo-observations
# --------------------------------------------------------------------------- #


def pseudo_observations(data) -> PseudoObservations:
    """Column ranks scaled by 1/(n+1); ties get average ranks.

    A constant column carries no dependence information (every pair with
    it is tied), so it is rejected rather than placed in a tree.
    """
    if isinstance(data, PseudoObservations):
        return data
    values = data.values
    constant = np.all(values == values[0], axis=0)
    if constant.any():
        names = ", ".join(c for c, k in zip(data.columns, constant) if k)
        raise DataError(f"constant column(s) carry no dependence: {names}")
    n = values.shape[0]
    u = _average_ranks(values.T).T / (n + 1)
    return PseudoObservations(u, data.columns)


def _tie_starts(s: np.ndarray) -> np.ndarray:
    """The position where each entry's tie group starts, along the last
    axis of rows ``s`` in which tied entries are adjacent (sorted rows)."""
    start = np.zeros(s.shape, dtype=np.intp)
    start[..., 1:] = np.where(s[..., 1:] != s[..., :-1],
                              np.arange(1, s.shape[-1]), 0)
    return np.maximum.accumulate(start, axis=-1)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, a tie group's entries each
    getting the mean of its sorted positions: (first + last) / 2 + 1.  The
    order within a tie group does not matter, so the sort need not be
    stable."""
    order = np.argsort(v, axis=-1)
    s = np.take_along_axis(v, order, axis=-1)
    # a tie group ends where it starts in the reversed row
    last = s.shape[-1] - 1 - _tie_starts(s[..., ::-1])[..., ::-1]
    ranks = np.empty(v.shape)
    np.put_along_axis(ranks, order, (_tie_starts(s) + last + 2) / 2, axis=-1)
    return ranks


# --------------------------------------------------------------------------- #
# Kendall's tau
# --------------------------------------------------------------------------- #


def _check_pairs(x: np.ndarray, y: np.ndarray, what: str, min_n: int):
    if x.shape != y.shape or x.ndim == 0:
        raise DataError(f"{what} needs two equal-shape (..., n) arrays")
    if x.shape[-1] < min_n:
        raise DataError(f"{what} needs at least {min_n} observations")
    # +-inf is ordered and ranks like any value; NaN is not
    if any(np.isnan(_distinct_rows(v)).any() for v in (x, y)):
        raise DataError(f"{what} of data with NaN")


def _scalar_or_rows(values: np.ndarray):
    # one value per row of a batch; a float for two vectors
    return float(values) if values.ndim == 0 else values


def _distinct_rows(v: np.ndarray) -> np.ndarray:
    """``v`` cut to length 1 along every batch axis that it is broadcast
    along (stride 0, length > 1): its distinct rows, which broadcast back
    to ``v``."""
    return v[tuple(slice(0, 1) if stride == 0 and size > 1 else slice(None)
                   for stride, size in zip(v.strides[:-1], v.shape[:-1]))]


def _tied_pairs(v: np.ndarray) -> np.ndarray:
    """The number of pairs tied with each other in each row of ``v``: a
    point at sorted position p adds its distance from its tie group's
    start."""
    v = np.sort(v, axis=-1)
    return np.sum(np.arange(v.shape[-1]) - _tie_starts(v), axis=-1)


def kendall_tau(x, y, *, ekd: KendallDistribution | None = None):
    """Kendall's tau-a: (concordant - discordant) / C(n,2), per row of
    equal-shape ``(..., n)`` arrays; a float for two vectors.

    The concordant pairs C are the dominance counts on (x, y); pairs tied
    in either coordinate count as neither, so ties shrink the absolute
    value.  With T_x, T_y and T_xy the pairs tied in x, in y and in both,
    C + D + T_x + T_y - T_xy = C(n,2) in exact integers (Kendall 1945), so
    the score C - D is 2C - C(n,2) + T_x + T_y - T_xy from one count.
    T_xy is counted only if some row pair has ties on both sides, as the
    tied pairs of a joint key of the two average ranks.  Ties and ranks
    are counted on the distinct rows of a broadcast operand.

    ``ekd``, the `empirical_kendall_distribution` of the same ``(x, y)``,
    gives C without a second count: a count c <= n - 1 adds n - 1 - c to
    the sum of its lattice, so C = n(n-1) - sum_k C[k], exactly in int64.
    As mean(W) = C / (n(n-1)), this is tau = 4 mean(W) - 1 (Genest &
    Rivest 1993) plus the tie terms (T_x + T_y - T_xy) / C(n,2).  The
    distribution is taken as given; only its shape is checked.
    """
    x, y = _counting_array(x), _counting_array(y)
    _check_pairs(x, y, "kendall_tau", 2)
    n = x.shape[-1]
    pairs = n * (n - 1) // 2
    if ekd is None:
        concordant = dominance_counts(x, y).sum(axis=-1)
    elif ekd.n != n or ekd.lattice.shape[:-1] != x.shape[:-1]:
        raise DataError(f"kendall_tau of {x.shape} arrays got the Kendall "
                        f"distributions of shape {ekd.lattice.shape[:-1]} "
                        f"and n = {ekd.n}")
    else:
        concordant = n * (n - 1) - ekd.lattice.sum(axis=-1)
    cx, cy = _distinct_rows(x), _distinct_rows(y)
    tied_x, tied_y = _tied_pairs(cx), _tied_pairs(cy)
    score = 2 * concordant - pairs + tied_x + tied_y
    if np.any((tied_x > 0) & (tied_y > 0)):
        # ranks are multiples of 1/2 in [1, n], so the key is exact and
        # equal in two points exactly when both their ranks are
        score -= _tied_pairs(_average_ranks(cx) * (2 * n) + _average_ranks(cy))
    return _scalar_or_rows(score / pairs)


# --------------------------------------------------------------------------- #
# Dominance counts and the empirical Kendall distribution
# --------------------------------------------------------------------------- #


def _smaller_before_counts(r: np.ndarray) -> np.ndarray:
    """counts[k] = #{m < k : r[m] < r[k]} for non-negative integer ranks.

    r[m] < r[k] exactly when, at their highest differing bit b, r[m] has a
    0 and r[k] a 1.  So for each bit b, a stable sort groups the positions
    by r >> (b + 1) in sequence order, and every element with bit b set
    gains the number of zeros at bit b before it in its group.
    """
    n = r.size
    counts = np.zeros(n, dtype=np.int64)
    for b in range(int(r.max()).bit_length()):
        prefix = r >> (b + 1)
        order = np.argsort(prefix, kind="stable")
        zero = (r[order] >> b) & 1 == 0
        zeros = np.cumsum(zero)
        first = _tie_starts(prefix[order])
        one = ~zero
        counts[order[one]] += (zeros - (zeros - zero)[first])[one]
    return counts


# points per row up to which the bit-plane kernel counts; above it the sort
# kernel runs row by row.  Measured per row against the sort kernel: 0.12
# vs 0.95 ms at n = 700, 3.1 vs 6.1 ms at 4000, 11.8 vs 14.2 ms at 8000.
# The planes of a row take about n^2/2 bytes (8 MB at 4000, 32 MB at
# 8000), so beyond 4000 they would buy little speed for much memory.
_BITPLANE_MAX_N = 4000
# count cells (pairs x points) per call of `PseudoObservations.pairwise`.
# At d = 40, n = 500 a call then holds 3 to 7 first columns.  2^15 leaves
# the first seven calls at one first column, and a linkage round took
# about 20 % longer in process; 2^17 raised the peak memory of 12 rounds
# in one process by 1-3 MB.
_BLOCK_CELLS = 1 << 16
# uint64 words of bit planes per column in a chunk of rows of two many-row
# columns, 512 KB: chunks of 2^15 to 2^17 words timed alike at n = 500,
# and 2^17 raised the peak memory of a fig7_right study replicate by
# about 1 MB
_CHUNK_WORDS = 1 << 16
# bit b of a word, for b < 64
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _counting_array(v) -> np.ndarray:
    # integers are compared as they are; anything else as floats
    v = np.asarray(v)
    return v if v.dtype.kind in "iu" else np.asarray(v, dtype=float)


def _sorted_dominance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sort by x ascending with ties in y descending, so that no point is
    # preceded by a point tied with it in x and smaller in y; the dense
    # ranks of y are negated rather than y, which may be an integer type
    # that has no negative of its minimum
    ranks = np.unique(y, return_inverse=True)[1]
    order = np.lexsort((-ranks, x))
    counts = np.empty(x.size, dtype=np.int64)
    counts[order] = _smaller_before_counts(ranks[order])
    return counts


def _below_planes(v: np.ndarray) -> np.ndarray:
    """Bit sets of the points below each point of ``(m, n)`` rows: entry
    [r, i] of the ``(m, n, ceil(n/64))`` uint64 result holds, as bit j % 64
    of word j // 64, every j with v[r, j] < v[r, i].

    Sorted position p puts its point's bit in row p + 1 of an (n + 1)-row
    table whose prefix OR along the rows makes row k the set of the k
    smallest points; no n x n comparison is made.  A point reads the row
    of its number of strictly smaller values, the start of its tie group,
    so tied points do not count as below each other.

    Rows are packed as uint16 ranks: the fan test's (below 3n) and the
    pairwise grid's (at most 2n) as they are, any other row as twice its
    average ranks, which order and tie as it does.  numpy's stable sort of
    16-bit keys is a radix sort, and the prefix sums of one histogram of
    the rows give each value's count of smaller ones in its row.
    """
    if v.dtype != np.uint16:
        v = (2 * _average_ranks(v)).astype(np.uint16)
    m, n = v.shape
    words = -(-n // 64)
    row = np.arange(m)[:, None]
    # "stable" picks the radix sort; the order within a tie group is free
    order = np.argsort(v, axis=1, kind="stable")
    key = v + row * (int(v.max(initial=0)) + 1)
    hist = np.bincount(key.ravel())
    # r * n entries of the earlier rows lie below key, then those of row r
    # below v[r, i]; table row r starts r rows further on
    read = (np.cumsum(hist) - hist)[key] + row
    table = np.zeros((m, n + 1, words), dtype=np.uint64)
    j = np.arange(n)
    # sorted position p sets the bit of point order[r, p] in row p + 1
    cell = row * ((n + 1) * words) + (j + 1) * words
    cell += order >> 6
    table.reshape(-1)[cell.ravel()] = _BITS[j & 63][order].ravel()
    np.bitwise_or.accumulate(table, axis=1, out=table)
    return table.reshape(m * (n + 1), words).take(read.ravel(), axis=0).reshape(
        m, n, words)


def dominance_counts(x, y) -> np.ndarray:
    """c[..., i] = #{j : x[..., j] < x[..., i] and y[..., j] < y[..., i]}.

    ``x`` and ``y`` are equal-shape ``(..., n)`` arrays, counted row by row
    along the last axis; integers stay integers, other values are
    compared as floats.  The rows are counted by `_pair_counts`, plain
    operands as two columns and one pair.  An operand broadcast along a
    batch axis (stride 0, as `PseudoObservations.pairwise` passes both)
    gives one column per distinct block of rows of its `_distinct_rows`,
    and each outer batch index one pair, so each distinct row is packed
    once per call.
    """
    x, y = _counting_array(x), _counting_array(y)
    if x.shape != y.shape:
        raise DataError(f"dominance_counts needs equal shapes, got {x.shape} "
                        f"and {y.shape}")
    shape = x.shape
    cores = [_distinct_rows(x), _distinct_rows(y)]
    if all(core.shape == shape for core in cores):
        # nothing to share: the batch is one axis of rows
        rows = math.prod(shape[:-1])
        columns = [x.reshape(rows, shape[-1]), y.reshape(rows, shape[-1])]
        pairs = [(0, 1)]
    else:
        # a core's block of rows at an outer index is keyed by that index,
        # 0 along the axes that the operand broadcasts
        index, pairs = {}, []
        for outer in np.ndindex(*shape[:-2]):
            pair = []
            for c, core in enumerate(cores):
                key = tuple(i if size > 1 else 0
                            for i, size in zip(outer, core.shape))
                pair.append(index.setdefault((c, key), len(index)))
            pairs.append(pair)
        columns = [cores[c][key] for c, key in index]
        rows = shape[-2]
    out = np.empty((len(pairs), rows, shape[-1]), dtype=np.int64)
    _pair_counts(columns, pairs, out)
    return out.reshape(shape)


def _popcount_rows(planes: np.ndarray, out: np.ndarray) -> None:
    """Write the set bits per point of ``(..., n, words)`` planes to the
    ``(..., n)`` integer array ``out``: a loop over the words adds their
    popcounts, which costs a fraction of a sum over the last axis."""
    counts = np.bitwise_count(planes)
    out[...] = counts[..., 0] if counts.shape[-1] else 0  # n = 0: no words
    for w in range(1, counts.shape[-1]):
        out += counts[..., w]


def _pair_counts(columns: list, pairs, out: np.ndarray) -> None:
    """out[p] = the dominance counts of ``columns[a]`` against
    ``columns[b]``, row by row, for ``(a, b) = pairs[p]``.

    A column is an ``(r, n)`` array whose r is 1 or the m of the
    ``(len(pairs), m, n)`` integer array ``out``; a one-row column counts
    against every row.  Up to ``_BITPLANE_MAX_N`` points the rows are
    walked in chunks of ``2 * _CHUNK_WORDS`` words of planes over the
    many-row columns, never less than two columns' worth.  A column's
    `_below_planes` are packed when first met, for the chunk if it has
    many rows and for the call if it has one; each pair is the popcounts
    of the AND of its two planes.  A chunk's planes are released before
    the next chunk is packed.  Larger rows go one at a time through an
    O(n log n) sort plus bitwise rank count.
    """
    _, m, n = out.shape
    if n > _BITPLANE_MAX_N:
        for p, (a, b) in enumerate(pairs):
            xa, xb = (np.broadcast_to(columns[c], (m, n)) for c in (a, b))
            for r in range(m):
                out[p, r] = _sorted_dominance(xa[r], xb[r])
        return
    many = sum(len(column) > 1 for column in columns)
    step = max(1, 2 * _CHUNK_WORDS // max(max(many, 2) * n * -(-n // 64), 1))
    planes = {}
    for s in range(0, m, step):
        rows = slice(s, s + step)
        # the one-row planes serve the whole call, the others this chunk
        planes = {c: kept for c, kept in planes.items()
                  if len(columns[c]) == 1}
        for p, (a, b) in enumerate(pairs):
            for c in (a, b):
                if c not in planes:
                    column = columns[c]
                    planes[c] = _below_planes(
                        column if len(column) == 1 else column[rows])
            _popcount_rows(np.bitwise_and(planes[a], planes[b]), out[p, rows])


def _column_pair_dominance(batch: np.ndarray) -> np.ndarray:
    """`dominance_counts` of the column pairs (0,1), (0,2) and (1,2) of a
    ``(3, m, n)`` batch of integer ranks, as a ``(3, m, n)`` int32 array
    in that order: one `_pair_counts` call, which packs each column once
    per chunk for its two pairs."""
    out = np.empty(batch.shape, dtype=np.int32)
    _pair_counts(list(batch), ((0, 1), (0, 2), (1, 2)), out)
    return out


def empirical_kendall_distribution(x, y) -> KendallDistribution:
    """Distribution of the pseudo-Kendall scores W_i = #{j != i : x_j < x_i,
    y_j < y_i}/(n-1), one per row of ``(..., n)`` arrays.  The 1/(n-1)
    normalization keeps W_i inside [0,1]; integers stay integers."""
    x, y = np.asarray(x), np.asarray(y)
    _check_pairs(x, y, "empirical Kendall distribution", 2)
    # a lattice CDF of dominance counts needs no check
    return KendallDistribution.of_checked(lattice_cdf(dominance_counts(x, y)),
                                          x.shape[-1])


# --------------------------------------------------------------------------- #
# Cramer-von-Mises distances between Kendall distributions
# --------------------------------------------------------------------------- #


def lattice_cdf(counts: np.ndarray) -> np.ndarray:
    """C[..., k] = #{c <= k} for k < n - 1, per row of (..., n) dominance
    counts: n times the row's EKD on [k/(n-1), (k+1)/(n-1))."""
    *batch, n = counts.shape
    m = math.prod(batch)
    bins = np.bincount((counts.reshape(m, n)
                        + np.arange(0, m * n, n)[:, None]).ravel(),
                       minlength=m * n)
    return np.cumsum(bins.reshape(m, n)[:, :n - 1], axis=1).reshape(
        *batch, n - 1)


def lattice_dot(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_k f[..., k] g[..., k] of two combinations of lattice CDFs,
    exactly in int64 for n below 1 million (8 n^3 < 2^63 bounds every
    such sum of the fan statistic)."""
    return np.einsum("...k,...k->...", f, g)


def _common_size(*ekds: KendallDistribution) -> int:
    sizes = sorted({e.n for e in ekds})
    if len(sizes) != 1:
        raise DataError(f"Kendall distributions of different sizes {sizes}")
    return sizes[0]


def kendall_dist_distance(a: KendallDistribution, b: KendallDistribution):
    """Exact integral of (K_a - K_b)^2 over [0,1] for two distributions of
    the same size n: sum_k (C_a[k] - C_b[k])^2 / (n^2 (n-1)), zero iff
    they are the same step function.  A float for two distributions, and
    one value per pair of broadcast batches, each the float that the two
    distributions alone give."""
    n = _common_size(a, b)
    g = a.lattice - b.lattice
    return _scalar_or_rows(lattice_dot(g, g) / (n * n * (n - 1)))


def mean_distance_to(a: KendallDistribution, b: KendallDistribution,
                     c: KendallDistribution) -> float:
    """Exact integral of ((K_a + K_b)/2 - K_c)^2 over [0,1] for three
    distributions of the same size n:
    sum_k (C_a[k] + C_b[k] - 2 C_c[k])^2 / (4 n^2 (n-1))."""
    n = _common_size(a, b, c)
    g = a.lattice + b.lattice - 2 * c.lattice
    return float(lattice_dot(g, g) / (4 * n * n * (n - 1)))


@lru_cache(maxsize=None)
def _independence_segments(n: int) -> np.ndarray:
    # integral of the independence K over each [k/(n-1), (k+1)/(n-1)], from
    # its antiderivative t^2 (3/4 - ln(t)/2), which tends to 0 at t = 0
    t = np.arange(1, n) / (n - 1)
    return np.diff(0.75 * t**2 - 0.5 * t**2 * np.log(t), prepend=0.0)


def independence_deviation(ekd: KendallDistribution):
    """Exact Cramer-von-Mises distance between an empirical Kendall
    distribution and the independence Kendall distribution K: a float, or
    one value per distribution of a batch.

    On each of the n - 1 lattice segments the empirical CDF is a constant
    f = C[k]/n, and the integral of (f - K)^2 there is f^2/(n-1) minus 2f
    times the segment's integral of K; the integrals of K^2 sum to 17/27.
    """
    n = ekd.n
    f = ekd.lattice / n
    return _scalar_or_rows(np.sum(
        f * (f / (n - 1) - 2.0 * _independence_segments(n)), axis=-1)
        + 17.0 / 27.0)


# --------------------------------------------------------------------------- #
# Hoeffding's D
# --------------------------------------------------------------------------- #


def hoeffding_d(x, y):
    """Hoeffding's D statistic (the classical rank-based estimator built
    from quadrant counts; requires n >= 5), per row of equal-shape
    ``(..., n)`` arrays; a float for two vectors.  Comonotone tie-free
    data gives `hoeffding_d_max`."""
    x, y = _counting_array(x), _counting_array(y)
    _check_pairs(x, y, "hoeffding_d", 5)
    cx, cy = _distinct_rows(x), _distinct_rows(y)
    if (np.any(np.all(cx == cx[..., :1], axis=-1))
            or np.any(np.all(cy == cy[..., :1], axis=-1))):
        raise DataError("hoeffding_d of a constant vector carries no dependence")
    # ranked once per distinct row; the products broadcast them back
    r, s = _average_ranks(cx), _average_ranks(cy)
    c = dominance_counts(x, y)
    n = x.shape[-1]
    d1 = np.sum(c * (c - 1), axis=-1).astype(float)
    d2 = np.sum((r - 1) * (r - 2) * (s - 1) * (s - 2), axis=-1)
    d3 = np.sum((r - 2) * (s - 2) * c, axis=-1)
    num = 30.0 * ((n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3)
    den = float(n * (n - 1) * (n - 2) * (n - 3) * (n - 4))
    return _scalar_or_rows(num / den)


@lru_cache(maxsize=None)
def hoeffding_d_max(n: int) -> float:
    """Largest attainable D at sample size n: the comonotone value."""
    r = np.arange(1.0, n + 1)
    return hoeffding_d(r, r)


# --------------------------------------------------------------------------- #
# Distance matrices
# --------------------------------------------------------------------------- #


def dependence_matrix(data, kind: str = KT) -> DependenceMatrix:
    """Pairwise dependence distances over the columns of ``data``.

    kt   : 1 - tau-hat
    hD   : D_max(n) - D-hat           (D_max = comonotone value at this n)
    kind : rescaled (max deviation - deviation) where deviation is the
           Cramer-von-Mises distance of the empirical Kendall distribution
           from independence

    All three shrink as dependence grows, which is what linkage needs.
    """
    if kind not in MATRIX_KINDS:
        raise DataError(f"unknown dependence matrix kind {kind!r}")
    obs = pseudo_observations(data)
    out = np.zeros((obs.d, obs.d))
    if kind == KT:
        out = 1.0 - obs.tau
        np.fill_diagonal(out, 0.0)
    elif kind == HD:
        dmax = hoeffding_d_max(obs.n)
        out = _square([np.maximum(dmax - d, 0.0)
                       for d in obs.pairwise(hoeffding_d)], obs.d)
    else:
        dev = _square([independence_deviation(e) for e in obs.ekds], obs.d)
        top = dev.max()
        if top > 0:
            out = (top - dev) / top
            np.fill_diagonal(out, 0.0)
    return DependenceMatrix(out, obs.columns, kind)
