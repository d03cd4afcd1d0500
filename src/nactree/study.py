"""Replicated performance studies of the structure estimators.

For each sample size the harness draws N samples from a target model,
runs every configured estimator at every threshold on the same samples,
and records the 01- and tri-distances to the target plus wall-clock time
per estimate.  Everything is reproducible from the master seed; replicate
seeds are spawned deterministically, so parallel and serial runs agree.

`estimate`, the one dispatcher from an estimator name to a tree that the
CLI and the studies share, lives here as well (it also runs the
triple-test baseline SU: one fan test per leaf triple, then
reconstruction), together with the bundled benchmark configurations used
throughout the package's own studies.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .builders import build_binary, estimate_triples
from .collapse import (
    KAGG,
    KB,
    collapse_kagg,
    collapse_kb,
    fan_test_p_value,
    parse_estimator,
)
from .dependence import Dataset, pseudo_observations
from .nac import NacSpec
from .nac import sample as nac_sample
from .trees import (
    RootedTree,
    max_tri_distance,
    read_newick,
    reconstruct,
    tree_distance_01,
    tree_distance_tri,
)

log = logging.getLogger("nactree")


# --------------------------------------------------------------------------- #
# The estimator dispatcher
# --------------------------------------------------------------------------- #


def _check_estimate(name: str, threshold: float, boot: int) -> tuple:
    """The (build method, collapse rule) of ``name``, after checking that
    ``threshold`` and ``boot`` are values the estimator accepts."""
    method, rule = parse_estimator(name)
    if rule == KAGG:
        if not threshold >= 0:  # NaN fails this test too
            raise ValueError("tau_c must be >= 0")
    elif not 0.0 <= threshold <= 1.0:
        raise ValueError("alpha must lie in [0,1]")
    elif boot < 1:
        raise ValueError("bootstrap_b must be >= 1")
    return method, rule


def estimate(obs, name: str, threshold: float, *, boot: int = 200, seed=0
             ) -> RootedTree:
    """Run the estimator ``name`` (e.g. ``kt_kagg``, ``NJNNI_kb``, ``SU``)
    at one collapse threshold: tau_c for kagg, alpha for kb and SU.

    Every estimator but SU builds a binary tree and collapses it.  SU, the
    triple-test baseline, keeps each leaf triple's estimated binary shape
    where its fan test rejects (p <= alpha), turns the other triples into
    fans and reassembles the shapes into a tree.

    ``seed`` is an int or a SeedSequence; the supertree search gets the int
    itself or the first word the sequence generates, and the fan tests
    spawn one stream per triple from it.  The threshold-independent work
    (triple shapes, binary trees, fan-test p-values) is kept on the
    `PseudoObservations`, keyed by build method, ``boot`` and ``seed``, so
    estimators and thresholds run on one ``obs`` compute each piece once.
    """
    obs = pseudo_observations(obs)
    method, rule = _check_estimate(name, threshold, boot)
    if method == "SU":
        codes = estimate_triples(obs)
        p = np.array([fan_test_p_value(obs, t, boot, seed) for t in
                      itertools.combinations(sorted(obs.columns), 3)])
        return reconstruct(obs.columns, np.where(p <= threshold, codes, 0))
    search_seed = (int(seed.generate_state(1)[0])
                   if isinstance(seed, np.random.SeedSequence) else seed)
    tree = build_binary(obs, method, seed=search_seed)
    if rule == KAGG:
        return collapse_kagg(tree, obs, threshold)
    return collapse_kb(tree, obs, threshold, boot, seed)


# --------------------------------------------------------------------------- #
# Study configuration and results
# --------------------------------------------------------------------------- #

DEFAULT_ESTIMATORS = ("kt_kagg", "hD_kagg", "kind_kagg", "kt_kb",
                      "NJNNI_kb", "RNix_kb", "SU")
DEFAULT_TAU_GRID = (0.0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2)
DEFAULT_ALPHA_GRID = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


def default_threshold_grid(estimator: str) -> tuple:
    method, rule = parse_estimator(estimator)
    if method == "SU" or rule == KB:
        return DEFAULT_ALPHA_GRID
    return DEFAULT_TAU_GRID


@dataclass(frozen=True)
class StudyConfig:
    """One target model, a grid of sample sizes, estimators and
    thresholds, and the replication/bootstrap budget."""

    nac: NacSpec
    sample_sizes: tuple = (30, 100, 500)
    replicates: int = 100
    estimators: tuple = DEFAULT_ESTIMATORS
    thresholds: dict = field(default_factory=dict)
    bootstrap_b: int = 200
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes",
                           tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not self.sample_sizes or not self.estimators:
            raise ValueError("need at least one sample size and one estimator")
        grids = {}
        for name in self.estimators:
            grid = tuple(self.thresholds.get(name, default_threshold_grid(name)))
            if not grid:
                raise ValueError(f"empty threshold grid for {name}")
            for threshold in grid:
                _check_estimate(name, threshold, self.bootstrap_b)
            grids[name] = grid
        object.__setattr__(self, "thresholds", grids)

    def to_json_obj(self):
        return {
            "nac": self.nac.to_json_obj(),
            "sample_sizes": list(self.sample_sizes),
            "replicates": self.replicates,
            "estimators": list(self.estimators),
            "thresholds": {k: list(v) for k, v in self.thresholds.items()},
            "bootstrap_b": self.bootstrap_b,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj) -> "StudyConfig":
        return cls(
            nac=NacSpec.from_json_obj(obj["nac"]),
            sample_sizes=tuple(obj.get("sample_sizes", (30, 100, 500))),
            replicates=int(obj.get("replicates", 100)),
            estimators=tuple(obj.get("estimators", DEFAULT_ESTIMATORS)),
            thresholds={k: tuple(v) for k, v in obj.get("thresholds", {}).items()},
            bootstrap_b=int(obj.get("bootstrap_b", 200)),
            seed=int(obj.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class EstimateRecord:
    estimator: str
    n: int
    threshold: float
    replicate: int
    dist01: int
    dist_tri: int
    millis: float
    error: int = 0
    reason: str = ""  # "ExceptionClass: message" of a failed estimate


class StudyResult:
    """Per-estimate records plus the target tree they were scored against."""

    CSV_HEADER = "estimator,n,threshold,replicate,dist01,distTri,millis,error,reason"

    def __init__(self, target: RootedTree | None, records):
        self.target = target
        self.records = list(records)

    def subset(self, estimator=None, n=None, threshold=None):
        out = self.records
        if estimator is not None:
            out = [r for r in out if r.estimator == estimator]
        if n is not None:
            out = [r for r in out if r.n == n]
        if threshold is not None:
            out = [r for r in out if r.threshold == threshold]
        return out

    def mean_01(self, estimator, n, threshold) -> float:
        rows = self.subset(estimator, n, threshold)
        return sum(r.dist01 for r in rows) / len(rows)

    @staticmethod
    def distance_summary(values) -> float:
        """Squared mean plus population variance of the distances."""
        arr = np.asarray(values, dtype=float)
        return float(arr.mean() ** 2 + arr.var())

    def summary_rows(self):
        """One summary per (estimator, n, threshold), in sorted key order,
        of the records grouped in one pass."""
        groups = {}
        for r in self.records:
            groups.setdefault((r.estimator, r.n, r.threshold), []).append(r)
        out = []
        for est, n, thr in sorted(groups):
            rows = groups[est, n, thr]
            d01 = [r.dist01 for r in rows]
            dtri = [r.dist_tri for r in rows]
            out.append({
                "estimator": est, "n": n, "threshold": thr,
                "replicates": len(rows),
                # integer sums: exact, and so equal to np.mean's
                "mean_01": sum(d01) / len(rows),
                "mean_tri": sum(dtri) / len(rows),
                "summary_01": self.distance_summary(d01),
                "summary_tri": self.distance_summary(dtri),
                "mean_millis": float(np.mean([r.millis for r in rows])),
                "errors": int(sum(r.error for r in rows)),
            })
        return out

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(self.CSV_HEADER.split(","))
            for r in self.records:
                out.writerow([r.estimator, r.n, repr(r.threshold), r.replicate,
                              r.dist01, r.dist_tri, repr(r.millis), r.error,
                              r.reason])

    @classmethod
    def from_csv(cls, path, target: RootedTree | None = None) -> "StudyResult":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            if next(rows, None) != cls.CSV_HEADER.split(","):
                raise ValueError("unrecognized study CSV header")
            records = [EstimateRecord(est, int(n), float(thr), int(rep),
                                      int(d01), int(dtri), float(ms), int(err),
                                      reason)
                       for est, n, thr, rep, d01, dtri, ms, err, reason in rows]
        return cls(target, records)

    def summary_json(self) -> str:
        return json.dumps({"summaries": self.summary_rows()}, indent=2)


# --------------------------------------------------------------------------- #
# Running a study
# --------------------------------------------------------------------------- #


def _replicate_seeds(master: int, n: int, replicate: int) -> tuple:
    """The sampling seed and the estimator seed of one replicate: two
    independent streams, so estimators never share draws with the sample."""
    return (np.random.SeedSequence(entropy=master, spawn_key=(n, replicate)),
            np.random.SeedSequence(entropy=master,
                                   spawn_key=(n, replicate, 0)))


def run_study(config: StudyConfig, progress=None) -> StudyResult:
    """Run the full replication grid; every estimator and threshold sees
    the same samples.  Within a replicate the estimators share one seed
    and one `PseudoObservations`, and with it the work derived from the
    sample, so ``millis`` is each estimate's marginal cost.  A failing
    estimate is recorded at maximal distance with an error flag and its
    exception as the reason, instead of aborting the study."""
    target = config.nac.tree
    tri_max = max_tri_distance(target.n_leaves)
    records = []
    for n in config.sample_sizes:
        for rep in range(config.replicates):
            sample_seed, seed = _replicate_seeds(config.seed, n, rep)
            data = Dataset(nac_sample(config.nac, n, sample_seed),
                           target.leaf_labels)
            obs = pseudo_observations(data)
            for name in config.estimators:
                for threshold in config.thresholds[name]:
                    t0 = time.perf_counter()
                    try:
                        est = estimate(obs, name, threshold,
                                       boot=config.bootstrap_b, seed=seed)
                        millis = (time.perf_counter() - t0) * 1000.0
                        rec = EstimateRecord(name, n, float(threshold), rep,
                                             tree_distance_01(target, est),
                                             tree_distance_tri(target, est),
                                             millis)
                    except Exception as exc:
                        millis = (time.perf_counter() - t0) * 1000.0
                        log.warning("estimate %s failed at n=%d replicate=%d "
                                    "threshold=%r", name, n, rep, threshold,
                                    exc_info=True)
                        rec = EstimateRecord(
                            name, n, float(threshold), rep, 1, tri_max, millis,
                            error=1, reason=f"{type(exc).__name__}: {exc}")
                    records.append(rec)
            if progress is not None:
                progress(n, rep)
    return StudyResult(target, records)


def optimal_threshold(result: StudyResult, estimator: str, n: int) -> float:
    """Grid value minimizing the mean 01-distance over the replicates;
    ties break toward the smaller threshold."""
    rows = result.subset(estimator=estimator, n=n)
    if not rows:
        raise ValueError(f"no records for {estimator} at n={n}")
    grid = sorted({r.threshold for r in rows})
    return min(grid, key=lambda thr: (result.mean_01(estimator, n, thr), thr))


# --------------------------------------------------------------------------- #
# Bundled benchmark configurations
# --------------------------------------------------------------------------- #


def _bundled_newick(name: str) -> RootedTree:
    return read_newick(
        resources.files("nactree.data").joinpath(name).read_text("utf-8"))


def _clayton4_binary(tau_root, tau12, tau34) -> NacSpec:
    return NacSpec.single_family("((U1,U2),(U3,U4));", "clayton", {
        ("U1", "U2", "U3", "U4"): tau_root,
        ("U1", "U2"): tau12, ("U3", "U4"): tau34})


def _clayton4_nonbinary(tau_root, tau34) -> NacSpec:
    return NacSpec.single_family("(U1,U2,(U3,U4));", "clayton", {
        ("U1", "U2", "U3", "U4"): tau_root, ("U3", "U4"): tau34})


def _gumbel5(tau_root, tau345, tau34) -> NacSpec:
    return NacSpec.single_family("(U1,U2,(U5,(U3,U4)));", "gumbel", {
        ("U1", "U2", "U3", "U4", "U5"): tau_root,
        ("U3", "U4", "U5"): tau345, ("U3", "U4"): tau34})


def _frank7(tau_root, tau123, tau23, tau4567, tau567, tau67) -> NacSpec:
    return NacSpec.single_family("((U1,(U2,U3)),(U4,(U5,(U6,U7))));", "frank", {
        tuple(f"U{i}" for i in range(1, 8)): tau_root,
        ("U1", "U2", "U3"): tau123, ("U2", "U3"): tau23,
        ("U4", "U5", "U6", "U7"): tau4567,
        ("U5", "U6", "U7"): tau567, ("U6", "U7"): tau67})


def _joe15() -> NacSpec:
    tree = _bundled_newick("joe15.nwk")
    return NacSpec.single_family(tree, "joe", {
        tuple(f"U{i}" for i in range(1, 16)): 0.1,
        ("U1", "U2", "U3", "U4"): 0.25, ("U3", "U4"): 0.5,
        ("U5", "U6", "U7"): 0.35, ("U6", "U7"): 0.45,
        tuple(f"U{i}" for i in range(8, 14)): 0.5,
        tuple(f"U{i}" for i in range(9, 14)): 0.75,
    })


def _gumbel40() -> NacSpec:
    # taus travel as internal-node annotations of the bundled tree
    tree = _bundled_newick("gumbel40.nwk")
    taus = {}
    for v in tree.internal_nodes:
        if v not in tree.annotations:
            raise ValueError("bundled forty-leaf tree must annotate every node")
        taus[tree.leaf_set(v)] = tree.annotations[v]
    return NacSpec.single_family(tree, "gumbel", taus)


def benchmark_configs() -> dict:
    """The bundled study configurations, keyed by short codes
    ``fig7_left`` ... ``fig12`` (weak/middle/strong dependence variants of
    each target family), each at the `StudyConfig` defaults for sample
    sizes, replicates, bootstrap size and seed."""
    configs = {}

    def add(key, nac, estimators=DEFAULT_ESTIMATORS):
        configs[key] = StudyConfig(nac=nac, estimators=estimators)

    add("fig7_left", _clayton4_binary(0.4, 0.6, 0.6))
    add("fig7_middle", _clayton4_binary(0.3, 0.7, 0.7))
    add("fig7_right", _clayton4_binary(0.2, 0.8, 0.8))
    add("fig8_left", _clayton4_nonbinary(0.4, 0.6))
    add("fig8_middle", _clayton4_nonbinary(0.3, 0.7))
    add("fig8_right", _clayton4_nonbinary(0.2, 0.8))
    add("fig9_left", _gumbel5(0.4, 0.5, 0.6))
    add("fig9_middle", _gumbel5(0.3, 0.5, 0.7))
    add("fig9_right", _gumbel5(0.2, 0.5, 0.8))
    add("fig10_left", _frank7(0.35, 0.5, 0.65, 0.45, 0.55, 0.65))
    add("fig10_right", _frank7(0.2, 0.5, 0.8, 0.4, 0.6, 0.8))
    add("fig11", _joe15(),
        estimators=("kt_kagg", "hD_kagg", "kind_kagg", "kt_kb"))
    add("fig12", _gumbel40(), estimators=("kt_kagg",))
    return configs
