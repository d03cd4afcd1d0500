"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or ``-v``
to see them) and enforces the criterion's tolerance and runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from nactree.builders import build_character_matrix, fitch_score
from nactree.collapse import su_triple_test
from nactree.dependence import Dataset, kendall_tau, pseudo_observations
from nactree.nac import NacSpec, sample, tau_to_theta, theta_to_tau
from nactree.study import (
    StudyConfig,
    StudyResult,
    benchmark_configs,
    estimate,
    optimal_threshold,
    run_study,
)
from nactree.trees import UnrootedTree, decompose, parse_newick, reconstruct, unroot

from conftest import random_rooted_tree
from oracles import kendall_tau_quadratic


def report(num, desc, ok, extra=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def consistency_study():
    # criterion 6 workload, shared with the bookkeeping check (criterion 10)
    config = StudyConfig(nac=benchmark_configs()["fig7_right"].nac,
                         sample_sizes=(30, 100, 500), replicates=100,
                         estimators=("kt_kagg",),
                         thresholds={"kt_kagg": (0.0,)}, seed=2024)
    return run_study(config)


def test_criterion_1_kendall_oracle_equivalence():
    rng = np.random.default_rng(1)
    sizes = [2, 2000] + list((2 * (1000.0 ** rng.random(998))).astype(int))
    start = time.perf_counter()
    mismatches = 0
    for i, n in enumerate(sizes):
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if kendall_tau(x, y) != kendall_tau_quadratic(x, y):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(1, "fast Kendall tau equals the quadratic oracle exactly on 1000 "
              "tie-free vectors, n in [2, 2000]",
           mismatches == 0 and elapsed < 10.0,
           f"mismatches={mismatches}, {elapsed:.1f}s")


def test_criterion_2_triple_roundtrip():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    failures = 0
    for i in range(200):
        d = int(rng.integers(3, 13))
        tree = random_rooted_tree([f"U{k}" for k in range(d)], rng)
        if reconstruct(*decompose(tree)) != tree:
            failures += 1
    elapsed = time.perf_counter() - start
    report(2, "reconstruct(*decompose(t)) isomorphic to t for 200 random "
              "rooted trees, 3 <= d <= 12",
           failures == 0 and elapsed < 5.0,
           f"failures={failures}, {elapsed:.1f}s")


def test_criterion_3_character_matrix_and_fitch():
    start = time.perf_counter()
    inputs = [parse_newick("((U1,U3),(U2,U4));"), parse_newick("(U1,U3,(U4,U5));")]
    cm = build_character_matrix(inputs, [f"U{i}" for i in range(1, 6)])
    # reference 6x3 matrix, up to column order and per-column polarity
    expected = {
        (0, 1, 0, 1, -1, 0),
        (1, 0, 1, 0, -1, 0),
        (0, -1, 0, 1, 1, 0),
    }
    got = set()
    for col in cm.data.T:
        col = tuple(int(v) for v in col)
        if col[-1] == 1:
            col = tuple(1 - v if v != -1 else v for v in col)
        got.add(col)
    matrix_ok = cm.rows == ("U1", "U2", "U3", "U4", "U5", "O") and got == expected

    supertree = unroot(parse_newick("(((U1,U3),(U2,(U4,U5))),O);"))
    score = fitch_score(supertree, cm)

    # exhaustive minimality over all 105 unrooted 6-leaf topologies
    trees = [UnrootedTree([[1], [0]], {0: "U1", 1: "U2"})]
    for lab in ["U3", "U4", "U5", "O"]:
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
    minimum = min(fitch_score(t, cm) for t in trees)
    elapsed = time.perf_counter() - start
    report(3, "reference two-tree character matrix reproduced and its "
              "compatible supertree scores the exhaustive minimum of 3",
           matrix_ok and score == 3.0 and minimum == 3.0
           and len(trees) == 105 and elapsed < 1.0,
           f"score={score}, min={minimum}, {elapsed:.2f}s")


def test_criterion_4_tau_theta_maps():
    clayton_ok = (tau_to_theta("clayton", 0.5) == 2.0
                  and tau_to_theta("clayton", 0.8) == 8.0)
    worst = 0.0
    for family in ("gumbel", "frank", "joe"):
        for tau in np.arange(0.05, 0.951, 0.05):
            theta = tau_to_theta(family, float(tau))
            worst = max(worst, abs(theta_to_tau(family, theta) - tau))
    report(4, "Clayton tau->theta closed form exact; Gumbel/Frank/Joe maps "
              "mutually inverse to 1e-6 on a 19-point grid",
           clayton_ok and worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_5_sampler_fidelity():
    start = time.perf_counter()
    configs = benchmark_configs()
    worst_by_key = {}
    for key in ("fig7_right", "fig9_right", "fig10_right", "fig11"):
        spec = configs[key].nac
        x = sample(spec, 20_000, 1234)
        labels = spec.tree.leaf_labels
        worst = 0.0
        for i, j in itertools.combinations(range(len(labels)), 2):
            target = spec.generators[spec.tree.lca(labels[i], labels[j])].tau
            worst = max(worst, abs(kendall_tau(x[:, i], x[:, j]) - target))
        worst_by_key[key] = worst
    elapsed = time.perf_counter() - start
    report(5, "sampled pairwise tau matches the LCA generator tau within "
              "0.02 for the Clayton/Gumbel/Frank/Joe benchmark models at "
              "n=20000",
           max(worst_by_key.values()) <= 0.02 and elapsed < 60.0,
           ", ".join(f"{k}:{v:.3f}" for k, v in worst_by_key.items())
           + f", {elapsed:.0f}s")


def test_criterion_6_consistency_trend(consistency_study):
    start = time.perf_counter()
    means = [consistency_study.mean_01("kt_kagg", n, 0.0)
             for n in (30, 100, 500)]
    elapsed = time.perf_counter() - start
    report(6, "kt_kagg at tau_c=0 on the strong fourvariate binary model: "
              "mean 01-distance nonincreasing over n in {30,100,500} and "
              "<= 0.05 at n=500",
           means[0] >= means[1] >= means[2] and means[2] <= 0.05,
           f"means={['%.2f' % m for m in means]}")


def test_criterion_7_nonbinary_recovery():
    start = time.perf_counter()
    nac = benchmark_configs()["fig8_right"].nac
    config = StudyConfig(nac=nac, sample_sizes=(500,), replicates=100,
                         estimators=("kt_kagg",), seed=77)
    result = run_study(config)
    best = optimal_threshold(result, "kt_kagg", 500)
    mean01 = result.mean_01("kt_kagg", 500, best)
    elapsed = time.perf_counter() - start
    report(7, "kt_kagg at its estimated optimal tau_c recovers the "
              "non-binary fourvariate model with mean 01-distance <= 0.15 "
              "at n=500",
           mean01 <= 0.15 and elapsed < 300.0,
           f"optimal tau_c={best}, mean01={mean01:.2f}, {elapsed:.0f}s")


def test_criterion_8_test_calibration():
    start = time.perf_counter()
    fan = NacSpec.single_family("(U1,U2,U3);", "clayton",
                                {("U1", "U2", "U3"): 0.4})
    rejections = 0
    for seed in range(200):
        data = Dataset(sample(fan, 500, 10_000 + seed), fan.tree.leaf_labels)
        obs = pseudo_observations(data)
        if su_triple_test(obs, "U1", "U2", "U3", b=200, seed=seed) <= 0.05:
            rejections += 1
    size = rejections / 200

    nested = NacSpec.single_family("((U2,U3),U1);", "clayton", {
        ("U1", "U2", "U3"): 0.2, ("U2", "U3"): 0.8})
    powered = 0
    for seed in range(100):
        data = Dataset(sample(nested, 500, 20_000 + seed),
                       nested.tree.leaf_labels)
        obs = pseudo_observations(data)
        if su_triple_test(obs, "U1", "U2", "U3", b=200, seed=seed) <= 0.05:
            powered += 1
    power = powered / 100
    elapsed = time.perf_counter() - start
    report(8, "fan test size at alpha=0.05 within [0.01, 0.12] over 200 "
              "seeds and power >= 0.9 against the strong cherry",
           0.01 <= size <= 0.12 and power >= 0.9 and elapsed < 600.0,
           f"size={size:.3f}, power={power:.2f}, {elapsed:.0f}s")


def test_criterion_9_speed_ratio():
    start = time.perf_counter()
    nac = benchmark_configs()["fig10_right"].nac  # sevenvariate
    fast_times, slow_times = [], []
    for rep in range(20):
        data = Dataset(sample(nac, 100, 30_000 + rep), nac.tree.leaf_labels)
        obs = pseudo_observations(data)
        t0 = time.perf_counter()
        estimate(obs, "kt_kagg", 0.075)
        fast_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        estimate(obs, "SU", 0.05, boot=100, seed=rep)
        slow_times.append(time.perf_counter() - t0)
    ratio = float(np.median(fast_times) / np.median(slow_times))
    elapsed = time.perf_counter() - start
    report(9, "kt_kagg runs in at most a tenth of the triple-test baseline's "
              "wall clock (d=7, n=100, B=100, median of 20)",
           ratio <= 0.1 and elapsed < 120.0,
           f"ratio={ratio:.4f}, kt={1000*np.median(fast_times):.1f}ms, "
           f"SU={1000*np.median(slow_times):.0f}ms, {elapsed:.0f}s")


def test_criterion_10_summary_bookkeeping(consistency_study, tmp_path):
    path = tmp_path / "records.csv"
    consistency_study.to_csv(path)
    reread = StudyResult.from_csv(path)
    worst = 0.0
    for row in reread.summary_rows():
        rows = reread.subset(row["estimator"], row["n"], row["threshold"])
        d01 = np.array([r.dist01 for r in rows], dtype=float)
        dtri = np.array([r.dist_tri for r in rows], dtype=float)
        worst = max(worst,
                    abs(row["summary_01"] - (d01.mean() ** 2 + d01.var())),
                    abs(row["summary_tri"] - (dtri.mean() ** 2 + dtri.var())))
    report(10, "mean^2 + variance recomputed from the raw per-replicate CSV "
               "matches the stored summary to 1e-12",
           worst <= 1e-12, f"worst={worst:.1e}")
