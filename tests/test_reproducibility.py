"""Pinned outputs and pairwise work counts.

The golden values below were recorded from the CLI and the study harness
before the pairwise statistics moved onto `PseudoObservations`; the
estimators must keep reproducing them exactly.
"""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nactree
import nactree.builders as builders
import nactree.collapse as collapse
import nactree.dependence as dependence
from nactree.builders import estimate_triples
from nactree.cli import main
from nactree.collapse import ESTIMATOR_NAMES
from nactree.dependence import Dataset, pseudo_observations
from nactree.nac import sample
from nactree.study import StudyConfig, benchmark_configs, run_study

from oracles import trivariate_binary_estimate_loop

SRC = str(Path(__file__).resolve().parents[1] / "src")

GOLDEN_NEWICK = {
    "kt_kagg": "((C,D)0.65,(E,(A,B)0.62)0.32)0.22;",
    "kt_kb": "((C,D),E,(A,B));",
    "hD_kagg": "((C,D),(E,(A,B)));",
    "hD_kb": "((C,D),E,(A,B));",
    "kind_kagg": "((C,D),(E,(A,B)));",
    "kind_kb": "((C,D),E,(A,B));",
    "NJNNI_kagg": "(E,(A,B),(C,D));",
    "NJNNI_kb": "(E,(A,B),(C,D));",
    "RNix_kagg": "((C,D),(B,A),E);",
    "RNix_kb": "((C,D),(B,A),E);",
    "SU": "((A,B),(C,D),E);",
}

# (estimator, thresholds, dist01 and distTri per threshold) of a
# one-replicate fig7_right study at n=30, B=10, seed 0
_KAGG = ((0, 0),) * 7
_KB = ((1, 4), (1, 4), (0, 0), (0, 0), (0, 0), (0, 0))
GOLDEN_STUDY = (("kt_kagg", _KAGG), ("hD_kagg", _KAGG), ("kind_kagg", _KAGG),
                ("kt_kb", _KB), ("NJNNI_kb", _KB), ("RNix_kb", _KB),
                ("SU", _KB))


# sha256 of nac.sample(model, 200, 11) rounded to 12 decimals (a changed
# random stream moves every value; the rounding absorbs last-bit libm
# differences between platforms): the Frank and the Joe frailty samplers
GOLDEN_SAMPLE_SHA256 = {
    "fig10_right":
        "8fa074017776b9d022ec7996699892b24ad4f351fca7d441f9f8729647635bc3",
    "fig11":
        "5a509bacc5c6888dbfd567758582b44da58470e000f3b38421cec26135489619",
}


def golden_sample() -> Dataset:
    """d=5, n=60: two strong pairs (A,B), (C,D) and a looser E."""
    rng = np.random.default_rng(20261018)
    z = rng.standard_normal((60, 8))
    f0, f1, f2 = z[:, 0], z[:, 1], z[:, 2]
    cols = [f0 + 2 * f1 + z[:, 3], f0 + 2 * f1 + z[:, 4],
            f0 + 2 * f2 + z[:, 5], f0 + 2 * f2 + z[:, 6], f0 + 1.5 * z[:, 7]]
    return Dataset(np.column_stack(cols), ("A", "B", "C", "D", "E"))


@pytest.fixture()
def golden_csv(tmp_path):
    path = tmp_path / "golden.csv"
    golden_sample().to_csv(path)
    return path


def _estimate_argv(csv, name, out):
    argv = ["estimate", "--input", str(csv), "--method", name,
            "--boot", "20", "--seed", "3", "--output", str(out)]
    return argv + ["--annotate"] if name == "kt_kagg" else argv


def count_calls(monkeypatch, original) -> list:
    """Count calls of the nactree function ``original`` through every
    nactree module that binds it; returns the (growing) list of call
    records."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "nactree" or key.startswith("nactree."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_cli_newick(self, golden_csv, tmp_path, name):
        out = tmp_path / f"{name}.nwk"
        assert main(_estimate_argv(golden_csv, name, out)) == 0
        assert out.read_text() == GOLDEN_NEWICK[name] + "\n"

    def test_study_rows(self):
        base = benchmark_configs()["fig7_right"]
        config = StudyConfig(nac=base.nac, sample_sizes=(30,), replicates=1,
                             estimators=base.estimators, bootstrap_b=10,
                             seed=base.seed)
        rows = [(r.estimator, r.n, r.threshold, r.replicate, r.dist01,
                 r.dist_tri, r.error) for r in run_study(config).records]
        expect = [(name, 30, float(thr), 0, d01, dtri, 0)
                  for name, dists in GOLDEN_STUDY
                  for thr, (d01, dtri) in zip(config.thresholds[name], dists)]
        assert rows == expect

    @pytest.mark.parametrize("key", sorted(GOLDEN_SAMPLE_SHA256))
    def test_sample_streams(self, key):
        x = sample(benchmark_configs()[key].nac, 200, 11)
        digest = hashlib.sha256(np.round(x, 12).tobytes()).hexdigest()
        assert digest == GOLDEN_SAMPLE_SHA256[key]


def call_pairs(calls) -> list:
    """The unordered pairs of distinct rows that each batched pairwise call
    computed, one set per call.  A call for a block of first columns also
    pairs some columns with themselves, and some pairs twice."""
    pairs = []
    for x, y in (args[:2] for args in calls):
        n = np.shape(x)[-1]
        pairs.append({frozenset((a.tobytes(), b.tobytes()))
                      for a, b in zip(np.reshape(x, (-1, n)),
                                      np.reshape(y, (-1, n)))
                      if not np.array_equal(a, b)})
    return pairs


def grid_columns(obs) -> np.ndarray:
    """The columns whose pairs `PseudoObservations.pairwise` counts: twice
    the average ranks of the columns of ``obs.u``, as uint16."""
    return (2 * dependence._average_ranks(obs.u.T)).astype(np.uint16)


def assert_each_pair_in_one_call(calls, columns):
    """Each unordered pair of ``columns`` is computed in exactly one of
    ``calls``, and nothing else is."""
    computed = [pair for pairs in call_pairs(calls) for pair in pairs]
    assert len(computed) == len(set(computed))
    assert set(computed) == {
        frozenset((np.ascontiguousarray(a).tobytes(),
                   np.ascontiguousarray(b).tobytes()))
        for a, b in itertools.combinations(columns, 2)}


class TestPairwiseWork:
    """Each column pair is computed exactly once per sample: the batched
    calls, one per block of first columns and at most d - 1 of them,
    cover every pair in exactly one call."""

    def test_kt_kagg_annotate_computes_tau_once_per_pair(
            self, golden_csv, tmp_path, monkeypatch):
        # tau asked first: counted alone, no Kendall distribution built
        calls = count_calls(monkeypatch, dependence.kendall_tau)
        ekds = count_calls(monkeypatch,
                           dependence.empirical_kendall_distribution)
        out = tmp_path / "kt.nwk"
        assert main(_estimate_argv(golden_csv, "kt_kagg", out)) == 0
        obs = pseudo_observations(golden_sample())
        assert 1 <= len(calls) <= obs.d - 1
        assert_each_pair_in_one_call(calls, grid_columns(obs))
        assert not ekds
        assert out.read_text() == GOLDEN_NEWICK["kt_kagg"] + "\n"

    @pytest.mark.parametrize("name", ["kind_kagg", "NJNNI_kagg", "RNix_kagg"])
    def test_kagg_counts_each_pair_once(self, golden_csv, tmp_path,
                                        monkeypatch, name):
        # the EKDs come first and fill the tau matrix that kagg averages
        counts = count_calls(monkeypatch, dependence.dominance_counts)
        taus = count_calls(monkeypatch, dependence.kendall_tau)
        out = tmp_path / f"{name}.nwk"
        assert main(_estimate_argv(golden_csv, name, out)) == 0
        columns = grid_columns(pseudo_observations(golden_sample()))
        assert 1 <= len(counts) <= len(columns) - 1
        assert_each_pair_in_one_call(counts, columns)
        assert len(taus) == len(counts)
        assert_each_pair_in_one_call(taus, columns)
        assert out.read_text() == GOLDEN_NEWICK[name] + "\n"

    def test_estimate_triples_computes_each_ekd_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        obs = pseudo_observations(Dataset(rng.uniform(size=(40, 6)),
                                          tuple("abcdef")))
        calls = count_calls(monkeypatch,
                            dependence.empirical_kendall_distribution)
        shapes = estimate_triples(obs)
        assert len(shapes) == 20
        assert 1 <= len(calls) <= 5
        assert_each_pair_in_one_call(calls, grid_columns(obs))

    def test_estimate_triples_stores_one_read_only_code_array(
            self, monkeypatch):
        # one batched pass over the 35 triples, then the stored array
        # itself, which no caller can write to
        rng = np.random.default_rng(7)
        obs = pseudo_observations(Dataset(rng.uniform(size=(40, 7)),
                                          tuple("gfedcba")))
        triples = count_calls(monkeypatch, builders.trivariate_binary_estimate)
        codes = estimate_triples(obs)
        assert len(triples) == 1 and codes.dtype == np.int8
        assert codes.tolist() == trivariate_binary_estimate_loop(obs).tolist()
        assert len(codes) == 35
        assert estimate_triples(obs) is codes
        assert len(triples) == 1
        with pytest.raises(ValueError):
            codes[0] = 1

    def test_study_replicate_computes_shared_work_once(self, monkeypatch):
        # one fig7_right replicate at n=100, B=20: the 4 triples are
        # estimated in one pass for NJNNI, RNix and SU together, each
        # observed pair's EKD is built once for kind and the triples, and
        # each fan test counts its integer-ranked resamples in one call
        # that counts all three column pairs
        ekds = count_calls(monkeypatch,
                           dependence.empirical_kendall_distribution)
        triples = count_calls(monkeypatch, builders.trivariate_binary_estimate)
        fan_tests = count_calls(monkeypatch, collapse.su_triple_test)
        fan_counts = count_calls(monkeypatch,
                                 dependence._column_pair_dominance)
        base = benchmark_configs()["fig7_right"]
        run_study(StudyConfig(nac=base.nac, sample_sizes=(100,), replicates=1,
                              estimators=base.estimators, bootstrap_b=20,
                              seed=base.seed))
        # the grid's operands are uint16 ranks; so are a fan test's, whose
        # rows would add pairs to ``rows`` if it built EKDs here
        observed = [args for args in ekds if args[0].dtype == np.uint16]
        fan = [args for args in ekds if args[0].dtype != np.uint16]
        assert len(observed) + len(fan) == len(ekds)
        rows = [pair for pairs in call_pairs(observed) for pair in pairs]
        assert len(triples) == 1
        assert 1 <= len(observed) <= 3  # at most d - 1 = 3 blocks
        assert len(rows) == len(set(rows)) == 6  # each observed pair once
        assert len(fan_tests) == 4
        assert not fan
        assert len(fan_counts) == len(fan_tests)
        assert all(batch.shape == (3, 21, 100) and batch.dtype == np.uint16
                   for (batch,) in fan_counts)


def test_import_leaves_scipy_stats_out(tmp_path):
    # the runtime is numpy-only: ranks, tau maps and the Sibuya tail (the
    # fig11 Joe model draws through it) load no scipy module
    script = (
        "import sys\n"
        "import nactree\n"
        "from nactree.cli import main\n"
        "from nactree.dependence import Dataset\n"
        "configs = nactree.benchmark_configs()\n"
        "for key in ('fig10_right', 'fig11'):\n"
        "    nac = configs[key].nac\n"
        "    x = nactree.sample(nac, 100, 0)\n"
        "Dataset(x, nac.tree.leaf_labels).to_csv(sys.argv[1])\n"
        "assert main(['estimate', '--input', sys.argv[1], '--method', 'kt_kb',\n"
        "             '--boot', '20', '--output', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "fig11.csv"),
         str(tmp_path / "fig11.nwk")],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "fig11.nwk").read_text().endswith(";\n")


def test_public_names_resolve():
    for name in nactree.__all__:
        assert getattr(nactree, name) is not None, name


def test_node_means_do_not_depend_on_string_hashing():
    # summation order of the node means must not follow set iteration
    script = (
        "from nactree.builders import build_binary\n"
        "from nactree.collapse import annotate_mean_taus\n"
        "from nactree.dependence import Dataset, pseudo_observations\n"
        "from nactree.nac import sample\n"
        "from nactree.study import benchmark_configs\n"
        "nac = benchmark_configs()['fig11'].nac\n"
        "obs = pseudo_observations(\n"
        "    Dataset(sample(nac, 500, 0), nac.tree.leaf_labels))\n"
        "out = annotate_mean_taus(build_binary(obs, 'kt'), obs)\n"
        "print(repr([out.annotations[v] for v in sorted(out.annotations)]))\n")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
