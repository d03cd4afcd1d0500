import dataclasses
import itertools
import logging
import sys

import numpy as np
import pytest

import nactree.collapse as collapse
from nactree.builders import estimate_triples
from nactree.dependence import Dataset, pseudo_observations
from nactree.nac import NacSpec, check_nesting, sample
from nactree.study import (
    DEFAULT_ESTIMATORS,
    StudyConfig,
    StudyResult,
    _replicate_seeds,
    benchmark_configs,
    default_threshold_grid,
    estimate,
    optimal_threshold,
    run_study,
)
from nactree.trees import (
    max_tri_distance,
    reconstruct,
    tree_distance_01,
    tree_distance_tri,
)


def binary4():
    return NacSpec.single_family("((U1,U2),(U3,U4));", "clayton", {
        ("U1", "U2", "U3", "U4"): 0.2, ("U1", "U2"): 0.8, ("U3", "U4"): 0.8})


class TestSuBaseline:
    def test_alpha_one_equals_reconstructed_cherries(self):
        # every null rejected: the estimate is exactly the reconstruction of
        # the estimated binary triples
        nac = binary4()
        data = Dataset(sample(nac, 300, 5), nac.tree.leaf_labels)
        obs = pseudo_observations(data)
        est = estimate(obs, "SU", 1.0, boot=20, seed=3)
        expect = reconstruct(obs.columns, estimate_triples(obs))
        assert est == expect

    def test_d3_single_test(self):
        nac = NacSpec.single_family("((U2,U3),U1);", "clayton", {
            ("U1", "U2", "U3"): 0.2, ("U2", "U3"): 0.8})
        data = Dataset(sample(nac, 400, 2), nac.tree.leaf_labels)
        est = estimate(data, "SU", 0.05, boot=100, seed=1)
        assert est == nac.tree

    def test_fan_data_mostly_returns_fan(self):
        fan = NacSpec.single_family("(U1,U2,U3);", "clayton",
                                    {("U1", "U2", "U3"): 0.4})
        fans = 0
        for seed in range(20):
            data = Dataset(sample(fan, 400, 100 + seed), fan.tree.leaf_labels)
            est = estimate(data, "SU", 0.05, boot=100, seed=seed)
            fans += est == fan.tree
        assert fans >= 16  # roughly 1 - size


@pytest.fixture(scope="module")
def small_result():
    config = StudyConfig(nac=binary4(), sample_sizes=(30, 100),
                         replicates=8, estimators=("kt_kagg",),
                         thresholds={"kt_kagg": (0.0, 0.075)}, seed=3)
    return config, run_study(config)


class TestRunStudy:
    def test_record_grid_complete(self, small_result):
        config, result = small_result
        assert len(result.records) == 2 * 8 * 2
        keys = {(r.estimator, r.n, r.threshold, r.replicate)
                for r in result.records}
        assert len(keys) == len(result.records)

    def test_reproducible(self, small_result):
        config, result = small_result
        again = run_study(config)
        for a, b in zip(result.records, again.records):
            assert (a.estimator, a.n, a.threshold, a.replicate, a.dist01,
                    a.dist_tri, a.error) == (b.estimator, b.n, b.threshold,
                                             b.replicate, b.dist01, b.dist_tri,
                                             b.error)

    def test_distance_consistency(self, small_result):
        _, result = small_result
        for r in result.records:
            assert (r.dist01 == 0) == (r.dist_tri == 0)
            assert 0 <= r.dist_tri <= max_tri_distance(4)

    def test_csv_roundtrip(self, small_result, tmp_path):
        _, result = small_result
        path = tmp_path / "records.csv"
        result.to_csv(path)
        back = StudyResult.from_csv(path)
        assert back.records == result.records

    def test_summary_bookkeeping(self, small_result):
        _, result = small_result
        for row in result.summary_rows():
            d01 = [r.dist01 for r in result.subset(row["estimator"], row["n"],
                                                   row["threshold"])]
            expect = float(np.mean(d01)) ** 2 + float(np.var(d01))
            assert abs(row["summary_01"] - expect) < 1e-12
            assert row["mean_01"] == pytest.approx(np.mean(d01))

    def test_mean01_is_mismatch_fraction(self, small_result):
        _, result = small_result
        rows = result.subset("kt_kagg", 30, 0.0)
        frac = sum(1 for r in rows if r.dist01 != 0) / len(rows)
        assert result.mean_01("kt_kagg", 30, 0.0) == pytest.approx(frac)

    def test_single_replicate_variance_zero(self):
        config = StudyConfig(nac=binary4(), sample_sizes=(30,), replicates=1,
                             estimators=("kt_kagg",),
                             thresholds={"kt_kagg": (0.0,)}, seed=1)
        row = run_study(config).summary_rows()[0]
        assert row["summary_01"] == pytest.approx(row["mean_01"] ** 2)

    def test_two_leaf_model_scored(self):
        # a 2-leaf tree has no triple and one shape, the cherry: every
        # paper estimator returns it, with tri-distance 0
        nac = NacSpec.single_family("(U1,U2);", "clayton",
                                    {("U1", "U2"): 0.5})
        config = StudyConfig(nac=nac, sample_sizes=(30,), replicates=2,
                             estimators=DEFAULT_ESTIMATORS,
                             thresholds={name: (default_threshold_grid(name)[1],)
                                         for name in DEFAULT_ESTIMATORS},
                             bootstrap_b=20, seed=1)
        records = run_study(config).records
        assert len(records) == 2 * len(DEFAULT_ESTIMATORS) == 14
        assert all((r.error, r.dist01, r.dist_tri) == (0, 0, 0)
                   for r in records), [r.reason for r in records if r.error]

    def test_failed_estimate_recorded_not_raised(self, monkeypatch, caplog):
        import nactree.study as study_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(study_mod, "build_binary", boom)
        config = StudyConfig(nac=binary4(), sample_sizes=(30,), replicates=2,
                             estimators=("kt_kagg",),
                             thresholds={"kt_kagg": (0.0,)}, seed=1)
        with caplog.at_level(logging.WARNING, logger="nactree"):
            result = run_study(config)
        assert all(r.error == 1 for r in result.records)
        assert all(r.dist01 == 1 for r in result.records)
        assert all(r.dist_tri == max_tri_distance(4) for r in result.records)
        failures = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(failures) == 2
        assert "injected failure" in caplog.text
        assert "kt_kagg failed at n=30 replicate=1 threshold=0.0" in caplog.text

    def test_failure_reason_written_and_read_back(self, monkeypatch, tmp_path):
        import nactree.study as study_mod

        def boom(*args, **kwargs):
            raise ValueError('bad, "quoted"\nmessage')

        monkeypatch.setattr(study_mod, "build_binary", boom)
        config = StudyConfig(nac=binary4(), sample_sizes=(30,), replicates=1,
                             estimators=("kt_kagg", "SU"),
                             thresholds={"kt_kagg": (0.0,), "SU": (0.05,)},
                             bootstrap_b=5, seed=1)
        result = run_study(config)
        failed, ok = result.records
        assert (failed.error, failed.reason) == (
            1, 'ValueError: bad, "quoted"\nmessage')
        assert (ok.estimator, ok.error, ok.reason) == ("SU", 0, "")
        path = tmp_path / "estimates.csv"
        result.to_csv(path)
        assert path.read_text().splitlines()[0].endswith(",error,reason")
        assert StudyResult.from_csv(path).records == result.records


def fig7_right_replicate(sample_sizes=(30, 100)) -> StudyConfig:
    base = benchmark_configs()["fig7_right"]
    return StudyConfig(nac=base.nac, sample_sizes=sample_sizes, replicates=1,
                       estimators=base.estimators, bootstrap_b=5,
                       seed=base.seed)


class TestSharedReplicateWork:
    def test_each_triple_fan_tested_once_per_sample(self, monkeypatch):
        original = collapse.su_triple_test
        tested = []

        def counted(u, i, j, k, **kwargs):
            tested.append((u.n, frozenset((i, j, k))))
            return original(u, i, j, k, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "nactree" or key.startswith("nactree."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        run_study(fig7_right_replicate())
        assert len(tested) == 2 * 4  # every triple at each sample size
        assert len(set(tested)) == len(tested)

    def test_rows_equal_stand_alone_estimates(self):
        config = fig7_right_replicate()
        target = config.nac.tree
        result = run_study(config)
        assert len(result.records) == 2 * sum(
            len(grid) for grid in config.thresholds.values())
        for n in config.sample_sizes:
            sample_seed, seed = _replicate_seeds(config.seed, n, 0)
            data = Dataset(sample(config.nac, n, sample_seed),
                           target.leaf_labels)
            for r in result.subset(n=n):
                # a Dataset gets fresh pseudo-observations: nothing shared
                est = estimate(data, r.estimator, r.threshold,
                               boot=config.bootstrap_b, seed=seed)
                assert (r.dist01, r.dist_tri, r.error) == (
                    tree_distance_01(target, est),
                    tree_distance_tri(target, est), 0)


    def test_one_obs_serves_every_boot_and_seed(self):
        # the p-values kept on a sample are keyed by B and seed: reusing
        # one obs across both gives what a fresh obs gives.  On fan data the
        # p-values vary with the seed, so a key without it would show.
        fan = NacSpec.single_family("(U1,U2,U3,U4);", "clayton",
                                    {("U1", "U2", "U3", "U4"): 0.4})
        data = Dataset(sample(fan, 60, 9), fan.tree.leaf_labels)
        shared = pseudo_observations(data)
        assert len(estimate_triples(shared)) == 4
        for name in ("kt_kb", "SU"):
            for boot in (5, 7):
                for seed in (1, 2):
                    for alpha in (0.2, 0.5, 0.8):
                        fresh = pseudo_observations(data)
                        assert (estimate(shared, name, alpha, boot=boot,
                                         seed=seed)
                                == estimate(fresh, name, alpha, boot=boot,
                                            seed=seed))
                    fresh = pseudo_observations(data)
                    for t in itertools.combinations(data.columns, 3):
                        p = collapse.fan_test_p_value(shared, t, boot, seed)
                        assert p == collapse.fan_test_p_value(fresh, t, boot,
                                                              seed)


class TestOptimalThreshold:
    def test_binary_target_prefers_zero(self):
        config = StudyConfig(nac=binary4(), sample_sizes=(100,), replicates=20,
                             estimators=("kt_kagg",),
                             thresholds={"kt_kagg": (0.0, 0.05, 0.3, 2.0)},
                             seed=5)
        result = run_study(config)
        assert optimal_threshold(result, "kt_kagg", 100) == 0.0

    def test_degenerate_grid(self):
        config = StudyConfig(nac=binary4(), sample_sizes=(30,), replicates=2,
                             estimators=("kt_kagg",),
                             thresholds={"kt_kagg": (0.075,)}, seed=5)
        result = run_study(config)
        assert optimal_threshold(result, "kt_kagg", 30) == 0.075

    def test_tie_breaks_toward_smaller(self):
        records = []
        from nactree.study import EstimateRecord

        for thr in (0.0, 0.1):
            records.append(EstimateRecord("kt_kagg", 30, thr, 0, 0, 0, 1.0))
        result = StudyResult(None, records)
        assert optimal_threshold(result, "kt_kagg", 30) == 0.0

    def test_missing_rows(self):
        result = StudyResult(None, [])
        with pytest.raises(ValueError):
            optimal_threshold(result, "kt_kagg", 30)


class TestStudyConfig:
    def test_json_roundtrip(self):
        config = StudyConfig(nac=binary4(), replicates=7, seed=9)
        back = StudyConfig.from_json(config.to_json())
        assert back.nac.tree == config.nac.tree
        assert back.replicates == 7
        assert back.thresholds == config.thresholds

    def test_default_grids(self):
        config = StudyConfig(nac=binary4())
        assert config.thresholds["kt_kagg"][0] == 0.0
        assert 1.0 in config.thresholds["SU"]

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(nac=binary4(), replicates=0)
        with pytest.raises(ValueError):
            StudyConfig(nac=binary4(), estimators=())
        with pytest.raises(ValueError):
            StudyConfig(nac=binary4(), estimators=("bogus",))
        with pytest.raises(ValueError, match="bootstrap_b"):
            StudyConfig(nac=binary4(), bootstrap_b=0)
        with pytest.raises(ValueError, match="alpha"):
            StudyConfig(nac=binary4(), estimators=("kt_kb",),
                        thresholds={"kt_kb": (0.05, 1.5)})
        with pytest.raises(ValueError, match="tau_c"):
            StudyConfig(nac=binary4(), estimators=("kt_kagg",),
                        thresholds={"kt_kagg": (0.05, float("nan"))})


class TestBenchmarkConfigs:
    def test_keys_and_dimensions(self):
        configs = benchmark_configs()
        dims = {key: c.nac.d for key, c in configs.items()}
        assert dims["fig7_right"] == 4
        assert dims["fig8_left"] == 4
        assert dims["fig9_middle"] == 5
        assert dims["fig10_right"] == 7
        assert dims["fig11"] == 15
        assert dims["fig12"] == 40

    def test_parameter_freeze(self):
        configs = benchmark_configs()

        def taus(key):
            spec = configs[key].nac
            return {tuple(sorted(spec.tree.leaf_set(v))): round(g.tau, 6)
                    for v, g in spec.generators.items()}

        assert taus("fig7_right") == {
            ("U1", "U2", "U3", "U4"): 0.2, ("U1", "U2"): 0.8,
            ("U3", "U4"): 0.8}
        assert taus("fig8_middle") == {
            ("U1", "U2", "U3", "U4"): 0.3, ("U3", "U4"): 0.7}
        assert taus("fig9_left")[("U3", "U4", "U5")] == 0.5
        ten = taus("fig10_left")
        assert ten[tuple(sorted(f"U{i}" for i in range(1, 8)))] == 0.35
        assert ten[("U6", "U7")] == 0.65
        eleven = taus("fig11")
        assert eleven[tuple(sorted(f"U{i}" for i in range(1, 16)))] == 0.1
        assert eleven[tuple(sorted(f"U{i}" for i in range(9, 14)))] == 0.75

    def test_families(self):
        configs = benchmark_configs()
        fam = {key: next(iter(c.nac.generators.values())).family
               for key, c in configs.items()}
        assert fam["fig7_left"] == "clayton"
        assert fam["fig9_right"] == "gumbel"
        assert fam["fig10_left"] == "frank"
        assert fam["fig11"] == "joe"
        assert fam["fig12"] == "gumbel"

    def test_all_nest_ok(self):
        for key, config in benchmark_configs().items():
            assert check_nesting(config.nac).status == "ok", key

    def test_fig12_structure(self):
        spec = benchmark_configs()["fig12"].nac
        assert spec.d == 40
        assert len(spec.generators) == 18
        taus = sorted(round(g.tau, 6) for g in spec.generators.values())
        assert taus[0] == 0.1 and taus[-1] == 0.8
        assert spec.tree.label_set == {f"U{i}" for i in range(1, 41)}

    def test_fig12_only_kt_kagg(self):
        assert benchmark_configs()["fig12"].estimators == ("kt_kagg",)

    @pytest.mark.parametrize("key", sorted(benchmark_configs()))
    def test_runs_without_error_records(self, key):
        config = dataclasses.replace(benchmark_configs()[key],
                                     sample_sizes=(30,), replicates=1,
                                     bootstrap_b=5)
        result = run_study(config)
        assert len(result.records) == sum(
            len(config.thresholds[name]) for name in config.estimators)
        assert [r for r in result.records if r.error] == []
