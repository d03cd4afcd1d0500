import json

import numpy as np
import pytest

from nactree.cli import main
from nactree.nac import NacSpec
from nactree.study import StudyResult
from nactree.trees import parse_newick

from conftest import negative_sample


@pytest.fixture()
def model_json(tmp_path):
    spec = NacSpec.single_family("((U1,U2),(U3,U4));", "clayton", {
        ("U1", "U2", "U3", "U4"): 0.2, ("U1", "U2"): 0.8, ("U3", "U4"): 0.8})
    path = tmp_path / "model.json"
    path.write_text(spec.to_json())
    return path


@pytest.fixture()
def sample_csv(tmp_path, model_json):
    out = tmp_path / "data.csv"
    assert main(["sample", "--spec", str(model_json), "--n", "400",
                 "--seed", "4", "--output", str(out)]) == 0
    return out


class TestSample:
    def test_header_and_range(self, sample_csv):
        lines = sample_csv.read_text().strip().splitlines()
        assert lines[0] == "U1,U2,U3,U4"
        assert len(lines) == 401
        values = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.all((values > 0) & (values < 1))

    def test_byte_identical_reruns(self, tmp_path, model_json):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", "--spec", str(model_json), "--n", "50", "--seed", "9",
              "--output", str(a)])
        main(["sample", "--spec", str(model_json), "--n", "50", "--seed", "9",
              "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_failing_nesting_exits_nonzero(self, tmp_path):
        bad = NacSpec.single_family("((U1,U2),U3);", "clayton", {
            ("U1", "U2", "U3"): 0.8, ("U1", "U2"): 0.2})
        path = tmp_path / "bad.json"
        path.write_text(bad.to_json())
        code = main(["sample", "--spec", str(path), "--n", "10",
                     "--seed", "1", "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_negative_seed_is_a_usage_error(self, tmp_path, model_json,
                                            capsys):
        assert main(["sample", "--spec", str(model_json), "--n", "10",
                     "--seed", "-1", "--output", str(tmp_path / "x.csv")]) == 1
        assert "--seed" in capsys.readouterr().err


class TestEstimate:
    def test_default_method_and_annotation(self, tmp_path, sample_csv):
        out = tmp_path / "est.nwk"
        assert main(["estimate", "--input", str(sample_csv), "--output",
                     str(out), "--annotate"]) == 0
        tree = parse_newick(out.read_text())
        assert tree == parse_newick("((U1,U2),(U3,U4));")
        assert tree.annotations
        assert all(v == round(v, 2) for v in tree.annotations.values())

    def test_byte_identical_reruns(self, tmp_path, sample_csv):
        a, b = tmp_path / "a.nwk", tmp_path / "b.nwk"
        for path in (a, b):
            main(["estimate", "--input", str(sample_csv), "--output",
                  str(path), "--annotate", "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_threshold_gives_binary(self, tmp_path, sample_csv):
        out = tmp_path / "bin.nwk"
        main(["estimate", "--input", str(sample_csv), "--method", "kt_kagg",
              "--tau-c", "0", "--output", str(out)])
        assert parse_newick(out.read_text()).is_binary()

    def test_su_method(self, tmp_path, sample_csv):
        out = tmp_path / "su.nwk"
        assert main(["estimate", "--input", str(sample_csv), "--method", "SU",
                     "--alpha", "0.05", "--boot", "30", "--output",
                     str(out)]) == 0
        assert parse_newick(out.read_text()).label_set == {
            "U1", "U2", "U3", "U4"}

    @pytest.mark.parametrize("method", ["kt_kb", "SU"])
    def test_too_few_resamples_to_reject_warn(self, tmp_path, sample_csv,
                                              caplog, method):
        # a p-value is at least 1/(B + 1): 1/6 > 0.05, while 1/20 <= 0.05
        outputs = {}
        for boot in (5, 19, 200):
            caplog.clear()
            out = tmp_path / f"{boot}.nwk"
            assert main(["estimate", "--input", str(sample_csv), "--method",
                         method, "--alpha", "0.05", "--boot", str(boot),
                         "--output", str(out)]) == 0
            outputs[boot] = out.read_text()
            warnings = [r.getMessage() for r in caplog.records
                        if r.levelname == "WARNING"]
            if boot == 5:
                assert warnings == [
                    "no fan test can reject at alpha 0.05 with --boot 5, "
                    "whose smallest p-value is 1/6; --boot 19 is the "
                    "smallest that can"]
            else:
                assert not warnings
        assert all(text.endswith(";\n") for text in outputs.values())
        caplog.clear()
        assert main(["estimate", "--input", str(sample_csv), "--method",
                     method, "--alpha", "0", "--boot", "5"]) == 0
        assert [r.getMessage().rsplit("; ", 1)[1] for r in caplog.records
                if r.levelname == "WARNING"] == ["no --boot can"]

    def test_negative_dependence_warns(self, tmp_path, caplog):
        # the tree is written as without the warning
        data = tmp_path / "negative.csv"
        negative_sample().to_csv(data)
        out = tmp_path / "negative.nwk"
        assert main(["estimate", "--input", str(data), "--output",
                     str(out)]) == 0
        assert out.read_text() == "((A,B),(C,D));\n"
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert warnings[0].endswith("for (A,C) -0.83, (B,C) -0.67")

    def test_comonotone_columns_annotated_near_one(self, tmp_path, rng):
        col = rng.uniform(size=200)
        csv = tmp_path / "tri.csv"
        rows = ["a,b,c"]
        noise = rng.uniform(size=200)
        for i in range(200):
            rows.append(f"{col[i]},{col[i] * 0.9 + 0.05},{noise[i]}")
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "t.nwk"
        main(["estimate", "--input", str(csv), "--output", str(out),
              "--annotate"])
        tree = parse_newick(out.read_text())
        cherry = next(v for v in tree.internal_nodes
                      if tree.leaf_set(v) == {"a", "b"})
        assert tree.annotations[cherry] >= 0.95

    def test_error_codes(self, tmp_path, sample_csv):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv")]) == 2
        assert main(["estimate", "--input", str(sample_csv), "--method",
                     "kt_kagg", "--alpha", "0.3"]) == 1
        assert main(["estimate", "--input", str(sample_csv), "--method",
                     "SU", "--tau-c", "0.1"]) == 1
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("a,b\n1,2\n2,3\n3,1\n")
        assert main(["estimate", "--input", str(narrow)]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["--seed", "-1"], "--seed"), (["--seed", "x"], "--seed"),
        (["--method", "kt_kb", "--boot", "0"], "--boot"),
        (["--method", "SU", "--boot", "-3"], "--boot")])
    def test_bad_seed_or_boot_is_a_usage_error(self, sample_csv, capsys, argv,
                                               flag):
        assert main(["estimate", "--input", str(sample_csv), *argv]) == 1
        assert flag in capsys.readouterr().err

    def test_boot_is_not_checked_for_kagg(self, tmp_path, sample_csv):
        out = tmp_path / "est.nwk"
        assert main(["estimate", "--input", str(sample_csv), "--boot", "0",
                     "--output", str(out)]) == 0

    @pytest.mark.parametrize("tau_c", ["nan", "-0.1"])
    def test_bad_tau_c_is_a_data_error(self, sample_csv, capsys, tau_c):
        assert main(["estimate", "--input", str(sample_csv), "--method",
                     "kt_kagg", "--tau-c", tau_c]) == 2
        captured = capsys.readouterr()
        assert "tau_c must be >= 0" in captured.err
        assert captured.out == ""

    def test_constant_column_is_a_data_error(self, tmp_path, sample_csv,
                                             capsys):
        header, *body = sample_csv.read_text().strip().splitlines()
        rows = [ln.split(",") for ln in body]
        for row in rows:
            row[2] = "0.5"  # U3
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join([header] + [",".join(r) for r in rows])
                        + "\n")
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(flat), "--method",
                     "NJNNI_kagg", "--output", str(out)]) == 2
        assert not out.exists()
        assert main(["distmat", "--input", str(flat), "--output",
                     str(out)]) == 2
        assert not out.exists()
        assert "constant column(s) carry no dependence: U3" in (
            capsys.readouterr().err)


    @pytest.mark.parametrize("header", ["x:y,a b,c", "a,b(1),c", "a,,c"])
    def test_column_names_newick_cannot_hold_are_data_errors(
            self, tmp_path, capsys, header):
        csv = tmp_path / "names.csv"
        csv.write_text(header + "\n1,2,3\n2,3,1\n3,1,2\n4,4,4\n")
        out = tmp_path / "tree.nwk"
        assert main(["estimate", "--input", str(csv), "--output",
                     str(out)]) == 2
        assert not out.exists()
        assert "column names must be non-empty" in capsys.readouterr().err


class TestSimulate:
    def test_paper_config_produces_files(self, tmp_path):
        out = tmp_path / "study"
        code = main(["simulate", "--paper-config", "fig7_right",
                     "--replicates", "2", "--out", str(out)])
        assert code == 0
        result = StudyResult.from_csv(out / "estimates.csv")
        assert result.records
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summaries"]

    def test_custom_config(self, tmp_path, model_json):
        config = {
            "nac": json.loads(model_json.read_text()),
            "sample_sizes": [30],
            "replicates": 2,
            "estimators": ["kt_kagg"],
            "thresholds": {"kt_kagg": [0.0]},
            "seed": 7,
        }
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        result = StudyResult.from_csv(out / "estimates.csv")
        assert len(result.records) == 2

    def test_rerun_same_seed_byte_identical_distances(self, tmp_path, model_json):
        config = {
            "nac": json.loads(model_json.read_text()),
            "sample_sizes": [30], "replicates": 2,
            "estimators": ["kt_kagg"], "thresholds": {"kt_kagg": [0.0]},
            "seed": 7,
        }
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(config))
        outs = []
        for sub in ("o1", "o2"):
            out = tmp_path / sub
            main(["simulate", "--config", str(cfg), "--out", str(out)])
            rows = [ln.split(",")[:6] for ln in
                    (out / "estimates.csv").read_text().splitlines()]
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_unknown_bundled_config(self, tmp_path):
        assert main(["simulate", "--paper-config", "nope",
                     "--out", str(tmp_path / "x")]) == 1


class TestDistmat:
    def test_kt_output(self, tmp_path, sample_csv):
        out = tmp_path / "dm.csv"
        assert main(["distmat", "--input", str(sample_csv), "--kind", "kt",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",U1,U2,U3,U4"
        first = [float(x) for x in lines[1].split(",")[1:]]
        assert first[0] == 0.0


class TestTreedist:
    def test_output_format(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        a.write_text("((U2,U3),U1);\n")
        b.write_text("(U1,U2,U3);\n")
        assert main(["treedist", "--a", str(a), "--b", str(b)]) == 0
        assert capsys.readouterr().out.strip() == "01=1 tri=1 max=1"
        assert main(["treedist", "--a", str(a), "--b", str(a)]) == 0
        assert capsys.readouterr().out.strip() == "01=0 tri=0 max=1"

    def test_mismatched_leafsets(self, tmp_path):
        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        a.write_text("(A,B,C);\n")
        b.write_text("(A,B,D);\n")
        assert main(["treedist", "--a", str(a), "--b", str(b)]) == 2


class TestTriples:
    def test_cherry_line(self, tmp_path, capsys):
        path = tmp_path / "t.nwk"
        for text in ["((U2,U3),U1);\n",
                     "# a comment\n\n  # an indented comment\n((U2,\nU3),U1);\n"]:
            path.write_text(text)
            assert main(["triples", "--input", str(path)]) == 0
            assert capsys.readouterr().out.strip() == "U2,U3|U1 CHERRY"

    def test_fan_line(self, tmp_path, capsys):
        path = tmp_path / "t.nwk"
        path.write_text("(U1,U2,U3);\n")
        main(["triples", "--input", str(path)])
        assert capsys.readouterr().out.strip() == "U1,U2,U3 FAN"

    def test_too_small(self, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(U1,U2);\n")
        assert main(["triples", "--input", str(path)]) == 2


class TestParser:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
