import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from mvboost.boosting import BoostConfig, BoostModel
from mvboost.cli import main
from mvboost.distributions import ThetaVector, to_moment_form
from mvboost.model_io import save_model


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def simulate(runner, path, n=300, seed=0, extra=()):
    result = runner.invoke(
        main, ["simulate", "--n", str(n), "--seed", str(seed), "--out", str(path), *extra]
    )
    assert result.exit_code == 0, result.output
    return path, path.parent / (path.stem + "_truth.csv")


def train(runner, data, model, extra=()):
    result = runner.invoke(
        main,
        ["train", "--data", str(data), "--targets", "y1,y2", "--out", str(model),
         "--stages", "30", "--patience", "10", "--learning-rate", "0.1", *extra],
    )
    assert result.exit_code == 0, result.output
    return model


class TestSimulate:
    def test_writes_dataset_and_truth(self, runner, tmp_path):
        data, truth = simulate(runner, tmp_path / "d.csv", n=50)
        header, rows = read_csv(data)
        assert header == ["x", "y1", "y2"]
        assert len(rows) == 50
        t_header, t_rows = read_csv(truth)
        assert t_header == ["x", "mu1", "mu2", "var1", "var2", "rho"]
        assert len(t_rows) == 50
        assert [r[0] for r in rows] == [r[0] for r in t_rows]

    def test_deterministic_per_seed(self, runner, tmp_path):
        a, _ = simulate(runner, tmp_path / "a.csv", n=40, seed=7)
        b, _ = simulate(runner, tmp_path / "b.csv", n=40, seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_refuses_overwrite_without_force(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        simulate(runner, path, n=10)
        result = runner.invoke(main, ["simulate", "--n", "10", "--out", str(path)])
        assert result.exit_code != 0
        result = runner.invoke(
            main, ["simulate", "--n", "10", "--out", str(path), "--force"]
        )
        assert result.exit_code == 0


class TestTrainPredict:
    def test_round_trip_bit_exact(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for out in (out1, out2):
            result = runner.invoke(
                main, ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        assert out1.read_bytes() == out2.read_bytes()

    def test_predict_columns(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        out = tmp_path / "p.csv"
        runner.invoke(main, ["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        header, rows = read_csv(out)
        assert header == ["mu1", "mu2", "nu11", "nu12", "nu22",
                          "sigma11", "sigma12", "sigma22", "nll"]
        assert len(rows) == 300
        # predicted variances must be positive
        for r in rows:
            assert float(r[5]) > 0 and float(r[7]) > 0

    def test_model_file_versioned_json(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        assert doc["format_version"] == 1
        assert doc["feature_names"] == ["x"]
        assert doc["target_names"] == ["y1", "y2"]

    def test_newer_format_rejected(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        doc["format_version"] = 999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["predict", "--model", str(bad), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3

    def test_independent_model_round_trip(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json", extra=["--independent"])
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main, ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out)
        # diagonal model: off-diagonal scale entry is exactly zero
        assert all(float(r[header.index("nu12")]) == 0.0 for r in rows)

    def test_deleted_univariate_family_rejected(self, runner, tmp_path):
        # files saved with the removed (mu, log sigma) family must not be read
        # as (mu, nu); the sub-models now carry the "mvn-1" tag
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json", extra=["--independent"])
        doc = json.loads(model.read_text())
        assert [m["family"] for m in doc["models"]] == ["mvn-1", "mvn-1"]
        for sub in doc["models"]:
            sub["family"] = "univariate"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["predict", "--model", str(bad), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3
        assert "univariate" in result.output

    def test_family_theta_length_mismatch_rejected(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        doc["model"]["family"] = "mvn-3"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["predict", "--model", str(bad), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("mutate, message", [
        (lambda m: m.pop("theta0"), "theta0"),
        (lambda m: m["stages"][0]["trees"][0].__setitem__("root", {
            "feature": 7, "threshold": 0.5, "left": {"leaf": 0.0}, "right": {"leaf": 1.0}}),
         "feature 7"),
        (lambda m: m.update(best_stage=99), "best_stage"),
        (lambda m: m["stages"][0]["trees"].pop(), "trees"),
        (lambda m: m.update(best_stage="3"), "best_stage"),
    ])
    def test_malformed_model_is_data_error(self, runner, tmp_path, mutate, message):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        mutate(doc["model"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["predict", "--model", str(bad), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3, result.output
        assert message in result.output

    def test_old_file_with_rng_seed_predicts_the_same(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        assert "rng_seed" not in doc["model"]["config"]
        doc["model"]["config"]["rng_seed"] = 5
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        outs = []
        for path in (model, old):
            out = tmp_path / f"p_{path.stem}.csv"
            result = runner.invoke(
                main, ["predict", "--model", str(path), "--data", str(data), "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_predicted_sigma_matches_moment_form(self, runner, tmp_path):
        # a large dynamic range in L, where inverting L^T L loses digits
        theta0 = np.array([0, 0, 0, 2.5, 2.1, -2.3, -7.0, 4.4, -6.0])
        model = BoostModel(theta0=theta0, stages=(), config=BoostConfig(),
                           family_tag="mvn-3", best_stage=0, n_features=1)
        path = tmp_path / "m.json"
        save_model(model, path, feature_names=["x"], target_names=["y1", "y2", "y3"])
        data = tmp_path / "d.csv"
        data.write_text("x\n0.0\n1.0\n")
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main, ["predict", "--model", str(path), "--data", str(data), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out)
        expected = to_moment_form(ThetaVector(theta0, 3)).covariance
        for i, j in zip(*np.triu_indices(3)):
            got = np.array([float(r[header.index(f"sigma{i + 1}{j + 1}")]) for r in rows])
            np.testing.assert_allclose(got, expected[i, j], rtol=1e-12)

    def test_predict_without_feature_names_is_data_error(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        doc["feature_names"] = None
        model.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["predict", "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3
        assert "feature_names" in result.output

    def test_scaled_training_round_trip(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        plain = train(runner, data, tmp_path / "m0.json")
        scaled = train(runner, data, tmp_path / "m1.json", extra=["--scale-x", "--scale-y"])
        out0, out1 = tmp_path / "p0.csv", tmp_path / "p1.csv"
        runner.invoke(main, ["predict", "--model", str(plain), "--data", str(data), "--out", str(out0)])
        runner.invoke(main, ["predict", "--model", str(scaled), "--data", str(data), "--out", str(out1)])
        h, rows0 = read_csv(out0)
        _, rows1 = read_csv(out1)
        mu1 = np.array([float(r[0]) for r in rows1])
        # scaled fit reports means in original units, same range as unscaled
        assert abs(mu1.mean() - np.mean([float(r[0]) for r in rows0])) < 0.5

    def test_train_log(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        log = tmp_path / "log.csv"
        train(runner, data, tmp_path / "m.json", extra=["--log", str(log)])
        header, rows = read_csv(log)
        assert header == ["submodel", "stage", "train_nll", "val_nll"]
        assert len(rows) >= 2
        # training NLL is non-increasing over stages
        nlls = [float(r[2]) for r in rows]
        assert nlls[-1] <= nlls[0]


class TestEvaluate:
    def test_report_with_truth(self, runner, tmp_path):
        data, truth = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        result = runner.invoke(
            main, ["evaluate", "--model", str(model), "--data", str(data),
                   "--truth", str(truth)]
        )
        assert result.exit_code == 0, result.output
        assert "KL div" in result.output
        assert "NLL" in result.output
        assert "90% PR" in result.output

    def test_report_csv(self, runner, tmp_path):
        data, truth = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        out = tmp_path / "report.csv"
        result = runner.invoke(
            main, ["evaluate", "--model", str(model), "--data", str(data),
                   "--truth", str(truth), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out)
        assert header == ["n_points", "alpha", "nll", "rmse", "pr_coverage", "pr_area", "kl"]
        assert len(rows) == 1
        assert float(rows[0][6]) >= 0.0

    def test_truth_row_mismatch(self, runner, tmp_path):
        data, truth = simulate(runner, tmp_path / "d.csv", n=100)
        _, short_truth = simulate(runner, tmp_path / "e.csv", n=50, seed=1)
        model = train(runner, data, tmp_path / "m.json")
        result = runner.invoke(
            main, ["evaluate", "--model", str(model), "--data", str(data),
                   "--truth", str(short_truth)]
        )
        assert result.exit_code == 3

    def test_without_feature_names_is_data_error(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        doc["feature_names"] = None
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["evaluate", "--model", str(model), "--data", str(data)])
        assert result.exit_code == 3
        assert "feature_names" in result.output


class TestErrors:
    def test_missing_column_is_data_error(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1.0,2.0\n")
        result = runner.invoke(
            main, ["train", "--data", str(path), "--targets", "y1,y2",
                   "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3

    def test_malformed_cell_is_data_error(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y1,y2\n1.0,oops,2.0\n")
        result = runner.invoke(
            main, ["train", "--data", str(path), "--targets", "y1,y2",
                   "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3

    def test_empty_file_is_data_error(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        result = runner.invoke(
            main, ["train", "--data", str(path), "--targets", "y1,y2",
                   "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3

    def test_usage_error_exit_code(self, runner):
        result = runner.invoke(main, ["train"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("option", [
        ("--stages", "0"),
        ("--learning-rate", "2"),
        ("--learning-rate", "0"),
        ("--max-depth", "0"),
        ("--patience", "-1"),
        ("--min-samples-leaf", "0"),
    ])
    def test_out_of_range_config_option_is_usage_error(self, runner, tmp_path, command, option):
        data, _ = simulate(runner, tmp_path / "d.csv", n=50)
        args = {
            "train": ["train", "--data", str(data), "--targets", "y1,y2"],
            "benchmark": ["benchmark", "--n-grid", "50", "--reps", "1"],
        }[command]
        result = runner.invoke(main, [*args, *option, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "Invalid value" in result.output
        assert not (tmp_path / "out").exists()


class TestBenchmark:
    def test_small_run_writes_tables(self, runner, tmp_path):
        out = tmp_path / "bench"
        result = runner.invoke(
            main,
            ["benchmark", "--n-grid", "120", "--reps", "2", "--methods", "ngb",
             "--stages", "10", "--patience", "5", "--learning-rate", "0.1",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out / "results.csv")
        assert header[:3] == ["N", "method", "replication"]
        assert len(rows) == 2
        agg_header, agg_rows = read_csv(out / "results_aggregate.csv")
        assert agg_header == ["N", "method", "metric", "mean", "stderr"]
        assert "mean test KL divergence" in result.output
