import csv
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvboost.boosting import BoostConfig, BoostModel, IndependentModel
from mvboost.cli import main
from mvboost.distributions import ThetaVector, to_moment_form
from mvboost.model_io import load_model, save_model


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


def stage_free_model(tmp_path, theta0=(0.0, 0.0, 0.0, 0.0, 0.0)):
    """A p = 2 model file with no stages, predicting theta0 everywhere."""
    model = BoostModel(theta0=np.array(theta0), stages=(), config=BoostConfig(),
                       best_stage=0, n_features=1)
    path = tmp_path / "m.json"
    save_model(model, path, feature_names=["x"], target_names=["y1", "y2"])
    return path


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
        assert doc["format_version"] == 2
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

    def test_independent_sub_models_with_other_feature_counts_rejected(self, runner, tmp_path):
        subs = tuple(BoostModel(theta0=np.zeros(2), stages=(), config=BoostConfig(),
                                best_stage=0, n_features=d)
                     for d in (1, 2))
        path = tmp_path / "m.json"
        save_model(IndependentModel(models=subs), path, feature_names=["x"],
                   target_names=["y1", "y2"])
        data, _ = simulate(runner, tmp_path / "d.csv", n=20)
        result = runner.invoke(
            main, ["predict", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3, result.output
        assert "feature counts" in result.output

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
        # json writes NaN and Infinity as literals, which json.load accepts
        (lambda m: m["theta0"].__setitem__(2, float("nan")), "theta0 holds"),
        (lambda m: m["stages"][0].__setitem__("rho", float("inf")), "non-finite rho"),
        (lambda m: m["stages"][0]["trees"][0].__setitem__("root", {"leaf": float("nan")}),
         "non-finite leaf"),
        (lambda m: m["stages"][0]["trees"][0].__setitem__("root", {
            "feature": 0, "threshold": float("-inf"), "left": {"leaf": 0.0},
            "right": {"leaf": 1.0}}), "non-finite threshold"),
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

    @pytest.mark.parametrize("root", [
        # json.load recurses once per level; 5000 levels pass the recursion limit
        '{"feature": 0, "threshold": 0.0, "left": ' * 5000 + '{"leaf": 0.0}'
        + ', "right": {"leaf": 0.0}}' * 5000,
        # an integer no float can hold
        '{"leaf": 1' + "0" * 400 + "}",
    ], ids=["nested-too-deep", "huge-integer"])
    def test_tree_past_python_limits_is_data_error(self, runner, tmp_path, root):
        data, _ = simulate(runner, tmp_path / "d.csv", n=20)
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        doc["model"]["stages"][0]["trees"][0]["root"] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"@"', root))
        result = runner.invoke(
            main, ["predict", "--model", str(bad), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3, (result.output, result.exception)
        assert "data error" in result.output

    def test_old_file_with_rng_seed_predicts_the_same(self, runner, tmp_path):
        # files written before rng_seed and min_samples_split were removed
        data, _ = simulate(runner, tmp_path / "d.csv")
        model = train(runner, data, tmp_path / "m.json")
        doc = json.loads(model.read_text())
        assert "rng_seed" not in doc["model"]["config"]
        assert "min_samples_split" not in doc["model"]["config"]["tree_params"]
        doc["model"]["config"]["rng_seed"] = 5
        doc["model"]["config"]["tree_params"]["min_samples_split"] = 2
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
                           best_stage=0, n_features=1)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_prediction_is_numeric_failure(self, runner, tmp_path, command):
        # a finite theta whose a_11 = exp(1e300) overflows
        model = stage_free_model(tmp_path, theta0=(0.0, 0.0, 1e300, 0.0, 0.0))
        data, _ = simulate(runner, tmp_path / "d.csv", n=20)
        out = tmp_path / "out.csv"
        result = runner.invoke(
            main, [command, "--model", str(model), "--data", str(data), "--out", str(out)]
        )
        assert result.exit_code == 4, result.output
        assert "non-finite" in result.output
        assert not out.exists()

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

    def test_target_units_do_not_matter(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv")
        header, rows = read_csv(data)
        big = tmp_path / "big.csv"
        big.write_text(",".join(header) + "\n" + "".join(
            f"{r[0]},{float(r[1]) * 1e7!r},{float(r[2]) * 1e7!r}\n" for r in rows))
        preds = []
        for path in (data, big):
            model = train(runner, path, tmp_path / f"m_{path.stem}.json")
            out = tmp_path / f"p_{path.stem}.csv"
            result = runner.invoke(
                main, ["predict", "--model", str(model), "--data", str(path), "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            preds.append(read_csv(out))
        (h, base), (_, scaled) = preds
        for col, factor in [("mu1", 1e7), ("mu2", 1e7),
                            ("sigma11", 1e14), ("sigma12", 1e14), ("sigma22", 1e14)]:
            k = h.index(col)
            expected = factor * np.array([float(r[k]) for r in base])
            got = np.array([float(r[k]) for r in scaled])
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("extra", [[], ["--independent"]])
    def test_model_file_save_load_save_identical(self, runner, tmp_path, extra):
        data, _ = simulate(runner, tmp_path / "d.csv")
        path = train(runner, data, tmp_path / "m.json", extra=extra)
        model, doc = load_model(path)
        again = tmp_path / "again.json"
        save_model(model, again, feature_names=doc["feature_names"],
                   target_names=doc["target_names"], metadata=doc["metadata"])
        assert again.read_bytes() == path.read_bytes()

    def test_version_1_file_asks_for_refit(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv", n=20)
        model = stage_free_model(tmp_path)
        doc = json.loads(model.read_text())
        doc["format_version"] = 1
        doc["scaling"] = {"y": {"min": [0.0, 0.0], "max": [1.0, 1.0]}}
        model.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["predict", "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 3
        assert "refit" in result.output

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


DELETE = "<delete>"
# Wrong types, NaN, infinities and out-of-range numbers for any field.
MUTANT_VALUES = [DELETE, None, True, False, "x", [], {}, 0, -1, 2.5, 10**9, -10**9,
                 1e300, -1e300, math.nan, math.inf, -math.inf]
# Fields that loaded silently, or failed with a raw TypeError, before their
# types were checked.
WRONG_TYPED = [
    (("feature_names",), 5),
    (("target_names",), 5),
    (("model", "stages", 0, "trees", 0, "root", "feature"), 0.5),
    (("model", "stages", 0, "trees", 0, "root", "threshold"), True),
    (("model", "config", "natural_gradient"), "x"),
    (("model", "config", "tree_params", "max_depth"), 2.5),
]
# Name lists of the wrong length: too many feature names ended predict with a
# raw ValueError, too few target names with a numeric failure (exit 4).
WRONG_COUNT = [
    (("feature_names",), ["x", "y1"]),
    (("target_names",), ["y1"]),
]


def mutate(doc, path, value):
    """Set the field at ``path`` to ``value``, or delete it for DELETE.

    A string step is a dict key; an integer step k picks child k modulo the
    number of children (dict keys in sorted order).  The walk stops early at
    a field that holds no children.
    """
    node = doc
    for depth, step in enumerate(path):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = step if isinstance(step, str) else keys[step % len(keys)]
        child = node[key]
        if depth == len(path) - 1 or not isinstance(child, (dict, list)) or not child:
            break
        node = child
    if value == DELETE:
        del node[key]
    else:
        node[key] = value


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory):
    """A dataset and the texts of a joint and an independent model trained on it."""
    runner = CliRunner()
    tmp = tmp_path_factory.mktemp("trained")
    data, _ = simulate(runner, tmp / "d.csv", n=120)
    texts = {}
    for kind, extra in (("joint", []), ("independent", ["--independent"])):
        texts[kind] = train(runner, data, tmp / f"{kind}.json", extra=extra).read_text()
    return tmp, data, texts


def predict_mutant(trained_files, kind, path, value):
    """Run predict on the model of ``kind`` with one field mutated; return
    the result and the output file."""
    tmp, data, texts = trained_files
    doc = json.loads(texts[kind])
    mutate(doc, path, value)
    bad, out = tmp / "mutant.json", tmp / "mutant_pred.csv"
    bad.write_text(json.dumps(doc))
    result = CliRunner().invoke(
        main, ["predict", "--model", str(bad), "--data", str(data), "--out", str(out),
               "--force"]
    )
    return result, out


class TestModelFileMutants:
    @pytest.mark.parametrize("path, value", WRONG_TYPED + WRONG_COUNT)
    def test_malformed_field_is_data_error(self, trained_files, path, value):
        result, _ = predict_mutant(trained_files, "joint", path, value)
        assert result.exit_code == 3, result.output
        assert "data error" in result.output

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["joint", "independent"]),
           path=st.lists(st.integers(0, 63), min_size=1, max_size=10),
           value=st.sampled_from(MUTANT_VALUES))
    @example(kind="joint", path=WRONG_TYPED[0][0], value=WRONG_TYPED[0][1])
    @example(kind="joint", path=WRONG_TYPED[1][0], value=WRONG_TYPED[1][1])
    @example(kind="joint", path=WRONG_TYPED[2][0], value=WRONG_TYPED[2][1])
    @example(kind="joint", path=WRONG_TYPED[3][0], value=WRONG_TYPED[3][1])
    @example(kind="joint", path=WRONG_TYPED[4][0], value=WRONG_TYPED[4][1])
    @example(kind="joint", path=WRONG_TYPED[5][0], value=WRONG_TYPED[5][1])
    def test_mutant_predicts_finite_or_exits_typed(self, trained_files, kind, path, value):
        result, out = predict_mutant(trained_files, kind, path, value)
        # 0 success, 3 data error, 4 numeric failure; never 1 (a raw exception)
        assert result.exit_code in (0, 3, 4), (result.output, result.exception)
        if result.exit_code == 0:
            _, rows = read_csv(out)
            assert all(math.isfinite(float(v)) for row in rows for v in row)


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

    def test_truth_for_other_than_two_targets_is_data_error(self, runner, tmp_path):
        # the sidecar holds bivariate moments only; a p = 3 model has no use for it
        _, truth = simulate(runner, tmp_path / "d.csv", n=2)
        model = BoostModel(theta0=np.zeros(9), stages=(), config=BoostConfig(),
                           best_stage=0, n_features=1)
        path = tmp_path / "m.json"
        save_model(model, path, feature_names=["x"], target_names=["y1", "y2", "y3"])
        data = tmp_path / "d3.csv"
        data.write_text("x,y1,y2,y3\n0.0,0.0,0.0,0.0\n1.0,1.0,1.0,1.0\n")
        result = runner.invoke(main, ["evaluate", "--model", str(path), "--data", str(data),
                                      "--truth", str(truth)])
        assert result.exit_code == 3, result.output
        assert "bivariate" in result.output


class TestErrors:
    @pytest.mark.parametrize("scale, message", [
        (1e152, "tree growth overflowed float64 at stage 1"),
        (1e153, "sample covariance overflows float64"),
    ])
    def test_overflowing_targets_are_numeric_failure(self, runner, tmp_path, scale, message):
        data, _ = simulate(runner, tmp_path / "d.csv")
        header, rows = read_csv(data)
        big = tmp_path / "big.csv"
        big.write_text(",".join(header) + "\n" + "".join(
            f"{r[0]},{float(r[1]) * scale!r},{float(r[2]) * scale!r}\n" for r in rows))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["train", "--data", str(big), "--targets", "y1,y2",
                                          "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 4, result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:")
        assert message in lines[0]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

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

    def test_repeated_header_column_is_data_error(self, runner, tmp_path):
        data, _ = simulate(runner, tmp_path / "d.csv", n=20)
        _, rows = read_csv(data)
        path = tmp_path / "dup.csv"
        path.write_text("x,x,y1,y2\n" + "".join(f"{r[0]},{r[0]},{r[1]},{r[2]}\n" for r in rows))
        result = runner.invoke(
            main, ["train", "--data", str(path), "--targets", "y1,y2", "--stages", "2",
                   "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3, result.output
        assert "['x']" in result.output
        assert not (tmp_path / "m.json").exists()

    def test_too_few_training_rows_after_split_is_data_error(self, runner, tmp_path):
        # 3 rows less the default 20% validation split leave 2 rows for p = 2 targets
        data, _ = simulate(runner, tmp_path / "d.csv", n=3)
        result = runner.invoke(
            main, ["train", "--data", str(data), "--targets", "y1,y2",
                   "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3, result.output
        assert "training rows" in result.output

    def test_empty_file_is_data_error(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        result = runner.invoke(
            main, ["train", "--data", str(path), "--targets", "y1,y2",
                   "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("columns", [
        ["--features", "x,y1", "--targets", "y1"],
        ["--targets", ","],
    ], ids=["overlap", "no-targets"])
    def test_bad_column_selection_is_data_error(self, runner, tmp_path, columns):
        data, _ = simulate(runner, tmp_path / "d.csv", n=50)
        result = runner.invoke(
            main, ["train", "--data", str(data), *columns, "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3, result.output
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("columns, repeated", [
        (["--targets", "y1,y2", "--features", "x,x"], "--features names a column more than once: ['x']"),
        (["--targets", "y1,y1", "--features", "x"], "--targets names a column more than once: ['y1']"),
    ], ids=["repeated-feature", "repeated-target"])
    def test_repeated_column_name_is_data_error(self, runner, tmp_path, columns, repeated):
        data, _ = simulate(runner, tmp_path / "d.csv", n=200)
        result = runner.invoke(
            main, ["train", "--data", str(data), *columns, "--stages", "2",
                   "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3, result.output
        assert repeated in result.output
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("option", [
        ("simulate", "--n", "0"),
        ("evaluate", "--alpha", "2"),
        ("evaluate", "--alpha", "1"),
        ("benchmark", "--reps", "0"),
        ("benchmark", "--threads", "0"),
        ("benchmark", "--n-grid", "0"),
        ("benchmark", "--n-grid", "abc"),
        ("benchmark", "--methods", "foo"),
        ("train", "--val-frac", "1.5"),
        ("train", "--val-frac", "-0.5"),
    ], ids=lambda option: " ".join(option))
    def test_out_of_range_option_is_usage_error(self, runner, tmp_path, option):
        command, *value = option
        data, _ = simulate(runner, tmp_path / "d.csv", n=50)
        model = stage_free_model(tmp_path)
        out = str(tmp_path / "out")
        args = {
            "simulate": ["simulate", "--out", out],
            "evaluate": ["evaluate", "--model", str(model), "--data", str(data), "--out", out],
            "benchmark": ["benchmark", "--n-grid", "50", "--reps", "1", "--methods", "ngb",
                          "--stages", "2", "--out", out],
            "train": ["train", "--data", str(data), "--targets", "y1,y2", "--stages", "2",
                      "--out", out],
        }[command]
        result = runner.invoke(main, [*args, *value])
        assert result.exit_code == 2, result.output
        assert "Invalid value" in result.output
        assert not (tmp_path / "out").exists()

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


def _unusable_path_cases():
    """(command, option, kind of path, exit code) for every path option."""
    cases = []
    for command, options in (("train", ("--data", "--val-file")),
                             ("predict", ("--model", "--data")),
                             ("evaluate", ("--model", "--data", "--truth"))):
        for option in options:
            cases += [(command, option, "non-utf8", 3), (command, option, "directory", 2)]
    for command, options in (("simulate", ("--out",)), ("train", ("--out", "--log")),
                             ("predict", ("--out",)), ("evaluate", ("--out",))):
        for option in options:
            cases += [(command, option, kind, 2)
                      for kind in ("missing-dir", "directory", "existing")]
    cases += [("benchmark", "--out", kind, 2) for kind in ("file", "under-file", "existing")]
    return cases


class TestUnusablePaths:
    """A path a command cannot use is a usage error (exit 2) or, for a file
    that is not UTF-8 text, a data error (exit 3), refused before any output."""

    @pytest.mark.parametrize("command, option, kind, code", _unusable_path_cases(),
                             ids=lambda value: str(value))
    def test_refused_before_any_work(self, runner, tmp_path, command, option, kind, code):
        data, truth = simulate(runner, tmp_path / "d.csv", n=50)
        model = stage_free_model(tmp_path)
        work = tmp_path / "work"
        (work / "dir").mkdir(parents=True)
        (work / "dir" / "results.csv").write_text("old\n")  # a benchmark's earlier output
        (work / "old").write_text("old\n")
        (work / "bad").write_bytes(b"x,y1,y2\n\xff\xfe,1,2\n")
        path = {"non-utf8": work / "bad", "directory": work / "dir", "existing": work / "old",
                "missing-dir": work / "none" / "o.csv", "file": work / "old",
                "under-file": work / "old" / "sub"}[kind]
        if command == "benchmark" and kind == "existing":
            path = work / "dir"
        args = {
            "simulate": ["simulate", "--n", "20", "--out", work / "s.csv"],
            "train": ["train", "--data", data, "--targets", "y1,y2", "--stages", "2",
                      "--out", work / "m.json", "--log", work / "log.csv"],
            "predict": ["predict", "--model", model, "--data", data, "--out", work / "p.csv"],
            "evaluate": ["evaluate", "--model", model, "--data", data, "--truth", truth,
                         "--out", work / "e.csv"],
            "benchmark": ["benchmark", "--n-grid", "50", "--reps", "1", "--methods", "ngb",
                          "--stages", "2", "--out", work / "b"],
        }[command]
        # an output directory is refused even where --force allows overwriting
        force = ["--force"] if kind == "directory" and option in ("--out", "--log") else []

        def contents():
            return {p: p.read_bytes() if p.is_file() else None for p in work.rglob("*")}

        before = contents()
        result = runner.invoke(main, [*map(str, args), option, str(path), *force])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert contents() == before  # nothing written, nothing overwritten


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

    def test_worker_processes_give_identical_tables(self, runner, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"bench{threads}"
            result = runner.invoke(
                main,
                ["benchmark", "--n-grid", "60,80", "--reps", "2", "--methods", "ngb,indep-ngb",
                 "--stages", "5", "--patience", "5", "--learning-rate", "0.1",
                 "--threads", threads, "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outs.append(((out / "results.csv").read_bytes(),
                         (out / "results_aggregate.csv").read_bytes()))
        assert outs[0] == outs[1]
