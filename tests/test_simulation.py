import math

import numpy as np
import pytest

from mvboost import simulation
from mvboost.boosting import BoostConfig
from mvboost.distributions import to_moment_form, ThetaVector
from mvboost.simulation import (
    ExperimentPlan,
    aggregate_rows,
    generate,
    run_cell,
    run_experiment,
    true_moments,
    true_params,
    true_params_batch,
)


def moments_of(theta):
    form = to_moment_form(ThetaVector(np.asarray(theta, float), 2))
    return form.mean, form.covariance


class TestTrueMoments:
    def test_at_zero(self):
        mu1, mu2, var1, var2, rho = true_moments(0.0)
        assert mu1 == pytest.approx(0.0)
        assert mu2 == pytest.approx(1.0)
        assert var1 == pytest.approx(0.01 + 0.25)
        assert var2 == pytest.approx(0.01)
        assert rho == pytest.approx(0.0)

    def test_at_half_pi(self):
        x = math.pi / 2.0
        mu1, mu2, var1, var2, rho = true_moments(x)
        s25, s15 = math.sin(2.5 * x), math.sin(1.5 * x)
        c35, c05 = math.cos(3.5 * x), math.cos(0.5 * x)
        assert mu1 == pytest.approx(s25 * s15 + x)
        assert mu2 == pytest.approx(c35 * c05 - x * x)
        assert var1 == pytest.approx(0.01 + 0.25 * (1 - s25) ** 2)
        assert var2 == pytest.approx(0.01 + 0.25 * (1 - c35) ** 2)
        assert rho == pytest.approx(s25 * c05)

    def test_original_variant_drops_trend(self):
        x = 1.3
        m_mod = true_moments(x, "modified")
        m_orig = true_moments(x, "williams-original")
        assert m_mod[0] == pytest.approx(m_orig[0] + x)
        assert m_mod[1] == pytest.approx(m_orig[1] - x * x)
        # variance and correlation are shared between variants
        for i in (2, 3, 4):
            assert m_mod[i] == pytest.approx(m_orig[i])

    def test_correlation_bounded(self):
        x = np.linspace(0.0, np.pi, 2001)
        _, _, var1, var2, rho = true_moments(x)
        assert np.all(np.abs(rho) <= 1.0)
        assert np.all(var1 >= 0.01)
        assert np.all(var2 >= 0.01)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            true_moments(0.5, "nope")


class TestTrueParams:
    def test_round_trips_to_moments(self):
        for x in (0.1, 0.7, 1.9, 3.0):
            mu1, mu2, var1, var2, rho = true_moments(x)
            mean, cov = moments_of(true_params(x))
            assert mean == pytest.approx([mu1, mu2], rel=1e-8)
            assert cov[0, 0] == pytest.approx(var1, rel=1e-6)
            assert cov[1, 1] == pytest.approx(var2, rel=1e-6)
            assert cov[0, 1] == pytest.approx(
                math.sqrt(var1 * var2) * rho, rel=1e-6, abs=1e-9
            )

    def test_batch_matches_scalar(self):
        xs = np.array([0.2, 1.1, 2.8])
        batch = true_params_batch(xs)
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], true_params(float(x)))


class TestGenerate:
    def test_shapes_and_range(self):
        data = generate(500, seed=3)
        assert data.X.shape == (500, 1)
        assert data.Y.shape == (500, 2)
        assert data.theta_true.shape == (500, 5)
        assert np.all(data.X >= 0.0) and np.all(data.X <= np.pi)

    def test_deterministic_per_seed(self):
        a = generate(100, seed=42)
        b = generate(100, seed=42)
        c = generate(100, seed=43)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert not np.array_equal(a.Y, c.Y)

    def test_windowed_moments_match_truth(self):
        # within a narrow x window the conditional distribution is nearly
        # constant, so sample moments must approach the stated functions
        data = generate(200000, seed=7)
        x0 = 1.0
        mask = np.abs(data.X[:, 0] - x0) < 0.01
        Yw = data.Y[mask]
        assert mask.sum() > 800
        mu1, mu2, var1, var2, rho = true_moments(x0)
        assert Yw[:, 0].mean() == pytest.approx(mu1, abs=0.05)
        assert Yw[:, 1].mean() == pytest.approx(mu2, abs=0.05)
        assert Yw[:, 0].var() == pytest.approx(var1, rel=0.2)
        assert Yw[:, 1].var() == pytest.approx(var2, rel=0.2)
        assert np.corrcoef(Yw.T)[0, 1] == pytest.approx(rho, abs=0.1)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate(0)


class TestPlanAndCells:
    def test_plan_defaults(self):
        plan = ExperimentPlan()
        assert plan.n_train_grid == (500, 1000, 5000)
        assert plan.n_val == 300 and plan.n_test == 1000
        assert plan.replications == 5 and plan.alpha == 0.9

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(replications=0)
        with pytest.raises(ValueError):
            ExperimentPlan(methods=("ngb", "mystery"))
        with pytest.raises(ValueError):
            ExperimentPlan(variant="other")

    @pytest.mark.parametrize("field, value", [
        ("n_train_grid", (60, 80, 60)),
        ("methods", ("ngb", "plain-gb", "ngb")),
    ])
    def test_plan_refuses_repeated_entries(self, field, value):
        # a repeated entry reruns the same seeded cells as extra replications
        with pytest.raises(ValueError, match="repeats"):
            ExperimentPlan(**{field: value})

    def test_run_cell_reports_metrics(self):
        plan = ExperimentPlan(
            n_train_grid=(200,), n_val=80, n_test=150, replications=1,
            config=BoostConfig(n_stages_max=40, patience=10, learning_rate=0.1),
        )
        row = run_cell(plan, 200, 0, "ngb")
        assert row["N"] == 200 and row["method"] == "ngb"
        assert "error" not in row
        for key in ("kl", "nll", "rmse", "pr_coverage", "pr_area"):
            assert np.isfinite(row[key])
        assert row["kl"] >= 0.0
        assert 0.0 <= row["pr_coverage"] <= 1.0

    def test_run_cell_deterministic(self):
        plan = ExperimentPlan(
            n_train_grid=(150,), n_val=60, n_test=100, replications=1,
            config=BoostConfig(n_stages_max=20, patience=5, learning_rate=0.1),
        )
        a = run_cell(plan, 150, 0, "indep-ngb")
        b = run_cell(plan, 150, 0, "indep-ngb")
        assert a == b

    def test_replications_draw_different_data(self):
        a = generate(100, seed=0)
        plan = ExperimentPlan(n_train_grid=(100,), replications=2)
        from mvboost.simulation import _sub_seed

        s0 = _sub_seed(plan.master_seed, 100, 0, "train")
        s1 = _sub_seed(plan.master_seed, 100, 1, "train")
        sv = _sub_seed(plan.master_seed, 100, 0, "val")
        assert len({s0, s1, sv}) == 3
        assert not np.array_equal(generate(100, seed=s0).Y, generate(100, seed=s1).Y)


class TestExperiment:
    def test_run_and_aggregate(self, tmp_path):
        plan = ExperimentPlan(
            n_train_grid=(120,), n_val=50, n_test=80, replications=2,
            methods=("ngb", "indep-ngb"),
            config=BoostConfig(n_stages_max=15, patience=5, learning_rate=0.1),
        )
        out = tmp_path / "results.csv"
        rows, aggregates = run_experiment(plan, out_path=out)
        assert len(rows) == 4
        assert out.exists()
        assert (tmp_path / "results_aggregate.csv").exists()
        kl_rows = [a for a in aggregates if a["metric"] == "kl"]
        assert {a["method"] for a in kl_rows} == {"ngb", "indep-ngb"}
        for a in aggregates:
            assert np.isfinite(a["mean"]) and a["stderr"] >= 0.0

    @pytest.mark.parametrize("replications, started", [(1, None), (3, 3)])
    def test_starts_no_more_workers_than_cells(self, monkeypatch, replications, started):
        class InProcessPool:
            """Records the worker count asked for and maps in this process."""

            max_workers = None

            def __init__(self, max_workers):
                InProcessPool.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", InProcessPool)
        plan = ExperimentPlan(
            n_train_grid=(60,), n_val=30, n_test=40, replications=replications,
            methods=("ngb",), config=BoostConfig(n_stages_max=3, learning_rate=0.1),
        )
        rows, _ = run_experiment(plan, workers=64)
        assert len(rows) == replications
        assert InProcessPool.max_workers == started

    def test_aggregate_excludes_errors(self):
        rows = [
            {"N": 10, "method": "ngb", "replication": 0, "kl": 1.0, "nll": 2.0,
             "rmse": 3.0, "pr_coverage": 0.9, "pr_area": 1.5},
            {"N": 10, "method": "ngb", "replication": 1, "error": "boom"},
        ]
        aggregates = aggregate_rows(rows)
        kl = next(a for a in aggregates if a["metric"] == "kl")
        assert kl["mean"] == 1.0 and kl["stderr"] == 0.0

    def test_aggregate_stderr(self):
        rows = [
            {"N": 10, "method": "ngb", "replication": r, "kl": v, "nll": 0.0,
             "rmse": 0.0, "pr_coverage": 0.0, "pr_area": 0.0}
            for r, v in enumerate((1.0, 2.0, 3.0))
        ]
        kl = next(a for a in aggregate_rows(rows) if a["metric"] == "kl")
        assert kl["mean"] == pytest.approx(2.0)
        assert kl["stderr"] == pytest.approx(1.0 / math.sqrt(3.0))
