import numpy as np
import pytest

from mvboost import boosting
from mvboost.boosting import (
    LINE_SEARCH_GRID,
    BoostConfig,
    fit,
    fit_independent,
    line_search,
    predict_theta,
)
from mvboost.distributions import (
    MvnFamily,
    nll_batch,
    param_count,
    scale_matrices,
)
from mvboost.trees import TreeParams


class _QuadraticFamily:
    """Toy family with nll = 0.5 (theta - y)^2 summed over components.

    For directions d = theta - y the exact minimizing step is rho = 1.
    """

    tag = "quadratic"
    n_params = 2

    def nll(self, thetas, Ys):
        diff = np.atleast_2d(thetas) - np.atleast_2d(Ys)
        return 0.5 * np.sum(diff * diff, axis=1)


def small_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, np.pi, size=(n, 1))
    mu1 = np.sin(2.0 * x[:, 0])
    mu2 = np.cos(x[:, 0])
    y1 = mu1 + 0.3 * rng.standard_normal(n)
    z = rng.standard_normal(n)
    y2 = mu2 + 0.3 * (0.8 * (y1 - mu1) / 0.3 + 0.6 * z)
    return x, np.column_stack([y1, y2])


class TestLineSearch:
    def test_grid_contents(self):
        assert len(LINE_SEARCH_GRID) == 16
        assert LINE_SEARCH_GRID[0] == 2.0**-10
        assert LINE_SEARCH_GRID[-1] == 32.0
        assert 1.0 in LINE_SEARCH_GRID

    def test_quadratic_picks_unit_step(self):
        rng = np.random.default_rng(0)
        thetas = rng.normal(size=(30, 2))
        Ys = rng.normal(size=(30, 2))
        rho = line_search(thetas, thetas - Ys, Ys, _QuadraticFamily())
        assert rho == 1.0

    def test_half_direction_doubles_step(self):
        rng = np.random.default_rng(1)
        thetas = rng.normal(size=(30, 2))
        Ys = rng.normal(size=(30, 2))
        rho = line_search(thetas, 0.5 * (thetas - Ys), Ys, _QuadraticFamily())
        assert rho == 2.0

    def test_no_improvement_returns_smallest(self):
        thetas = np.zeros((5, 2))
        Ys = np.zeros((5, 2))
        # stepping away from the optimum only hurts
        rho = line_search(thetas, np.ones((5, 2)), Ys, _QuadraticFamily())
        assert rho == LINE_SEARCH_GRID[0]

    def test_skips_nonfinite_candidates(self):
        # large rho pushes nu so negative that variance overflows; the search
        # must still return a finite-scoring candidate
        family = MvnFamily(1)
        thetas = np.tile([0.0, 0.0], (10, 1))
        Ys = np.full((10, 1), 0.5)
        directions = np.tile([0.0, 60.0], (10, 1))
        rho = line_search(thetas, directions, Ys, family)
        assert rho in LINE_SEARCH_GRID
        trial = thetas - rho * directions
        assert np.isfinite(family.nll(trial, Ys)).all()


class TestFit:
    def test_train_nll_decreases(self):
        X, Y = small_dataset()
        model = fit(X, Y, config=BoostConfig(n_stages_max=50))
        path = model.train_nll_path
        assert len(path) == 51
        assert path[-1] < path[0]

    def test_theta0_is_marginal_fit(self):
        X, Y = small_dataset()
        model = fit(X, Y, config=BoostConfig(n_stages_max=1))
        family = MvnFamily(2)
        assert np.allclose(model.theta0, family.marginal_init(Y))

    def test_prediction_telescopes_stage_steps(self):
        X, Y = small_dataset(n=80)
        model = fit(X, Y, config=BoostConfig(n_stages_max=10))
        thetas = np.tile(model.theta0, (X.shape[0], 1))
        lr = model.config.learning_rate
        for stage in model.stages:
            f = np.column_stack(
                [boosting.predict_tree_batch(t, X) for t in stage.trees]
            )
            thetas = thetas - lr * stage.rho * f
        assert np.allclose(predict_theta(model, X), thetas)

    def test_one_tree_per_parameter(self):
        X, Y = small_dataset(n=60)
        model = fit(X, Y, config=BoostConfig(n_stages_max=3))
        assert all(len(s.trees) == param_count(2) for s in model.stages)

    def test_reproducible(self):
        X, Y = small_dataset(n=100)
        cfg = BoostConfig(n_stages_max=20)
        a = fit(X, Y, config=cfg)
        b = fit(X, Y, config=cfg)
        assert np.array_equal(predict_theta(a, X), predict_theta(b, X))
        assert a.train_nll_path == b.train_nll_path

    def test_feature_count_checked_at_predict(self):
        X, Y = small_dataset(n=50)
        model = fit(X, Y, config=BoostConfig(n_stages_max=2))
        with pytest.raises(ValueError, match="features"):
            predict_theta(model, np.zeros((3, 2)))

    def test_plain_gradient_ablation_differs(self):
        X, Y = small_dataset(n=100)
        nat = fit(X, Y, config=BoostConfig(n_stages_max=10))
        plain = fit(X, Y, config=BoostConfig(n_stages_max=10, natural_gradient=False))
        assert not np.allclose(predict_theta(nat, X), predict_theta(plain, X))


class TestEarlyStopping:
    def test_stops_after_patience_without_improvement(self):
        X, Y = small_dataset(n=300, seed=2)
        Xv, Yv = small_dataset(n=150, seed=3)
        cfg = BoostConfig(n_stages_max=1000, patience=10, learning_rate=0.1)
        model = fit(X, Y, Xv, Yv, cfg)
        assert len(model.stages) < cfg.n_stages_max
        assert len(model.stages) - model.best_stage >= 10
        # validation path covers baseline plus every fitted stage
        assert len(model.val_nll_path) == len(model.stages) + 1
        assert model.val_nll_path[model.best_stage] == min(model.val_nll_path)

    def test_best_stage_prediction_uses_prefix(self):
        X, Y = small_dataset(n=300, seed=4)
        Xv, Yv = small_dataset(n=150, seed=5)
        model = fit(X, Y, Xv, Yv, BoostConfig(n_stages_max=200, patience=5, learning_rate=0.1))
        thetas = predict_theta(model, Xv)
        val_nll = float(np.mean(nll_batch(thetas, Yv, 2)))
        assert val_nll == pytest.approx(model.val_nll_path[model.best_stage])

    def test_no_validation_uses_all_stages(self):
        X, Y = small_dataset(n=60)
        model = fit(X, Y, config=BoostConfig(n_stages_max=7))
        assert model.best_stage == len(model.stages) == 7

    def test_zero_patience_stops_on_first_flat_stage(self):
        X, Y = small_dataset(n=200, seed=6)
        Xv, Yv = small_dataset(n=100, seed=7)
        model = fit(X, Y, Xv, Yv, BoostConfig(n_stages_max=500, patience=0, learning_rate=0.1))
        assert len(model.stages) == model.best_stage + 1 or model.best_stage == len(model.stages)


class TestIndependent:
    def test_theta_layout_diagonal(self):
        X, Y = small_dataset(n=150)
        model = fit_independent(X, Y, config=BoostConfig(n_stages_max=10))
        thetas = model.predict_theta(X)
        assert thetas.shape == (150, 5)
        # off-diagonal scale entry stays exactly zero
        assert np.all(thetas[:, 3] == 0.0)

    def test_scale_diag_matches_univariate_sigma(self):
        X, Y = small_dataset(n=150)
        model = fit_independent(X, Y, config=BoostConfig(n_stages_max=10))
        joint = model.predict_theta(X)
        L = scale_matrices(joint, 2)
        for j, sub in enumerate(model.models):
            L_sub = scale_matrices(predict_theta(sub, X), 1)
            assert np.array_equal(L[:, j, j], L_sub[:, 0, 0])

    def test_joint_beats_independent_on_correlated_data(self):
        X, Y = small_dataset(n=500, seed=8)
        Xv, Yv = small_dataset(n=200, seed=9)
        Xt, Yt = small_dataset(n=400, seed=10)
        cfg = BoostConfig(n_stages_max=300, patience=20, learning_rate=0.05)
        joint = fit(X, Y, Xv, Yv, cfg)
        indep = fit_independent(X, Y, Xv, Yv, cfg)
        nll_joint = float(np.mean(nll_batch(predict_theta(joint, Xt), Yt, 2)))
        nll_indep = float(np.mean(nll_batch(indep.predict_theta(Xt), Yt, 2)))
        assert nll_joint < nll_indep

    def test_univariate_family_used(self):
        X, Y = small_dataset(n=60)
        model = fit_independent(X, Y, config=BoostConfig(n_stages_max=2))
        assert [m.family_tag for m in model.models] == ["mvn-1", "mvn-1"]
        assert all(m.n_params == 2 for m in model.models)


class TestConfigValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            BoostConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostConfig(learning_rate=1.5)

    def test_bad_stage_count(self):
        with pytest.raises(ValueError):
            BoostConfig(n_stages_max=0)

    def test_bad_patience(self):
        with pytest.raises(ValueError):
            BoostConfig(patience=-1)

    def test_defaults(self):
        cfg = BoostConfig()
        assert cfg.n_stages_max == 1000
        assert cfg.learning_rate == 0.01
        assert cfg.patience == 50
        assert cfg.natural_gradient is True
        assert cfg.tree_params == TreeParams()
