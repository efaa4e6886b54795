import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    marginal_mle,
    nll_batch,
    param_count,
    scale_matrices,
)
from mvboost.model_io import model_to_dict
from mvboost.simulation import generate
from mvboost.trees import TreeParams

from conftest import in_layout


def _unit_gaussian_rows(mus):
    """p = 1 thetas with nu = 0: the NLL is 0.5 (mu - y)^2 + const per row.

    With directions only in mu the line search then minimizes
    0.5 sum (mu - rho d - y)^2, so for d = mu - y the exact step is rho = 1.
    """
    return np.column_stack([mus, np.zeros_like(mus)])


def _mean_directions(ds):
    return np.column_stack([ds, np.zeros_like(ds)])


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
        mus = rng.normal(size=30)
        Ys = rng.normal(size=(30, 1))
        thetas = _unit_gaussian_rows(mus)
        rho = line_search(thetas, _mean_directions(mus - Ys[:, 0]), Ys)
        assert rho == 1.0

    def test_half_direction_doubles_step(self):
        rng = np.random.default_rng(1)
        mus = rng.normal(size=30)
        Ys = rng.normal(size=(30, 1))
        thetas = _unit_gaussian_rows(mus)
        rho = line_search(thetas, _mean_directions(0.5 * (mus - Ys[:, 0])), Ys)
        assert rho == 2.0

    def test_no_improvement_returns_smallest(self):
        thetas = _unit_gaussian_rows(np.zeros(5))
        Ys = np.zeros((5, 1))
        # stepping away from the optimum only hurts
        rho = line_search(thetas, _mean_directions(np.ones(5)), Ys)
        assert rho == LINE_SEARCH_GRID[0]

    def test_skips_nonfinite_candidates(self):
        # large rho pushes nu so negative that variance overflows; the search
        # must still return a finite-scoring candidate
        thetas = np.tile([0.0, 0.0], (10, 1))
        Ys = np.full((10, 1), 0.5)
        directions = np.tile([0.0, 60.0], (10, 1))
        rho = line_search(thetas, directions, Ys)
        assert rho in LINE_SEARCH_GRID
        trial = thetas - rho * directions
        assert np.isfinite(nll_batch(trial, Ys, 1)).all()

    def test_skips_candidates_whose_theta_overflows(self):
        # rho * 1e307 overflows for rho = 32; every other candidate's NLL is
        # infinite, so the search falls back to the smallest step, silently
        thetas = np.zeros((10, 2))
        directions = np.tile([1e307, 0.0], (10, 1))
        Ys = np.full((10, 1), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert line_search(thetas, directions, Ys) == LINE_SEARCH_GRID[0]


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
        assert np.allclose(model.theta0, marginal_mle(Y).values)

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
        # fit steps with the grower's own training predictions; they are the
        # trees' predictions bit for bit, so the path ends at predict_theta's NLL
        fitted = predict_theta(model, X)
        assert model.train_nll_path[-1] == float(np.mean(nll_batch(fitted, Y, 2)))

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

    @pytest.mark.parametrize("independent", [False, True], ids=["joint", "independent"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused_at_predict(self, independent, bad):
        X, Y = small_dataset(n=50)
        model = (fit_independent if independent else fit)(X, Y, config=BoostConfig(n_stages_max=2))
        predict = model.predict_theta if independent else functools.partial(predict_theta, model)
        X_bad = X.copy()
        X_bad[7, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            predict(X_bad)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_memory_layout_of_x_does_not_matter(self, layout):
        rng = np.random.default_rng(3)
        X = np.round(rng.uniform(size=(240, 3)), 1)  # ties, as in real data
        Y = np.column_stack([np.sin(3 * X[:, 0]), X[:, 1] * X[:, 2]])
        Y += 0.2 * rng.standard_normal(Y.shape)
        cfg = BoostConfig(n_stages_max=12, learning_rate=0.1, patience=20)
        base = fit(X[:160], Y[:160], X[160:], Y[160:], cfg)
        Xl = in_layout(X, layout)
        model = fit(Xl[:160], Y[:160], Xl[160:], Y[160:], cfg)
        assert model_to_dict(model) == model_to_dict(base)
        assert np.array_equal(predict_theta(base, Xl), predict_theta(base, X))

    def test_memory_layout_of_y_does_not_matter(self):
        # table columns come out of a CSV in Fortran order
        data = generate(4000, seed=0)
        cfg = BoostConfig(n_stages_max=3)
        base = fit(data.X, data.Y, config=cfg)
        model = fit(data.X, np.asfortranarray(data.Y), config=cfg)
        assert np.array_equal(model.theta0, base.theta0)
        assert model.train_nll_path == base.train_nll_path

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


class TestValidationRows:
    """The validation predictions come from the tree grower, which routes
    the validation rows down the levels it builds."""

    @staticmethod
    def _data():
        X, Y = small_dataset(n=260, seed=11)
        rng = np.random.default_rng(11)
        X = np.column_stack([X, np.round(rng.normal(size=len(X)), 1)])  # a tied column
        return X[:180], Y[:180], X[180:], Y[180:]

    def test_val_path_is_the_nll_of_the_truncated_model(self):
        X, Y, Xv, Yv = self._data()
        model = fit(X, Y, Xv, Yv, BoostConfig(n_stages_max=15, patience=3, learning_rate=0.2))
        assert len(model.val_nll_path) == len(model.stages) + 1
        for b, val_nll in enumerate(model.val_nll_path):
            thetas = predict_theta(dataclasses.replace(model, best_stage=b), Xv)
            assert val_nll == float(np.mean(nll_batch(thetas, Yv, 2)))

    def test_validation_rows_do_not_change_the_stages(self):
        X, Y, Xv, Yv = self._data()
        config = BoostConfig(n_stages_max=8, patience=100, learning_rate=0.1,
                             tree_params=TreeParams(max_depth=4, min_samples_leaf=3))
        with_val = fit(X, Y, Xv, Yv, config)
        without = fit(X, Y, config=config)
        assert with_val.stages == without.stages
        assert with_val.train_nll_path == without.train_nll_path


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


class TestValidationInputs:
    @pytest.mark.parametrize("independent", [False, True], ids=["joint", "independent"])
    @pytest.mark.parametrize("d_train, d_val, val_targets", [
        (2, 1, lambda Y: Y),
        (1, 2, lambda Y: Y),
        (1, 1, lambda Y: Y[:-1]),
        (1, 1, lambda Y: Y[:, :1]),
    ], ids=["fewer-features", "more-features", "fewer-rows", "fewer-targets"])
    def test_mismatched_validation_set(self, independent, d_train, d_val, val_targets):
        X, Y = small_dataset(n=60)
        Xv, Yv = small_dataset(n=30, seed=1)
        X = np.column_stack([X, np.cos(3.0 * X)])[:, :d_train]
        Xv = np.column_stack([Xv, np.cos(3.0 * Xv)])[:, :d_val]
        fitter = fit_independent if independent else fit
        with pytest.raises(ValueError, match="not fit"):
            fitter(X, Y, Xv, val_targets(Yv), BoostConfig(n_stages_max=2))


    @pytest.mark.parametrize("independent", [False, True], ids=["joint", "independent"])
    @pytest.mark.parametrize("given", ["X_val", "Y_val"])
    def test_half_given_validation_set(self, independent, given):
        X, Y = small_dataset(n=60)
        Xv, Yv = small_dataset(n=30, seed=1)
        val = (Xv, None) if given == "X_val" else (None, Yv)
        fitter = fit_independent if independent else fit
        with pytest.raises(ValueError, match="together"):
            fitter(X, Y, *val, BoostConfig(n_stages_max=2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("independent", [False, True], ids=["joint", "independent"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("array, name", [
        ("X_train", "X"), ("Y_train", "Y_train"), ("X_val", "X_val"), ("Y_val", "Y_val"),
    ])
    def test_non_finite_input_refused(self, independent, bad, array, name):
        X, Y = small_dataset(n=60)
        Xv, Yv = small_dataset(n=30, seed=1)
        inputs = {"X_train": X, "Y_train": Y, "X_val": Xv, "Y_val": Yv}
        inputs[array] = inputs[array].copy()
        inputs[array][7, -1] = bad  # the independent fit's second target column, for Y
        fitter = fit_independent if independent else fit
        with pytest.raises(ValueError, match=f"{name} holds a NaN or an infinity"):
            fitter(*inputs.values(), BoostConfig(n_stages_max=5, patience=2))

    @pytest.mark.parametrize("independent", [False, True], ids=["joint", "independent"])
    def test_empty_validation_set_means_no_early_stopping(self, independent):
        X, Y = small_dataset(n=60)
        fitter = fit_independent if independent else fit
        model = fitter(X, Y, np.empty((0, 1)), np.empty((0, 2)),
                       BoostConfig(n_stages_max=4, patience=0))
        for sub in model.models if independent else (model,):
            assert sub.best_stage == len(sub.stages) == 4
            assert sub.val_nll_path == ()


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


# A few stages; patience above the stage count keeps every path full length.
_INVARIANCE_CONFIG = BoostConfig(n_stages_max=6, learning_rate=0.1, patience=10)
_TRAIN, _VAL = generate(300, seed=0), generate(100, seed=1)


def _fit_summary(independent, X, Y, X_val=None, Y_val=None):
    """NLL paths, one row per fitted model, and the thetas predicted at X_val
    (at X when there is no validation set)."""
    if independent:
        model = fit_independent(X, Y, X_val, Y_val, _INVARIANCE_CONFIG)
        models, thetas = model.models, model.predict_theta(X if X_val is None else X_val)
    else:
        model = fit(X, Y, X_val, Y_val, _INVARIANCE_CONFIG)
        models, thetas = [model], predict_theta(model, X if X_val is None else X_val)
    paths = np.array([m.train_nll_path + m.val_nll_path for m in models])
    return paths, thetas


@functools.cache
def _base_summary(independent):
    return _fit_summary(independent, _TRAIN.X, _TRAIN.Y, _VAL.X, _VAL.Y)


@pytest.mark.parametrize("independent", [False, True], ids=["joint", "independent"])
class TestInvariance:
    """A fit does not depend on the units of Y, nor on more than the order of X."""

    @settings(max_examples=25, deadline=None)
    @given(log10_c=st.floats(-6.0, 8.0))
    def test_target_scale(self, independent, log10_c):
        c = 10.0**log10_c
        base_paths, base_thetas = _base_summary(independent)
        paths, thetas = _fit_summary(independent, _TRAIN.X, c * _TRAIN.Y, _VAL.X, c * _VAL.Y)
        # each NLL is of a density in p = 1 or 2 target units
        shift = (1 if independent else 2) * np.log(c)
        size = np.abs(base_paths).max() + abs(shift)
        assert np.all(np.abs(paths - (base_paths + shift)) <= 1e-9 * size)
        mu = c * base_thetas[:, :2]
        assert np.all(np.abs(thetas[:, :2] - mu) <= 1e-9 * np.abs(mu).max())

    @settings(max_examples=25, deadline=None)
    @given(shift=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    def test_target_shift(self, independent, shift):
        base_paths, _ = _base_summary(independent)
        s = np.array(shift)
        paths, _ = _fit_summary(independent, _TRAIN.X, _TRAIN.Y + s, _VAL.X, _VAL.Y + s)
        assert np.all(np.abs(paths - base_paths) <= 1e-9 * np.abs(base_paths).max())

    @settings(max_examples=25, deadline=None)
    @given(through_exp=st.booleans(), scale=st.floats(1e-3, 1e3),
           offset=st.floats(-1e3, 1e3))
    def test_monotone_feature_map(self, independent, through_exp, scale, offset):
        # Trees only see the order of X, so the fit on the training rows is
        # the same; new rows between two training values may route otherwise.
        X = _TRAIN.X
        mapped = scale * (np.exp(X) if through_exp else X) + offset
        base_paths, base_thetas = _fit_summary(independent, X, _TRAIN.Y)
        paths, thetas = _fit_summary(independent, mapped, _TRAIN.Y)
        assert np.array_equal(paths, base_paths)
        assert np.array_equal(thetas, base_thetas)


class TestTargetScaleRange:
    """Past the range of target scales that float64 carries (README, "Units"),
    tree growth overflows and the fit stops with a typed error."""

    DATA = generate(1000, seed=0)
    CONFIG = BoostConfig(n_stages_max=20, learning_rate=0.1)

    def _fit(self, c):
        X, Y = self.DATA.X, c * self.DATA.Y
        return fit(X[:700], Y[:700], X[700:], Y[700:], self.CONFIG)

    @pytest.mark.parametrize("log10_c", [151.5, -153.0, -153.5])
    def test_overflow_is_typed_error_naming_the_stage(self, log10_c):
        with pytest.raises(boosting.TreeOverflowError) as info:
            self._fit(10.0**log10_c)
        assert f"at stage {info.value.stage}" in str(info.value)
        assert isinstance(info.value.__cause__, FloatingPointError)

    @pytest.mark.parametrize("log10_c", [151.0, -152.5])
    def test_edge_scales_still_fit(self, log10_c):
        c = 10.0**log10_c
        base, model = self._fit(1.0), self._fit(c)
        assert [s.rho for s in model.stages] == [s.rho for s in base.stages]
        mu = c * predict_theta(base, self.DATA.X)[:, :2]
        got = predict_theta(model, self.DATA.X)[:, :2]
        assert np.all(np.abs(got - mu) <= 1e-12 * np.abs(mu).max())
