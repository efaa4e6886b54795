import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mvboost.distributions import (
    ThetaVector,
    fit_theta_from_moments,
    param_count,
    sample,
    to_moment_form,
)
from mvboost.metrics import (
    MetricsReport,
    chi2_quantile,
    evaluate,
    mahalanobis_sq,
    mean_nll,
    pr_area,
    pr_covered,
    pr_coverage_rate,
    rmse,
)

from oracles import chi2_cdf


def theta_from_cov(mean, cov):
    return fit_theta_from_moments(np.asarray(mean, float), np.asarray(cov, float)).values


class TestChi2:
    def test_known_quantiles(self):
        # classic table values
        assert chi2_quantile(2, 0.90) == pytest.approx(4.605170, abs=1e-6)
        assert chi2_quantile(1, 0.95) == pytest.approx(3.841459, abs=1e-6)
        assert chi2_quantile(2, 0.95) == pytest.approx(5.991465, abs=1e-6)

    def test_against_scipy(self):
        for dof in (1, 2, 3, 5, 10):
            for alpha in (0.1, 0.5, 0.9, 0.99):
                assert chi2_quantile(dof, alpha) == pytest.approx(
                    stats.chi2.ppf(alpha, dof), abs=1e-9
                )

    def test_cdf_round_trip(self):
        q = chi2_quantile(3, 0.7)
        assert chi2_cdf(q, 3) == pytest.approx(0.7, abs=1e-9)

    def test_cdf_at_zero(self):
        assert chi2_cdf(0.0, 2) == 0.0
        assert chi2_cdf(-1.0, 2) == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            chi2_quantile(2, 0.0)
        with pytest.raises(ValueError):
            chi2_quantile(2, 1.0)


class TestPointMetrics:
    def test_rmse_hand_case(self):
        # residuals (3, 4): sqrt((9 + 16) / 2)
        thetas = np.array([[0.0, 0.0, 0.0, 0.0, 0.0]])
        Ys = np.array([[3.0, 4.0]])
        assert rmse(thetas, Ys) == pytest.approx(math.sqrt(25.0 / 2.0))

    def test_rmse_zero_at_mean(self):
        thetas = np.array([[1.0, -2.0, 0.0, 0.0, 0.0]])
        assert rmse(thetas, np.array([[1.0, -2.0]])) == 0.0

    def test_mean_nll_standard_normal(self):
        # y = mu for a near-unit bivariate normal: nll = log(2 pi)
        theta = theta_from_cov([0.0, 0.0], np.eye(2))
        got = mean_nll(theta[None, :], np.zeros((1, 2)))
        assert got == pytest.approx(math.log(2.0 * math.pi), rel=1e-5)

    def test_mahalanobis_identity_cov(self):
        theta = theta_from_cov([0.0, 0.0], np.eye(2))
        d2 = mahalanobis_sq(theta[None, :], np.array([[3.0, 4.0]]), 2)
        assert d2[0] == pytest.approx(25.0, rel=1e-4)


    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_mahalanobis_matches_covariance_solve(self, p):
        rng = np.random.default_rng(30 + p)
        thetas = 0.5 * rng.normal(size=(40, param_count(p)))
        Ys = rng.normal(size=(40, p))
        got = mahalanobis_sq(thetas, Ys, p)
        for theta, y, d2 in zip(thetas, Ys, got):
            cov = to_moment_form(ThetaVector(theta, p)).covariance
            resid = y - theta[:p]
            assert d2 == pytest.approx(resid @ np.linalg.solve(cov, resid), rel=1e-9)


class TestPredictionRegion:
    def test_area_unit_circle(self):
        # unit covariance: area = pi * chi2_{2,0.9}
        theta = ThetaVector(theta_from_cov([0.0, 0.0], np.eye(2)), 2)
        expected = math.pi * chi2_quantile(2, 0.9)
        assert pr_area(theta, 0.9) == pytest.approx(expected, rel=1e-5)

    def test_area_scales_with_det(self):
        theta = ThetaVector(theta_from_cov([0.0, 0.0], np.diag([4.0, 9.0])), 2)
        base = math.pi * chi2_quantile(2, 0.9)
        assert pr_area(theta, 0.9) == pytest.approx(6.0 * base, rel=1e-4)

    def test_covered_boundary(self):
        theta = ThetaVector(theta_from_cov([0.0, 0.0], np.eye(2)), 2)
        r = math.sqrt(chi2_quantile(2, 0.9))
        assert pr_covered(theta, [0.99 * r, 0.0], 0.9)
        assert not pr_covered(theta, [1.01 * r, 0.0], 0.9)

    def test_coverage_calibrated_on_samples(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        theta = ThetaVector(theta_from_cov([1.0, -1.0], cov), 2)
        Ys = sample(theta, 20000, rng_seed=0)
        thetas = np.tile(theta.values, (len(Ys), 1))
        rate = pr_coverage_rate(thetas, Ys, 2, 0.9)
        assert rate == pytest.approx(0.9, abs=0.01)

    def test_coverage_univariate(self):
        theta = np.array([[0.0, 0.0]])  # standard normal, p=1
        rng = np.random.default_rng(1)
        Ys = rng.standard_normal((20000, 1))
        thetas = np.tile(theta, (20000, 1))
        rate = pr_coverage_rate(thetas, Ys, 1, 0.95)
        assert rate == pytest.approx(0.95, abs=0.01)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(2)
        theta = theta_from_cov([0.0, 0.0], np.eye(2))
        thetas = np.tile(theta, (500, 1))
        Ys = rng.standard_normal((500, 2))
        report = evaluate(thetas, Ys)
        assert isinstance(report, MetricsReport)
        assert report.n_points == 500
        assert report.pr_alpha == 0.9
        assert report.kl_mean is None
        assert report.pr_area_mean == pytest.approx(
            math.pi * chi2_quantile(2, 0.9), rel=1e-4
        )

    def test_kl_direction_penalizes_overdispersion(self):
        # true variance is tiny; an over-dispersed prediction must score far
        # worse than an under-dispersed one of the same ratio
        true = theta_from_cov([0.0, 0.0], 0.01 * np.eye(2))
        wide = theta_from_cov([0.0, 0.0], 1.0 * np.eye(2))
        narrow = theta_from_cov([0.0, 0.0], 0.0001 * np.eye(2))
        Ys = np.zeros((1, 2))
        kl_wide = evaluate(wide[None, :], Ys, true[None, :]).kl_mean
        kl_narrow = evaluate(narrow[None, :], Ys, true[None, :]).kl_mean
        assert kl_wide > 10 * kl_narrow

    def test_kl_zero_for_exact_prediction(self):
        theta = theta_from_cov([1.0, 2.0], np.array([[1.0, 0.3], [0.3, 2.0]]))
        report = evaluate(theta[None, :], np.array([[1.0, 2.0]]), theta[None, :])
        assert report.kl_mean == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 5)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 5)), np.zeros((2, 2)), np.zeros((3, 5)))

    def test_peak_memory_below_one_factor(self):
        # No function on the path builds an (n, p, p) array.
        n, p = 2000, 10
        rng = np.random.default_rng(32)
        thetas_pred, thetas_true = 0.5 * rng.normal(size=(2, n, param_count(p)))
        Ys = rng.normal(size=(n, p))
        evaluate(thetas_pred, Ys, thetas_true)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            evaluate(thetas_pred, Ys, thetas_true)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * p * p * 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((0, 5)), np.zeros((0, 2)))
