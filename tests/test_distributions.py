import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvboost import distributions as dist
from mvboost.distributions import (
    InvalidDimensionError,
    InvalidParameterError,
    ThetaVector,
)

from conftest import in_layout

LOG_2PI = np.log(2 * np.pi)
LAYOUTS = ("C", "F", "strided")


def random_theta(rng, p, scale=1.0):
    return ThetaVector(rng.normal(scale=scale, size=dist.param_count(p)), p)


@st.composite
def theta_and_y(draw, nu_low=-13.0, nu_high=3.0):
    """One (p, theta row, y row) case with p in 1..6 and nu in [nu_low, nu_high]."""
    p = draw(st.integers(1, 6))
    m = dist.param_count(p)
    mean = draw(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p))
    nu = draw(st.lists(st.floats(nu_low, nu_high), min_size=m - p, max_size=m - p))
    y = draw(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p))
    return p, np.array([mean + nu]), np.array([y])


@st.composite
def nll_batches(draw, max_p=10):
    """One (p, thetas, Ys) batch with p in 1..max_p, 1..20 rows, nu in [-13, 3]."""
    p = draw(st.integers(1, max_p))
    n = draw(st.integers(1, 20))
    m = dist.param_count(p)
    rows = st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p)
    nus = st.lists(st.floats(-13.0, 3.0), min_size=m - p, max_size=m - p)
    thetas = np.array([draw(rows) + draw(nus) for _ in range(n)])
    Ys = np.array([draw(rows) for _ in range(n)])
    return p, thetas, Ys


def dense_nll(thetas, Ys, p):
    """The NLL by whitening with the dense (n, p, p) factor L: the oracle for
    the row-of-L kernel in dist.nll_batch.

    Also returns each row's scale: the NLL's terms summed in absolute value,
    with eta_i = sum_j L_ij z_j taken as sum_j |L_ij z_j|.  Summing in another
    order moves the NLL by a few ulps of this scale, not of the NLL itself,
    which cancels towards 0 when the log-determinant meets the quadratic term.
    """
    L = dist.scale_matrices(thetas, p)
    z = thetas[:, :p] - Ys
    eta = np.einsum("nij,nj->ni", L, z)
    log_a = np.log(L[:, np.arange(p), np.arange(p)])
    nll = 0.5 * np.sum(eta * eta, axis=1) - np.sum(log_a, axis=1) + 0.5 * p * LOG_2PI
    eta_abs = np.einsum("nij,nj->ni", np.abs(L), np.abs(z))
    scale = 0.5 * np.sum(eta_abs**2, axis=1) + np.sum(np.abs(log_a), axis=1) + 0.5 * p * LOG_2PI
    return nll, scale


def finite_diff_grad(theta, y, rel_step=1e-6):
    vals = theta.values
    grad = np.empty_like(vals)
    for k in range(vals.size):
        h = rel_step * max(1.0, abs(vals[k]))
        plus = vals.copy()
        plus[k] += h
        minus = vals.copy()
        minus[k] -= h
        grad[k] = (
            dist.nll(ThetaVector(plus, theta.dim_p), y)
            - dist.nll(ThetaVector(minus, theta.dim_p), y)
        ) / (2 * h)
    return grad


class TestParamCount:
    def test_bivariate(self):
        assert dist.param_count(2) == 5

    def test_univariate(self):
        assert dist.param_count(1) == 2

    def test_three_dims(self):
        assert dist.param_count(3) == 9

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            dist.param_count(0)

    def test_inverse(self):
        for p in range(1, 8):
            assert dist.dim_from_param_count(dist.param_count(p)) == p
        with pytest.raises(InvalidDimensionError):
            dist.dim_from_param_count(4)


class TestScaleMatrix:
    def test_identity_nu(self):
        L = dist.scale_matrices(ThetaVector([0, 0, 0, 0, 0], 2).values, 2)[0]
        assert np.allclose(L, np.eye(2))

    def test_mixed_entries(self):
        theta = ThetaVector([0, 0, np.log(2), 0.3, 0], 2)
        L = dist.scale_matrices(theta.values, 2)[0]
        assert np.allclose(L, [[2, 0.3], [0, 1]])

    def test_extreme_negative_nu_still_invertible(self):
        theta = ThetaVector([0.0, -40.0], 1)
        L = dist.scale_matrices(theta.values, 1)[0]
        assert L[0, 0] == np.exp(-40.0)
        # Cholesky of L^T L succeeds, i.e. all pivots positive
        np.linalg.cholesky(L.T @ L)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            ThetaVector([0.0, np.nan], 1)


class TestMomentForm:
    def test_identity(self):
        mf = dist.to_moment_form(ThetaVector([0, 0, 0, 0, 0], 2))
        assert np.allclose(mf.covariance, np.eye(2), atol=1e-5)

    def test_scaled(self):
        theta = ThetaVector([0, 0, np.log(2), 0, np.log(2)], 2)
        mf = dist.to_moment_form(theta)
        assert np.allclose(mf.covariance, 0.25 * np.eye(2), atol=1e-5)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(0)
        theta = random_theta(rng, 3)
        mf = dist.to_moment_form(theta)
        L = dist.scale_matrices(theta.values, 3)[0]
        assert np.allclose((L.T @ L) @ mf.covariance, np.eye(3), atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-40, 40), min_size=5, max_size=5))
    def test_always_spd(self, vals):
        # extreme nu give a covariance that is SPD up to rounding.  Cholesky
        # is no test of that: at theta = (0, 0, 0, 2, -18) cond(Sigma) is
        # about 1e17, and a factorization of the rounded matrix may fail.
        theta = ThetaVector([0.0, 0.0, vals[0], vals[1], vals[2]], 2)
        cov = dist.to_moment_form(theta).covariance
        assert np.all(np.isfinite(cov))
        assert np.array_equal(cov, cov.T)
        assert np.all(np.diag(cov) > 0)
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] >= -4 * np.finfo(float).eps * eig[-1]


class TestNll:
    def test_standard_bivariate_at_mode(self):
        theta = ThetaVector([0, 0, 0, 0, 0], 2)
        assert dist.nll(theta, np.zeros(2)) == pytest.approx(LOG_2PI, abs=1e-4)

    def test_quadratic_term(self):
        theta = ThetaVector([0, 0, 0, 0, 0], 2)
        assert dist.nll(theta, np.array([1.0, 0.0])) == pytest.approx(
            LOG_2PI + 0.5, abs=1e-4
        )

    def test_matches_generic_log_density(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 3):
            theta = random_theta(rng, p)
            y = rng.normal(size=p)
            mf = dist.to_moment_form(theta)
            sign, logdet = np.linalg.slogdet(mf.covariance)
            resid = y - mf.mean
            expected = 0.5 * (
                p * LOG_2PI + logdet + resid @ np.linalg.solve(mf.covariance, resid)
            )
            assert sign > 0
            assert dist.nll(theta, y) == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            dist.nll(ThetaVector([0, 0, 0, 0, 0], 2), np.zeros(3))

    @settings(max_examples=300, deadline=None)
    @given(nll_batches())
    def test_batch_matches_dense_oracle(self, case):
        # bit-identical for p <= 2; beyond, the sums over j run in another order
        p, thetas, Ys = case
        got = dist.nll_batch(thetas, Ys, p)
        want, scale = dense_nll(thetas, Ys, p)
        if p <= 2:
            assert np.array_equal(got, want)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(nll_batches())
    def test_batch_same_in_every_layout(self, case):
        p, thetas, Ys = case
        want = dist.nll_batch(thetas, Ys, p)
        for theta_layout in LAYOUTS:
            for y_layout in LAYOUTS:
                got = dist.nll_batch(in_layout(thetas, theta_layout), in_layout(Ys, y_layout), p)
                assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(nll_batches(), st.data())
    def test_non_finite_theta_rejected(self, case, data):
        p, thetas, Ys = case
        row = data.draw(st.integers(0, thetas.shape[0] - 1))
        col = data.draw(st.integers(0, thetas.shape[1] - 1))
        thetas[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(InvalidParameterError, match="theta entries must be finite"):
            dist.nll_batch(thetas, Ys, p)

    @settings(max_examples=100, deadline=None)
    @given(nll_batches(), st.sampled_from(["y-columns", "y-rows", "theta-columns"]))
    def test_shape_mismatch_rejected(self, case, mismatch):
        p, thetas, Ys = case
        if mismatch == "y-columns":
            Ys = np.zeros((Ys.shape[0], p + 1))
        elif mismatch == "y-rows":
            Ys = np.zeros((Ys.shape[0] + 1, p))
        else:
            thetas = np.zeros((thetas.shape[0], thetas.shape[1] + 1))
        with pytest.raises(InvalidParameterError):
            dist.nll_batch(thetas, Ys, p)


def dense_score(thetas, Ys, p):
    """The score by whitening with the dense (n, p, p) factor L: the oracle
    for the row-of-L score in dist.score_batch."""
    L = dist.scale_matrices(thetas, p)
    z = thetas[:, :p] - Ys
    eta = np.einsum("nij,nj->ni", L, z)
    rows, cols = np.triu_indices(p)
    g_nu = eta[:, rows] * z[:, cols]
    diag = rows == cols
    g_nu[:, diag] = g_nu[:, diag] * L[:, rows[diag], cols[diag]] - 1.0
    return np.concatenate([np.einsum("nji,nj->ni", L, eta), g_nu], axis=1)


class TestScore:
    @settings(max_examples=300, deadline=None)
    @given(nll_batches())
    def test_batch_matches_dense_oracle(self, case):
        # bit-identical for p <= 2, which keeps plain-gradient fits of two
        # targets unchanged; beyond, the sums over j run in another order
        p, thetas, Ys = case
        got = dist.score_batch(thetas, Ys, p)
        want = dense_score(thetas, Ys, p)
        if p <= 2:
            assert np.array_equal(got, want)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_zero_residual_gradient(self):
        rng = np.random.default_rng(4)
        theta = random_theta(rng, 3)
        g = dist.score(theta, theta.mean)
        p = 3
        rows, cols = np.triu_indices(p)
        expected = np.zeros_like(g)
        # at zero residual only the log-det term is left, exactly -1 per nu_ii
        assert np.allclose(g[:p], 0.0)
        assert np.allclose(g[p:][rows == cols], -1.0, atol=1e-5)
        assert np.allclose(g[p:][rows != cols], expected[p:][rows != cols])

    def test_hand_worked_bivariate(self):
        theta = ThetaVector([0, 0, 0, 0, 0], 2)
        g = dist.score(theta, np.array([1.0, 0.0]))
        assert np.allclose(g, [-1, 0, 0, 0, -1], atol=1e-4)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(25):
            p = int(rng.integers(1, 5))
            theta = random_theta(rng, p)
            y = rng.normal(size=p)
            g = dist.score(theta, y)
            fd = finite_diff_grad(theta, y)
            worst = max(worst, np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))))
        assert worst < 1e-6


class TestFisher:
    def test_identity_case_closed_form(self):
        theta = ThetaVector([0.7, -0.3, 0, 0, 0], 2)
        F = dist.fisher_information(theta)
        assert np.allclose(np.diag(F), [1, 1, 2, 1, 2], atol=1e-4)
        assert np.allclose(F, np.diag(np.diag(F)), atol=1e-4)

    def test_univariate_reduction(self):
        F = dist.fisher_information(ThetaVector([0.5, 0.0], 1))
        assert np.allclose(F, np.diag([1.0, 2.0]), atol=1e-4)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(6)
        for p in (1, 2, 3, 4):
            F = dist.fisher_information(random_theta(rng, p))
            assert np.array_equal(F, F.T)
            assert np.min(np.linalg.eigvalsh(F)) >= -1e-10

    def test_mean_nu_block_exactly_zero(self):
        rng = np.random.default_rng(7)
        for p in (2, 3):
            F = dist.fisher_information(random_theta(rng, p))
            assert np.all(F[:p, p:] == 0.0)

    def test_matches_monte_carlo_score_covariance(self):
        # Fisher is the covariance of the score under the model distribution
        rng = np.random.default_rng(8)
        n = 200_000
        for p in (1, 2):
            theta = random_theta(rng, p, scale=0.5)
            F = dist.fisher_information(theta)
            Y = dist.sample(theta, n, rng)
            scores = dist.score_batch(np.tile(theta.values, (n, 1)), Y, p)
            mc = np.cov(scores.T).reshape(F.shape)
            se = np.std(
                np.einsum("ni,nj->nij", scores, scores), axis=0
            ) / np.sqrt(n)
            assert np.all(np.abs(F - mc) <= 4 * se + 1e-12)


class TestNaturalGradient:
    def test_identity_case(self):
        theta = ThetaVector([0.4, -0.1, 0, 0, 0], 2)
        g = dist.natural_gradient(theta, theta.mean)
        assert np.allclose(g, [0, 0, -0.5, 0, -0.5], atol=1e-4)

    def test_univariate_hand_solve(self):
        theta = ThetaVector([0.0, 0.0], 1)
        g = dist.natural_gradient(theta, np.array([1.0]))
        # score (-1, 0), Fisher diag(1, 2)
        assert np.allclose(g, [-1.0, 0.0], atol=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(theta_and_y())
    def test_closed_form_solves_fisher_system(self, case):
        p, thetas, Ys = case
        x = dist.natural_gradient_batch(thetas, Ys, p)[0]
        assert np.array_equal(x[:p], thetas[0, :p] - Ys[0])
        F = dist.fisher_batch(thetas, p)[0]
        g = dist.score_batch(thetas, Ys, p)[0]
        # |F| |x| bounds the rounding error of forming F x itself, which
        # dominates when the diagonal of L spans many orders of magnitude
        tol = 1e-9 * (np.abs(F) @ np.abs(x) + np.maximum(1.0, np.abs(g)))
        assert np.all(np.abs(F @ x - g) <= tol)

    @settings(max_examples=300, deadline=None)
    @given(theta_and_y(nu_low=-2.0, nu_high=2.0))
    def test_closed_form_matches_dense_solve(self, case):
        p, thetas, Ys = case
        x = dist.natural_gradient_batch(thetas, Ys, p)[0]
        F = dist.fisher_batch(thetas, p)[0]
        dense = np.linalg.solve(F, dist.score_batch(thetas, Ys, p)[0])
        # the dense solve is itself only accurate to about cond(F) * eps
        rel = max(1e-9, np.linalg.cond(F) * np.finfo(float).eps)
        assert np.max(np.abs(x - dense)) <= rel * max(1.0, np.max(np.abs(dense)))

    def test_descent_direction(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = int(rng.integers(1, 4))
            theta = random_theta(rng, p)
            y = rng.normal(size=p)
            g = dist.natural_gradient(theta, y)
            if np.allclose(dist.score(theta, y), 0):
                continue
            t = 1e-6
            moved = ThetaVector(theta.values - t * g, p)
            assert dist.nll(moved, y) < dist.nll(theta, y)

    @pytest.mark.parametrize("p", [3, 10])
    def test_score_and_natural_gradient_same_in_every_layout(self, p):
        # the fit hands these its column-major theta; tree targets must not move
        rng = np.random.default_rng(10)
        thetas = 0.5 * rng.normal(size=(50, dist.param_count(p)))
        Ys = rng.normal(size=(50, p))
        for fn in (dist.score_batch, dist.natural_gradient_batch):
            want = fn(thetas, Ys, p)
            for theta_layout in LAYOUTS:
                for y_layout in LAYOUTS:
                    got = fn(in_layout(thetas, theta_layout), in_layout(Ys, y_layout), p)
                    assert np.array_equal(got, want)


class TestSample:
    def test_moments(self):
        theta = ThetaVector([0.5, -1.0, 0, 0, 0], 2)
        Y = dist.sample(theta, 100_000, 0)
        assert np.allclose(Y.mean(axis=0), theta.mean, atol=0.02)
        assert np.allclose(np.cov(Y.T), np.eye(2), atol=0.02)

    def test_deterministic_per_seed(self):
        theta = ThetaVector([0, 0, 0.2, -0.3, 0.1], 2)
        assert np.array_equal(dist.sample(theta, 50, 3), dist.sample(theta, 50, 3))

    def test_correlated_target(self):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        theta = dist.fit_theta_from_moments([0, 0], cov)
        Y = dist.sample(theta, 1_000_000, 1)
        assert np.corrcoef(Y.T)[0, 1] == pytest.approx(0.9, abs=0.01)


class TestMomentFit:
    def test_identity(self):
        theta = dist.fit_theta_from_moments([0, 0], np.eye(2))
        assert np.allclose(theta.values, 0.0, atol=1e-5)

    def test_quarter_identity(self):
        theta = dist.fit_theta_from_moments([0, 0], 0.25 * np.eye(2))
        assert theta.values[2] == pytest.approx(np.log(2), abs=1e-5)
        assert theta.values[3] == pytest.approx(0.0, abs=1e-12)
        assert theta.values[4] == pytest.approx(np.log(2), abs=1e-5)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for p in (1, 2, 3, 4):
            A = rng.normal(size=(p, p))
            cov = A @ A.T + 0.1 * np.eye(p)
            mean = rng.normal(size=p)
            theta = dist.fit_theta_from_moments(mean, cov)
            mf = dist.to_moment_form(theta)
            assert np.allclose(mf.mean, mean)
            assert np.max(np.abs(mf.covariance - cov) / np.abs(cov).max()) < 1e-8

    def test_theta_round_trip(self):
        rng = np.random.default_rng(11)
        theta = random_theta(rng, 3)
        mf = dist.to_moment_form(theta)
        back = dist.fit_theta_from_moments(mf.mean, mf.covariance)
        assert np.allclose(back.values, theta.values, atol=1e-5)

    def test_non_spd_rejected(self):
        with pytest.raises(InvalidParameterError):
            dist.fit_theta_from_moments([0, 0], np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestMarginalMle:
    def test_symmetric_square(self):
        Y = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        theta = dist.marginal_mle(Y)
        assert np.allclose(theta.mean, [0.5, 0.5])
        assert theta.values[2] == pytest.approx(np.log(2), abs=1e-5)
        assert theta.values[3] == pytest.approx(0.0, abs=1e-12)
        assert theta.values[4] == pytest.approx(np.log(2), abs=1e-5)

    def test_collinear_rejected(self):
        Y = np.array([[float(i), 2.0 * i] for i in range(10)])
        with pytest.raises(InvalidParameterError):
            dist.marginal_mle(Y)

    def test_too_few_rows_rejected(self):
        with pytest.raises(InvalidParameterError):
            dist.marginal_mle(np.zeros((2, 2)))

    def test_optimal_among_random_perturbations(self):
        rng = np.random.default_rng(12)
        Y = rng.normal(size=(200, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
        theta = dist.marginal_mle(Y)
        base = np.sum(dist.nll_batch(np.tile(theta.values, (len(Y), 1)), Y, 2))
        for _ in range(1000):
            other = theta.values + rng.normal(scale=0.1, size=5)
            trial = np.sum(dist.nll_batch(np.tile(other, (len(Y), 1)), Y, 2))
            assert base <= trial + 1e-9


class TestKl:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(13)
        theta = random_theta(rng, 2)
        assert dist.kl_divergence(theta, theta) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift(self):
        a = dist.fit_theta_from_moments([0, 0], np.eye(2))
        b = dist.fit_theta_from_moments([1, 0], np.eye(2))
        assert dist.kl_divergence(a, b) == pytest.approx(0.5, abs=1e-5)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(14)
        t1 = random_theta(rng, 2, scale=0.5)
        t2 = random_theta(rng, 2, scale=0.5)
        closed = dist.kl_divergence(t1, t2)
        Y = dist.sample(t1, 1_000_000, rng)
        tiled1 = np.tile(t1.values, (len(Y), 1))
        tiled2 = np.tile(t2.values, (len(Y), 1))
        mc = np.mean(
            dist.nll_batch(tiled2, Y, 2) - dist.nll_batch(tiled1, Y, 2)
        )
        assert closed == pytest.approx(mc, rel=0.01)

    def test_non_negative(self):
        rng = np.random.default_rng(15)
        for p in (1, 2, 3):
            assert dist.kl_divergence(random_theta(rng, p), random_theta(rng, p)) >= 0

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_batch_matches_single(self, p):
        rng = np.random.default_rng(16)
        t1 = random_theta(rng, p)
        t2 = random_theta(rng, p)
        batch = dist.kl_divergence_batch(
            t1.values[None, :], t2.values[None, :], p
        )
        assert batch[0] == pytest.approx(dist.kl_divergence(t1, t2), rel=1e-10)

    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_batch_same_in_every_layout(self, p):
        rng = np.random.default_rng(17)
        m = dist.param_count(p)
        t1, t2 = 0.5 * rng.normal(size=(2, 50, m))
        want = dist.kl_divergence_batch(t1, t2, p)
        for layout in LAYOUTS:
            got = dist.kl_divergence_batch(in_layout(t1, layout), in_layout(t2, layout), p)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.special"])
def test_import_leaves_scipy_module_unloaded(module):
    # Importing scipy.linalg costs about 6 MB of resident memory that nothing
    # in the package needs; scipy.special, about 0.1 s that only the
    # chi-square functions need, so they import it when called.
    src = os.path.dirname(os.path.dirname(dist.__file__))
    code = f"import sys, mvboost; print({module!r} in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"


class TestUnivariate:
    """The p = 1 Gaussian, which the independent baseline fits per column."""

    def test_nll_and_score_at_mode(self):
        theta = ThetaVector([0.0, 0.0], 1)
        a = 1.0
        assert dist.nll(theta, [0.0]) == pytest.approx(0.5 * LOG_2PI - np.log(a), rel=1e-12)
        assert np.allclose(dist.score(theta, [0.0]), [0.0, -1.0 / a], rtol=0, atol=1e-15)

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            theta = random_theta(rng, 1)
            y = rng.normal(size=1)
            fd = finite_diff_grad(theta, y)
            assert np.allclose(dist.score(theta, y), fd, rtol=0, atol=1e-6)

    def test_fisher_monte_carlo(self):
        rng = np.random.default_rng(18)
        theta = ThetaVector([0.3, 0.4], 1)
        y = dist.sample(theta, 200_000, rng)
        scores = dist.score_batch(np.tile(theta.values, (len(y), 1)), y, 1)
        mc = np.cov(scores.T)
        F = dist.fisher_information(theta)
        assert np.allclose(F, mc, atol=0.05)
        a = np.exp(0.4)
        assert F[0, 0] == pytest.approx(a * a)
        assert F[1, 1] == pytest.approx(2.0 * np.exp(0.8) / (a * a))

    def test_consistent_with_p1_mvn(self):
        # the p = 1 density is the normal with sigma = 1 / a_11
        mu, nu = 0.7, 0.3
        y = np.array([1.2])
        sigma = 1.0 / np.exp(nu)
        assert dist.nll(ThetaVector([mu, nu], 1), y) == pytest.approx(
            -stats.norm.logpdf(y[0], mu, sigma), rel=1e-12
        )


class TestFamilies:
    """The batch functions that boosting.fit calls, at p = 2 and p = 1."""

    def test_mvn_family_batch_shapes(self):
        rng = np.random.default_rng(20)
        thetas = rng.normal(size=(7, 5))
        Ys = rng.normal(size=(7, 2))
        assert dist.nll_batch(thetas, Ys, 2).shape == (7,)
        assert dist.score_batch(thetas, Ys, 2).shape == (7, 5)
        assert dist.natural_gradient_batch(thetas, Ys, 2).shape == (7, 5)

    def test_univariate_family_natural_gradient(self):
        # at p = 1 the Fisher is diagonal, so the natural gradient is score / F_kk
        thetas = np.array([[0.0, 0.5]])
        ys = np.array([[2.0]])
        g = dist.score_batch(thetas, ys, 1)[0]
        F = dist.fisher_batch(thetas, 1)[0]
        ng = dist.natural_gradient_batch(thetas, ys, 1)[0]
        assert ng[0] == pytest.approx(g[0] / F[0, 0], rel=1e-12)
        assert ng[1] == pytest.approx(g[1] / F[1, 1], rel=1e-12)

    def test_univariate_marginal_init(self):
        rng = np.random.default_rng(21)
        y = 3.0 + 2.0 * rng.standard_normal((500, 1))
        theta = dist.marginal_mle(y).values
        assert theta[0] == pytest.approx(y.mean())
        assert 1.0 / np.exp(theta[1]) == pytest.approx(y.std(), rel=1e-10)
        with pytest.raises(InvalidParameterError):
            dist.marginal_mle(np.ones((5, 1)))
