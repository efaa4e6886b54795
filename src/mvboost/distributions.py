"""Multivariate Gaussian in an unconstrained precision-Cholesky parameterization.

The distribution over y in R^p is N(mu, Sigma) with Sigma^{-1} = L^T L, where L
is upper triangular with a strictly positive diagonal.  The free parameter
vector is

    theta = (mu_1, ..., mu_p, nu_11, nu_12, ..., nu_1p, nu_22, ..., nu_pp)

i.e. means first, then the triangular entries in row-major order.  The diagonal
of L is a_ii = exp(nu_ii) and the off-diagonals are the nu_ij themselves, so
every finite theta maps to a positive definite covariance.  No constant enters
the map: scaling y by c maps theta exactly, mu to c mu, nu_ii to nu_ii - ln c
and nu_ij to nu_ij / c, which makes fits independent of the target units.

The Fisher information is block-diagonal (the mean block, then one block per
row i of L), so the natural gradient needs no solve: it is z = mu - y for the
means and (L_i^T L_i - l_i l_i^T / 2) g_i for row i, by Sherman-Morrison.

The negative log-likelihood, which the line search evaluates 16 times per
stage, is computed from the rows of L on column vectors and never builds the
(n, p, p) factor.

All core computations have batch variants operating on an (n, M) array of
parameter rows; these are what the boosting loop consumes.  They accept any
memory layout and give the same values for each; the boosting loop keeps its
theta column-major, so that each parameter's column is contiguous.
Everything here is a pure function of its inputs, and RNG state is always
caller-supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# The diagonal of L carries no floor.  Only fitbench reads this name, and it
# must stay exactly 0.0 so that the benchmark oracle and the program agree.
DIAG_EPS = 0.0
_LOG_2PI = float(np.log(2.0 * np.pi))


class InvalidDimensionError(ValueError):
    """Target dimension p is not a positive integer."""


class InvalidParameterError(ValueError):
    """Parameter vector is malformed (wrong length, non-finite, ...)."""


def param_count(p: int) -> int:
    """Number of free parameters M = (p^2 + 3p) / 2 for target dimension p."""
    if p < 1:
        raise InvalidDimensionError(f"target dimension must be >= 1, got {p}")
    return (p * p + 3 * p) // 2


def dim_from_param_count(m: int) -> int:
    """Inverse of :func:`param_count`; errors if m is not attainable."""
    p = int(round((-3 + np.sqrt(9 + 8 * m)) / 2))
    if p < 1 or param_count(p) != m:
        raise InvalidDimensionError(f"{m} is not a valid parameter count")
    return p


@dataclass(frozen=True)
class ThetaVector:
    """One parameter vector theta for target dimension ``dim_p``."""

    values: np.ndarray
    dim_p: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", vals)
        m = param_count(self.dim_p)
        if vals.shape[0] != m:
            raise InvalidParameterError(
                f"theta for p={self.dim_p} must have length {m}, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("theta entries must be finite")

    @property
    def mean(self) -> np.ndarray:
        return self.values[: self.dim_p]

    @property
    def nu(self) -> np.ndarray:
        return self.values[self.dim_p :]


@dataclass(frozen=True)
class MomentForm:
    """Moment parameterization (mean, covariance) of the same distribution."""

    mean: np.ndarray
    covariance: np.ndarray


# ---------------------------------------------------------------------------
# batch core: thetas is (n, M), Ys is (n, p)
# ---------------------------------------------------------------------------


def scale_matrices(thetas: np.ndarray, p: int) -> np.ndarray:
    """Materialize the (n, p, p) upper-triangular factors for a theta batch."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if not np.all(np.isfinite(thetas)):
        raise InvalidParameterError("theta entries must be finite")
    rows, cols = np.triu_indices(p)
    vals = thetas[:, p:].copy()
    diag = rows == cols
    vals[:, diag] = np.exp(vals[:, diag])
    out = np.zeros((thetas.shape[0], p, p))
    out[:, rows, cols] = vals
    return out


def whiten_batch(thetas, Ys, p):
    """Factors L, residuals z = mu - y and whitened residuals eta = L z, per row."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    Ys = np.atleast_2d(np.asarray(Ys, dtype=float))
    if Ys.shape[1] != p or Ys.shape[0] != thetas.shape[0]:
        raise InvalidParameterError(
            f"observation batch shape {Ys.shape} does not match (n, {p})"
        )
    L = scale_matrices(thetas, p)
    # einsum's summation order follows its operands' layout; a row-major z
    # makes eta, and all that is built from it, the same for any input layout.
    z = np.subtract(thetas[:, :p], Ys, order="C")
    eta = np.einsum("nij,nj->ni", L, z)
    return L, z, eta


def nll_batch(thetas, Ys, p) -> np.ndarray:
    """Per-row negative log-likelihood: sum_i(eta_i^2/2 - log a_ii) + const.

    One pass over the rows i of L on column vectors, with no (n, p, p) array:
    eta_i = a_ii z_i + sum_{j>i} nu_ij z_j.  The sums run over i in order and
    log a_ii is taken of exp(nu_ii), so for p <= 2 the result is bit-identical
    to whitening with the dense factor.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    Ys = np.atleast_2d(np.asarray(Ys, dtype=float))
    if Ys.shape[1] != p or Ys.shape[0] != thetas.shape[0]:
        raise InvalidParameterError(
            f"observation batch shape {Ys.shape} does not match (n, {p})"
        )
    if thetas.shape[1] != param_count(p):
        raise InvalidParameterError(
            f"theta batch has {thetas.shape[1]} columns, p={p} needs {param_count(p)}"
        )
    if not np.all(np.isfinite(thetas)):
        raise InvalidParameterError("theta entries must be finite")
    z = [thetas[:, j] - Ys[:, j] for j in range(p)]
    k = p  # theta column of nu_ii
    for i in range(p):
        a = np.exp(thetas[:, k])
        eta = a * z[i]
        for j in range(i + 1, p):
            eta += thetas[:, k + j - i] * z[j]
        if i == 0:
            sq, log_det = eta * eta, np.log(a)
        else:
            sq += eta * eta
            log_det += np.log(a)
        k += p - i
    return 0.5 * sq - log_det + 0.5 * p * _LOG_2PI


def score_batch(thetas, Ys, p) -> np.ndarray:
    """Gradient of the negative log-likelihood w.r.t. theta, per row.

    Mean block is L^T eta; nu entries are eta_i z_j, and the diagonal entries
    carry the chain factor a_ii = exp(nu_ii) and the log-determinant term, so
    d/d nu_ii = eta_i z_i a_ii - 1.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    L, z, eta = whiten_batch(thetas, Ys, p)
    rows, cols = np.triu_indices(p)
    diag = rows == cols
    grad = np.empty_like(thetas)
    grad[:, :p] = np.einsum("nji,nj->ni", L, eta)
    g_nu = eta[:, rows] * z[:, cols]
    g_nu[:, diag] = g_nu[:, diag] * L[:, np.arange(p), np.arange(p)] - 1.0
    grad[:, p:] = g_nu
    return grad


def covariance_batch(thetas, p) -> np.ndarray:
    """Covariances Sigma = L^{-1} L^{-T}, (n, p, p).

    Inverting L rather than L^T L keeps Sigma accurate when the diagonal of L
    spans many orders of magnitude.
    """
    inv_l = np.linalg.inv(scale_matrices(thetas, p))
    return np.einsum("nik,njk->nij", inv_l, inv_l)


def fisher_batch(thetas, p) -> np.ndarray:
    """Fisher information matrices, (n, M, M), depending on theta only.

    Block structure: the mean block is the precision L^T L; the mean/nu cross
    block is identically zero; the nu block couples entries that share a row
    of L, through the covariance Sigma = (L^T L)^{-1}.  Diagonal entries carry
    the score's chain factor a_ii = exp(nu_ii).

    The fit does not call this: :func:`natural_gradient_batch` inverts the
    blocks in closed form.  It is kept as the reference the tests compare
    against and for :func:`fisher_information`.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    m = param_count(p)
    L = scale_matrices(thetas, p)
    prec = np.einsum("nki,nkj->nij", L, L)
    sigma = covariance_batch(thetas, p)
    rows, cols = np.triu_indices(p)
    a_diag = L[:, np.arange(p), np.arange(p)]

    fisher = np.zeros((n, m, m))
    fisher[:, :p, :p] = prec
    n_nu = rows.size
    for s in range(n_nu):
        i, j = rows[s], cols[s]
        for t in range(s, n_nu):
            k, q = rows[t], cols[t]
            if i != k:  # entries in different rows of L are uncorrelated
                continue
            if i == j and k == q:
                val = a_diag[:, i] ** 2 * sigma[:, i, i] + 1.0
            elif i == j:  # diagonal nu_ii against off-diagonal nu_iq
                val = a_diag[:, i] * sigma[:, i, q]
            else:  # both off-diagonal
                val = sigma[:, j, q]
            fisher[:, p + s, p + t] = val
            fisher[:, p + t, p + s] = val
    return fisher


def natural_gradient_batch(thetas, Ys, p) -> np.ndarray:
    """Fisher-preconditioned score per row, in closed form.

    The mean block is z = mu - y.  In the entries of L, row i's Fisher block is
    Sigma[i:, i:] + e0 e0^T / a_ii^2; since Sigma[i:, i:]^{-1} = L_i^T L_i with
    L_i = L[i:, i:], Sherman-Morrison gives its inverse as
    L_i^T L_i - l_i l_i^T / 2 with l_i = L[i, i:].  All rows are handled at
    once by upper-triangular masking; the diagonal entries then divide by the
    chain factor exp(nu_ii).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    L, z, eta = whiten_batch(thetas, Ys, p)
    rows, cols = np.triu_indices(p)
    idx = np.arange(p)
    # gradient of the NLL in the entries of L
    G = np.triu(eta[:, :, None] * z[:, None, :])
    G[:, idx, idx] -= 1.0 / L[:, idx, idx]
    W = np.triu(G @ np.transpose(L, (0, 2, 1)))
    N = W @ L - 0.5 * L * np.einsum("nij,nij->ni", L, G)[:, :, None]
    out = np.empty_like(thetas)
    out[:, :p] = z
    nat = N[:, rows, cols]
    nat[:, rows == cols] /= L[:, idx, idx]
    out[:, p:] = nat
    return out


def sample_each(thetas, p, rng) -> np.ndarray:
    """One draw per parameter row: y = mu + L^{-1} u with u standard normal."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    L = scale_matrices(thetas, p)
    u = rng.standard_normal((thetas.shape[0], p))
    w = np.linalg.solve(L, u[..., None])[..., 0]
    return thetas[:, :p] + w


# ---------------------------------------------------------------------------
# single-theta interface
# ---------------------------------------------------------------------------


def to_moment_form(theta: ThetaVector) -> MomentForm:
    """Convert to (mean, covariance) by triangular solves on L."""
    p = theta.dim_p
    L = scale_matrices(theta.values, p)[0]
    # Sigma = L^{-1} L^{-T}: two triangular solves, never a dense inverse.
    inv_l = solve_triangular(L, np.eye(p), lower=False)
    cov = inv_l @ inv_l.T
    cov = 0.5 * (cov + cov.T)
    return MomentForm(mean=theta.mean.copy(), covariance=cov)


def nll(theta: ThetaVector, y) -> float:
    return float(nll_batch(theta.values, np.asarray(y, dtype=float), theta.dim_p)[0])


def score(theta: ThetaVector, y) -> np.ndarray:
    return score_batch(theta.values, np.asarray(y, dtype=float), theta.dim_p)[0]


def fisher_information(theta: ThetaVector) -> np.ndarray:
    return fisher_batch(theta.values, theta.dim_p)[0]


def natural_gradient(theta: ThetaVector, y) -> np.ndarray:
    return natural_gradient_batch(
        theta.values, np.asarray(y, dtype=float), theta.dim_p
    )[0]


def sample(theta: ThetaVector, n: int, rng_seed) -> np.ndarray:
    """n i.i.d. draws from the distribution at theta, (n, p)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return sample_each(np.tile(theta.values, (n, 1)), theta.dim_p, _as_rng(rng_seed))


def fit_theta_from_moments(mean, covariance) -> ThetaVector:
    """Invert the moment map: recover theta whose (mu, Sigma) match the inputs."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(covariance, dtype=float)
    theta = fit_theta_from_moments_batch(mean[None, :], cov[None, :, :])[0]
    return ThetaVector(theta, mean.shape[0])


def _precision_factors(covs, p):
    """Upper-triangular U with U^T U = Sigma^{-1} (batched) via Cholesky factors."""
    try:
        chol = np.linalg.cholesky(covs)  # Sigma = C C^T, C lower
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError("covariance matrix is not SPD") from exc
    # Sigma^{-1} = C^{-T} C^{-1}; its lower Cholesky factor K satisfies
    # K K^T = Sigma^{-1}, so U = K^T is the upper factor with U^T U = Sigma^{-1}.
    eye = np.broadcast_to(np.eye(p), covs.shape)
    c_inv = np.linalg.solve(chol, eye)
    prec = np.einsum("nki,nkj->nij", c_inv, c_inv)
    prec = 0.5 * (prec + np.transpose(prec, (0, 2, 1)))
    return np.transpose(np.linalg.cholesky(prec), (0, 2, 1))


def fit_theta_from_moments_batch(means, covs) -> np.ndarray:
    """Batched inverse moment map; means (n, p), covs (n, p, p) -> (n, M)."""
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    p = means.shape[1]
    rows, cols = np.triu_indices(p)
    diag = rows == cols
    nus = _precision_factors(covs, p)[:, rows, cols]
    nus[:, diag] = np.log(nus[:, diag])
    return np.concatenate([means, nus], axis=1)


def marginal_mle(Y) -> ThetaVector:
    """Marginal maximum-likelihood theta from a sample: mean and 1/n covariance."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, p = Y.shape
    if n <= p:
        raise InvalidParameterError(
            f"need more than p={p} rows for a marginal fit, got {n}"
        )
    # Row-major whatever the caller's layout: Y.mean sums in memory order, so
    # a column-major Y would give a theta0 that differs in the last bits.
    Y = np.ascontiguousarray(Y)
    with np.errstate(over="raise"):
        try:
            mean = Y.mean(axis=0)
            centered = Y - mean
            cov = centered.T @ centered / n
        except FloatingPointError as exc:
            raise InvalidParameterError(
                "the targets' sample covariance overflows float64; rescale the targets"
            ) from exc
    try:
        return fit_theta_from_moments(mean, cov)
    except InvalidParameterError as exc:
        raise InvalidParameterError(
            "sample covariance is singular; jitter the targets or supply more data"
        ) from exc


def kl_divergence(theta_true: ThetaVector, theta_pred: ThetaVector) -> float:
    """KL(true || pred) between the two Gaussians, in nats."""
    if theta_true.dim_p != theta_pred.dim_p:
        raise InvalidParameterError("dimension mismatch between parameter vectors")
    p = theta_true.dim_p
    sigma_true = to_moment_form(theta_true).covariance
    l_pred = scale_matrices(theta_pred.values, p)[0]
    l_true = scale_matrices(theta_true.values, p)[0]
    delta = theta_pred.mean - theta_true.mean
    # Sigma_pred^{-1} = Lp^T Lp, so the trace and quadratic terms whiten with Lp.
    trace_term = float(np.sum((l_pred @ sigma_true) * l_pred))
    quad_term = float(np.sum((l_pred @ delta) ** 2))
    # log|Sigma| = -2 sum log a_ii
    log_det_ratio = 2.0 * float(
        np.sum(np.log(np.diag(l_true))) - np.sum(np.log(np.diag(l_pred)))
    )
    return 0.5 * (trace_term + quad_term - p + log_det_ratio)


def kl_divergence_batch(thetas_true, thetas_pred, p) -> np.ndarray:
    """Row-wise KL(true || pred) for two theta batches."""
    thetas_true = np.atleast_2d(np.asarray(thetas_true, dtype=float))
    thetas_pred = np.atleast_2d(np.asarray(thetas_pred, dtype=float))
    if thetas_true.shape != thetas_pred.shape:
        raise InvalidParameterError("theta batches must have matching shapes")
    l_true = scale_matrices(thetas_true, p)
    l_pred = scale_matrices(thetas_pred, p)
    sigma_true = covariance_batch(thetas_true, p)
    delta = np.subtract(thetas_pred[:, :p], thetas_true[:, :p], order="C")  # as in whiten_batch
    trace_term = np.einsum("nij,nij->n", np.einsum("nij,njk->nik", l_pred, sigma_true), l_pred)
    quad_term = np.sum(np.einsum("nij,nj->ni", l_pred, delta) ** 2, axis=1)
    idx = np.arange(p)
    log_det_ratio = 2.0 * (
        np.sum(np.log(l_true[:, idx, idx]), axis=1)
        - np.sum(np.log(l_pred[:, idx, idx]), axis=1)
    )
    return 0.5 * (trace_term + quad_term - p + log_det_ratio)


def _as_rng(rng_seed):
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)
