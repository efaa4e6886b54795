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
The dense Fisher and the single-theta KL are test references (tests/oracles.py).

The NLL, score, Mahalanobis distance and KL divergence take eta = L (mu - y)
from one kernel over the rows of L on column vectors; only the natural
gradient, the covariance and sampling build the (n, p, p) L (:func:`scale_matrices`).

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


def _checked(thetas, Ys, p):
    """The (n, M) theta batch and (n, p) observation batch as float arrays,
    refused unless their shapes fit p and every theta entry is finite."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    Ys = np.atleast_2d(np.asarray(Ys, dtype=float))
    if Ys.shape[1] != p or Ys.shape[0] != thetas.shape[0]:
        raise InvalidParameterError(f"observation batch shape {Ys.shape} does not match (n, {p})")
    if thetas.shape[1] != param_count(p):
        raise InvalidParameterError(f"theta batch has {thetas.shape[1]} columns, "
                                    f"p={p} needs {param_count(p)}")
    if not np.all(np.isfinite(thetas)):
        raise InvalidParameterError("theta entries must be finite")
    return thetas, Ys


def _diag_columns(p):
    """Theta column of each nu_ii; nu_ij (j >= i) is j - i columns further."""
    return [p + i * p - i * (i - 1) // 2 for i in range(p)]


def _whiten_rows(thetas, Ys, p):
    """For a theta and observation batch that passed :func:`_checked`:
    z = mu - y, and for each row i of L its diagonal a_ii = exp(nu_ii) and
    eta_i = a_ii z_i + sum_{j>i} nu_ij z_j: eta = L z, with z, a and eta as
    lists of column vectors."""
    z = [thetas[:, j] - Ys[:, j] for j in range(p)]
    a, eta = [], []
    for i, k in enumerate(_diag_columns(p)):
        a.append(np.exp(thetas[:, k]))
        e = a[i] * z[i]
        for j in range(i + 1, p):
            e += thetas[:, k + j - i] * z[j]
        eta.append(e)
    return z, a, eta


def _whitened_sq(thetas, Ys, p):
    """:func:`whitened_sq` without the checks of :func:`_checked`."""
    _, a, eta = _whiten_rows(thetas, Ys, p)
    sq, log_det = eta[0] * eta[0], np.log(a[0])
    for i in range(1, p):
        sq += eta[i] * eta[i]
        log_det += np.log(a[i])
    return sq, log_det


def whitened_sq(thetas, Ys, p):
    """Per row, (sum_i eta_i^2, sum_i log a_ii): the squared Mahalanobis
    distance of y from mu, and -log|Sigma| / 2.  Summed over i in order, with
    log a_ii taken of exp(nu_ii), both are bit-identical to whitening with the
    dense factor for p <= 2."""
    return _whitened_sq(*_checked(thetas, Ys, p), p)


def _nll_rows(thetas, Ys, p):
    """:func:`nll_batch` without the checks of :func:`_checked`.  A row with
    a theta entry that is not finite and a finite y gets an NLL that is not
    finite: its eta_i or log a_ii is infinite or NaN."""
    sq, log_det = _whitened_sq(thetas, Ys, p)
    return 0.5 * sq - log_det + 0.5 * p * _LOG_2PI


def nll_batch(thetas, Ys, p) -> np.ndarray:
    """Per-row negative log-likelihood: sum_i(eta_i^2/2 - log a_ii) + const."""
    return _nll_rows(*_checked(thetas, Ys, p), p)


def score_batch(thetas, Ys, p) -> np.ndarray:
    """Gradient of the negative log-likelihood w.r.t. theta, per row.

    Mean block is L^T eta, added up over the rows of L; nu entries are
    eta_i z_j, and the diagonal entries carry the chain factor a_ii and the
    log-determinant term, so d/d nu_ii = eta_i z_i a_ii - 1.
    """
    thetas, Ys = _checked(thetas, Ys, p)
    z, a, eta = _whiten_rows(thetas, Ys, p)
    grad = np.zeros_like(thetas)
    for i, k in enumerate(_diag_columns(p)):
        grad[:, i] += a[i] * eta[i]
        grad[:, k] = eta[i] * z[i] * a[i] - 1.0
        for j in range(i + 1, p):
            grad[:, j] += thetas[:, k + j - i] * eta[i]
            grad[:, k + j - i] = eta[i] * z[j]
    return grad


def covariance_batch(thetas, p) -> np.ndarray:
    """Covariances Sigma = L^{-1} L^{-T}, (n, p, p).

    Inverting L rather than L^T L keeps Sigma accurate when the diagonal of L
    spans many orders of magnitude.
    """
    inv_l = np.linalg.inv(scale_matrices(thetas, p))
    return np.einsum("nik,njk->nij", inv_l, inv_l)


def natural_gradient_batch(thetas, Ys, p) -> np.ndarray:
    """Fisher-preconditioned score per row, in closed form.

    The mean block is z = mu - y.  In the entries of L, row i's Fisher block is
    Sigma[i:, i:] + e0 e0^T / a_ii^2; since Sigma[i:, i:]^{-1} = L_i^T L_i with
    L_i = L[i:, i:], Sherman-Morrison gives its inverse as
    L_i^T L_i - l_i l_i^T / 2 with l_i = L[i, i:].  All rows are handled at
    once by upper-triangular masking; the diagonal entries then divide by the
    chain factor exp(nu_ii).
    """
    thetas, Ys = _checked(thetas, Ys, p)
    L = scale_matrices(thetas, p)
    # A row-major z makes einsum's eta, and all built from it, layout-free.
    z = np.subtract(thetas[:, :p], Ys, order="C")
    eta = np.einsum("nij,nj->ni", L, z)
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
    """Convert to (mean, covariance)."""
    return MomentForm(mean=theta.mean.copy(),
                      covariance=covariance_batch(theta.values, theta.dim_p)[0])


def nll(theta: ThetaVector, y) -> float:
    return float(nll_batch(theta.values, np.asarray(y, dtype=float), theta.dim_p)[0])


def score(theta: ThetaVector, y) -> np.ndarray:
    return score_batch(theta.values, np.asarray(y, dtype=float), theta.dim_p)[0]


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


def kl_divergence_batch(thetas_true, thetas_pred, p) -> np.ndarray:
    """Row-wise KL(true || pred) for two theta batches, from the rows of L.

    The quadratic term whitens mu_true under pred.  The trace term is
    ||W||_F^2 for the upper-triangular W = L_pred L_true^{-1}, whose row i
    solves w L_true = row i of L_pred by forward substitution over j >= i.
    """
    thetas_true = np.atleast_2d(np.asarray(thetas_true, dtype=float))
    thetas_pred = np.atleast_2d(np.asarray(thetas_pred, dtype=float))
    if thetas_true.shape != thetas_pred.shape:
        raise InvalidParameterError("theta batches must have matching shapes")
    quad_term, log_a_pred = whitened_sq(thetas_pred, thetas_true[:, :p], p)
    _, log_a_true = whitened_sq(thetas_true, thetas_true[:, :p], p)
    diag = _diag_columns(p)
    a_true = [np.exp(thetas_true[:, k]) for k in diag]
    trace_term = np.zeros(thetas_true.shape[0])
    for i, k in enumerate(diag):
        w = []  # w[j - i] = W_ij
        for j in range(i, p):
            r = np.exp(thetas_pred[:, k]) if j == i else thetas_pred[:, k + j - i].copy()
            for q in range(i, j):
                r -= w[q - i] * thetas_true[:, diag[q] + j - q]
            w.append(r / a_true[j])
            trace_term += w[-1] * w[-1]
    return 0.5 * (trace_term + quad_term - p + 2.0 * (log_a_true - log_a_pred))


def _as_rng(rng_seed):
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)
