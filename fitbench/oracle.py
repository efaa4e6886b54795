"""Gaussian log-density and KL divergence from the moment form, numpy only.

This module imports nothing from mvboost, so the workload checks compare the
program against an independent computation.  The program whitens residuals
with the precision factor L; here the covariance is formed explicitly as
Sigma = (L^T L)^{-1}, log-determinants come from ``slogdet`` and quadratic
forms from solves against Sigma.
"""

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))


def precision_factor(thetas, p, diag_eps):
    """Upper-triangular L per row from theta = (mu, nu).

    nu holds the triangle of L in row-major order; the diagonal is
    exp(nu_ii) + diag_eps and the off-diagonals are nu_ij.
    """
    thetas = np.asarray(thetas, dtype=float)
    rows, cols = np.triu_indices(p)
    nu = thetas[:, p:]
    on_diag = rows == cols
    L = np.zeros((thetas.shape[0], p, p))
    L[:, rows[~on_diag], cols[~on_diag]] = nu[:, ~on_diag]
    L[:, rows[on_diag], cols[on_diag]] = np.exp(nu[:, on_diag]) + diag_eps
    return L


def covariance(L):
    """Sigma = (L^T L)^{-1} per row, symmetrized."""
    prec = np.einsum("nki,nkj->nij", L, L)
    sigma = np.linalg.inv(prec)
    return 0.5 * (sigma + np.transpose(sigma, (0, 2, 1)))


def _logdet(cov):
    sign, logdet = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise ValueError("covariance is not positive definite")
    return logdet


def _solve(cov, b):
    return np.linalg.solve(cov, b[..., None])[..., 0]


def nll_rows(mean, cov, Y):
    """Per-row negative log-density of Y under N(mean, cov)."""
    resid = np.asarray(Y, dtype=float) - mean
    quad = np.einsum("ni,ni->n", resid, _solve(cov, resid))
    return 0.5 * (mean.shape[1] * _LOG_2PI + _logdet(cov) + quad)


def kl_rows(mean_p, cov_p, mean_q, cov_q):
    """Per-row KL(N(mean_p, cov_p) || N(mean_q, cov_q)) in nats."""
    p = mean_p.shape[1]
    trace = np.trace(np.linalg.solve(cov_q, cov_p), axis1=1, axis2=2)
    delta = mean_q - mean_p
    quad = np.einsum("ni,ni->n", delta, _solve(cov_q, delta))
    return 0.5 * (trace + quad - p + _logdet(cov_q) - _logdet(cov_p))
