"""Evaluation metrics for joint probabilistic forecasts.

Covers mean negative log-likelihood, RMSE of the predictive mean, KL
divergence to a known generating distribution, and elliptical prediction
regions: an observation is covered at level alpha when its squared Mahalanobis
distance is below the chi-square quantile with p degrees of freedom, and the
region's area follows from the chi-square radius and the covariance
determinant.  Both come from the rows of L, never L as a matrix: the distance
is ||L (mu - y)||^2 from ``whitened_sq``, and |Sigma|^{1/2} = exp(-sum_i nu_ii).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ThetaVector, kl_divergence_batch, nll_batch, whitened_sq


@dataclass(frozen=True)
class MetricsReport:
    nll_mean: float
    rmse: float
    pr_alpha: float
    pr_coverage: float
    pr_area_mean: float
    n_points: int
    kl_mean: float | None = None


def _as_batch(thetas, Ys):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    Ys = np.atleast_2d(np.asarray(Ys, dtype=float))
    if thetas.shape[0] != Ys.shape[0]:
        raise ValueError("theta and observation counts differ")
    if thetas.shape[0] == 0:
        raise ValueError("empty input")
    return thetas, Ys


def mean_nll(thetas, Ys) -> float:
    thetas, Ys = _as_batch(thetas, Ys)
    return float(np.mean(nll_batch(thetas, Ys, Ys.shape[1])))


def rmse(thetas, Ys) -> float:
    """sqrt of the per-coordinate mean squared error of the predictive mean."""
    thetas, Ys = _as_batch(thetas, Ys)
    p = Ys.shape[1]
    resid = Ys - thetas[:, :p]
    return float(np.sqrt(np.mean(resid * resid)))


def chi2_cdf(x, dof) -> float:
    """Chi-square CDF via the regularized lower incomplete gamma."""
    from scipy.special import gammainc  # imported on use: it costs about 0.1 s

    if x <= 0:
        return 0.0
    return float(gammainc(dof / 2.0, x / 2.0))


def chi2_quantile(p_dof: int, alpha: float) -> float:
    """Inverse chi-square CDF, 2 * P^{-1}(p/2, alpha) by the inverse incomplete gamma."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if p_dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    from scipy.special import gammaincinv  # imported on use: it costs about 0.1 s

    return 2.0 * float(gammaincinv(p_dof / 2.0, alpha))


def mahalanobis_sq(thetas, Ys, p) -> np.ndarray:
    """(y - mu)^T Sigma^{-1} (y - mu) per row, as ||L (mu - y)||^2."""
    return whitened_sq(thetas, Ys, p)[0]


def pr_covered(theta: ThetaVector, y, alpha: float) -> bool:
    """True iff y lies inside the alpha-level elliptical prediction region."""
    d2 = mahalanobis_sq(theta.values[None, :], np.asarray(y, dtype=float)[None, :], theta.dim_p)
    return bool(d2[0] <= chi2_quantile(theta.dim_p, alpha))


def pr_area(theta: ThetaVector, alpha: float) -> float:
    """Hyper-volume of the alpha-level region for a single theta."""
    return float(pr_area_batch(theta.values[None, :], theta.dim_p, alpha)[0])


def pr_area_batch(thetas, p, alpha) -> np.ndarray:
    """(2 pi)^{p/2} / (p Gamma(p/2)) * chi2_{p,alpha}^{p/2} * |Sigma|^{1/2} per row."""
    quantile = chi2_quantile(p, alpha)
    const = (2.0 * math.pi) ** (p / 2.0) / (p * math.gamma(p / 2.0))
    rows, cols = np.triu_indices(p)
    sqrt_det_sigma = np.exp(-np.sum(np.atleast_2d(thetas)[:, p:][:, rows == cols], axis=1))
    return const * quantile ** (p / 2.0) * sqrt_det_sigma


def pr_coverage_rate(thetas, Ys, p, alpha) -> float:
    d2 = mahalanobis_sq(thetas, Ys, p)
    return float(np.mean(d2 <= chi2_quantile(p, alpha)))


def evaluate(thetas_pred, Ys, thetas_true=None, alpha: float = 0.9) -> MetricsReport:
    """Assemble all metrics; KL only when the generating thetas are known.

    kl_mean is the divergence from the predicted to the generating
    distribution, KL(pred || true), so over-dispersed predictions in regions
    of small true variance are penalized.
    """
    thetas_pred, Ys = _as_batch(thetas_pred, Ys)
    p = Ys.shape[1]
    kl_mean = None
    if thetas_true is not None:
        thetas_true = np.atleast_2d(np.asarray(thetas_true, dtype=float))
        if thetas_true.shape[0] != Ys.shape[0]:
            raise ValueError("ground-truth theta count differs from observations")
        kl_mean = float(np.mean(kl_divergence_batch(thetas_pred, thetas_true, p)))
    return MetricsReport(
        nll_mean=mean_nll(thetas_pred, Ys),
        rmse=rmse(thetas_pred, Ys),
        pr_alpha=alpha,
        pr_coverage=pr_coverage_rate(thetas_pred, Ys, p, alpha),
        pr_area_mean=float(np.mean(pr_area_batch(thetas_pred, p, alpha))),
        n_points=Ys.shape[0],
        kl_mean=kl_mean,
    )
