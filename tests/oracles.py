"""Reference implementations that the tests check the package against.

The fit never runs these: it computes the natural gradient in closed form
(without the dense Fisher), the KL divergence batched over the rows of L,
the chi-square quantile rather than the CDF, and tree predictions over many
rows at once.  Each function here is the direct form of one of those
quantities.  From ``mvboost`` it imports only the parameter layout
(``param_count``, ``ThetaVector``, ``scale_matrices``: theta -> L) and the
tree types; every other step is written out in numpy, so no oracle calls the
function it checks.  ``tests/test_oracles.py`` holds it to that list.
"""

from __future__ import annotations

import numpy as np

from mvboost.distributions import ThetaVector, param_count, scale_matrices
from mvboost.trees import RegressionTree, Split


def fisher_batch(thetas, p) -> np.ndarray:
    """Fisher information matrices, (n, M, M), depending on theta only.

    Block structure: the mean block is the precision L^T L; the mean/nu cross
    block is identically zero; the nu block couples entries that share a row
    of L, through the covariance Sigma = (L^T L)^{-1}.  Diagonal entries carry
    the score's chain factor a_ii = exp(nu_ii).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    m = param_count(p)
    L = scale_matrices(thetas, p)
    prec = np.einsum("nki,nkj->nij", L, L)
    inv_l = np.linalg.inv(L)
    sigma = np.einsum("nik,njk->nij", inv_l, inv_l)
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


def fisher_information(theta: ThetaVector) -> np.ndarray:
    return fisher_batch(theta.values, theta.dim_p)[0]


def kl_divergence(theta_true: ThetaVector, theta_pred: ThetaVector) -> float:
    """KL(true || pred) between the two Gaussians, in nats."""
    if theta_true.dim_p != theta_pred.dim_p:
        raise ValueError("dimension mismatch between parameter vectors")
    p = theta_true.dim_p
    l_true = scale_matrices(theta_true.values, p)
    inv_true = np.linalg.inv(l_true)
    sigma_true = np.einsum("nik,njk->nij", inv_true, inv_true)[0]
    l_true = l_true[0]
    l_pred = scale_matrices(theta_pred.values, p)[0]
    delta = theta_pred.mean - theta_true.mean
    # Sigma_pred^{-1} = Lp^T Lp, so the trace and quadratic terms whiten with Lp.
    trace_term = float(np.sum((l_pred @ sigma_true) * l_pred))
    quad_term = float(np.sum((l_pred @ delta) ** 2))
    # log|Sigma| = -2 sum log a_ii
    log_det_ratio = 2.0 * float(
        np.sum(np.log(np.diag(l_true))) - np.sum(np.log(np.diag(l_pred)))
    )
    return 0.5 * (trace_term + quad_term - p + log_det_ratio)


def chi2_cdf(x, dof) -> float:
    """Chi-square CDF via the regularized lower incomplete gamma."""
    from scipy.special import gammainc

    if x <= 0:
        return 0.0
    return float(gammainc(dof / 2.0, x / 2.0))


def predict_tree(tree: RegressionTree, x) -> float:
    """Deterministic leaf lookup for one feature row (<= routes left)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    node = tree.root
    while isinstance(node, Split):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node.value
