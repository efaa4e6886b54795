"""Workload inputs with a known conditional Gaussian, made from one seed.

Every split (train, validation, test) draws from its own generator, seeded by
``SeedSequence(seed, spawn_key=(split,))``, so the same ``--seed`` always
gives the same inputs.  Besides X and Y each split carries the generating
distribution in moment form (``mean``, ``cov``), which the oracle uses, and in
the program's theta form (``theta``), which ``metrics.evaluate`` takes.
"""

from dataclasses import dataclass

import numpy as np
from mvboost import distributions, simulation

import oracle

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class Split:
    X: np.ndarray
    Y: np.ndarray
    mean: np.ndarray  # (n, p) generating mean
    cov: np.ndarray  # (n, p, p) generating covariance
    theta: np.ndarray  # (n, M) generating theta, program parameterization


def split_seed(seed, split):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(SPLITS.index(split),))
    return int(seq.generate_state(1)[0])


def simulation_moments(x):
    """Generating mean and covariance of the paper's bivariate simulation.

    Written out here from the formulas in the ``mvboost.simulation``
    docstring ("modified" variant), independently of its code.
    """
    mean = np.stack(
        [
            np.sin(2.5 * x) * np.sin(1.5 * x) + x,
            np.cos(3.5 * x) * np.cos(0.5 * x) - x * x,
        ],
        axis=1,
    )
    var1 = 0.01 + 0.25 * (1.0 - np.sin(2.5 * x)) ** 2
    var2 = 0.01 + 0.25 * (1.0 - np.cos(3.5 * x)) ** 2
    rho = np.sin(2.5 * x) * np.cos(0.5 * x)
    cov = np.empty((x.shape[0], 2, 2))
    cov[:, 0, 0] = var1
    cov[:, 1, 1] = var2
    cov[:, 0, 1] = cov[:, 1, 0] = rho * np.sqrt(var1 * var2)
    return mean, cov


def simulation_split(n, seed, split):
    """One split drawn by the program's ``simulation.generate``."""
    data = simulation.generate(n, seed=split_seed(seed, split))
    mean, cov = simulation_moments(data.X[:, 0])
    return Split(X=data.X, Y=data.Y, mean=mean, cov=cov, theta=data.theta_true)


def conditional_split(n, d, p, seed, split):
    """One split of the benchmark's own (d features, p targets) generator.

    x ~ U[0, 1]^d.  With f(k) = k mod d and K the index of the pair (i, j),
    i < j, in row-major order of the strict upper triangle:

        mean_i(x) = sin(2 pi x_f(i) + i) + 0.5 x_f(i+1)
        L_ii(x)   = exp(0.5 sin(2 pi x_f(p+i) + i))
        L_ij(x)   = 0.3 cos(2 pi x_f(2p+K) + K)

    L is the upper-triangular precision factor, Sigma^{-1} = L^T L, and
    y = mean + L^{-1} u with u standard normal.
    """
    rng = np.random.default_rng(split_seed(seed, split))
    X = rng.uniform(0.0, 1.0, size=(n, d))
    u = rng.standard_normal((n, p))
    two_pi = 2.0 * np.pi
    idx = np.arange(p)
    mean = np.sin(two_pi * X[:, idx % d] + idx) + 0.5 * X[:, (idx + 1) % d]
    L = np.zeros((n, p, p))
    L[:, idx, idx] = np.exp(0.5 * np.sin(two_pi * X[:, (p + idx) % d] + idx))
    rows, cols = np.triu_indices(p, k=1)
    pair = np.arange(rows.size)
    L[:, rows, cols] = 0.3 * np.cos(two_pi * X[:, (2 * p + pair) % d] + pair)
    Y = mean + np.linalg.solve(L, u[..., None])[..., 0]

    all_rows, all_cols = np.triu_indices(p)
    nu = L[:, all_rows, all_cols]
    on_diag = all_rows == all_cols
    nu[:, on_diag] = np.log(nu[:, on_diag] - distributions.DIAG_EPS)
    theta = np.concatenate([mean, nu], axis=1)
    return Split(X=X, Y=Y, mean=mean, cov=oracle.covariance(L), theta=theta)
