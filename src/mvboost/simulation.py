"""Synthetic bivariate data with a known conditional distribution.

The generator draws x uniformly on [0, pi] and y from a bivariate Gaussian
whose mean, variances, and correlation are fixed trigonometric functions of x:

    mu1(x)    = sin(2.5 x) sin(1.5 x) + x
    mu2(x)    = cos(3.5 x) cos(0.5 x) - x^2
    sig1^2(x) = 0.01 + 0.25 (1 - sin(2.5 x))^2
    sig2^2(x) = 0.01 + 0.25 (1 - cos(3.5 x))^2
    rho(x)    = sin(2.5 x) cos(0.5 x)

The "williams-original" variant drops the +x and -x^2 mean trends, leaving
only the oscillatory parts.  Because |rho| <= 1 and both variances are at
least 0.01, every x yields a valid SPD covariance.

The experiment runner fits each requested method on replicated draws and
aggregates test-set metrics (KL to truth, NLL, RMSE, prediction-region
coverage and area) into per-cell and aggregate CSV tables.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import boosting, metrics
from .data_io import write_csv
from .distributions import fit_theta_from_moments_batch, sample_each

VARIANTS = ("modified", "williams-original")
METHODS = ("ngb", "indep-ngb", "plain-gb")

_ROLE_CODES = {"train": 0, "val": 1, "test": 2}

CELL_CSV_COLUMNS = ["N", "method", "replication", "kl", "nll", "rmse", "pr_coverage", "pr_area"]
AGG_CSV_COLUMNS = ["N", "method", "metric", "mean", "stderr"]


@dataclass(frozen=True)
class SimulatedDataset:
    X: np.ndarray  # (n, 1), values in [0, pi]
    Y: np.ndarray  # (n, 2)
    theta_true: np.ndarray  # (n, 5)
    variant: str
    seed: int


@dataclass(frozen=True)
class ExperimentPlan:
    n_train_grid: tuple[int, ...] = (500, 1000, 5000)
    n_val: int = 300
    n_test: int = 1000
    replications: int = 5
    methods: tuple[str, ...] = METHODS
    variant: str = "modified"
    alpha: float = 0.9
    master_seed: int = 0
    config: boosting.BoostConfig = field(default_factory=boosting.BoostConfig)

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if any(n < 1 for n in (*self.n_train_grid, self.n_val, self.n_test)):
            raise ValueError("all dataset sizes must be positive")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        for name in ("n_train_grid", "methods"):  # a repeat reruns the same seeded cells
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} repeats an entry")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant}")


def true_moments(x, variant: str = "modified"):
    """(mu1, mu2, var1, var2, rho) arrays for x in [0, pi]."""
    x = np.asarray(x, dtype=float)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    mu1 = np.sin(2.5 * x) * np.sin(1.5 * x)
    mu2 = np.cos(3.5 * x) * np.cos(0.5 * x)
    if variant == "modified":
        mu1 = mu1 + x
        mu2 = mu2 - x * x
    var1 = 0.01 + 0.25 * (1.0 - np.sin(2.5 * x)) ** 2
    var2 = 0.01 + 0.25 * (1.0 - np.cos(3.5 * x)) ** 2
    rho = np.sin(2.5 * x) * np.cos(0.5 * x)
    return mu1, mu2, var1, var2, rho


def thetas_from_moments(mu1, mu2, var1, var2, rho) -> np.ndarray:
    """theta rows (n, 5) of bivariate Gaussians given by their moment arrays."""
    means = np.stack([mu1, mu2], axis=1)
    covs = np.empty((means.shape[0], 2, 2))
    covs[:, 0, 0] = var1
    covs[:, 1, 1] = var2
    covs[:, 0, 1] = covs[:, 1, 0] = np.sqrt(var1 * var2) * rho
    return fit_theta_from_moments_batch(means, covs)


def true_params_batch(x, variant: str = "modified") -> np.ndarray:
    """theta rows (n, 5) of the generating distribution at each x."""
    return thetas_from_moments(*true_moments(x, variant))


def true_params(x: float, variant: str = "modified") -> np.ndarray:
    """theta of the generating distribution at a single x."""
    return true_params_batch(np.atleast_1d(float(x)), variant)[0]


def generate(n: int, variant: str = "modified", seed: int = 0) -> SimulatedDataset:
    """Draw a dataset of n rows; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, np.pi, size=n)
    thetas = true_params_batch(x, variant)
    Y = sample_each(thetas, 2, rng)
    return SimulatedDataset(X=x[:, None], Y=Y, theta_true=thetas, variant=variant, seed=seed)


def _sub_seed(master: int, n_train: int, replication: int, role: str) -> int:
    seq = np.random.SeedSequence(
        entropy=master, spawn_key=(n_train, replication, _ROLE_CODES[role])
    )
    return int(seq.generate_state(1)[0])


def _fit_and_predict(method, data_train, data_val, X_test, config):
    if method == "ngb":
        model = boosting.fit(data_train.X, data_train.Y, data_val.X, data_val.Y, config)
        return boosting.predict_theta(model, X_test)
    if method == "plain-gb":
        cfg = replace(config, natural_gradient=False)
        model = boosting.fit(data_train.X, data_train.Y, data_val.X, data_val.Y, cfg)
        return boosting.predict_theta(model, X_test)
    if method == "indep-ngb":
        model = boosting.fit_independent(
            data_train.X, data_train.Y, data_val.X, data_val.Y, config
        )
        return model.predict_theta(X_test)
    raise ValueError(f"unknown method: {method}")


def run_cell(plan: ExperimentPlan, n_train: int, replication: int, method: str) -> dict:
    """Fit one (N, replication, method) cell and return its metric row."""
    train = generate(n_train, plan.variant, _sub_seed(plan.master_seed, n_train, replication, "train"))
    val = generate(plan.n_val, plan.variant, _sub_seed(plan.master_seed, n_train, replication, "val"))
    test = generate(plan.n_test, plan.variant, _sub_seed(plan.master_seed, n_train, replication, "test"))
    row = {"N": n_train, "method": method, "replication": replication}
    try:
        thetas_pred = _fit_and_predict(method, train, val, test.X, plan.config)
        report = metrics.evaluate(thetas_pred, test.Y, test.theta_true, alpha=plan.alpha)
    except Exception as exc:  # record per-cell failures, keep the run alive
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(
        kl=report.kl_mean,
        nll=report.nll_mean,
        rmse=report.rmse,
        pr_coverage=report.pr_coverage,
        pr_area=report.pr_area_mean,
    )
    return row


def _run_cell_args(args):
    return run_cell(*args)


def aggregate_path(out_path):
    """Where :func:`run_experiment` writes the aggregate table of ``out_path``."""
    stem = str(out_path)
    return (stem[:-4] if stem.endswith(".csv") else stem) + "_aggregate.csv"


def run_experiment(plan: ExperimentPlan, out_path=None, workers: int = 1):
    """Run all cells of the plan; returns (cell_rows, aggregate_rows).

    When ``out_path`` is given, writes ``<out_path>`` with one row per cell and
    ``<out_path stem>_aggregate.csv`` with mean and standard error per
    (N, method, metric).  Failed cells carry an error note and are excluded
    from aggregation.
    """
    jobs = [
        (plan, n, r, method)
        for n in plan.n_train_grid
        for method in plan.methods
        for r in range(plan.replications)
    ]
    workers = min(workers, len(jobs))  # the pool starts every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell_args, jobs))
    else:
        rows = [run_cell(*job) for job in jobs]

    aggregates = aggregate_rows(rows)
    if out_path is not None:
        write_csv(out_path, CELL_CSV_COLUMNS + ["error"],
                  [[r.get(c, "") for c in CELL_CSV_COLUMNS] + [r.get("error", "")]
                   for r in rows])
        write_csv(aggregate_path(out_path), AGG_CSV_COLUMNS,
                  [[r[c] for c in AGG_CSV_COLUMNS] for r in aggregates])
    return rows, aggregates


def aggregate_rows(rows):
    """Mean and stderr (sample SD / sqrt(R)) per (N, method, metric)."""
    out = []
    keys = sorted({(r["N"], r["method"]) for r in rows}, key=lambda k: (k[0], k[1]))
    for n, method in keys:
        cell = [r for r in rows if r["N"] == n and r["method"] == method and "error" not in r]
        for metric in ("kl", "nll", "rmse", "pr_coverage", "pr_area"):
            vals = np.array([r[metric] for r in cell], dtype=float)
            if vals.size == 0:
                continue
            stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            out.append(
                {"N": n, "method": method, "metric": metric,
                 "mean": float(vals.mean()), "stderr": stderr}
            )
    return out

