"""Boosting of distribution parameters with natural gradients.

Each stage fits one regression tree per parameter component to the per-row
natural gradients (Fisher-preconditioned score).  One
:class:`trees.StageGrower`, made once per fit, sorts X and grows each stage's
M trees together; it also returns their predictions on the training rows.
The validation rows are predicted as :func:`predict_theta` predicts any rows,
one stage at a time.
The stage is scaled by a line search over a fixed geometric grid, and the
step is damped by the learning rate:

    theta(x) = theta0 - learning_rate * sum_b rho_b * f_b(x)

Early stopping watches mean validation negative log-likelihood with a
patience; the model keeps only the stages up to the best validation point and
is never refit after selection.  Setting ``natural_gradient=False`` gives the
plain-gradient ablation.  The independent baseline fits each target column
as a p = 1 Gaussian and assembles a diagonal-covariance model from the
columns.  Fits are deterministic given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distributions
from .distributions import InvalidParameterError, param_count
from .trees import (RegressionTree, StageGrower, TreeParams, cells, predict_cells,
                    predict_tree_batch)

# rho candidates for the stage line search: {2^k : k = -10..5}; includes 1.
LINE_SEARCH_GRID = tuple(2.0**k for k in range(-10, 6))


class NonFiniteGradientError(RuntimeError):
    """A gradient blew up mid-fit; carries the offending stage and row."""

    def __init__(self, stage, row):
        super().__init__(f"non-finite gradient at stage {stage}, row {row}")
        self.stage = stage
        self.row = row


class TreeOverflowError(ArithmeticError):
    """Tree growth overflowed float64 mid-fit: the targets' scale is out of
    range (README, "Units").  Carries the stage."""

    def __init__(self, stage):
        super().__init__(f"tree growth overflowed float64 at stage {stage}; "
                         "rescale the targets")
        self.stage = stage


@dataclass(frozen=True)
class BoostConfig:
    n_stages_max: int = 1000
    learning_rate: float = 0.01
    patience: int = 50
    natural_gradient: bool = True
    tree_params: TreeParams = field(default_factory=TreeParams)

    def __post_init__(self):
        if self.n_stages_max < 1:
            raise ValueError("n_stages_max must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


@dataclass(frozen=True)
class Stage:
    rho: float
    trees: tuple[RegressionTree, ...]


@dataclass(frozen=True)
class BoostModel:
    theta0: np.ndarray
    stages: tuple[Stage, ...]
    config: BoostConfig
    best_stage: int
    n_features: int
    train_nll_path: tuple[float, ...] = ()
    val_nll_path: tuple[float, ...] = ()

    @property
    def n_params(self) -> int:
        return self.theta0.shape[0]

    @property
    def family_tag(self) -> str:
        """The model file's name for the family: "mvn-<p>", p from theta0's length."""
        return f"mvn-{distributions.dim_from_param_count(self.n_params)}"


def line_search(theta_batch, directions_batch, Y_batch) -> float:
    """argmin over the candidate grid of the total NLL after a rho step.

    The inputs are checked once, up front; each candidate then steps theta
    into one reused trial array and takes the NLL unchecked.  A candidate
    whose total NLL is not finite is skipped; so is one whose stepped theta
    is not finite, since its total is then not finite either.  If every
    candidate worsens the current total, returns the smallest candidate
    (2^-10) so the stage contributes a negligible step.
    """
    p = np.shape(Y_batch)[1]
    theta_batch, Y_batch = distributions._checked(theta_batch, Y_batch, p)
    directions_batch = np.atleast_2d(np.asarray(directions_batch, dtype=float))
    if directions_batch.shape != theta_batch.shape:
        raise InvalidParameterError(f"directions {directions_batch.shape} do not match "
                                    f"theta {theta_batch.shape}")
    baseline = float(np.sum(distributions._nll_rows(theta_batch, Y_batch, p)))
    trial = np.empty_like(theta_batch)
    best_rho = LINE_SEARCH_GRID[0]
    best_total = np.inf
    for rho in LINE_SEARCH_GRID:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.multiply(rho, directions_batch, out=trial)
            np.subtract(theta_batch, trial, out=trial)
            total = float(np.sum(distributions._nll_rows(trial, Y_batch, p)))
        if not np.isfinite(total):
            continue
        if total < best_total:
            best_total = total
            best_rho = rho
    if best_total >= baseline:
        return LINE_SEARCH_GRID[0]
    return best_rho


def _stage_predictions(trees, X):
    """The (n, M) predictions of one stage's trees on the column-major rows
    X, one tree per column.  With one feature they are filled once per cell
    of the trees' cut points that holds a row and gathered to the rows;
    otherwise each tree traverses X (:func:`trees.predict_tree_batch`)."""
    if X.shape[1] == 1:
        intervals, tops, cell = cells(trees, X[:, 0])
        return predict_cells(intervals, tops).take(cell, axis=0)
    out = np.empty((X.shape[0], len(trees)), order="F")
    for m, tree in enumerate(trees):
        out[:, m] = predict_tree_batch(tree, X)
    return out


def _targets(Y, name):
    """Y as a float (n, p) array, one column when 1-D; refused unless finite."""
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError(f"{name} holds a NaN or an infinity")
    return Y[:, None] if Y.ndim == 1 else Y


def fit(X_train, Y_train, X_val=None, Y_val=None,
        config: BoostConfig | None = None) -> BoostModel:
    """Run the boosting loop for the Gaussian over Y_train's p columns.

    A 1-D Y_train is one column, p = 1.  X_val and Y_val come together; with
    neither, or both empty, there is no early stopping and all fitted stages
    are used.  Raises ``ValueError`` when an input holds a NaN or an infinity.
    """
    config = config or BoostConfig()
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    Y_train = _targets(Y_train, "Y_train")
    if X_train.shape[0] != Y_train.shape[0]:
        raise ValueError("X_train and Y_train row counts differ")
    p = Y_train.shape[1]

    if (X_val is None) != (Y_val is None):
        raise ValueError("X_val and Y_val must be given together")
    have_val = X_val is not None and (np.size(X_val) > 0 or np.size(Y_val) > 0)
    if have_val:
        X_val = np.asfortranarray(np.atleast_2d(np.asarray(X_val, dtype=float)))
        Y_val = _targets(Y_val, "Y_val")
        if X_val.shape[1] != X_train.shape[1] or Y_val.shape != (X_val.shape[0], p):
            raise ValueError(f"X_val {X_val.shape} and Y_val {Y_val.shape} do not fit "
                             f"X_train {X_train.shape} and Y_train {Y_train.shape}")
        if not np.all(np.isfinite(X_val)):
            raise ValueError("X_val holds a NaN or an infinity")

    grower = StageGrower(X_train, param_count(p), config.tree_params)
    theta0 = distributions.marginal_mle(Y_train).values
    # Column-major theta and Y: each parameter's column is contiguous
    # for the NLL, the gradients, the tree targets and the stage updates.
    Y_train = np.asfortranarray(Y_train)
    thetas = np.asfortranarray(np.tile(theta0, (X_train.shape[0], 1)))
    train_path = [float(np.mean(distributions.nll_batch(thetas, Y_train, p)))]

    stages: list[Stage] = []
    val_path: list[float] = []
    best_stage = 0
    best_val = np.inf
    if have_val:
        Y_val = np.asfortranarray(Y_val)
        thetas_val = np.asfortranarray(np.tile(theta0, (X_val.shape[0], 1)))
        best_val = float(np.mean(distributions.nll_batch(thetas_val, Y_val, p)))
        val_path.append(best_val)

    for b in range(1, config.n_stages_max + 1):
        if config.natural_gradient:
            grads = distributions.natural_gradient_batch(thetas, Y_train, p)
        else:
            grads = distributions.score_batch(thetas, Y_train, p)
        finite_rows = np.all(np.isfinite(grads), axis=1)
        if not finite_rows.all():
            raise NonFiniteGradientError(b, int(np.argmin(finite_rows)))

        try:
            trees, f_train = grower(grads)
        except FloatingPointError as exc:
            raise TreeOverflowError(b) from exc
        rho = line_search(thetas, f_train, Y_train)
        thetas = thetas - config.learning_rate * rho * f_train
        stages.append(Stage(rho=rho, trees=trees))
        train_path.append(float(np.mean(distributions.nll_batch(thetas, Y_train, p))))

        if have_val:
            f_val = _stage_predictions(trees, X_val)
            thetas_val -= config.learning_rate * rho * f_val
            val_nll = float(np.mean(distributions.nll_batch(thetas_val, Y_val, p)))
            val_path.append(val_nll)
            if val_nll < best_val:  # strict: ties keep the earlier, smaller model
                best_val = val_nll
                best_stage = b
            elif b - best_stage >= max(config.patience, 1):
                break

    if not have_val:
        best_stage = len(stages)

    return BoostModel(
        theta0=theta0,
        stages=tuple(stages),
        config=config,
        best_stage=best_stage,
        n_features=X_train.shape[1],
        train_nll_path=tuple(train_path),
        val_nll_path=tuple(val_path),
    )


def predict_theta(model: BoostModel, X) -> np.ndarray:
    """Per-row theta, using stages up to best_stage only; (n, M), row-major.

    A one-feature model is constant between consecutive cut points of its
    trees: it sums its stages once per cell of the cut points that holds a
    row, at the cell's top (:func:`trees.cells`,
    :func:`trees.predict_cells`), and gives each row its cell's theta.  A
    model with more features sends the rows down each tree
    (:func:`trees.predict_tree_batch`).  Both give the same values bit for
    bit: each theta is the same float operations in the same order.
    """
    X = np.asfortranarray(np.atleast_2d(np.asarray(X, dtype=float)))
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {X.shape[1]}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    stages = model.stages[: model.best_stage]
    lr = model.config.learning_rate
    if X.shape[1] == 1:
        intervals, tops, cell = cells([t for s in stages for t in s.trees], X[:, 0])
        thetas = np.asfortranarray(np.tile(model.theta0, (tops.size, 1)))
        m = model.n_params  # trees per stage
        for b, stage in enumerate(stages):
            thetas -= lr * stage.rho * predict_cells(intervals[b * m:(b + 1) * m], tops)
        return thetas.take(cell, axis=0)  # row-major
    # column-major while the stages add up, as in fit; returned row-major
    thetas = np.asfortranarray(np.tile(model.theta0, (X.shape[0], 1)))
    for stage in stages:
        thetas -= lr * stage.rho * _stage_predictions(stage.trees, X)
    return np.ascontiguousarray(thetas)


@dataclass(frozen=True)
class IndependentModel:
    """p one-dimensional MVN fits assembled into a diagonal-covariance MVN."""

    models: tuple[BoostModel, ...]

    @property
    def p(self) -> int:
        return len(self.models)

    def predict_theta(self, X) -> np.ndarray:
        """Joint theta with nu_ij = 0 off the diagonal; (n, M_mvn)."""
        p = self.p
        parts = [predict_theta(m, X) for m in self.models]
        n = parts[0].shape[0]
        out = np.zeros((n, param_count(p)))
        rows, cols = np.triu_indices(p)
        diag = p + np.flatnonzero(rows == cols)  # theta positions of the nu_ii
        for i, part in enumerate(parts):
            out[:, i] = part[:, 0]
            out[:, diag[i]] = part[:, 1]
        return out


def fit_independent(X_train, Y_train, X_val=None, Y_val=None,
                    config: BoostConfig | None = None) -> IndependentModel:
    """One p = 1 fit per target column, each with its own early stopping."""
    Y_train = np.asarray(Y_train, dtype=float)
    if Y_train.ndim != 2 or Y_train.shape[1] < 1:
        raise InvalidParameterError("Y_train must be (n, p) with p >= 1")
    _targets(Y_train, "Y_train")  # refused before the first column is fitted
    if Y_val is not None and np.shape(Y_val)[1:] != Y_train.shape[1:]:
        raise ValueError(f"Y_val {np.shape(Y_val)} does not fit Y_train {Y_train.shape}")
    models = []
    for j in range(Y_train.shape[1]):
        y_val_j = None if Y_val is None else np.asarray(Y_val, dtype=float)[:, j]
        models.append(fit(X_train, Y_train[:, j], X_val, y_val_j, config))
    return IndependentModel(models=tuple(models))
