"""Shared pytest hooks and helpers: echo the acceptance checklist at the end
of a run; lay out a feature matrix in memory; the per-tree reference of a
model's predictions and its thresholds."""

import numpy as np

from mvboost.trees import Leaf, predict_tree_batch

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance checklist")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def in_layout(X, layout):
    """X in C order ("C"), in Fortran order ("F"), or as a non-contiguous view
    of every other column of a wider array ("strided")."""
    if layout == "C":
        return np.ascontiguousarray(X)
    if layout == "F":
        return np.asfortranarray(X)
    wide = np.zeros((X.shape[0], 2 * X.shape[1] + 1))
    wide[:, 1::2] = X
    return wide[:, 1::2]


def reference_theta(model, X):
    """theta0 - sum_b learning_rate * rho_b * f_b(X) over the stages up to
    best_stage, each tree predicted by ``predict_tree_batch``: the values
    ``predict_theta`` must give bit for bit."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    thetas = np.tile(model.theta0, (X.shape[0], 1))
    for stage in model.stages[: model.best_stage]:
        f = np.empty((X.shape[0], len(stage.trees)))
        for m, tree in enumerate(stage.trees):
            f[:, m] = predict_tree_batch(tree, X)
        thetas = thetas - model.config.learning_rate * stage.rho * f
    return thetas


def thresholds(model):
    """Every split threshold of a model's trees, in all its stages."""
    out = []
    stack = [tree.root for stage in model.stages for tree in stage.trees]
    while stack:
        node = stack.pop()
        if not isinstance(node, Leaf):
            out.append(node.threshold)
            stack += [node.left, node.right]
    return out
