"""Golden models: two small fits whose saved form must not change by a bit.

``data/golden_models.json`` holds ``model_to_dict`` of both fits as the
program wrote them before the grower also routed the validation rows.  A
change that claims to leave fits bit-identical must leave these equal; one
that changes a result on purpose regenerates the file and says so.  The
models read back from the file must also predict the per-tree reference sum
bit for bit: ``p2_d3_tied`` through the per-tree traversal of a model with
several features, ``p3_d1_tie_free`` once per occupied cell of the cut
points of a one-feature model.
"""

import json
import os

import numpy as np
import pytest

from mvboost.boosting import BoostConfig, fit, predict_theta
from mvboost.model_io import model_from_dict, model_to_dict
from mvboost.trees import TreeParams

from conftest import reference_theta, thresholds

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_models.json")


def _targets(X, p, rng):
    """p correlated targets whose means and scales move with the features."""
    mean = np.column_stack([np.sin(3.0 * X[:, j % X.shape[1]] + j) for j in range(p)])
    scale = 0.2 + 0.3 * np.abs(np.cos(X[:, :1]))
    noise = rng.standard_normal((X.shape[0], p))
    noise[:, 1:] += 0.6 * noise[:, :1]
    return mean + scale * noise


def golden_problem(name):
    """(X_train, Y_train, X_val, Y_val, config) of a golden fit."""
    if name == "p2_d3_tied":
        rng = np.random.default_rng(20)
        X = np.round(rng.normal(size=(240, 3)), 1)  # every column has ties
        params = TreeParams(max_depth=3, min_samples_leaf=2)
        p, stages = 2, 5
    else:  # "p3_d1_tie_free"
        rng = np.random.default_rng(21)
        X = rng.uniform(-1.0, 1.0, size=(240, 1))
        params = TreeParams(max_depth=3, min_samples_leaf=1)
        p, stages = 3, 4
    Y = _targets(X, p, rng)
    config = BoostConfig(n_stages_max=stages, learning_rate=0.1, patience=2,
                         tree_params=params)
    return X[:160], Y[:160], X[160:], Y[160:], config


@pytest.mark.parametrize("name", ["p2_d3_tied", "p3_d1_tie_free"])
def test_fit_matches_golden_model(name):
    X, Y, X_val, Y_val, config = golden_problem(name)
    if name == "p3_d1_tie_free":
        assert np.unique(X).size == X.size
    with open(GOLDEN) as fh:
        golden = json.load(fh)[name]
    model = fit(X, Y, X_val, Y_val, config)
    # through JSON, as a saved model: floats compare by their exact repr
    assert json.loads(json.dumps(model_to_dict(model))) == golden


@pytest.mark.parametrize("name", ["p2_d3_tied", "p3_d1_tie_free"])
def test_golden_model_predicts_the_per_tree_reference(name):
    X, _, X_val, _, _ = golden_problem(name)
    with open(GOLDEN) as fh:
        model, _ = model_from_dict(json.load(fh)[name])
    assert 0 < model.best_stage
    # every threshold and values beyond the data, each in every feature column
    cuts = np.concatenate([thresholds(model), np.linspace(-3.0, 3.0, 13)])
    rows = np.concatenate([X, X_val, np.repeat(cuts[:, None], X.shape[1], axis=1)])
    got = predict_theta(model, rows)
    assert got.flags.c_contiguous
    assert np.array_equal(got, reference_theta(model, rows))
