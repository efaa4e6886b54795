"""Versioned JSON persistence for fitted models; the one owner of the file format.

Human-diffable text format; trees are stored as nested node records, which
this module alone writes and reads.  Each field is checked once, as it is
read: a missing key, a value of the wrong JSON type or out of range, or a
part that does not fit the rest of the model raises :class:`ModelFormatError`.
The round trip save -> load -> save is byte-identical (floats serialize via
their shortest exact repr), and loading a newer format version than this code
supports is an error.  Version 1 files are refused as well: their nu_ii meant
log(a_ii - 1e-6), under a diagonal floor this version no longer has.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .boosting import BoostConfig, BoostModel, IndependentModel, Stage
from .distributions import dim_from_param_count
from .trees import Leaf, RegressionTree, Split, TreeParams

FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    """Model file is malformed or from an unsupported format version."""


def _int(value, what, lo, hi=math.inf):
    """``value``, refused unless it is a JSON integer in ``lo..hi``."""
    # type(), not isinstance: a JSON true must not load as the integer 1
    if type(value) is not int or not lo <= value <= hi:
        raise ModelFormatError(f"{what} {value!r} is not an integer in {lo}..{hi}")
    return value


def _number(value, where, what, finite=True):
    """``value``, refused unless it is a JSON number, and finite if ``finite``."""
    if type(value) not in (int, float):
        raise ModelFormatError(f"{where} holds {what} {value!r}, not a number")
    if finite and not math.isfinite(value):
        raise ModelFormatError(f"{where} holds a non-finite {what} {value!r}")
    return value


def _list(value, what):
    """``value``, refused unless it is a JSON array."""
    if type(value) is not list:
        raise ModelFormatError(f"{what} must be a list, got {value!r}")
    return value


def tree_to_dict(tree: RegressionTree) -> dict:
    """JSON-serializable nested-node form of a tree."""
    return {"n_features": tree.n_features, "root": _node_to_dict(tree.root)}


def _node_to_dict(node):
    if isinstance(node, Leaf):
        return {"leaf": node.value}
    return {
        "feature": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def tree_from_dict(data: dict, n_features=None) -> RegressionTree:
    """Inverse of :func:`tree_to_dict`; the tree must be for ``n_features``
    features when that is given."""
    lo, hi = (1, math.inf) if n_features is None else (n_features, n_features)
    n_features = _int(data["n_features"], "tree n_features", lo, hi)
    return RegressionTree(root=_node_from_dict(data["root"], n_features), n_features=n_features)


def _node_from_dict(data, n_features):
    if "leaf" in data:
        return Leaf(float(_number(data["leaf"], "a tree", "leaf")))
    # Positional arguments: keywords would add about a tenth to a model's parse time.
    return Split(
        _int(data["feature"], "split on feature", 0, n_features - 1),
        float(_number(data["threshold"], "a tree", "threshold")),
        _node_from_dict(data["left"], n_features),
        _node_from_dict(data["right"], n_features),
    )


def _config_from_dict(data: dict) -> BoostConfig:
    # Keys of removed settings (rng_seed, min_samples_split) in older files are ignored.
    tree = data["tree_params"]
    natural_gradient = data["natural_gradient"]
    if type(natural_gradient) is not bool:
        raise ModelFormatError(f"natural_gradient must be true or false, got {natural_gradient!r}")
    return BoostConfig(
        n_stages_max=_int(data["n_stages_max"], "n_stages_max", 1),
        learning_rate=_number(data["learning_rate"], "config", "learning_rate"),
        patience=_int(data["patience"], "patience", 0),
        natural_gradient=natural_gradient,
        tree_params=TreeParams(
            max_depth=_int(tree["max_depth"], "max_depth", 1),
            min_samples_leaf=_int(tree["min_samples_leaf"], "min_samples_leaf", 1),
        ),
    )


def _boost_model_to_dict(model: BoostModel) -> dict:
    return {
        "family": model.family_tag,
        "config": asdict(model.config),
        "theta0": model.theta0.tolist(),
        "best_stage": model.best_stage,
        "n_features": model.n_features,
        "stages": [
            {"rho": s.rho, "trees": [tree_to_dict(t) for t in s.trees]}
            for s in model.stages
        ],
        "train_nll_path": list(model.train_nll_path),
        "val_nll_path": list(model.val_nll_path),
    }


def _boost_model_from_dict(data: dict) -> BoostModel:
    theta0 = np.array([_number(v, "theta0", "value") for v in _list(data["theta0"], "theta0")],
                      dtype=float)
    n_params = theta0.shape[0]
    n_features = _int(data["n_features"], "n_features", 1)
    stages = []
    for b, s in enumerate(_list(data["stages"], "stages"), start=1):
        trees = _list(s["trees"], "trees")
        if len(trees) != n_params:
            raise ModelFormatError(
                f"stage {b} has {len(trees)} trees, theta0 has {n_params} parameters"
            )
        stages.append(Stage(
            rho=float(_number(s["rho"], f"stage {b}", "rho")),
            trees=tuple(tree_from_dict(t, n_features) for t in trees),
        ))
    model = BoostModel(
        theta0=theta0,
        stages=tuple(stages),
        config=_config_from_dict(data["config"]),
        best_stage=_int(data["best_stage"], "best_stage", 0, len(stages)),
        n_features=n_features,
        train_nll_path=_nll_path(data, "train_nll_path"),
        val_nll_path=_nll_path(data, "val_nll_path"),
    )
    # MVN is the only family; a file of any other, such as the old
    # "univariate" (mu, log sigma) one, would be misread as (mu, nu).
    if data["family"] != model.family_tag:
        raise ModelFormatError(
            f"unsupported model family {data['family']!r} with {n_params} parameters"
        )
    return model


def _nll_path(data, key):
    # Any number: the paths are a record that nothing computes with.
    return tuple(_number(v, key, "value", finite=False) for v in _list(data.get(key, []), key))


def model_to_dict(model, feature_names=None, target_names=None, metadata=None) -> dict:
    """Wrap a fitted model (joint or independent) in the file schema."""
    doc = {
        "format_version": FORMAT_VERSION,
        "feature_names": list(feature_names) if feature_names else None,
        "target_names": list(target_names) if target_names else None,
        "metadata": metadata or {},
    }
    if isinstance(model, IndependentModel):
        doc["kind"] = "univariate-set"
        doc["models"] = [_boost_model_to_dict(m) for m in model.models]
    elif isinstance(model, BoostModel):
        doc["kind"] = "joint"
        doc["model"] = _boost_model_to_dict(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return doc


def model_from_dict(doc: dict):
    """Inverse of :func:`model_to_dict`; returns (model, doc)."""
    if not isinstance(doc, dict):
        raise ModelFormatError("a model file holds one JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version < 1:
        raise ModelFormatError("missing or invalid format_version")
    if version == 1:
        raise ModelFormatError(
            "model file format_version 1 stores nu_ii as log(a_ii - 1e-6) and may "
            "hold target scaling, which this version does not read; refit the model"
        )
    if version > FORMAT_VERSION:
        raise ModelFormatError(
            f"model file format_version {version} is newer than supported ({FORMAT_VERSION})"
        )
    kind = doc.get("kind")
    try:
        if kind == "univariate-set":
            if not isinstance(doc.get("models"), list) or not doc["models"]:
                raise ModelFormatError("an independent model file needs a list of models")
            model = IndependentModel(
                models=tuple(_boost_model_from_dict(m) for m in doc["models"])
            )
            if any(m.family_tag != "mvn-1" for m in model.models):
                raise ModelFormatError("independent sub-models must be of family 'mvn-1'")
        elif kind == "joint":
            model = _boost_model_from_dict(doc.get("model"))
        else:
            raise ModelFormatError(f"unknown model kind: {kind!r}")
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ModelFormatError(f"malformed model record: {type(exc).__name__}: {exc}") from exc
    _check_names(doc, model)
    return model, doc


def _check_names(doc, model):
    """Refuse column names that are not null or one string per feature or target."""
    if isinstance(model, IndependentModel):
        subs, p = model.models, model.p
    else:
        subs, p = (model,), dim_from_param_count(model.n_params)
    n_features = {m.n_features for m in subs}
    if len(n_features) != 1:
        raise ModelFormatError(f"sub-models expect different feature counts {sorted(n_features)}")
    for key, count in (("feature_names", n_features.pop()), ("target_names", p)):
        names = doc.get(key)
        if names is None:
            continue
        if type(names) is not list or not all(type(name) is str for name in names):
            raise ModelFormatError(f"{key} must be null or a list of strings, got {names!r}")
        if len(names) != count:
            raise ModelFormatError(f"{key} lists {len(names)} names, the model has {count}")


def save_model(model, path, **kwargs):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, **kwargs), fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"not a valid model file: {exc}") from exc
    return model_from_dict(doc)
