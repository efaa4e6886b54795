"""Versioned JSON persistence for fitted models.

Human-diffable text format; trees are stored as nested node records.  The
round trip save -> load -> save is byte-identical (floats serialize via their
shortest exact repr), and loading a newer format version than this code
supports is an error.  Version 1 files are refused as well: their nu_ii meant
log(a_ii - 1e-6), under a diagonal floor this version no longer has.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict

import numpy as np

from .boosting import BoostConfig, BoostModel, IndependentModel, Stage
from .distributions import param_count
from .trees import TreeParams, tree_from_dict, tree_to_dict

FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    """Model file is malformed or from an unsupported format version."""


def _config_from_dict(data: dict) -> BoostConfig:
    # Keys of removed settings (rng_seed, min_samples_split) in older files are ignored.
    tree = data["tree_params"]
    return BoostConfig(
        n_stages_max=data["n_stages_max"],
        learning_rate=data["learning_rate"],
        patience=data["patience"],
        natural_gradient=data["natural_gradient"],
        tree_params=TreeParams(
            max_depth=tree["max_depth"], min_samples_leaf=tree["min_samples_leaf"]
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
    try:
        model = BoostModel(
            theta0=np.asarray(data["theta0"], dtype=float),
            stages=tuple(
                Stage(rho=float(s["rho"]), trees=tuple(tree_from_dict(t) for t in s["trees"]))
                for s in data["stages"]
            ),
            config=_config_from_dict(data["config"]),
            family_tag=data["family"],
            best_stage=_integer(data, "best_stage"),
            n_features=_integer(data, "n_features"),
            train_nll_path=tuple(data.get("train_nll_path", ())),
            val_nll_path=tuple(data.get("val_nll_path", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model record: {type(exc).__name__}: {exc}") from exc
    _check_boost_model(model)
    return model


def _integer(data, key):
    value = data[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _check_boost_model(model: BoostModel):
    """Refuse a parsed model whose parts do not fit together."""
    # MVN is the only family; a file of any other, such as the old
    # "univariate" (mu, log sigma) one, would be misread as (mu, nu).
    tag = model.family_tag
    match = re.fullmatch(r"mvn-([1-9][0-9]*)", tag) if isinstance(tag, str) else None
    if match is None or model.theta0.shape != (param_count(int(match.group(1))),):
        raise ModelFormatError(
            f"unsupported model family {tag!r} with {model.theta0.size} parameters"
        )
    if not np.all(np.isfinite(model.theta0)):
        raise ModelFormatError("theta0 holds a non-finite value")
    if not 0 <= model.best_stage <= len(model.stages):
        raise ModelFormatError(
            f"best_stage {model.best_stage} is outside 0..{len(model.stages)}"
        )
    for b, stage in enumerate(model.stages, start=1):
        if not math.isfinite(stage.rho):
            raise ModelFormatError(f"stage {b} has a non-finite rho {stage.rho}")
        if len(stage.trees) != model.n_params:
            raise ModelFormatError(
                f"stage {b} has {len(stage.trees)} trees, family {tag} needs {model.n_params}"
            )
        # tree_from_dict has checked every split against its tree's n_features
        if any(tree.n_features != model.n_features for tree in stage.trees):
            raise ModelFormatError(
                f"stage {b} has a tree for other than {model.n_features} features"
            )


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
    if not isinstance(version, int) or version < 1:
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
    return model, doc


def save_model(model, path, **kwargs):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, **kwargs), fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not a valid model file: {exc}") from exc
    return model_from_dict(doc)
