"""The workloads, one round of fit / save / load+predict, and its checks.

Every fit runs a fixed number of stages with a patience longer than that, so
early stopping never ends a fit early and a change in numerics does not
change the amount of work.  Models are saved, reloaded and used to predict
the test rows; the checks then compare the program's outputs with the oracle
(``oracle.py``, no mvboost imports) and with properties that must hold.

The program is called only through public module attributes looked up at
call time (``boosting.fit``, ``model_io.load_model``, ...), so the traced run
sees these calls too.
"""

import os
import time
from dataclasses import dataclass, replace

import numpy as np
from mvboost import boosting, distributions, metrics, model_io

import inputs
import oracle

REL_TOL = 1e-9
NATGRAD_ROWS = 200  # training rows sampled for the natural-gradient checks


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple
    n_train: int
    n_val: int
    n_test: int  # the prediction rows; also the rows the KL is taken over
    stages: int
    learning_rate: float
    p: int
    d: int | None = None  # features of the conditional generator; None: simulation

    def config(self):
        return boosting.BoostConfig(
            n_stages_max=self.stages,
            learning_rate=self.learning_rate,
            patience=self.stages + 1,
        )

    def make_inputs(self, seed):
        sizes = {"train": self.n_train, "val": self.n_val, "test": self.n_test}
        if self.d is None:
            return {split: inputs.simulation_split(n, seed, split)
                    for split, n in sizes.items()}
        return {split: inputs.conditional_split(n, self.d, self.p, seed, split)
                for split, n in sizes.items()}


# Why each workload is here is in README.md.  The validation row counts differ
# from the training row counts: the traced run tells the two apart by count.
WORKLOADS = {
    "sim2d": Workload(
        name="sim2d", methods=("ngb", "indep-ngb", "plain-gb"),
        n_train=4000, n_val=1000, n_test=8000, stages=100, learning_rate=0.06, p=2,
    ),
    "features10": Workload(
        name="features10", methods=("ngb",),
        n_train=3000, n_val=1000, n_test=40000, stages=60, learning_rate=0.04, p=2, d=10,
    ),
    "targets10": Workload(
        name="targets10", methods=("ngb",),
        n_train=1000, n_val=400, n_test=20000, stages=10, learning_rate=0.1, p=10, d=1,
    ),
}


def _fit(method, data, config):
    train, val = data["train"], data["val"]
    if method == "indep-ngb":
        return boosting.fit_independent(train.X, train.Y, val.X, val.Y, config)
    if method == "plain-gb":
        config = replace(config, natural_gradient=False)
    return boosting.fit(train.X, train.Y, val.X, val.Y, config)


def _predict(model, X):
    if isinstance(model, boosting.IndependentModel):
        return model.predict_theta(X)
    return boosting.predict_theta(model, X)


def _boost_models(model):
    if isinstance(model, boosting.IndependentModel):
        return model.models
    return (model,)


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float
    ok: bool


def _at_most(name, value, bound):
    return Check(name, value, bound, bool(value <= bound))


def _at_least(name, value, bound):
    return Check(name, value, bound, bool(value >= bound))


def _rel_err(value, reference):
    return abs(value - reference) / abs(reference)


@dataclass(frozen=True)
class RoundResult:
    fit_s: float
    predict_s: float
    kl: float
    stages: int
    model_bytes: int
    checks: tuple


def run_round(wl, data, tracer, workdir):
    """Fit every method, save, reload and predict, then check the outputs."""
    config = wl.config()
    with tracer.span("fit"):
        start = time.perf_counter()
        models = {method: _fit(method, data, config) for method in wl.methods}
        fit_s = time.perf_counter() - start

    paths = {method: os.path.join(workdir, f"{method}.json") for method in models}
    with tracer.span("save"):
        for method, model in models.items():
            model_io.save_model(model, paths[method])
    model_bytes = sum(os.path.getsize(path) for path in paths.values())

    X_test = data["test"].X
    with tracer.span("predict"):
        start = time.perf_counter()
        preds = {}
        for method, path in paths.items():
            loaded, _ = model_io.load_model(path)
            preds[method] = _predict(loaded, X_test)
        predict_s = time.perf_counter() - start

    with tracer.span("checks"):
        kls, checks = _check(wl, data, models, preds)
    return RoundResult(
        fit_s=fit_s,
        predict_s=predict_s,
        kl=kls["ngb"],
        stages=sum(len(m.stages) for model in models.values() for m in _boost_models(model)),
        model_bytes=model_bytes,
        checks=tuple(checks),
    )


def _oracle_moments(thetas, p):
    """Mean and covariance per row of an MVN theta = (mu, nu), by the oracle."""
    L = oracle.precision_factor(thetas, p, distributions.DIAG_EPS)
    return thetas[:, :p], oracle.covariance(L)


def _oracle_kl(thetas, p, test):
    mean, cov = _oracle_moments(thetas, p)
    return float(np.mean(oracle.kl_rows(mean, cov, test.mean, test.cov)))


def _check(wl, data, models, preds):
    train, test = data["train"], data["test"]
    p = wl.p
    checks, kls, train_thetas = [], {}, {}
    for method, model in models.items():
        in_memory = _predict(model, test.X)
        mismatches = (
            int(np.count_nonzero(in_memory != preds[method]))
            if in_memory.shape == preds[method].shape else in_memory.size
        )
        checks.append(_at_most(f"{method}.reload_mismatched_thetas", mismatches, 0))

        kls[method] = metrics.evaluate(preds[method], test.Y, test.theta).kl_mean
        checks.append(_at_most(
            f"{method}.evaluate_kl_vs_oracle_rel_err",
            _rel_err(kls[method], _oracle_kl(preds[method], p, test)), REL_TOL,
        ))

        subs = _boost_models(model)
        for j, sub in enumerate(subs):
            # an independent model's j-th fit is of target column j alone
            Y = train.Y if len(subs) == 1 else train.Y[:, j:j + 1]
            thetas = boosting.predict_theta(sub, train.X)
            if sub.family_tag == "univariate":  # theta = (mu, log sigma)
                mean, cov = thetas[:, :1], np.exp(2.0 * thetas[:, 1])[:, None, None]
            else:
                mean, cov = _oracle_moments(thetas, Y.shape[1])
            label = method if len(subs) == 1 else f"{method}[{j}]"
            checks.append(_at_most(
                f"{label}.train_nll_path_vs_oracle_rel_err",
                _rel_err(sub.train_nll_path[sub.best_stage],
                         float(np.mean(oracle.nll_rows(mean, cov, Y)))),
                REL_TOL,
            ))
            train_thetas[label] = thetas

    joint = models["ngb"]
    marginal_kl = _oracle_kl(np.tile(joint.theta0, (test.X.shape[0], 1)), p, test)
    checks.append(Check("ngb.kl_vs_marginal_kl", kls["ngb"], marginal_kl,
                        bool(kls["ngb"] < marginal_kl)))

    rows = np.arange(0, train.X.shape[0], train.X.shape[0] // NATGRAD_ROWS)
    thetas, Y = train_thetas["ngb"][rows], train.Y[rows]
    natgrad = distributions.natural_gradient_batch(thetas, Y, p)
    resid = thetas[:, :p] - Y
    checks.append(_at_most(
        "ngb.natgrad_mean_block_vs_residual_rel_err",
        float(np.max(np.abs(natgrad[:, :p] - resid)) / np.max(np.abs(resid))), REL_TOL,
    ))
    inner = np.einsum("nm,nm->n", distributions.score_batch(thetas, Y, p), natgrad)
    checks.append(Check("ngb.min_score_dot_natgrad", float(inner.min()), 0.0,
                        bool(inner.min() > 0.0)))

    if "indep-ngb" in kls and "plain-gb" in kls:  # the paper's ordering
        checks.append(_at_most("ngb.kl", kls["ngb"], 0.15))
        checks.append(_at_least("indep-ngb.kl_over_ngb_kl", kls["indep-ngb"] / kls["ngb"], 2.0))
        checks.append(_at_least("plain-gb.kl_over_ngb_kl", kls["plain-gb"] / kls["ngb"], 10.0))
    return kls, checks
