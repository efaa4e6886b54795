"""Spans for the traced run, recorded from the benchmark's own files.

``install`` replaces public names in mvboost's modules with wrappers that
open a span around each call.  The program looks these names up in its module
namespace at call time (``boosting.fit`` calls ``fit_tree``,
``predict_tree_batch`` and ``line_search`` from ``mvboost.boosting``, and the
Gaussian family calls ``natural_gradient_batch``, ``score_batch``,
``fisher_batch`` and ``nll_batch`` from ``mvboost.distributions``), so the
wrappers see every call without any change to the program.  A name the
program no longer defines or calls is reported as not observed.

Spans stay in memory; ``layer_metrics`` reduces one round's spans to the
per-layer figures and ``write`` dumps them all when the run ends.
"""

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

STALL_RHO = 2.0**-10  # smallest line-search step: the stage made no progress
PHASES = ("setup", "fit", "save", "predict", "checks")

# Per-layer metric -> (unit, the span name it is read from).
LAYER_METRICS = {
    "distributions.natgrad.self_ms_per_stage": ("ms", "distributions.natgrad"),
    "distributions.fisher.ms_per_stage": ("ms", "distributions.fisher"),
    "distributions.fisher.bytes_per_stage": ("bytes-computed", "distributions.fisher"),
    "distributions.score.ms_per_stage": ("ms", "distributions.score"),
    "trees.fit.ms_per_stage": ("ms", "trees.fit"),
    "trees.fit.calls_per_stage": ("count", "trees.fit"),
    "trees.splits_per_stage": ("count", "trees.fit"),
    "boosting.line_search.self_ms_per_stage": ("ms", "boosting.line_search"),
    "boosting.line_search.stalls": ("count", "boosting.line_search"),
    "distributions.nll.ms_per_stage": ("ms", "distributions.nll"),
    "distributions.nll.calls_per_stage": ("count", "distributions.nll"),
    "trees.predict.ms_per_stage": ("ms", "trees.predict"),
    "boosting.val_update.ms_per_stage": ("ms", "trees.predict"),
    "boosting.predict_theta.ms": ("ms", "boosting.predict_theta"),
    "trees.predict.rows": ("rows", "trees.predict"),
    "model_io.load.ms": ("ms", "model_io.load"),
    "model_io.save.ms": ("ms", "model_io.save"),
    "model_io.bytes": ("bytes", "model_io.save"),
    "metrics.evaluate.ms": ("ms", "metrics.evaluate"),
    "simulation.generate.ms": ("ms", "simulation.generate"),
}


class Tracer:
    """Spans as dicts with name, start, end, parent (an index) and attributes."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _rows(index):
    return lambda args, result: {"rows": int(np.shape(args[index])[0])}


def _fisher(args, result):
    rows, m = np.shape(args[0])
    return {"rows": int(rows), "computed_bytes": int(rows) * m * m * 8}


def _count_splits(node):
    left = getattr(node, "left", None)
    if left is None:
        return 0
    return 1 + _count_splits(left) + _count_splits(node.right)


# (mvboost module, public name, span name, attributes from (args, result))
WRAPPED = (
    ("boosting", "fit_tree", "trees.fit",
     lambda args, tree: {"splits": _count_splits(tree.root)}),
    ("boosting", "predict_tree_batch", "trees.predict", _rows(1)),
    ("boosting", "line_search", "boosting.line_search", lambda args, rho: {"rho": rho}),
    ("boosting", "predict_theta", "boosting.predict_theta", None),
    ("distributions", "natural_gradient_batch", "distributions.natgrad", None),
    ("distributions", "score_batch", "distributions.score", None),
    ("distributions", "fisher_batch", "distributions.fisher", _fisher),
    ("distributions", "nll_batch", "distributions.nll", _rows(0)),
    ("model_io", "save_model", "model_io.save", None),
    ("model_io", "load_model", "model_io.load", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("simulation", "generate", "simulation.generate", None),
)


def _wrap(tracer, fn, name, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if describe is not None:  # outside the span, so it adds no layer time
            rec.update(describe(args, result))
        return result

    return traced


def install(tracer, modules):
    """Wrap every name in WRAPPED that ``modules`` (name -> module) defines.

    Returns the span names whose function was not found.
    """
    missing = []
    for module_name, attr, span_name, describe in WRAPPED:
        fn = getattr(modules[module_name], attr, None)
        if fn is None:
            missing.append(span_name)
            continue
        setattr(modules[module_name], attr, _wrap(tracer, fn, span_name, describe))
    return missing


def _annotate(spans):
    """Per span: its phase, the index of its enclosing round, its child time."""
    phase, round_of = [None] * len(spans), [None] * len(spans)
    child_s = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        parent = rec["parent"]
        if parent is not None:
            phase[i], round_of[i] = phase[parent], round_of[parent]
            child_s[parent] += rec["end"] - rec["start"]
        if rec["name"] in PHASES:
            phase[i] = rec["name"]
        if rec["name"] == "round":
            round_of[i] = i
    return phase, round_of, child_s


def layer_metrics(spans, n_val, rounds):
    """Per-layer figures for each round, and once for set-up.

    ``rounds`` gives, per round span index, the number of boosting stages its
    fits ran and the bytes of the models it saved.  Validation rows are told
    apart from training rows by their count, ``n_val``.
    """
    phase, round_of, child_s = _annotate(spans)
    acc = {r: dict.fromkeys(LAYER_METRICS, 0.0) for r in rounds}
    setup_generate_s = 0.0
    for i, rec in enumerate(spans):
        name, where = rec["name"], phase[i]
        dur = rec["end"] - rec["start"]
        if where == "setup" and name == "simulation.generate":
            setup_generate_s += dur
        r = round_of[i]
        if r not in acc:
            continue
        a = acc[r]
        if where == "fit":
            if name == "distributions.natgrad":
                a["distributions.natgrad.self_ms_per_stage"] += dur - child_s[i]
            elif name == "distributions.fisher":
                a["distributions.fisher.ms_per_stage"] += dur
                a["distributions.fisher.bytes_per_stage"] += rec["computed_bytes"]
            elif name == "distributions.score":
                a["distributions.score.ms_per_stage"] += dur
            elif name == "trees.fit":
                a["trees.fit.ms_per_stage"] += dur
                a["trees.fit.calls_per_stage"] += 1
                a["trees.splits_per_stage"] += rec["splits"]
            elif name == "boosting.line_search":
                a["boosting.line_search.self_ms_per_stage"] += dur - child_s[i]
                a["boosting.line_search.stalls"] += rec["rho"] == STALL_RHO
            elif name == "distributions.nll" and rec["rows"] == n_val:
                a["boosting.val_update.ms_per_stage"] += dur
            elif name == "distributions.nll":
                a["distributions.nll.ms_per_stage"] += dur
                a["distributions.nll.calls_per_stage"] += 1
            elif name == "trees.predict" and rec["rows"] == n_val:
                a["boosting.val_update.ms_per_stage"] += dur
            elif name == "trees.predict":
                a["trees.predict.ms_per_stage"] += dur
        elif where == "save" and name == "model_io.save":
            a["model_io.save.ms"] += dur
        elif where == "predict":
            if name == "boosting.predict_theta":
                a["boosting.predict_theta.ms"] += dur
            elif name == "trees.predict":
                a["trees.predict.rows"] += rec["rows"]
            elif name == "model_io.load":
                a["model_io.load.ms"] += dur
        elif where == "checks" and name == "metrics.evaluate":
            a["metrics.evaluate.ms"] += dur

    per_round = []
    for r, info in rounds.items():
        a = acc[r]
        stages = info["stages"]
        a["model_io.bytes"] = float(info["model_bytes"])
        a["simulation.generate.ms"] = setup_generate_s
        for key, (unit, _) in LAYER_METRICS.items():
            if key.endswith("_per_stage"):
                a[key] /= stages
            if unit == "ms":
                a[key] *= 1e3
        per_round.append(a)
    return per_round
