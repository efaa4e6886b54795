"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL line into the terminal summary (see
conftest.py).  The simulation-based checks share two module-scoped experiment
runs, so this file is the slow part of the suite (around ten minutes on one
core, dominated by the replicated boosting fits).
"""

import math
import time

import numpy as np
import pytest

from mvboost.boosting import BoostConfig
from mvboost.distributions import (
    ThetaVector,
    fit_theta_from_moments,
    kl_divergence_batch,
    nll_batch,
    param_count,
    sample_each,
    score_batch,
)
from mvboost.metrics import pr_area, pr_coverage_rate
from mvboost.simulation import ExperimentPlan, run_experiment
from mvboost.trees import Leaf, TreeParams, fit_tree, predict_tree_batch

from conftest import ACCEPTANCE_LINES
from oracles import fisher_batch


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _random_theta(rng, p):
    theta = np.empty(param_count(p))
    theta[:p] = rng.uniform(-2.0, 2.0, size=p)
    theta[p:] = rng.uniform(-1.0, 1.0, size=param_count(p) - p)
    return theta


def test_criterion_1_score_matches_finite_differences():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        p = int(rng.integers(1, 5))
        theta = _random_theta(rng, p)
        y = rng.uniform(-2.0, 2.0, size=p)
        analytic = score_batch(theta[None, :], y[None, :], p)[0]
        h = 1e-6
        fd = np.empty_like(analytic)
        for m in range(theta.shape[0]):
            lo, hi = theta.copy(), theta.copy()
            lo[m] -= h
            hi[m] += h
            fd[m] = (
                nll_batch(hi[None, :], y[None, :], p)[0]
                - nll_batch(lo[None, :], y[None, :], p)[0]
            ) / (2.0 * h)
        denom = np.maximum(np.abs(analytic), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    elapsed = time.perf_counter() - t0
    _report(
        1, "score vs finite differences",
        worst < 1e-6 and elapsed < 5.0,
        f"max rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_2_fisher_matches_score_covariance():
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    n_draws = 200_000
    worst_sigma = 0.0
    cross_block_zero = True
    cases = [(p, _random_theta(rng, p)) for p in (1, 2, 3) for _ in range(4)][:10]
    # a tiny diagonal entry a_11 = exp(-13), where a wrong chain factor in the
    # Fisher shows most
    cases.append((2, np.array([0.0, 0.0, -13.0, 0.0, 0.0])))
    for p, theta in cases:
        M = param_count(p)
        fisher = fisher_batch(theta[None, :], p)[0]
        # mu-nu cross block must vanish identically, not just statistically
        if np.any(fisher[:p, p:] != 0.0) or np.any(fisher[p:, :p] != 0.0):
            cross_block_zero = False
        thetas = np.tile(theta, (n_draws, 1))
        Ys = sample_each(thetas, p, np.random.default_rng(rng.integers(2**63)))
        scores = score_batch(thetas, Ys, p)
        scores -= scores.mean(axis=0, keepdims=True)
        prods = scores[:, :, None] * scores[:, None, :]
        cov = prods.mean(axis=0)
        se = prods.std(axis=0) / math.sqrt(n_draws)
        sigmas = np.abs(fisher - cov) / np.maximum(se, 1e-12)
        worst_sigma = max(worst_sigma, float(sigmas.max()))
    elapsed = time.perf_counter() - t0
    _report(
        2, "Fisher vs Monte Carlo score covariance",
        worst_sigma < 4.0 and cross_block_zero and elapsed < 60.0,
        f"max deviation {worst_sigma:.2f} SE (limit 4), cross block zero: "
        f"{cross_block_zero}, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_kl_matches_monte_carlo():
    rng = np.random.default_rng(13)
    worst = 0.0
    for p in (1, 2, 2, 3, 3):
        a = _random_theta(rng, p)
        b = _random_theta(rng, p)
        closed = float(kl_divergence_batch(a[None, :], b[None, :], p)[0])
        n = 1_000_000
        Ys = sample_each(np.tile(a, (n, 1)), p, np.random.default_rng(rng.integers(2**63)))
        mc = float(
            np.mean(
                nll_batch(np.tile(b, (n, 1)), Ys, p) - nll_batch(np.tile(a, (n, 1)), Ys, p)
            )
        )
        worst = max(worst, abs(closed - mc) / abs(closed))
    _report(
        3, "closed-form KL vs Monte Carlo",
        worst < 0.01,
        f"max rel err {worst:.4f} (tol 0.01)",
    )


def test_criterion_4_prediction_region_calibration_and_area():
    cov = np.array([[1.0, 0.5], [0.5, 2.0]])
    theta = fit_theta_from_moments(np.array([0.3, -0.7]), cov)
    n = 100_000
    Ys = sample_each(np.tile(theta.values, (n, 1)), 2, np.random.default_rng(14))
    coverage = pr_coverage_rate(np.tile(theta.values, (n, 1)), Ys, 2, 0.9)

    unit = fit_theta_from_moments(np.zeros(2), np.eye(2))
    area = pr_area(ThetaVector(unit.values, 2), 0.9)
    area_err = abs(area - math.pi * 4.605170)
    _report(
        4, "prediction-region calibration and area",
        abs(coverage - 0.9) <= 0.005 and area_err < 1e-6,
        f"coverage {coverage:.4f} (target 0.900±0.005), unit-covariance area "
        f"error {area_err:.2e} (tol 1e-6)",
    )


def test_criterion_5_greedy_split_matches_exhaustive():
    rng = np.random.default_rng(15)

    def exhaustive_sse(X, ys, depth):
        base = float(np.sum((ys - ys.mean()) ** 2)) if ys.size else 0.0
        if depth == 0 or ys.size < 2:
            return base
        best = base
        for feat in range(X.shape[1]):
            values = np.unique(X[:, feat])
            for lo, hi in zip(values[:-1], values[1:]):
                mask = X[:, feat] <= 0.5 * (lo + hi)
                if not mask.any() or mask.all():
                    continue
                cand = exhaustive_sse(X[mask], ys[mask], depth - 1) + exhaustive_sse(
                    X[~mask], ys[~mask], depth - 1
                )
                best = min(best, cand)
        return best

    all_match = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 3))
        X = np.round(rng.normal(size=(n, d)), 2)
        ys = rng.normal(size=n)
        tree = fit_tree(X, ys, TreeParams(max_depth=depth))
        greedy = float(np.sum((ys - predict_tree_batch(tree, X)) ** 2))
        oracle = exhaustive_sse(X, ys, depth)
        # greedy depth-2 is only guaranteed optimal given the root choice, so
        # compare against the exhaustive recursion under the greedy root
        if depth == 2 and not isinstance(tree.root, Leaf):
            mask = X[:, tree.root.feature_index] <= tree.root.threshold
            oracle = exhaustive_sse(X[mask], ys[mask], 1) + exhaustive_sse(
                X[~mask], ys[~mask], 1
            )
        gap = abs(greedy - oracle)
        worst = max(worst, gap)
        if gap > 1e-8:
            all_match = False
    _report(
        5, "greedy split vs exhaustive search",
        all_match,
        f"100 instances, max SSE gap {worst:.2e} (tol 1e-8)",
    )


def _kl_means(aggregates):
    return {
        (a["N"], a["method"]): a["mean"]
        for a in aggregates
        if a["metric"] == "kl"
    }


@pytest.fixture(scope="module")
def modified_run():
    plan = ExperimentPlan(
        n_train_grid=(500, 1000, 5000),
        replications=5,
        variant="modified",
        master_seed=0,
        config=BoostConfig(),
    )
    t0 = time.perf_counter()
    rows, aggregates = run_experiment(plan)
    elapsed = time.perf_counter() - t0
    errors = [r["error"] for r in rows if "error" in r]
    assert not errors, errors
    return rows, aggregates, elapsed


@pytest.fixture(scope="module")
def williams_run():
    plan = ExperimentPlan(
        n_train_grid=(5000,),
        replications=5,
        variant="williams-original",
        master_seed=0,
        config=BoostConfig(),
    )
    rows, aggregates = run_experiment(plan)
    errors = [r["error"] for r in rows if "error" in r]
    assert not errors, errors
    return rows, aggregates


@pytest.mark.slow
def test_criterion_6_simulation_reproduction(modified_run):
    _, aggregates, elapsed = modified_run
    kl = _kl_means(aggregates)
    checks = {
        "ngb@1000<=0.5": kl[(1000, "ngb")] <= 0.5,
        "indep>=2x ngb@1000": kl[(1000, "indep-ngb")] >= 2.0 * kl[(1000, "ngb")],
        "ngb@5000<=0.15": kl[(5000, "ngb")] <= 0.15,
        "gb>=10x ngb@1000": kl[(1000, "plain-gb")] >= 10.0 * kl[(1000, "ngb")],
        "gb>=10x ngb@5000": kl[(5000, "plain-gb")] >= 10.0 * kl[(5000, "ngb")],
        "runtime<30min": elapsed < 1800.0,
    }
    detail = (
        f"KL ngb {kl[(1000, 'ngb')]:.3f}/{kl[(5000, 'ngb')]:.3f}, "
        f"indep {kl[(1000, 'indep-ngb')]:.3f}, "
        f"gb {kl[(1000, 'plain-gb')]:.1f}/{kl[(5000, 'plain-gb')]:.1f} "
        f"at N=1000/5000; {elapsed / 60:.1f} min"
    )
    failed = [k for k, ok in checks.items() if not ok]
    _report(6, "simulation benchmark bounds", not failed,
            detail + (f"; failed: {failed}" if failed else ""))


@pytest.mark.slow
def test_criterion_7_ordering_on_original_variant(modified_run, williams_run):
    _, agg_mod, _ = modified_run
    _, agg_orig = williams_run
    kl_mod = _kl_means(agg_mod)
    kl_orig = _kl_means(agg_orig)
    ngb, indep, gb = (
        kl_orig[(5000, "ngb")],
        kl_orig[(5000, "indep-ngb")],
        kl_orig[(5000, "plain-gb")],
    )
    gap_orig = gb - ngb
    gap_mod = kl_mod[(5000, "plain-gb")] - kl_mod[(5000, "ngb")]
    ok = ngb < indep and gap_orig < 0.1 * gap_mod
    _report(
        7, "method ordering on the no-trend variant",
        ok,
        f"ngb {ngb:.3f} < indep {indep:.3f}; gb-ngb gap {gap_orig:.2f} vs "
        f"{gap_mod:.1f} on the trended variant",
    )


@pytest.mark.slow
def test_criterion_8_coverage_trend(modified_run):
    rows, _, _ = modified_run
    cov = {}
    for n in (500, 1000, 5000):
        vals = [
            r["pr_coverage"] for r in rows if r["N"] == n and r["method"] == "ngb"
        ]
        cov[n] = float(np.mean(vals))
    ok = cov[500] <= cov[1000] <= cov[5000] and 0.84 <= cov[5000] <= 0.92
    _report(
        8, "coverage rises toward nominal",
        ok,
        f"90% PR coverage {cov[500]:.3f} -> {cov[1000]:.3f} -> {cov[5000]:.3f} "
        f"(target [0.84, 0.92] at N=5000)",
    )


def test_criterion_9_benchmark_determinism(tmp_path):
    from click.testing import CliRunner

    from mvboost.cli import main as cli_main

    runner = CliRunner()
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            ["benchmark", "--n-grid", "150", "--reps", "2",
             "--stages", "15", "--patience", "5", "--learning-rate", "0.1",
             "--seed", "123", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        outputs.append((out / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _report(
        9, "benchmark determinism",
        ok,
        "results.csv byte-identical across two runs with the same master seed",
    )
