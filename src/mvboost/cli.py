"""Command-line surface: simulate | train | predict | evaluate | benchmark.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.  An
input path that is a directory, and an output path that cannot be written or
that exists without ``--force``, are usage errors, refused before any work.
Every command is deterministic given its flags and seeds.
"""

from __future__ import annotations

import datetime
import functools
import os
import sys

import click
import numpy as np

from . import boosting, metrics, simulation
from .data_io import DataError, read_table, write_csv
from .distributions import (
    InvalidParameterError,
    covariance_batch,
    dim_from_param_count,
    nll_batch,
)
from .model_io import ModelFormatError, load_model, save_model
from .trees import TreeParams

EXIT_DATA_ERROR = 3
EXIT_NUMERIC_ERROR = 4
# An input path: an existing file, so a directory is a usage error.
_INPUT_FILE = click.Path(exists=True, dir_okay=False)


def _handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (DataError, ModelFormatError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)
        except (InvalidParameterError, boosting.NonFiniteGradientError,
                boosting.TreeOverflowError, np.linalg.LinAlgError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC_ERROR)

    return wrapper


def _require_finite(values, what):
    """Refuse output holding a NaN or an infinity as a numeric failure (exit 4)."""
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError(f"non-finite {what}")


def _check_overwrite(path, force):
    """Refuse an output path as a usage error (exit 2): one in a directory that
    does not exist, a directory, or an existing file without ``force``."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise click.UsageError(f"cannot write {path}: {folder} is not a directory")
    if os.path.isdir(path):
        raise click.UsageError(f"cannot write {path}: it is a directory")
    if os.path.exists(path) and not force:
        raise click.UsageError(f"refusing to overwrite {path} (use --force)")


@click.group()
@click.version_option(package_name="mvboost", message="%(version)s")
def main():
    """Joint multivariate probabilistic regression with natural-gradient boosting."""


@main.command("simulate")
@click.option("--n", type=click.IntRange(min=1), required=True,
              help="Number of rows to draw.")
@click.option("--variant", type=click.Choice(simulation.VARIANTS), default="modified",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output dataset CSV.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
@_handle_errors
def cmd_simulate(n, variant, seed, out, force):
    """Write a dataset CSV (x,y1,y2) plus a truth sidecar with the generating parameters."""
    truth_path = _truth_path(out)
    _check_overwrite(out, force)
    _check_overwrite(truth_path, force)
    data = simulation.generate(n, variant, seed)
    write_csv(out, ["x", "y1", "y2"],
              [(float(x), float(y1), float(y2))
               for x, (y1, y2) in zip(data.X[:, 0], data.Y)])
    mu1, mu2, var1, var2, rho = simulation.true_moments(data.X[:, 0], variant)
    write_csv(truth_path, ["x", "mu1", "mu2", "var1", "var2", "rho"],
              [tuple(map(float, row))
               for row in zip(data.X[:, 0], mu1, mu2, var1, var2, rho)])
    click.echo(f"wrote {n} rows to {out} (+ {truth_path})")


def _truth_path(out):
    stem, ext = os.path.splitext(out)
    return f"{stem}_truth{ext or '.csv'}"


def _config_options(func):
    options = [
        click.option("--stages", type=click.IntRange(min=1), default=1000,
                     show_default=True, help="Maximum boosting stages."),
        click.option("--learning-rate", type=click.FloatRange(0.0, 1.0, min_open=True),
                     default=0.01, show_default=True),
        click.option("--patience", type=click.IntRange(min=0), default=50,
                     show_default=True),
        click.option("--max-depth", type=click.IntRange(min=1), default=3,
                     show_default=True),
        click.option("--min-samples-leaf", type=click.IntRange(min=1), default=1,
                     show_default=True),
        click.option("--seed", type=int, default=0, show_default=True),
    ]
    for opt in reversed(options):
        func = opt(func)
    return func


def _build_config(stages, learning_rate, patience, max_depth, min_samples_leaf,
                  natural_gradient=True):
    return boosting.BoostConfig(
        n_stages_max=stages,
        learning_rate=learning_rate,
        patience=patience,
        natural_gradient=natural_gradient,
        tree_params=TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf),
    )


def _parse_columns(text):
    return tuple(c.strip() for c in text.split(",") if c.strip())


@main.command("train")
@click.option("--data", "data_path", type=_INPUT_FILE, required=True)
@click.option("--targets", required=True, help="Comma-separated target column names.")
@click.option("--features", default=None,
              help="Comma-separated feature columns (default: all non-target columns).")
@click.option("--val-file", type=_INPUT_FILE, default=None,
              help="Separate validation CSV with the same schema.")
@click.option("--val-frac", type=click.FloatRange(0.0, 1.0, max_open=True), default=0.2,
              show_default=True,
              help="Held-out validation fraction when no --val-file is given.")
@click.option("--independent", is_flag=True, help="Fit each target dimension separately.")
@click.option("--plain-gradient", is_flag=True, help="Skip the Fisher preconditioning.")
@_config_options
@click.option("--out", type=click.Path(), required=True, help="Model file to write.")
@click.option("--log", "log_path", type=click.Path(), default=None,
              help="Per-stage train/val NLL CSV.")
@click.option("--force", is_flag=True)
@_handle_errors
def cmd_train(data_path, targets, features, val_file, val_frac, independent,
              plain_gradient, stages, learning_rate, patience, max_depth,
              min_samples_leaf, seed, out, log_path, force):
    """Fit a boosted distribution model and persist it as versioned JSON."""
    _check_overwrite(out, force)
    if log_path:
        _check_overwrite(log_path, force)
    target_cols = _parse_columns(targets)
    table = read_table(data_path)
    feature_cols = (
        _parse_columns(features)
        if features
        else tuple(c for c in table.columns if c not in target_cols)
    )
    if not target_cols or not feature_cols:
        raise DataError("select at least one target and one feature column")
    for flag, cols in (("--targets", target_cols), ("--features", feature_cols)):
        repeated = sorted({c for c in cols if cols.count(c) > 1})
        if repeated:
            raise DataError(f"{flag} names a column more than once: {repeated}")
    overlap = sorted(set(target_cols) & set(feature_cols))
    if overlap:
        raise DataError(f"columns used as both feature and target: {overlap}")
    X = table.select(feature_cols)
    Y = table.select(target_cols)

    if val_file:
        val_table = read_table(val_file)
        X_val, Y_val = val_table.select(feature_cols), val_table.select(target_cols)
    elif val_frac > 0:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(X.shape[0])
        n_val = max(1, int(round(val_frac * X.shape[0])))
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        X, Y, X_val, Y_val = X[train_idx], Y[train_idx], X[val_idx], Y[val_idx]
    else:
        X_val = Y_val = None
    if Y.shape[0] <= Y.shape[1]:
        raise DataError(f"need more training rows ({Y.shape[0]}) than targets ({Y.shape[1]})")

    config = _build_config(stages, learning_rate, patience, max_depth,
                           min_samples_leaf, natural_gradient=not plain_gradient)
    if independent:
        model = boosting.fit_independent(X, Y, X_val, Y_val, config)
        paths = [(m.train_nll_path, m.val_nll_path) for m in model.models]
    else:
        model = boosting.fit(X, Y, X_val, Y_val, config)
        paths = [(model.train_nll_path, model.val_nll_path)]

    metadata = {
        "n_train_rows": int(X.shape[0]),
        "n_val_rows": int(X_val.shape[0]) if X_val is not None else 0,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "source": os.path.basename(data_path),
    }
    save_model(model, out, feature_names=feature_cols, target_names=target_cols,
               metadata=metadata)

    if log_path:
        rows = []
        for k, (train_nll, val_nll) in enumerate(paths):
            for stage_idx, t in enumerate(train_nll):
                v = val_nll[stage_idx] if stage_idx < len(val_nll) else ""
                rows.append((k, stage_idx, float(t), float(v) if v != "" else ""))
        write_csv(log_path, ["submodel", "stage", "train_nll", "val_nll"], rows)
    click.echo(f"wrote model to {out}")


def _predict_joint_thetas(model, X):
    """Predicted joint thetas, (n, M), and the target dimension p."""
    if isinstance(model, boosting.IndependentModel):
        thetas = model.predict_theta(X)
    else:
        thetas = boosting.predict_theta(model, X)
    return thetas, dim_from_param_count(thetas.shape[1])


def _feature_names(doc):
    """The model's feature columns, which predict and evaluate look up by name."""
    names = doc.get("feature_names")
    if not names:
        raise DataError("model file lists no feature_names to select from the data")
    return tuple(names)


@main.command("predict")
@click.option("--model", "model_path", type=_INPUT_FILE, required=True)
@click.option("--data", "data_path", type=_INPUT_FILE, required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--force", is_flag=True)
@_handle_errors
def cmd_predict(model_path, data_path, out, force):
    """Write per-row predicted parameters (and NLL when targets are present)."""
    _check_overwrite(out, force)
    model, doc = load_model(model_path)
    table = read_table(data_path)
    feature_cols = _feature_names(doc)
    target_cols = tuple(doc.get("target_names") or ())
    X = table.select(feature_cols)
    have_targets = target_cols and all(c in table.columns for c in target_cols)
    # Overflow here surfaces as the non-finite output that _require_finite refuses.
    with np.errstate(all="ignore"):
        thetas, p = _predict_joint_thetas(model, X)
        rows_idx, cols_idx = np.triu_indices(p)
        values = np.concatenate(
            [thetas, covariance_batch(thetas, p)[:, rows_idx, cols_idx]], axis=1
        )
        if have_targets:
            values = np.column_stack(
                [values, nll_batch(thetas, table.select(target_cols), p)]
            )
    columns = [f"mu{i + 1}" for i in range(p)]
    columns += [f"nu{i + 1}{j + 1}" for i, j in zip(rows_idx, cols_idx)]
    columns += [f"sigma{i + 1}{j + 1}" for i, j in zip(rows_idx, cols_idx)]
    if have_targets:
        columns.append("nll")
    _require_finite(values, "predicted theta, sigma or nll")
    write_csv(out, columns, [tuple(map(float, row)) for row in values])
    click.echo(f"wrote {values.shape[0]} predictions to {out}")


@main.command("evaluate")
@click.option("--model", "model_path", type=_INPUT_FILE, required=True)
@click.option("--data", "data_path", type=_INPUT_FILE, required=True)
@click.option("--truth", "truth_path", type=_INPUT_FILE, default=None,
              help="Truth sidecar CSV (mu1,mu2,var1,var2,rho) for KL evaluation.")
@click.option("--alpha", type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True),
              default=0.9, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Optional report CSV.")
@click.option("--force", is_flag=True)
@_handle_errors
def cmd_evaluate(model_path, data_path, truth_path, alpha, out, force):
    """Evaluate a model on a labeled dataset; emit a metrics report."""
    if out:
        _check_overwrite(out, force)
    model, doc = load_model(model_path)
    table = read_table(data_path)
    feature_cols = _feature_names(doc)
    target_cols = tuple(doc.get("target_names") or ())
    if not target_cols or not all(c in table.columns for c in target_cols):
        raise DataError("evaluate requires the model's target columns in the data file")
    X = table.select(feature_cols)
    Y = table.select(target_cols)

    thetas_true = None
    if truth_path:
        if len(target_cols) != 2:
            raise DataError(
                f"the truth sidecar holds bivariate moments; the model has {len(target_cols)} "
                "targets"
            )
        truth = read_table(truth_path)
        moments = truth.select(("mu1", "mu2", "var1", "var2", "rho"))
        if moments.shape[0] != Y.shape[0]:
            raise DataError("truth sidecar row count differs from dataset")
        thetas_true = simulation.thetas_from_moments(*moments.T)

    # Overflow here surfaces as the non-finite metric that _require_finite refuses.
    with np.errstate(all="ignore"):
        thetas, _ = _predict_joint_thetas(model, X)
        report = metrics.evaluate(thetas, Y, thetas_true, alpha=alpha)
    label = f"{report.pr_alpha * 100:.0f}% PR"
    lines = [
        ("NLL", report.nll_mean),
        ("RMSE", report.rmse),
        (f"{label} cov", report.pr_coverage),
        (f"{label} area", report.pr_area_mean),
    ]
    if report.kl_mean is not None:
        lines.insert(0, ("KL div", report.kl_mean))
    _require_finite([value for _, value in lines], "metric")
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        click.echo(f"{name:<{width}}  {value:.6f}")
    click.echo(f"{'n':<{width}}  {report.n_points}")
    if out:
        header = ["n_points", "alpha", "nll", "rmse", "pr_coverage", "pr_area", "kl"]
        row = (report.n_points, float(alpha), report.nll_mean, report.rmse,
               report.pr_coverage, report.pr_area_mean,
               "" if report.kl_mean is None else report.kl_mean)
        write_csv(out, header, [row])


def _parse_n_grid(ctx, param, value):
    try:
        grid = tuple(int(v) for v in _parse_columns(value))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of integers") from None
    if not grid or min(grid) < 1:
        raise click.BadParameter(f"{value!r} must list positive training sizes")
    return grid


def _parse_methods(ctx, param, value):
    methods = _parse_columns(value)
    unknown = sorted(set(methods) - set(simulation.METHODS))
    if not methods or unknown:
        raise click.BadParameter(
            f"{value!r} must list methods from {', '.join(simulation.METHODS)}"
        )
    return methods


@main.command("benchmark")
@click.option("--n-grid", default="500,1000,5000", show_default=True,
              callback=_parse_n_grid, help="Comma-separated training sizes.")
@click.option("--reps", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--methods", default="ngb,indep-ngb,plain-gb", show_default=True,
              callback=_parse_methods, help="Comma-separated methods to compare.")
@click.option("--variant", type=click.Choice(simulation.VARIANTS), default="modified",
              show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes for independent cells.")
@_config_options
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True,
              help="Output directory for results CSVs.")
@click.option("--force", is_flag=True)
@_handle_errors
def cmd_benchmark(n_grid, reps, methods, variant, threads, stages, learning_rate,
                  patience, max_depth, min_samples_leaf, seed, out_dir, force):
    """Run the replicated simulation comparison and write result tables."""
    plan = simulation.ExperimentPlan(
        n_train_grid=n_grid,
        replications=reps,
        methods=methods,
        variant=variant,
        master_seed=seed,
        config=_build_config(stages, learning_rate, patience, max_depth,
                             min_samples_leaf),
    )
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot make the directory {out_dir}: {exc.strerror}") from None
    out_path = os.path.join(out_dir, "results.csv")
    _check_overwrite(out_path, force)
    rows, aggregates = simulation.run_experiment(plan, out_path, workers=threads)
    _echo_aggregate_table(aggregates)
    click.echo(f"wrote {out_path} and {os.path.join(out_dir, 'results_aggregate.csv')}")


def _echo_aggregate_table(aggregates):
    kl_rows = [a for a in aggregates if a["metric"] == "kl"]
    if not kl_rows:
        return
    methods = sorted({a["method"] for a in kl_rows})
    click.echo("mean test KL divergence (± stderr):")
    click.echo("    N  " + "".join(f"{m:>22}" for m in methods))
    for n in sorted({a["N"] for a in kl_rows}):
        cells = []
        for m in methods:
            match = [a for a in kl_rows if a["N"] == n and a["method"] == m]
            cells.append(
                f"{match[0]['mean']:.3f}±{match[0]['stderr']:.3f}" if match else "-"
            )
        click.echo(f"{n:>5}  " + "".join(f"{c:>22}" for c in cells))


if __name__ == "__main__":
    main()
