"""Fit/predict benchmark for mvboost: one named workload per run.

    python3 fitbench/run.py --workload sim2d --seed 1 --seconds 30 --trace 0

Run it from the repository root of a plain checkout; there is no install
step, since the script puts ``src`` on the import path itself.  Set-up
(imports plus input generation, timed from the start of this script) runs
once; then whole rounds of fit, save, load+predict and checks repeat until
``--seconds`` have passed.  Timings are medians over the rounds.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the program's public functions are
wrapped in spans and the line carries the per-layer metrics instead, and all
spans are written to ``fitbench/out/trace-<workload>-seed<seed>.json``.
Failed checks are named on standard error with their workload, value and
bound, and make ``correct`` false.  See README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one fit/predict workload and print its metrics as JSON."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _say(message):
    print(f"fitbench: {message}", file=sys.stderr)


def main(argv=None):
    args = _parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    try:
        from mvboost import boosting, distributions, metrics, model_io, simulation

        import spans
        import workloads
    except ImportError as exc:
        _say(f"cannot import the program from src/: {exc}")
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        _say(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2

    tracer = spans.Tracer()
    if args.trace:
        modules = {"boosting": boosting, "distributions": distributions,
                   "metrics": metrics, "model_io": model_io, "simulation": simulation}
        for name in spans.install(tracer, modules):
            _say(f"{name}: no such function in the program")
    with tracer.span("setup"):
        data = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - _START

    os.makedirs(OUT_DIR, exist_ok=True)
    results, round_spans = [], []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        deadline = time.perf_counter() + args.seconds
        while not results or time.perf_counter() < deadline:
            round_spans.append(len(tracer.spans))
            with tracer.span("round"):
                results.append(workloads.run_round(wl, data, tracer, workdir))

    correct = True
    for i, result in enumerate(results):
        for check in result.checks:
            if not check.ok:
                correct = False
                _say(f"check failed: workload={wl.name} round={i} check={check.name} "
                     f"value={check.value!r} bound={check.bound!r}")
    attempted = sum(3 * len(wl.methods) + len(r.checks) for r in results)
    fit_s = [r.fit_s for r in results]
    _say(f"workload={wl.name} seed={args.seed} trace={args.trace} rounds={len(results)} "
         f"setup_s={setup_s:.3f} fit_s={[round(v, 3) for v in fit_s]} "
         f"predict_s={[round(r.predict_s, 3) for r in results]} kl={results[-1].kl!r}")

    if args.trace:
        rounds = {index: {"stages": r.stages, "model_bytes": r.model_bytes}
                  for index, r in zip(round_spans, results)}
        per_round = spans.layer_metrics(tracer.spans, wl.n_val, rounds)
        seen = {rec["name"] for rec in tracer.spans}
        out = {}
        for name, (unit, source) in spans.LAYER_METRICS.items():
            if source not in seen:
                _say(f"{name}: not observed (no {source} span in this workload)")
            out[name] = (statistics.median(r[name] for r in per_round), unit)
        tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json"))
    else:
        out = {
            "setup_s": (setup_s, "s"),
            "fit_s": (statistics.median(fit_s), "s"),
            "predict_rows_per_s": (
                statistics.median(wl.n_test / r.predict_s for r in results), "rows/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "kl": (results[-1].kl, "nats"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
