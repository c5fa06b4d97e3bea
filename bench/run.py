#!/usr/bin/env python3
"""Benchmark of sqzbudget: one workload per run, result as JSON on the last line.

Run from the root of a checkout:

    python3 bench/run.py --workload spectrum_dense --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` is a separate run that reports the per-layer metrics: it runs
untraced passes for half the time, then traced passes (see tracer.py) for
the other half, and takes the import breakdown from ``python -X importtime``.
End-to-end numbers never come from traced passes.

Every output is checked: spectra against the reference model in
reference.py, cli_cold against tests/golden/ byte for byte, generated
scenarios for a format/parse round trip, all with warnings raised as
errors.  A failed check counts the operation as failed.  The human-readable
table above the JSON line also shows error_rate and the sample counts; each
result is saved with its seed and versions under .bench_out/results/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
SPAN_BUDGET = 1_000_000  # no further traced pass starts once this many spans are held
SETUP_CODE = "import sys, sqzbudget.cli as cli; cli.load_scenario(sys.argv[1]); print(cli.__file__)"


def under_src(path):
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure(workload, seconds, more=lambda: True):
    """Closed loop of passes for `seconds`: (pass times, [(op seconds, ok)])."""
    passes, ops = [], []
    deadline = time.perf_counter() + seconds
    while not passes or (time.perf_counter() < deadline and more()):
        result = workload.run_pass()
        passes.append(sum(dt for dt, _ in result))
        ops.extend(result)
    return passes, ops


def measure_setup(ctx, scenario, run_child):
    """Median wall time of a fresh interpreter importing sqzbudget.cli and loading `scenario`."""
    argv = [sys.executable, "-c", SETUP_CODE, scenario]
    times = []
    for i in range(SETUP_SAMPLES + 1):  # the first one fills the bytecode cache
        dt, code, out, _ = run_child(argv, ctx.env, ctx.root)
        if code != 0 or not under_src(out.decode().strip()):
            raise RuntimeError(f"set-up run failed or imported sqzbudget from elsewhere:\n{out.decode()}")
        if i:
            times.append(dt)
    return statistics.median(times)


def end_to_end(workload, passes, ops, setup_s):
    """{name: (value, unit, note)}; op_p90_s only where ten samples lie beyond it."""
    lat = [dt for dt, _ in ops]
    run_s = statistics.median(passes)
    failed = sum(1 for _, ok in ops if not ok)
    rss = getattr(workload, "peak_rss_mb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES} fresh interpreters"),
        "run_s": (run_s, "s", f"median of {len(passes)} passes"),
        "op_p50_s": (statistics.median(lat), "s", f"{len(lat)} operations"),
        "points_per_s": (workload.points_per_pass / run_s, "1/s",
                         f"{workload.points_per_pass} spectrum points per pass"),
        "scenarios_per_s": (workload.scenarios_per_pass / run_s, "1/s",
                            f"{workload.scenarios_per_pass} scenarios per pass"),
        "peak_rss_mb": (rss, "MB", "largest CLI process" if workload.name == "cli_cold"
                        else "benchmark process"),
        "error_rate": (failed / len(ops), "ratio", f"{failed} failed of {len(ops)} attempted"),
    }
    if len(lat) > 1:
        p90 = statistics.quantiles(lat, n=10)[8]
        beyond = sum(1 for x in lat if x > p90)
        if beyond >= 10:
            metrics["op_p90_s"] = (p90, "s", f"{len(lat)} operations, {beyond} beyond")
    return metrics


def per_layer(ctx, workload, seconds, tracer, import_span):
    """Untraced then traced passes; the per-layer metrics of one pass."""
    import numpy as np

    untraced, ops = measure(workload, seconds / 2)
    trace_dir = ctx.out_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    if workload.name == "cli_cold":
        workload.trace_dir = trace_dir / "cli_cold"
        workload.trace_dir.mkdir(exist_ok=True)
        for old in workload.trace_dir.glob("*.npz"):
            old.unlink()
        traced, traced_ops = measure(workload, seconds / 2)
        totals = {layer: [0, 0.0] for layer in tracer.LAYERS}
        counters = {}
        for path in sorted(workload.trace_dir.glob("*.npz")):
            with np.load(path) as spans:
                t, c = tracer.summarize(spans)
            for layer, (calls, self_s) in t.items():
                totals[layer][0] += calls
                totals[layer][1] += self_s
            for k, v in c.items():
                counters[k] = counters.get(k, 0.0) + v
        per_pass = {k: 1.0 / len(traced) for k in totals}
    else:
        t = tracer.Tracer()
        t.record("import.sqzbudget.cli", *import_span)
        uninstall = tracer.install(t)
        try:
            traced, traced_ops = measure(workload, seconds / 2, lambda: len(t.start) < SPAN_BUDGET)
        finally:
            uninstall()
        totals, counters = tracer.summarize(t.arrays())
        t.save(trace_dir / f"{workload.name}.npz")
        # the process imports once; every other layer is reported per pass
        per_pass = {k: 1.0 if k == "import" else 1.0 / len(traced) for k in totals}

    n = len(traced)
    metrics = {}
    for layer, (calls, self_s) in totals.items():
        metrics[f"{layer}.calls"] = (calls * per_pass[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s * per_pass[layer], "s")
    imports = tracer.measure_imports(sys.executable, ctx.env, ctx.root)
    for package, seconds_ in imports.items():
        metrics[f"import.{package}_s"] = (seconds_, "s")
    evaluated = counters.get("source.points_evaluated", 0.0) / n
    metrics["source.useful_ratio"] = (workload.points_per_pass / evaluated if evaluated else 0.0, "ratio")
    metrics["cli.rows_written"] = (workload.rows_per_pass, "count")
    metrics["scenario_io.bytes_parsed"] = (counters.get("scenario_io.bytes_parsed", 0.0) / n, "bytes")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    notes = {"trace.overhead_ratio": f"{n} traced, {len(untraced)} untraced passes"}
    return metrics, notes, ops + traced_ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqzbudget" / "__init__.py").is_file():
        print(f"error: no sqzbudget sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sqzbudget.cli
    import_span = (t0, time.perf_counter())
    if not under_src(sqzbudget.cli.__file__):
        print(f"error: sqzbudget imported from {sqzbudget.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    warnings.simplefilter("error")

    ctx = workloads.Context(ROOT, args.seed, env)
    workload = workloads.WORKLOADS[args.workload](ctx)
    if args.trace:
        workload.warm()
        metrics, notes, ops = per_layer(ctx, workload, args.seconds, tracer, import_span)
        metrics = {k: (v, u, notes.get(k, "")) for k, (v, u) in metrics.items()}
    else:
        setup_s = measure_setup(ctx, workload.first_scenario, workloads.run_child)
        workload.warm()
        passes, ops = measure(workload, args.seconds)
        metrics = end_to_end(workload, passes, ops, setup_s)
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this run does not compute: {missing}")

    failed = sum(1 for _, ok in ops if not ok)
    versions = {"python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"),
                "scipy": importlib.metadata.version("scipy")}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), **versions,
              "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()}}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"nproc {record['nproc']}  " + "  ".join(f"{k} {v}" for k, v in versions.items()))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")
    for message in ctx.errors:
        print(f"check failed: {message}", file=sys.stderr)
    results = ctx.out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
