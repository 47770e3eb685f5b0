"""One benchmark process: set a workload up, then run it, check it and time it.

``run.py`` starts this file in a fresh interpreter, so that import time and
peak memory belong to one workload.  It prints ``READY`` once graphcp is
imported and the workload's inputs are configured, and then, unless
``--setup-only`` is given, one JSON line with the measurements.

Untraced (``--trace 0``): repeat the workload until the next repetition
would end past ``--seconds``.  Traced (``--trace 1``): two untraced
repetitions, then one traced; the tracing overhead is the traced time minus
the second untraced time.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"

# the configuration the README documents for the forest methods
README_FOREST = {"n_trees": 100, "min_leaf": 5}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _blas_threads():
    """Threads numpy's OpenBLAS will use, or None where it cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def attempt(workload, work_dir: Path, reference, tracer=None):
    """Run the workload once and check its output.

    Returns (seconds, canonical output or None, problems).  Only the call
    into graphcp is timed; a raise is a failed run, not a crash.
    """
    work_dir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(work_dir)
            else:
                with tracer.span("bench.run", "bench"):
                    output = workload.run(work_dir)
        except Exception:
            return time.perf_counter() - start, None, [traceback.format_exc()]
        seconds = time.perf_counter() - start
        try:
            problems = workload.check(output)
            fingerprint = workload.fingerprint(output)
            if reference is not None:
                problems += workload.check_reference(fingerprint, reference)
            state = json.dumps(workload.full_state(output), sort_keys=True)
        except Exception:
            return seconds, None, [traceback.format_exc()]
        return seconds, state, problems
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _report(label: str, problems: list) -> None:
    for problem in problems:
        print(f"{label}: {problem}", file=sys.stderr)


def measure(workload, work: Path, reference, seconds: float) -> dict:
    times, failures, first = [], 0, None
    deadline = time.perf_counter() + seconds
    while True:
        run_s, state, problems = attempt(workload, work / f"rep{len(times)}", reference)
        times.append(run_s)
        if state is not None:
            first = first or state
            if state != first:
                problems.append("output differs from the first repetition's")
        if problems:
            failures += 1
            _report(f"repetition {len(times)}", problems)
        if time.perf_counter() + statistics.median(times) > deadline:
            break
    return {
        "run_s": times,
        "attempted": len(times),
        "failed": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, work: Path, reference, trace_file: Path) -> dict:
    import graphcp
    from tracing import LAYERS, RestoreError, Tracer, per_layer_metrics

    # the first repetition in a process pays one-off costs (first calls,
    # fresh memory), so the overhead is taken against the second
    problems, states = [], []
    for rep in range(2):
        plain_s, state, found = attempt(workload, work / f"untraced{rep}", reference)
        problems.append(found)
        states.append(state)
    tracer = Tracer()
    try:
        with tracer.installed():
            _, state, found = attempt(workload, work / "traced", reference, tracer)
    except RestoreError as exc:
        found.append(str(exc))
    problems.append(found)
    if states[1] != states[0]:
        problems[1].append("output differs from the first repetition's")
    if state is not None and state != states[1]:
        found.append("traced output differs from the untraced output")

    metrics = per_layer_metrics(tracer, plain_s)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(layer_sum - metrics["trace.run_s"]) > max(abs(metrics["trace.overhead_s"]), 1e-6):
        found.append(f"layer self times sum to {layer_sum}, traced run took {metrics['trace.run_s']}")

    # one fit of the first pooled training set at the README's forest config,
    # scaled to a refit of every node at every test step (retrain_stride 1)
    fit_s = 0.0
    if "pooled_set" in tracer.captured:
        features, targets, seed = tracer.captured["pooled_set"]
        config = graphcp.ForestConfig(seed=seed, **README_FOREST)
        start = time.perf_counter()
        graphcp.fit_forest(features, targets, config)
        fit_s = time.perf_counter() - start
    metrics["qrf.default_forest_fit_s"] = fit_s
    metrics["qrf.default_config_projection_h"] = (
        fit_s * tracer.captured.get("test_cells", 0) / 3600.0
    )

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file)
    for label, found in zip(("untraced 1", "untraced 2", "traced"), problems):
        _report(f"{label} repetition", found)
    return {
        "metrics": metrics,
        "attempted": len(problems),
        "failed": sum(1 for found in problems if found),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import graphcp

    if Path(graphcp.__file__).resolve().parent != (src / "graphcp").resolve():
        print(f"graphcp was imported from {graphcp.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload](args.seed)
    reference = load_reference(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            result = traced(workload, work, reference, trace_file)
        else:
            result = measure(workload, work, reference, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["environment"] = environment()
    result["reference_checked"] = reference is not None
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
