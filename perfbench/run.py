"""graphcp benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload storm --seed 101 --seconds 30 --trace 0

Workloads are ``storm``, ``recovery`` and ``grid400`` (see ``record.json``).
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` its per-layer ones.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

This file only uses the standard library: each workload runs in fresh
``worker.py`` processes with BLAS pinned to one thread.  Set-up time is the
median over several process starts; the last of them goes on to run the
workload.  A missing ``src/graphcp`` is an error (exit 2, no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("storm", "recovery", "grid400")
SETUP_SAMPLES = 5
# every worker is killed this long after the benchmark started
DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _run_worker(args, setup_only: bool, deadline: float):
    """Run a worker to its end; return (set-up seconds, its output after READY)."""
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if ready != "READY\n":
        raise BenchError(f"worker failed during set-up (exit {code})")
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    return setup_s, rest


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args) -> dict:
    if not (ROOT / "src" / "graphcp" / "__init__.py").is_file():
        raise BenchError(f"no graphcp sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    setup = [_run_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, rest = _run_worker(args, False, deadline)
    setup.append(setup_s)
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])

    env = result["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"reference values for this seed checked: {result['reference_checked']}")
    if args.trace:
        units = _declared("per_layer")
        values = result["metrics"]
    else:
        units = _declared("end_to_end")
        times = result["run_s"]
        values = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"run_s: median of {len(times)} runs; all: {[round(t, 4) for t in times]}")
        print(f"setup_s: median of {len(setup)} process starts; all: {[round(t, 4) for t in setup]}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
