"""Show that each workload's output check catches a perturbed output, and
that tracing leaves graphcp's names as it found them.

Run from the repository root (about a minute on 2 CPUs):

    python3 perfbench/selftest.py

Each workload runs once at its default seed.  Its real output must pass
the checks; the same output with one value nudged must fail them.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402


def _perturb_storm(output):
    report = output.reports["graph"]
    output.reports["graph"] = dataclasses.replace(report, coverage=report.coverage + 0.001)


def _perturb_recovery(output):
    output.decay_rel_err[0] += 0.01


def _perturb_grid400(output):
    output.result.series["poisson"].upper[7] += 1.0


PERTURB = {"storm": _perturb_storm, "recovery": _perturb_recovery, "grid400": _perturb_grid400}


def problems_of(workload, output, reference) -> list:
    return workload.check(output) + workload.check_reference(
        workload.fingerprint(output), reference
    )


def check_workload(name: str) -> bool:
    cls = WORKLOADS[name]
    workload = cls(cls.seeds[0])
    reference = load_reference(name, workload.seed)
    work_dir = BENCH / "_work" / f"selftest-{name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        output = workload.run(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    clean = problems_of(workload, output, reference)
    PERTURB[name](output)
    perturbed = problems_of(workload, output, reference)
    ok = not clean and bool(perturbed)
    print(f"{name}: real output problems {clean}; perturbed output caught: {perturbed[:2]}")
    return ok


def check_restore() -> bool:
    """Every patched name holds its original object again after tracing."""
    def originals():
        found = {}
        for module_name, attr, *_ in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            for key, value in vars(owner).items():
                if key == attr:
                    found[(owner.__name__, key)] = value
        return found

    import graphcp.experiments  # noqa: F401
    import graphcp.pipeline  # noqa: F401

    before = originals()
    with Tracer().installed():
        during = originals()
    after = originals()
    ok = after == before and all(during[k] is not before[k] for k in before)
    print(f"tracer: {len(before)} names patched while installed and restored after: {ok}")
    return ok


def main() -> int:
    results = [check_workload(name) for name in WORKLOADS] + [check_restore()]
    print("selftest", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
