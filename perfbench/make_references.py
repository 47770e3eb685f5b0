"""Write references.json: each workload's checked outputs at its default
and held-out seeds, which every later run at those seeds must reproduce.

Run from the repository root:

    python3 perfbench/make_references.py

A change that moves these numbers must say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import REFERENCES, WORKLOADS  # noqa: E402


def main() -> int:
    doc = {}
    for name, cls in WORKLOADS.items():
        doc[name] = {}
        for seed in cls.seeds:
            workload = cls(seed)
            work_dir = BENCH / "_work" / f"reference-{name}-{seed}"
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            try:
                output = workload.run(work_dir)
                problems = workload.check(output)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            fingerprint = workload.fingerprint(output)
            problems += workload.check_reference(fingerprint, fingerprint)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            doc[name][str(seed)] = fingerprint
            print(f"{name} seed {seed}: {json.dumps(fingerprint)}")
    REFERENCES.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
