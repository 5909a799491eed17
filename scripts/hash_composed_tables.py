#!/usr/bin/env python3
"""sha256 of every composed jet table that the benchmark builds.

    PYTHONPATH=src python scripts/hash_composed_tables.py

Prints one line per ``*.table`` task of every variant of the
``compose_dense`` and ``scan`` workloads: the task's name@variant and the
sha256 of the table's bytes.  Run it once with and once without numpy's
AVX-512 kernels (``NPY_DISABLE_CPU_FEATURES``) and diff the two outputs to
check that the tables do not depend on the SIMD level.
"""
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


def main() -> int:
    for workload in ("compose_dense", "scan"):
        for tasks in workloads.all_variants(workload):
            ctx = {}
            for task in tasks:
                if task.name.endswith(".table"):
                    table = task.run(ctx)
                    print(f"{task.name}@{task.variant}",
                          hashlib.sha256(table.tobytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
