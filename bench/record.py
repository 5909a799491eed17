#!/usr/bin/env python3
"""Record the values the in-process workloads are checked against.

    python3 bench/record.py

Runs every variant of every ``compose_dense`` and ``scan`` task once and
writes ``bench/expected.json``.  Re-record only when a change alters results
on purpose, and say so in CHANGES.md.
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = {}
    for workload in ("compose_dense", "scan"):
        values = out[workload] = {}
        for tasks in workloads.all_variants(workload):
            ctx = {}
            for task in tasks:
                values[f"{task.name}@{task.variant}"] = checks.summarize(
                    task.run(ctx))
    with open(BENCH / "expected.json", "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
