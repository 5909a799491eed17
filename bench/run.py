#!/usr/bin/env python3
"""gsbench benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload reference|compose_dense|scan \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; gsbench is imported from ``src/`` there.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
gives the per-layer metrics from a separate traced pass.  Both run the output
checks.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the failure ratio, the checks and the provenance.

See bench/README.md for the workloads, metrics and checks.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads
from worker import child_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5    # fresh interpreters timed per run; setup_s is the median
IMPORT_REPEATS = 5   # python -X importtime runs per traced run
RUN_TIMEOUT = 170.0  # seconds for all worker processes of one run
TAIL_BEYOND = 10     # samples that must lie beyond the tail percentile

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s",
             "task_tail_s": "s", "peak_rss_mb": "MB"}


def fail(msg: str) -> int:
    print(f"bench: error: {msg}", file=sys.stderr)
    return 2


def worker_cmd(args, mode: str, work: Path) -> list:
    return [sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode,
            "--work", str(work)]


def time_setup(args, work: Path, deadline: float) -> tuple:
    """Fresh interpreter until its ``ready`` line: (raw s, scaled s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "setup", work), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline().split()
    elapsed = time.perf_counter() - t0
    try:
        _out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {err.strip()[-2000:]}")
    return elapsed, elapsed * float(line[1])


def import_times(env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import gsbench"], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.time()))
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-2000:]}")
    return tracing.parse_importtime(proc.stderr)


def run_worker(args, mode: str, work: Path, deadline: float) -> dict:
    """Run the worker in its own session, so that on a timeout the CLI
    children it started are killed with it."""
    proc = subprocess.Popen(worker_cmd(args, mode, work), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(latencies: list) -> tuple:
    """(value, percentile): the largest sample with TAIL_BEYOND beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def provenance(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    src = sorted((ROOT / "src" / "gsbench").glob("*.py"))
    return {"git_sha": git_sha, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "src_lines": sum(len(p.read_text().splitlines()) for p in src)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gsbench" / "__init__.py").is_file():
        return fail(f"no gsbench sources under {ROOT / 'src'}; run from the "
                    "root of a gsbench checkout")
    if not (ROOT / "scripts" / "run_all_experiments.py").is_file():
        return fail("scripts/run_all_experiments.py is missing")

    deadline = time.time() + RUN_TIMEOUT
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=BENCH / "_work"))
    try:
        if args.trace:
            imports = [import_times(child_env(), deadline)
                       for _ in range(IMPORT_REPEATS)]
            res = run_worker(args, "traced", work, deadline)
        else:
            setups = [time_setup(args, work, deadline)
                      for _ in range(SETUP_REPEATS)]
            res = run_worker(args, "timed", work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = [x for p in res["passes"] for x in p["lat"]]
    attempted = len(lat)
    checks_ok = all(c["ok"] for c in res["checks"])
    correct = checks_ok and res["failed"] == 0
    fail_ratio = (res["failed"] + res["known_failed"]) / attempted

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(res['passes'])}  tasks/pass {res['tasks_per_pass']}")
    info = provenance(args)
    if args.trace:
        import_med = tracing.median_dicts(imports)
        values = dict(res["layers"], **import_med)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        extra = sorted(set(values) - set(metrics))
        print(f"untraced pass {res['untraced_wall']:.4f} s, "
              f"traced pass {res['traced_wall']:.4f} s (raw wall time)")
    else:
        tail_value, tail_pct = tail(lat)
        values = {
            "setup_s": statistics.median(s for _r, s in setups),
            "wall_s": statistics.median(sum(p["lat"]) for p in res["passes"]),
            "task_p50_s": statistics.median(lat),
            "task_tail_s": tail_value,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
        raw_lat = [x for p in res["passes"] for x in p["raw"]]
        info["raw"] = {
            "setup_s": statistics.median(r for r, _s in setups),
            "wall_s": statistics.median(sum(p["raw"]) for p in res["passes"]),
            "task_p50_s": statistics.median(raw_lat),
            "task_tail_s": tail(raw_lat)[0],
        }
        info["pass_wall_s"] = [[sum(p["raw"]), sum(p["lat"])]
                               for p in res["passes"]]
        info["task_tail_percentile"] = tail_pct
        info["task_samples"] = attempted
        print("  times in seconds at the reference speed (bench/speed.py); "
              "raw values in the provenance line")
        print(f"  setup_s: median of {len(setups)} fresh interpreters; "
              f"task_tail_s: p{tail_pct:.1f} of {attempted} task samples, "
              f"{TAIL_BEYOND} beyond it")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        for name in extra:  # zero on workloads that skip the layer
            print(f"{name:34s} {values[name]:.6g} s  (not in the result)")
    print(f"{'fail_ratio':34s} {fail_ratio:.6g} ratio  "
          f"({res['failed'] + res['known_failed']} of {attempted} task runs; "
          f"{res['known_failed']} are known defects)")
    for f in res["failures"]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"  {tag}: {f['task']}@{f['variant']} pass {f['pass']}: "
              f"{f['reason']}")
    for c in res["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"{json.dumps(c['detail'], sort_keys=True)}")
    info["tasks"] = res["task_names"]
    info["fail_ratio"] = fail_ratio
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
