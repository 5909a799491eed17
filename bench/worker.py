"""One measured process: set up a workload, run its passes, check outputs.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|timed|traced --work DIR

The worker imports gsbench and builds the task list, then prints ``ready``
and its machine-speed factor (see speed.py); that is the end of set-up.  ``setup`` mode exits there.  ``timed`` mode runs
``pass_count`` whole passes over the task list.  ``traced`` mode runs an
untraced and a traced pass (in-process workloads: after one warm-up pass).
The last stdout line is a JSON object for ``bench/run.py``.

``compose_dense`` and ``scan`` tasks run in this process.  ``reference``
tasks each run in a fresh interpreter (``cli_child.py``, which behaves like
``python -m gsbench``), one at a time, writing their artifacts under
``--work``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# One pass's wall time at the benchmark's defining commit (2 vCPU x86_64).
# A run makes max(MIN_PASSES, round(seconds / NOMINAL_PASS_S)) passes, a
# number that depends on --seconds only: every run and every commit then
# pools the same number of latency samples, so the tail percentile means the
# same thing in the runs being compared.
NOMINAL_PASS_S = {"reference": 17.0, "compose_dense": 5.0, "scan": 4.0}
TASK_TIMEOUT = 120.0  # seconds, one cold CLI task


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def warm_pass(tasks, timer=speed.unscaled, tracer=None) -> dict:
    """Run every task once in this process; results are digested after the
    pass so that hashing is not timed."""
    ctx, lat, raw, results, errors = {}, [], [], [], []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.trace_id = i
        (result, err), t_raw, t_scaled = timer(lambda: _call(task, ctx))
        lat.append(t_scaled)
        raw.append(t_raw)
        results.append(result)
        errors.append(err)
    digests = [None if e else checks.digest(r) for r, e in zip(results, errors)]
    return {"lat": lat, "raw": raw, "digests": digests, "errors": errors,
            "results": results}


def _call(task, ctx) -> tuple:
    try:
        return task.run(ctx), None
    except Exception as exc:  # a failing task is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def cold_pass(tasks, work: Path, index: int, mode: str = "plain") -> dict:
    """Run every task in a fresh interpreter, one after another.

    ``plain`` runs ``python -m gsbench``.  ``scaled`` runs ``cli_child.py``,
    which reports its own speed factor (see speed.py) to scale the wall time
    measured here.  ``traced`` runs ``cli_child.py --trace``."""
    outdir = work / f"pass{index}"
    outdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    lat, raw, digests, errors, aggs, spans = [], [], [], [], [], []
    for i, task in enumerate(tasks):
        argv = list(task.argv)
        if task.out:
            argv += ["--out", str(outdir / task.out), "--format", "both"]
        child_file = outdir / f"child-{i}.json"
        if mode == "plain":
            cmd = [sys.executable, "-m", "gsbench"] + argv
        else:
            cmd = ([sys.executable, str(BENCH / "cli_child.py")]
                   + (["--trace"] if mode == "traced" else [])
                   + [str(child_file), "--"] + argv)
        proc, t_raw, _ = speed.unscaled(lambda: _spawn(cmd, env))
        raw.append(t_raw)
        if proc is None:
            lat.append(t_raw)
            digests.append(None)
            errors.append(f"timed out after {TASK_TIMEOUT:g} s")
            continue
        errors.append(_cold_error(task, proc))
        digests.append(_cold_digest(task, proc, outdir))
        data = {}
        if mode != "plain":
            with open(child_file) as fh:
                data = json.load(fh)
        lat.append(t_raw * data.get("speed_factor", 1.0))
        if mode == "traced":
            aggs.append(data["aggregate"])
            spans += [rec[:4] + [i] for rec in data["spans"]]
    return {"lat": lat, "raw": raw, "digests": digests, "errors": errors,
            "outdir": str(outdir), "aggregates": aggs, "spans": spans}


def _spawn(cmd, env):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=TASK_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def _cold_error(task, proc):
    """Why a cold task failed, or None."""
    if proc.returncode != task.expect_exit:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {proc.returncode}, expected {task.expect_exit}: {tail}"
    if task.probe:
        if b"Traceback" in proc.stderr:
            return "traceback on stderr"
        if proc.stdout.strip():
            try:
                json.loads(proc.stdout, parse_constant=_reject_constant)
            except ValueError as exc:
                return f"stdout is not strict JSON: {exc}"
    return None


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _cold_digest(task, proc, outdir: Path) -> str:
    h = hashlib.sha256()
    h.update(f"{proc.returncode}\n".encode() + proc.stdout)
    if task.out:
        stem = os.path.splitext(task.out)[0]
        for name in sorted(os.listdir(outdir)):
            if os.path.splitext(name)[0] == stem:
                h.update(name.encode() + b"\0")
                h.update((outdir / name).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def score(tasks, passes, workload: str) -> dict:
    """Count failed task executions.

    An execution fails when it raised or exited with the wrong code, when
    its output differs from the first pass, or when the first pass differs
    from the value recorded for this task and variant.  Failures of tasks
    marked ``known_defect`` are counted apart from the others."""
    recorded = {}
    if workload != "reference":
        with open(BENCH / "expected.json") as fh:
            recorded = json.load(fh)[workload]
    failures, known, unexpected = [], 0, 0
    first = passes[0]
    for i, task in enumerate(tasks):
        reason_all = None
        if workload != "reference" and first["errors"][i] is None:
            key = f"{task.name}@{task.variant}"
            if key not in recorded:
                reason_all = f"no recorded value for {key}"
            else:
                diff = checks.compare(
                    recorded[key], checks.summarize(first["results"][i]))
                if diff:
                    reason_all = f"differs from recorded value: {diff[:3]}"
        for p, rec in enumerate(passes):
            reason = reason_all or rec["errors"][i]
            if reason is None and rec["digests"][i] != first["digests"][i]:
                reason = "output differs from pass 0"
            if reason is None:
                continue
            failures.append({"task": task.name, "variant": task.variant,
                             "pass": p, "reason": reason,
                             "known_defect": task.known_defect})
            if task.known_defect:
                known += 1
            else:
                unexpected += 1
    return {"failures": failures, "known_failed": known,
            "failed": unexpected}


def script_hash_check(first_pass: dict, work: Path) -> tuple:
    """Seed 0: the cold runs' artifacts equal scripts/run_all_experiments.py's."""
    outdir = work / "script"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"),
         "--outdir", str(outdir)], cwd=ROOT, env=child_env(),
        capture_output=True, timeout=TASK_TIMEOUT)
    if proc.returncode != 0:
        return ("run-all-experiments-sha256", False,
                {"error": f"script exited {proc.returncode}"})
    ours = Path(first_pass["outdir"])
    names = sorted(os.listdir(outdir))
    mismatched = [n for n in names if not (ours / n).exists()
                  or _sha(ours / n) != _sha(outdir / n)]
    return ("run-all-experiments-sha256", bool(names) and not mismatched,
            {"files": len(names), "mismatched": mismatched,
             "sha256": {n: _sha(outdir / n) for n in names}})


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def run_timed(tasks, args, work: Path) -> dict:
    cold = args.workload == "reference"
    passes = []
    n = pass_count(args.workload, args.seconds)
    if cold:
        for i in range(n):
            passes.append(cold_pass(tasks, work, i, "scaled"))
    else:
        with speed.SpeedProbe() as probe:
            for i in range(n):
                passes.append(warm_pass(tasks, probe.measure))
                if i:  # only the first pass's values are compared
                    del passes[-1]["results"]
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    out = {"passes": [{"lat": p["lat"], "raw": p["raw"]} for p in passes],
           "peak_rss_mb": peak_rss_mb}
    out.update(score(tasks, passes, args.workload))
    out["checks"] = _checks(passes, args, work)
    return out


def run_traced(tasks, args, work: Path) -> dict:
    """Untraced and traced pass, both timed without speed scaling."""
    cold = args.workload == "reference"
    if cold:
        warmup = None
        plain = cold_pass(tasks, work, 0)
        traced = cold_pass(tasks, work, 1, "traced")
        layers = tracing.layer_metrics(tracing.merge(traced["aggregates"]))
        spans = traced["spans"]
    else:
        # the first in-process pass runs slower (allocator and interpreter
        # warm-up), so the overhead ratio compares two later passes
        warmup = warm_pass(tasks)
        plain = warm_pass(tasks)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = warm_pass(tasks, tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer.aggregate())
        spans = tracer.span_records()
    plain_wall, traced_wall = sum(plain["raw"]), sum(traced["raw"])
    layers["trace.overhead_ratio"] = traced_wall / plain_wall
    # spans are kept in memory during the pass and written out at the end
    with open(BENCH / "_work" / f"spans-{args.workload}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "trace_id"],
                   "spans": spans}, fh)
    passes = [p for p in (warmup, plain, traced) if p is not None]
    out = {"passes": [{"lat": p["lat"], "raw": p["raw"]} for p in passes],
           "layers": layers, "untraced_wall": plain_wall,
           "traced_wall": traced_wall}
    out.update(score(tasks, passes, args.workload))
    out["checks"] = _checks(passes, args, work)
    return out


def _checks(passes, args, work: Path) -> list:
    result = [{"name": n, "ok": ok, "detail": d}
              for n, ok, d in checks.oracle_checks(args.seed)]
    if args.workload == "reference" and args.seed == 0:
        n, ok, d = script_hash_check(passes[0], work)
        result.append({"name": n, "ok": ok, "detail": d})
    return result


def set_up(args) -> tuple:
    """Import gsbench and generate the inputs: what ``setup_s`` measures."""
    import gsbench
    return gsbench.__file__, workloads.build(args.workload, args.seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=["setup", "timed", "traced"])
    ap.add_argument("--work", required=True, type=Path)
    args = ap.parse_args()

    with speed.SpeedProbe() as probe:
        (source, tasks), _raw, _scaled = probe.measure(lambda: set_up(args))
    if not Path(source).resolve().is_relative_to(ROOT / "src"):
        print(f"gsbench imported from {source}, not this checkout",
              file=sys.stderr)
        return 2
    # run.py scales its measured set-up time by this process's speed factor
    print(f"ready {probe.factor()!r}", flush=True)
    if args.mode == "setup":
        return 0
    run = run_timed if args.mode == "timed" else run_traced
    out = run(tasks, args, args.work)
    out["tasks_per_pass"] = len(tasks)
    out["task_names"] = [f"{t.name}@{t.variant}" for t in tasks]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
