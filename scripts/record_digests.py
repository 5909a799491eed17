#!/usr/bin/env python3
"""Rewrite tests/digests.json: the sha256 of gsbench's reference outputs.

The outputs are the 12 artifacts and the stdout of
scripts/run_all_experiments.py, the stdout of scripts/run_condition_reports.py
(cond.txt) and the stdout of the README's seminorm example.  A battery of
in-process ``cli.main`` calls adds, per command line, its exit code, the
sha256 of its stdout and of each file it writes, and the last stderr line of
an exit 2.  The file also records the fingerprint of the platform that made
them: Python, numpy and libc.  tests/test_cli.py recomputes the digests and
compares them wherever the fingerprint is the same, and skips, naming the
field, wherever it is not.  The battery's integer and Fraction-only lines
(``identities``, ``fdb`` and usage errors) are kept apart, under
"platform_free", and compared everywhere.  A change that moves an output on
purpose re-records the file and says which digest moved and why.  Run from
anywhere:

    python scripts/record_digests.py
"""
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "digests.json"
SEMINORM_EXAMPLE = ["seminorm", "--family", "p", "--function", "gaussian",
                    "--weight", "gevrey:d=2", "--lam", "2"]


# a table weight with kinks on both sides of t = 1 and one segment steeper
# than the tail, so phi is not convex; rows t, omega
WEIGHT_TABLE = [("0.01", "0"), ("0.1", "0.5"), ("1", "1"), ("10", "2"), ("100", "4"),
                ("1000", "7"), ("1e4", "12"), ("1e6", "20")]


def _sequence_table(bump: int) -> str:
    """p,logM rows for p <= 500: log M_p = (p^2 + bump (p mod 2)) / 100,
    log-convex for bump 0, not for bump 50."""
    vs = [p * p + bump * (p % 2) for p in range(501)]
    return "p,logM\n" + "".join(f"{p},{v // 100}.{v % 100:02d}\n" for p, v in enumerate(vs))


def write_fixtures(d: Path) -> None:
    """The tables the battery reads, by relative name, from its directory."""
    (d / "w.csv").write_text("t,omega\n" + "".join(f"{t},{v}\n" for t, v in WEIGHT_TABLE))
    (d / "convex.csv").write_text(_sequence_table(0))
    (d / "bumpy.csv").write_text(_sequence_table(50))


def readme_cli_examples() -> list:
    """The ``gsbench ...`` lines of README's CLI code block, with backslash
    continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [" ".join(line.split()) for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("gsbench ")]


def battery() -> tuple:
    """(platform-dependent, platform-free) command lines of the battery."""
    logs = [math.log(float(t)) for t, _ in WEIGHT_TABLE]
    vals = [float(v) for _, v in WEIGHT_TABLE]
    slopes = [(b - a) / (y - x) for x, y, a, b in zip(logs, logs[1:], vals, vals[1:])]
    b = slopes[-1]  # the tail slope
    conj = [f"gsbench conjugate --weight table:w.csv --s {s!r}"
            for s in dict.fromkeys([1e-12, *(b * k / 8 for k in range(1, 9)), *slopes, 2 * b])]
    readme = readme_cli_examples()
    free = [line for line in readme if line.split()[1] in ("fdb", "identities")] + [
        "gsbench identities --jmax 31",
        "gsbench fdb --h '[\"1\",\"1/3\"]' --psi '[\"2\",\"1\",\"-1/2\"]' --order 1",
        "gsbench conjugate --weight gevrey:d=abc --s 1",
        "gsbench conjugate --weight gevrey:d=2 --s -1",
        "gsbench weight-check --weight table:missing.csv",
        "gsbench sequence-check --sequence table:bumpy.csv --pmax 10",
        "gsbench experiment negative --d 2 --k 1 --dprime 5 --jmax 10",
        "gsbench seminorm --family p --function gaussian --weight gevrey:d=2 "
        "--lam 1 --jmax 150 --kmax 300"]
    dependent = [line for line in readme if line not in free] + conj + [
        "gsbench weight-check --weight table:w.csv",
        "gsbench sequence-check --sequence table:convex.csv --pmax 50",
        "gsbench sequence-check --sequence table:bumpy.csv --pmax 50",
        "gsbench experiment nuclear --weight gevrey:d=2 --jmax 20 --out nuc.csv --format both",
        "gsbench experiment nuclear --weight gevrey:d=2 --jmax 20 --out nuc.json --format json"]
    return dependent, free


def run_battery(lines: list) -> dict:
    """Command line -> its record, each line run through ``cli.main`` in a
    fresh directory that holds the fixtures: the exit code, the sha256 of
    stdout and of each file the command wrote, and the last stderr line of
    an exit 2."""
    from gsbench.cli import main
    records = {}
    for line in lines:
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            write_fixtures(d)
            before = set(d.iterdir())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.chdir(d), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(shlex.split(line)[1:])
            rec = {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}
            written = sorted(set(d.iterdir()) - before)
            if written:
                rec["files"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                for p in written}
            if code == 2:
                rec["stderr"] = err.getvalue().splitlines()[-1]
            records[line] = rec
    return records


def run_library() -> dict:
    """Call -> the sha256 of its result's repr: ``sandwich_check`` in both
    directions at the benchmark's variants and ``doubling_from_sequence``, on
    gevreyseq:d=2 and on the log-convex table, and ``AssociatedWeight`` on
    both tables at t = e^(k/4), k = -8..40, where p* passes the bumpy
    table's kinks.  Each call parses a fresh sequence: one caches log M_p."""
    from gsbench import sequences
    seq = sequences.parse_sequence
    calls = {}
    for s in ("gevreyseq:d=2", "table:convex.csv"):
        calls.update({f"sandwich_check({s}, 'seq<=conj', h={h})":
                      lambda s=s, h=h: sequences.sandwich_check(seq(s), "seq<=conj", h=h)
                      for h in (0.5, 0.45, 0.55, 0.6)})
        calls.update({f"sandwich_check({s}, 'conj<=seq', k={k})":
                      lambda s=s, k=k: sequences.sandwich_check(seq(s), "conj<=seq", k=k)
                      for k in (2, 3)})
        calls[f"doubling_from_sequence({s})"] = lambda s=s: sequences.doubling_from_sequence(seq(s))
    for s in ("table:convex.csv", "table:bumpy.csv"):
        calls[f"AssociatedWeight({s}).eval_with_argmax(exp(k/4))"] = lambda s=s: [
            _outcome(sequences.AssociatedWeight(seq(s)).eval_with_argmax, math.exp(k / 4))
            for k in range(-8, 41)]
    records = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_fixtures(Path(tmp))
        for call, run in calls.items():
            records[call] = {"result": hashlib.sha256(repr(_outcome(run)).encode()).hexdigest()}
    return records


def _outcome(run, *args):
    """run(*args), or the type and text of the gsbench error it raised."""
    from gsbench.errors import GsbenchError
    try:
        return run(*args)
    except GsbenchError as exc:
        return f"{type(exc).__name__}: {exc}"


def fingerprint() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "libc": " ".join(platform.libc_ver())}


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """scripts/<name> in a fresh interpreter, on this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=path))


def digests(outdir: Path, stdout: bytes) -> dict:
    """Output name -> sha256: the artifacts in outdir and the stdout of the
    run_all_experiments.py run that wrote them, cond.txt, and the README
    seminorm example, run in process."""
    from gsbench.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as readme:
        main(SEMINORM_EXAMPLE)
    outputs = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    outputs["run_all_experiments.stdout"] = stdout
    outputs["cond.txt"] = run_script("run_condition_reports.py").stdout
    outputs["readme.seminorm.stdout"] = readme.getvalue().encode()
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        run = run_script("run_all_experiments.py", "--outdir", tmp)
        if run.returncode:
            sys.stderr.write(run.stderr.decode())
            return run.returncode
        record = {"fingerprint": fingerprint(), "digests": digests(Path(tmp), run.stdout)}
    dependent, free = battery()
    record["battery"] = {**run_battery(dependent), **run_library()}
    record["platform_free"] = run_battery(free)
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    n = sum(map(len, (record["digests"], record["battery"], record["platform_free"])))
    print(f"wrote {n} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
