#!/usr/bin/env python3
"""Rewrite tests/digests.json: the sha256 of gsbench's reference outputs.

The outputs are the 12 artifacts and the stdout of
scripts/run_all_experiments.py, the stdout of scripts/run_condition_reports.py
(cond.txt) and the stdout of the README's seminorm example.  The file also
records the fingerprint of the platform that made them: Python, numpy and
libc.  tests/test_cli.py recomputes the digests and compares them wherever
the fingerprint is the same, and skips, naming the field, wherever it is not.
A change that moves an output on purpose re-records the file and says which
digest moved and why.  Run from anywhere:

    python scripts/record_digests.py
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "digests.json"
SEMINORM_EXAMPLE = ["seminorm", "--family", "p", "--function", "gaussian",
                    "--weight", "gevrey:d=2", "--lam", "2"]


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
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
