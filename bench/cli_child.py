"""Run one gsbench CLI invocation in a fresh interpreter, for the
``reference`` workload.

    python3 bench/cli_child.py [--trace] OUT_FILE -- <gsbench arguments>

Behaves like ``python -m gsbench`` (same stdout, artifacts and exit code)
and then writes a JSON object to OUT_FILE:

* timed (no ``--trace``): ``{"speed_factor": f}``.  The interpreter probes
  its own speed while it imports gsbench and runs the command (see
  speed.py); the parent scales the wall time it measured by ``f``.
* ``--trace``: the per-layer totals and span records of the tracer, which
  is installed before ``cli.main`` is called.  Traced runs are not scaled.
"""
import json
import sys
import traceback

import speed


def run(argv) -> int:
    from gsbench import cli
    try:
        return cli.main(argv)
    except Exception:  # what the interpreter prints for python -m gsbench
        traceback.print_exc()
        return 1


def main() -> int:
    args = sys.argv[1:]
    traced = args[:1] == ["--trace"]
    if traced:
        args = args[1:]
    if len(args) < 2 or args[1] != "--":
        print("usage: cli_child.py [--trace] OUT_FILE -- ARGS...",
              file=sys.stderr)
        return 2
    out_file, argv = args[0], args[2:]
    if traced:
        import tracing
        from gsbench import cli  # noqa: F401  (loaded before patching)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = run(argv)
        finally:
            tracer.uninstall()
        data = {"aggregate": tracer.aggregate(),
                "spans": tracer.span_records()}
    else:
        with speed.SpeedProbe() as probe:
            code, _raw, _scaled = probe.measure(lambda: run(argv))
        data = {"speed_factor": probe.factor()}
    sys.stdout.flush()
    with open(out_file, "w") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
