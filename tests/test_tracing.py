"""The benchmark's tracer patches gsbench names by hand: each name it wraps
must exist, and uninstalling must put back the very object it replaced, so a
change that removes a traced name fails here and not only in a traced
benchmark run."""
import importlib.util
import sys
from pathlib import Path

# the modules Tracer.install patches, loaded before the first snapshot
from gsbench import (cli, experiments, fdb, functions, grids,  # noqa: F401
                     logdomain, reports, sequences, weights)


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gsbench_names() -> dict:
    """Every attribute of each loaded gsbench module and of the classes it
    defines, keyed by (module, attribute[, class attribute])."""
    names = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "gsbench" and not modname.startswith("gsbench."):
            continue
        for attr, value in vars(mod).items():
            names[modname, attr] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    names[modname, attr, cattr] = cvalue
    return names


def test_tracer_uninstall_restores_every_patched_name():
    tracer = load_tracing().Tracer()
    before = gsbench_names()
    tracer.install()  # a traced name that no longer exists raises here
    try:
        during = gsbench_names()
    finally:
        tracer.uninstall()
    after = gsbench_names()
    patched = {key for key in before if during[key] is not before[key]}
    assert {("gsbench.fdb", "compose_jet"), ("gsbench.cli", "main"),
            ("gsbench.fdb", "PartitionMultiIndex", "multinomial"),
            ("gsbench.weights", "ConjugateEvaluator", "__call__")} <= patched
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
