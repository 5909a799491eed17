"""Per-layer tracing of gsbench from outside the package.

The tracer replaces public functions and hot methods of the ``gsbench``
modules with wrappers and restores them afterwards; nothing under ``src/``
knows about it.  Three kinds of wrapper:

* span    -- coarse layer boundaries (``cli.main``, experiments, seminorms,
             condition checks, ``compose_jet``, ``faa_di_bruno``, ``jet``,
             emit).  Each span records name, start, end, parent span and the
             trace id of the task that caused it.
* leaf    -- a hot scalar call that is timed but records no span
             (``ConjugateEvaluator.__call__``).  Its time is credited to the
             enclosing span as child time, so it is not counted twice.
* counter -- a hot scalar call that is only counted (``phi``, ``log_m``,
             ``multinomial``, ``LogReal`` add/mul, ...).

A span's self time is its duration minus the time of its direct child spans
and leaf calls.  The modules import names with ``from .x import y``, so a
function is replaced under every name that refers to it in every loaded
``gsbench`` module, not only in the module that defines it.
"""
from __future__ import annotations

import os
import statistics
import sys
from collections import Counter
from time import perf_counter

# span name -> per-layer self-time metric it is summed into
SELF_TIME_GROUPS = {
    "cli.main": "cli.self_s",
    "reports.emit": "reports.emit.self_s",
    "weights.check_weight_conditions": "weights.check.self_s",
    "sequences.check_sequence_conditions": "sequences.self_s",
    "sequences.sandwich_check": "sequences.self_s",
    "sequences.doubling_from_sequence": "sequences.self_s",
    "sequences.associated_weight": "sequences.self_s",
    "fdb.compose_jet": "fdb.compose.self_s",
    "fdb.faa_di_bruno": "fdb.compose.self_s",
    "fdb.single_jet_compose": "fdb.compose.self_s",
    "fdb.identity_two_power": "fdb.identities.self_s",
    "fdb.identity_lah": "fdb.identities.self_s",
    "functions.jet": "functions.jet.self_s",
    "functions.seminorm_p_lambda": "functions.seminorm.self_s",
    "functions.seminorm_pi": "functions.seminorm.self_s",
}
EXPERIMENTS = ("compactness_blowup", "negative_chain",
               "bounded_derivative_chain", "sufficient_condition_check",
               "composed_jet_log_table", "composed_seminorm_bound",
               "necessary_growth", "nuclearity_sum", "equicontinuity_constant",
               "cauchy_derivative_bound")
for _name in EXPERIMENTS:
    SELF_TIME_GROUPS["experiments." + _name] = "experiments.self_s"

# span name -> per-layer call-count metric
CALL_COUNTS = {
    "cli.main": "cli.calls",
    "fdb.compose_jet": "fdb.compose.calls",
    "fdb.faa_di_bruno": "fdb.faa_di_bruno.calls",
    "functions.jet": "functions.jet.calls",
}

# The per-layer metrics of BENCHMARK.json with their units.  Every time in
# it is measured on all three workloads.  The self times of layers that some
# workload never runs (weights.check, sequences, functions.seminorm,
# fdb.identities) are exactly 0.0 there; run.py prints them but leaves them
# out of the result.
PER_LAYER = [
    ("import.total_s", "s"), ("import.scipy_s", "s"),
    ("import.numpy_s", "s"), ("import.gsbench_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("weights.conjugate.calls", "count"), ("weights.conjugate.evals", "count"),
    ("weights.conjugate.hit_ratio", "ratio"),
    ("weights.conjugate.self_s", "s"), ("weights.phi.calls", "count"),
    ("sequences.assoc.calls", "count"), ("sequences.log_m.calls", "count"),
    ("fdb.compose.calls", "count"), ("fdb.compose.self_s", "s"),
    ("fdb.faa_di_bruno.calls", "count"), ("fdb.terms", "count"),
    ("logdomain.signed_log_sum.calls", "count"),
    ("logdomain.signed_log_sum.terms", "count"), ("logdomain.ops", "count"),
    ("functions.jet.calls", "count"), ("functions.jet.entries", "count"),
    ("functions.jet.exact_calls", "count"), ("functions.jet.self_s", "s"),
    ("grids.points", "count"), ("experiments.self_s", "s"),
    ("experiments.rows", "count"),
    ("reports.emit.self_s", "s"), ("reports.bytes", "B"),
    ("reports.files", "count"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        # span record: [name, start, end, parent index, trace id, child time]
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._undo: list = []

    # -- wrapper factories -------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, perf_counter(), 0.0, parent, self.trace_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]
            if after is not None:
                after(self.counts, args, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls, time_key = name + ".calls", name + ".self_s"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts[calls] += 1
                counts[time_key] += dt
                if stack:
                    spans[stack[-1]][5] += dt
        return wrapper

    def counter(self, name, fn, before=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                args = before(counts, args)
            return fn(*args, **kwargs)
        return wrapper

    def observe(self, fn, after):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(counts, args, result)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gsbench"
                                   or modname.startswith("gsbench.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap the gsbench layers; undo with :meth:`uninstall`."""
        from gsbench import (cli, experiments, fdb, functions, grids,
                             logdomain, reports, sequences, weights)

        def fn_span(mod, attr, name=None, after=None):
            original = getattr(mod, attr)
            label = name or f"{mod.__name__.split('.')[-1]}.{attr}"
            self._replace_everywhere(original,
                                     self.span(label, original, after))

        fn_span(cli, "main")
        fn_span(cli, "_emit", "reports.emit")
        for attr in EXPERIMENTS:
            fn_span(experiments, attr, after=_count_rows)
        for attr in ("compose_jet", "faa_di_bruno", "single_jet_compose",
                     "identity_two_power", "identity_lah"):
            fn_span(fdb, attr)
        for attr in ("seminorm_p_lambda", "seminorm_pi"):
            fn_span(functions, attr)
        fn_span(weights, "check_weight_conditions")
        for attr in ("check_sequence_conditions", "sandwich_check",
                     "doubling_from_sequence", "associated_weight"):
            fn_span(sequences, attr)

        for cls in _model_classes(functions):
            self._replace_method(cls, "jet", self.span(
                "functions.jet", cls.__dict__["jet"], _count_jet))

        conj = weights.ConjugateEvaluator
        self._replace_method(conj, "__call__",
                             self.leaf("weights.conjugate", conj.__call__))
        for attr in ("_closed_form", "_numeric_sup"):
            self._replace_method(conj, attr, self.counter(
                "weights.conjugate.evals", conj.__dict__[attr]))
        self._replace_method(weights.WeightFunction, "phi", self.counter(
            "weights.phi.calls", weights.WeightFunction.phi))
        self._replace_method(
            sequences.AssociatedWeight, "eval_with_argmax", self.counter(
                "sequences.assoc.calls",
                sequences.AssociatedWeight.eval_with_argmax))
        self._replace_method(sequences.WeightSequence, "log_m", self.counter(
            "sequences.log_m.calls", sequences.WeightSequence.log_m))
        self._replace_method(fdb.PartitionMultiIndex, "multinomial",
                             self.counter("fdb.terms",
                                          fdb.PartitionMultiIndex.multinomial))
        self._replace_everywhere(logdomain.signed_log_sum, self.counter(
            "logdomain.signed_log_sum.calls", logdomain.signed_log_sum,
            before=_count_terms))
        for attr in ("__add__", "__mul__"):
            self._replace_method(logdomain.LogReal, attr, self.counter(
                "logdomain.ops", logdomain.LogReal.__dict__[attr]))
        self._replace_method(grids.GridSpec, "points", self.observe(
            grids.GridSpec.points, _count_points))
        self._replace_everywhere(reports.atomic_write_bytes, self.observe(
            reports.atomic_write_bytes, _count_write))
        self._replace_method(reports.ChainReport, "write_csv", self.observe(
            reports.ChainReport.write_csv, _count_csv))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Additive totals: self time and calls per span name, counters."""
        self_s, calls = Counter(), Counter()
        for name, start, end, _parent, _tid, child in self.spans:
            self_s[name] += (end - start) - child
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(self.counts)}

    def span_records(self) -> list:
        return [[n, s, e, p, t] for n, s, e, p, t, _c in self.spans]


def _model_classes(functions) -> list:
    return [cls for cls in vars(functions).values()
            if isinstance(cls, type) and issubclass(cls, functions.ModelFunction)
            and "jet" in cls.__dict__ and cls is not functions.ModelFunction]


def _count_rows(counts, _args, result) -> None:
    for attr in ("rows", "spot_rows"):
        rows = getattr(result, attr, None)
        if isinstance(rows, list):
            counts["experiments.rows"] += len(rows)
            return
    per_m = getattr(result, "per_m", None)
    if isinstance(per_m, dict):
        counts["experiments.rows"] += len(per_m)
    elif isinstance(result, list):  # a composed jet table: one row per point
        counts["experiments.rows"] += len(result)
    else:
        counts["experiments.rows"] += 1


def _count_jet(counts, _args, jet) -> None:
    counts["functions.jet.entries"] += len(jet.values)
    if jet.kind == "exact":
        counts["functions.jet.exact_calls"] += 1


def _count_terms(counts, args):
    terms = args[0]
    if not isinstance(terms, (list, tuple)):
        terms = list(terms)
        args = (terms,) + tuple(args[1:])
    counts["logdomain.signed_log_sum.terms"] += len(terms)
    return args


def _count_points(counts, _args, points) -> None:
    counts["grids.points"] += len(points)


def _count_write(counts, args, _result) -> None:
    counts["reports.files"] += 1
    counts["reports.bytes"] += len(args[1])


def _count_csv(counts, args, _result) -> None:
    counts["reports.files"] += 1
    counts["reports.bytes"] += os.path.getsize(args[1])


def merge(aggregates) -> dict:
    """Sum several :meth:`Tracer.aggregate` results."""
    total = {"self_s": Counter(), "calls": Counter(), "counts": Counter()}
    for agg in aggregates:
        for key in total:
            total[key].update(agg[key])
    return {k: dict(v) for k, v in total.items()}


def layer_metrics(agg: dict) -> dict:
    """Per-layer metric values (except import.* and trace.*) from totals."""
    counts, calls, self_s = agg["counts"], agg["calls"], agg["self_s"]
    out = {name: 0 for name, _unit in PER_LAYER}
    out.update((metric, 0.0) for metric in SELF_TIME_GROUPS.values())
    for span_name, metric in SELF_TIME_GROUPS.items():
        out[metric] += self_s.get(span_name, 0.0)
    for span_name, metric in CALL_COUNTS.items():
        out[metric] = calls.get(span_name, 0)
    for key, value in counts.items():
        if key in out:
            out[key] = value
    c = out["weights.conjugate.calls"]
    out["weights.conjugate.hit_ratio"] = (
        (c - out["weights.conjugate.evals"]) / c if c else 0.0)
    return out


# ---------------------------------------------------------------------------
# python -X importtime
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> dict:
    """import.* metrics from one ``python -X importtime -c 'import gsbench'``.

    total   cumulative time of the top-level ``gsbench`` import
    scipy   cumulative time of every scipy import not nested in another one
    numpy   the same for numpy, excluding numpy modules scipy pulls in
    gsbench self time of the gsbench modules themselves
    """
    nodes = []  # [name, depth, self_us, cum_us, parent]
    pending = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2][1:]
        name = raw.lstrip(" ")
        depth = (len(raw) - len(name)) // 2
        idx = len(nodes)
        nodes.append([name.strip(), depth, int(parts[0]), int(parts[1]), None])
        while pending and nodes[pending[-1]][1] > depth:
            nodes[pending.pop()][4] = idx
        pending.append(idx)

    def pkg(name):
        return name.split(".")[0]

    def has_ancestor(i, pkgs):
        p = nodes[i][4]
        while p is not None:
            if pkg(nodes[p][0]) in pkgs:
                return True
            p = nodes[p][4]
        return False

    total = scipy = numpy = own = 0
    for i, (name, _depth, self_us, cum_us, _parent) in enumerate(nodes):
        top = pkg(name)
        if name == "gsbench":
            total = cum_us
        if top == "gsbench":
            own += self_us
        elif top == "scipy" and not has_ancestor(i, {"scipy"}):
            scipy += cum_us
        elif top == "numpy" and not has_ancestor(i, {"numpy", "scipy"}):
            numpy += cum_us
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6,
            "import.numpy_s": numpy / 1e6, "import.gsbench_s": own / 1e6}


def median_dicts(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
