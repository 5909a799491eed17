"""The three workloads: how a seed becomes a fixed task list.

A workload is a list of groups.  Each group has ``VARIANTS`` parameter
variants; the seed picks one variant per group and the order of the groups.
Seed 0 is the canonical list: variant 0 of every group, in the order written
here.  Every variant keeps the sizes that set a task's cost (grid point
counts, jet orders, index caps) and moves only endpoints, offsets, weight
parameters and m-lists, inside each experiment's stated regime, so runs on
different seeds measure the same amount of work.

Tasks of one group run back to back because later tasks reuse earlier
results: a composed jet table feeds the sup for each m.

``reference`` tasks are argument lists for a fresh ``python -m gsbench``;
``compose_dense`` and ``scan`` tasks are in-process calls.  In-process tasks
look functions up on the gsbench modules at call time, so the tracer's
wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

VARIANTS = 4
NAMES = ("reference", "compose_dense", "scan")


@dataclass
class Task:
    name: str
    variant: int
    run: Optional[Callable] = None      # in-process: run(ctx) -> result
    argv: list = field(default_factory=list)  # reference: gsbench arguments
    out: Optional[str] = None           # reference: artifact file name
    expect_exit: int = 0
    probe: bool = False                 # usage-error probe (strict checks)
    known_defect: Optional[str] = None  # fails at this commit; see README


@dataclass
class Group:
    name: str
    make: Callable  # make(variant) -> list[Task]


def build(workload: str, seed: int) -> list:
    """The task list of one pass over ``workload`` for ``seed``."""
    groups = {"reference": _reference, "compose_dense": _compose_dense,
              "scan": _scan}[workload]()
    if seed == 0:
        picks = [(g, 0) for g in groups]
    else:
        rng = random.Random(seed)
        picks = [(g, rng.randrange(VARIANTS)) for g in groups]
        rng.shuffle(picks)
    tasks = []
    for group, k in picks:
        tasks.extend(group.make(k))
    return tasks


def all_variants(workload: str) -> list:
    """Every (group variant) task list, for recording expected values."""
    groups = {"compose_dense": _compose_dense, "scan": _scan}[workload]()
    return [g.make(k) for g in groups for k in range(VARIANTS)]


def _single(name, fn) -> Group:
    return Group(name, lambda k: [Task(name, k, run=fn(k))])


def cli_call(argv: list) -> dict:
    """In-process ``gsbench`` invocation with stdout captured."""
    from gsbench import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": buf.getvalue()}


# ---------------------------------------------------------------------------
# reference: cold CLI runs, one fresh interpreter per task
# ---------------------------------------------------------------------------

def _reference() -> list:
    def run(name, argv_of):
        return Group(name, lambda k: [Task(name, k, argv=argv_of(k),
                                           out=name + ".csv")])

    def probe(name, argv_of, defect=None):
        return Group(name, lambda k: [Task(name, k, argv=argv_of(k),
                                           expect_exit=2, probe=True,
                                           known_defect=defect)])

    d_alt = (2, 2.5, 3, 1.5)
    return [
        # the eight runs of scripts/run_all_experiments.py (variant 0)
        run("negative", lambda k: [
            "experiment", "negative", "--d", "2", "--k", "1",
            "--dprime", ("3.5", "3.25", "3.7", "3.0")[k], "--jmax", "400"]),
        run("bounded", lambda k: [
            "experiment", "bounded", "--d", "2",
            "--psi", ("poly:0,0,0,1", "poly:0,0,0,2", "poly:0,0,0,3",
                      "poly:0,0,0,5")[k], "--mmax", "12"]),
        run("compactness", lambda k: [
            "experiment", "compactness",
            "--psi", ("poly:0,2,0,1", "poly:0,3,0,1", "poly:0,5/2,0,1",
                      "poly:0,4,0,1")[k],
            "--x0", "0", "--p", "1", "--weight", "gevrey:d=2",
            "--nmax", "25"]),
        run("sufficient", lambda k: [
            "experiment", "sufficient", "--psi", "poly:0,0,1",
            "--weight", f"gevrey:d={(2, 2.25, 2.5, 3)[k]:g}", "--a", "1.5",
            "--m", ("1,2,4", "1,2,3", "1,3,4", "2,3,4")[k], "--jmax", "15"]),
        run("necessary", lambda k: [
            "experiment", "necessary", "--psi", "poly:0,0,1",
            "--sigma", f"gevrey:d={d_alt[k]:g}",
            "--omega", f"gevrey:d={d_alt[k]:g}"]),
        run("nuclear", lambda k: [
            "experiment", "nuclear", "--weight", f"gevrey:d={d_alt[k]:g}",
            "--m", "1", "--L", "2", "--jmax", "50"]),
        run("equicont", lambda k: [
            "experiment", "equicont", "--weight", f"gevrey:d={d_alt[k]:g}",
            "--x-seq", "2,4,8,16,32,64,128,256",
            "--lam-seq", "1,2,3,4,5,6,7,8",
            "--n", "1", "--K", "2", "--function", "gaussian"]),
        run("cauchy", lambda k: [
            "experiment", "cauchy", "--psi", "sqrt1px2",
            "--delta", ("0.5", "0.4", "0.6", "0.3")[k], "--jmax", "10"]),
        # the two calls of scripts/run_condition_reports.py
        Group("weight-check", lambda k: [Task(
            "weight-check", k, argv=["weight-check", "--weight",
                                     f"gevrey:d={(2, 3, 1.5, 4)[k]:g}"],
            out="weight-check.json")]),
        Group("sequence-check", lambda k: [Task(
            "sequence-check", k, argv=["sequence-check", "--sequence",
                                       f"gevreyseq:d={d_alt[k]:g}"],
            out="sequence-check.json")]),
        # usage errors: each must exit 2 with no traceback and strict JSON
        probe("probe-weight-abc",
              lambda k: ["conjugate", "--weight", "gevrey:d=abc", "--s", "1"],
              "malformed number in a weight spec raises ValueError (exit 1)"),
        probe("probe-poly-x",
              lambda k: ["estimate-index", "--function", "poly:1,x"],
              "malformed polynomial coefficient raises ValueError (exit 1)"),
        probe("probe-monbump-n",
              lambda k: ["estimate-index", "--function", "monbump:n=2"],
              "missing monbump key raises KeyError (exit 1)"),
        probe("probe-weight-nan",
              lambda k: ["conjugate", "--weight", "gevrey:d=nan", "--s", "1"],
              "non-finite weight parameter accepted, NaN printed (exit 0)"),
        probe("probe-s-nan",
              lambda k: ["conjugate", "--weight", "gevrey:d=2", "--s", "nan"],
              "non-finite --s accepted, NaN printed (exit 0)"),
        probe("probe-s-negative",
              lambda k: ["conjugate", "--weight", "gevrey:d=2",
                         "--s", str(-1 - k)]),
        probe("probe-negative-regime",
              lambda k: ["experiment", "negative", "--d", "2", "--k", "1",
                         "--dprime", ("5", "4", "4.5", "6")[k],
                         "--jmax", "10"]),
    ]


# ---------------------------------------------------------------------------
# compose_dense: full-support inner jets, cost tracks the partition count
# ---------------------------------------------------------------------------

def _composed_group(name, f_of, psi_of, grid_of, sigma_d, J, m_lists):
    """Jet table of f o psi on a symmetric grid, then the sup for each m."""
    def make(k):
        from gsbench import experiments
        from gsbench.grids import GridSpec
        from gsbench.weights import WeightFunction
        f, psi = f_of(k), psi_of(k)
        grid = GridSpec(*grid_of(k))
        sigma = WeightFunction.gevrey(sigma_d[k])

        def table(ctx):
            ctx[name + ".xs"] = xs = grid.symmetric_points()
            ctx[name + ".table"] = experiments.composed_jet_log_table(
                f, psi, xs, J)
            return ctx[name + ".table"]

        def bound(m):
            return lambda ctx: experiments.composed_seminorm_bound(
                f, psi, sigma, m, grid, J, J, jq_cap=J,
                jet_table=ctx[name + ".table"], xs=ctx[name + ".xs"])

        return ([Task(name + ".table", k, run=table)]
                + [Task(f"{name}.bound.{i}", k, run=bound(m))
                   for i, m in enumerate(m_lists[k])])
    return Group(name, make)


M_LISTS = ((1, 2, 4), (1, 2, 3), (1, 3, 4), (2, 3, 4))


def _compose_dense() -> list:
    from gsbench import experiments
    from gsbench.functions import Gaussian, Pow1px2, Sqrt1px2
    from gsbench.weights import WeightFunction
    pow_a = (1.5, 1.25, 1.75, 2.5)
    return [
        _composed_group(
            "dense.sqrt", lambda k: Gaussian(), lambda k: Sqrt1px2(),
            lambda k: ("lin", 0.1 + 0.02 * k, 2.0 + 0.1 * k, 10),
            (3.0, 2.5, 3.5, 4.0), 24, M_LISTS),
        _composed_group(
            "dense.pow", lambda k: Gaussian(), lambda k: Pow1px2(pow_a[k]),
            lambda k: ("lin", 0.5 + 0.05 * k, 1.5 + 0.1 * k, 2),
            (3.0, 2.5, 3.5, 4.0), 30, M_LISTS),
        _single("dense.compactness", lambda k: (
            lambda ctx, psi=Pow1px2(pow_a[k]),
            w=WeightFunction.gevrey((2.0, 2.5, 3.0, 1.5)[k]):
            experiments.compactness_blowup(psi, 1.0 + 0.1 * k, 1, w, 30))),
        _single("dense.identities",
                lambda k: lambda ctx: cli_call(["identities", "--jmax", "25"])),
    ]


# ---------------------------------------------------------------------------
# scan: cheap recurrence jets under (x, j, k) sup loops
# ---------------------------------------------------------------------------

def _scan() -> list:
    from gsbench import experiments, functions, sequences
    from gsbench.functions import ExpSqr, Gaussian, Sqrt1px2, parse_function
    from gsbench.grids import GridSpec
    from gsbench.sequences import parse_sequence
    from gsbench.weights import WeightFunction

    def weight(kind, k):
        if kind == "gevrey":
            return WeightFunction.gevrey((2.0, 2.25, 2.5, 1.75)[k])
        return WeightFunction.logpow((2.0, 2.25, 2.5, 1.75)[k])

    def seminorm(family, fn_cls, kind):
        def make(k):
            f, w = fn_cls(), weight(kind, k)
            lam = (1.0, 1.25, 1.5, 0.75)[k]
            grid = GridSpec("lin", 0.05, 8.0 + 0.25 * k, 160)
            if family == "p":
                return lambda ctx: functions.seminorm_p_lambda(
                    f, lam, w, grid, 20, 20)
            return lambda ctx: functions.seminorm_pi(f, lam, lam, w, grid, 20)
        return _single(f"scan.{family}.{fn_cls.label}.{kind}", make)

    groups = [seminorm(fam, cls, kind)
              for cls in (Gaussian, ExpSqr, Sqrt1px2)
              for kind in ("gevrey", "logpow") for fam in ("p", "pi")]
    square = parse_function("poly:0,0,1")
    d_alt = (2.0, 2.25, 2.5, 1.75)
    groups += [
        _single("scan.sufficient", lambda k: (
            lambda ctx, w=WeightFunction.gevrey(d_alt[k]),
            g=GridSpec("lin", 0.05, 6.0 + 0.25 * k, 120):
            experiments.sufficient_condition_check(
                square, w, 1.5, list(M_LISTS[k]), g, 15))),
        _single("scan.necessary", lambda k: (
            lambda ctx, w=WeightFunction.gevrey(d_alt[k]),
            g=GridSpec("log", 1e-3, 1e3 * (1 + 0.25 * k), 20000):
            experiments.necessary_growth(square, w, w, g))),
        _single("scan.equicont", lambda k: (
            lambda ctx, w=WeightFunction.gevrey(d_alt[k]):
            experiments.equicontinuity_constant(
                [2, 4, 8, 16, 32, 64, 128, 256], [1, 2, 3, 4, 5, 6, 7, 8],
                w, 1, 2, f=Gaussian()))),
        _single("scan.cauchy", lambda k: (
            lambda ctx, g=GridSpec("log", 1.0, 20.0 + k, 200):
            experiments.cauchy_derivative_bound(
                Sqrt1px2(), (0.5, 0.4, 0.6, 0.3)[k], g, 10))),
        _single("scan.weight-check", lambda k: (
            lambda ctx: cli_call(["weight-check", "--weight",
                                  f"logpow:s={d_alt[k]:g}"]))),
        # a weight sequence caches log M_p, so each call parses a fresh one
        _single("scan.sandwich.seq-conj", lambda k: (
            lambda ctx: sequences.sandwich_check(
                parse_sequence("gevreyseq:d=2"), "seq<=conj",
                h=(0.5, 0.45, 0.55, 0.6)[k]))),
        _single("scan.sandwich.conj-seq", lambda k: (
            lambda ctx: sequences.sandwich_check(
                parse_sequence("gevreyseq:d=2"), "conj<=seq",
                k=(2, 2, 3, 3)[k]))),
        _composed_group(
            "scan.sparse", lambda k: Gaussian(), lambda k: square,
            lambda k: ("lin", 0.05, 5.0 + 0.25 * k, 100),
            (3.0, 2.5, 3.5, 4.0), 24, M_LISTS),
    ]
    return groups
