"""Command-line front end.

Exit codes: 0 when every verdict passes, 1 when an inequality fails or a
divergence threshold is not reached, 2 for usage/config errors.  All JSON is
UTF-8 with sorted keys and round-trip float reprs, so identical
invocations produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import specs
from .errors import GsbenchError, PreconditionError
from .grids import DEFAULT_X_GRID, GridSpec


def _arg(parse):
    """argparse ``type=`` for ``parse``: a ``GsbenchError``, or the error of
    ``int``, ``float``, ``Fraction`` or ``json.loads``, is a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except (GsbenchError, ValueError, ArithmeticError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _number(cast, lo=-math.inf, above=False):
    """Parse a finite ``cast`` value at least ``lo`` (above it if ``above``)."""
    def parse(text):
        v = cast(text)
        if not math.isfinite(v) or v < lo or above and v == lo:
            raise ValueError(f"need a finite number {'>' if above else '>='} "
                             f"{lo:g}, got {text!r}")
        return v
    return parse


def _whole(text: str) -> int:
    v = float(text)
    if not v.is_integer():
        raise ValueError(f"not a whole number: {text!r}")
    return int(v)


def _rationals(text: str) -> list:
    vals = json.loads(text)
    if not isinstance(vals, list) or not vals:
        raise ValueError(f"need a non-empty JSON array, got {text!r}")
    return [Fraction(str(v)) for v in vals]


def _writable(path: str) -> str:
    d = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(d) or not os.access(d, os.W_OK):
        raise ValueError(f"directory not writable: {d}")
    return path


def _listof(parse):
    return _arg(lambda text: [parse(v) for v in text.split(",")])


REAL, REALS = _arg(_number(float)), _listof(_number(float))
POSITIVE, COUNT = _arg(_number(float, 0, True)), _arg(_number(int, 1))
WEIGHT, FUNCTION = _arg(specs.parse_weight), _arg(specs.parse_function)

# flag -> add_argument keywords, for the experiments (each declares in
# EXPERIMENTS the flags its runner reads) and for the --grid of two commands
FLAGS = {
    "d": dict(type=REAL), "dprime": dict(type=REAL), "k": dict(type=REAL, default=1.0),
    "jmax": dict(type=COUNT, default=100), "psi": dict(type=FUNCTION),
    "function": dict(type=FUNCTION, default="gaussian"), "weight": dict(type=WEIGHT),
    "sigma": dict(type=WEIGHT), "omega": dict(type=WEIGHT), "x0": dict(type=REAL, default=0.0),
    "p": dict(type=COUNT, default=1), "nmax": dict(type=COUNT, default=30),
    "mmax": dict(type=COUNT, default=12), "a": dict(type=POSITIVE, default=1.5),
    "m": dict(type=_listof(_number(_whole, 1)), default="1",
              help="comma-separated orders; nuclear takes one"),
    "L": dict(type=COUNT, default=2), "n": dict(type=COUNT, default=1),
    "K": dict(type=COUNT, default=2), "delta": dict(type=REAL, default=0.5),
    "x_seq": dict(type=REALS, help="comma-separated x_j values"),
    "lam_seq": dict(type=REALS, help="comma-separated lambda_j values"),
    "grid": dict(type=_arg(GridSpec.parse), help='grid spec, e.g. "log:1e-2,1e8,2000"'),
    "threshold": dict(type=_arg(_number(float, 1, True)),  # None: chains.DEFAULT_THRESHOLD
                      help="divergence threshold (linear scale)"),
}


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_arg(_writable),
                   help="output path (CSV rows, JSON next to it; a .json path names the JSON)")
    p.add_argument("--format", default="json", choices=["json", "both"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gsbench",
                                 description="verification workbench for "
                                 "weighted smooth-function composition estimates")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("conjugate", help="evaluate the Young conjugate phi*(s)")
    p.add_argument("--weight", type=WEIGHT, required=True)
    p.add_argument("--s", type=POSITIVE, required=True)
    p.add_argument("--method", choices=["closed-form", "numeric-sup"])
    _add_out(p)

    p = sub.add_parser("weight-check", help="weight-function condition report")
    p.add_argument("--weight", type=WEIGHT, required=True)
    p.add_argument("--grid", **FLAGS["grid"])
    _add_out(p)

    p = sub.add_parser("sequence-check", help="weight-sequence condition report")
    p.add_argument("--sequence", type=_arg(specs.parse_sequence), required=True)
    p.add_argument("--pmax", type=COUNT, default=200)
    _add_out(p)

    p = sub.add_parser("fdb", help="derivative of a composition from two jets")
    p.add_argument("--h", type=_arg(_rationals), required=True,
                   help='JSON array of rationals, e.g. ["1","1/2"]')
    p.add_argument("--psi", type=_arg(_rationals), required=True,
                   help="JSON array of rationals")
    p.add_argument("--base", type=_arg(Fraction), default="0",
                   help="base point of the inner jet")
    p.add_argument("--order", type=_arg(_number(int, 0)), required=True)
    _add_out(p)

    p = sub.add_parser("identities", help="combinatorial summation identities")
    p.add_argument("--jmax", type=COUNT, default=25)
    _add_out(p)

    p = sub.add_parser("seminorm", help="finite-box seminorm estimate")
    p.add_argument("--family", required=True, choices=["p", "pi"])
    p.add_argument("--function", type=FUNCTION, required=True)
    p.add_argument("--weight", type=WEIGHT, required=True)
    p.add_argument("--lam", type=POSITIVE, required=True)
    p.add_argument("--mu", type=REAL, help="--family pi only; defaults to --lam")
    p.add_argument("--jmax", type=COUNT, default=20)
    p.add_argument("--kmax", type=_arg(_number(int, 0)),
                   help="--family p only; defaults to 20")
    p.add_argument("--grid", **FLAGS["grid"])
    _add_out(p)

    p = sub.add_parser("estimate-index", help="growth-exponent fit from a jet")
    p.add_argument("--function", type=FUNCTION, required=True)
    p.add_argument("--x", type=REAL, default=0.0)
    p.add_argument("--jmax", type=COUNT, default=80)
    _add_out(p)

    names = sub.add_parser("experiment", help="inequality-chain experiments"
                           ).add_subparsers(dest="name", required=True)
    for name, (required, optional, _) in EXPERIMENTS.items():
        p = names.add_parser(name)
        for flag in required + optional:
            p.add_argument("--" + flag.replace("_", "-"),
                           required=flag in required, **FLAGS[flag])
        _add_out(p)
    return ap


def _emit(payload: dict, a: argparse.Namespace, result=None) -> None:
    from .reports import ChainReport, atomic_write_bytes, to_json_bytes
    data = to_json_bytes(payload)
    if a.out:
        # --out names the CSV, or the JSON if it ends in .json; the other goes next to it
        stem = os.path.splitext(a.out)[0]
        json_out = a.out.endswith(".json")
        if isinstance(result, ChainReport) and a.format == "both":
            result.write_csv(stem + ".csv" if json_out else a.out)
        atomic_write_bytes(a.out if json_out else stem + ".json", data + b"\n")
    sys.stdout.write(data.decode("utf-8") + "\n")


# Runners take the parsed arguments and return a result with ``verdict`` and
# ``to_dict()``, or a plain dict that always passes.  They import what they
# run at call time: a usage error exits before numpy loads, and a wrapper
# patched onto a module attribute is seen.

def _conjugate(a):
    from .weights import ConjugateEvaluator
    evaluate = ConjugateEvaluator(a.weight, method=a.method)
    try:
        value = evaluate(a.s)
    except PreconditionError as exc:  # phi*(s) is +inf or past a float
        raise PreconditionError(f"--s: {exc}") from None
    return {"weight": a.weight.label, "s": a.s, "value": value}


def _weight_check(a):
    from .weights import check_weight_conditions
    return check_weight_conditions(a.weight, a.grid)


def _sequence_check(a):
    from .sequences import check_sequence_conditions
    return check_sequence_conditions(a.sequence, a.pmax)


def _fdb(a):
    from .fdb import Jet, faa_di_bruno
    psi_jet = Jet.from_rationals(a.base, a.psi)
    value = faa_di_bruno(Jet.from_rationals(a.psi[0], a.h), psi_jet, a.order)
    return {"order": a.order, "value": str(value)}


def _identities(a):
    from .fdb import identity_table
    rows = [{"j": j, "two_power": two_power, "lah": lah}
            for j, (two_power, lah) in enumerate(identity_table(a.jmax), 1)]
    return {"jmax": a.jmax, "rows": rows, "verdict": True}


def _seminorm(a):
    from .functions import seminorm_p_lambda, seminorm_pi
    grid = a.grid or DEFAULT_X_GRID
    if a.family == "p":
        if a.mu is not None:
            raise PreconditionError("--mu: --family p does not read it")
        return seminorm_p_lambda(a.function, a.lam, a.weight, grid, a.jmax,
                                 20 if a.kmax is None else a.kmax)
    if a.kmax is not None:
        raise PreconditionError("--kmax: --family pi does not read it")
    return seminorm_pi(a.function, a.lam, a.lam if a.mu is None else a.mu,
                       a.weight, grid, a.jmax)


def _estimate_index(a):
    from .functions import estimate_growth_exponent
    est = estimate_growth_exponent(a.function.jet(a.x, a.jmax))
    return {"function": a.function.label, "x": a.x, "s_hat": est.s_hat,
            "intercept": est.intercept, "residual_rms": est.residual_rms}


def _experiment(a):
    if a.name in ("negative", "nuclear", "bounded", "compactness"):
        from . import chains as module  # the scalar chains load no numpy
    else:
        from . import experiments as module
    return EXPERIMENTS[a.name][2](module, a)


def _nuclear(ex, a):
    if len(a.m) > 1:
        raise PreconditionError(f"--m: nuclear takes one order, got {len(a.m)}")
    return ex.nuclearity_sum(a.weight, a.m[0], a.L, a.jmax)


# experiment name -> (required flags, optional flags, runner); the runner
# takes the module that defines the experiment and the arguments and reads
# every flag listed, and FLAGS types them
EXPERIMENTS = {
    "negative": (("d", "dprime"), ("k", "jmax", "threshold"), lambda ex, a: ex.negative_chain(
        a.d, a.k, a.dprime, a.jmax, threshold=a.threshold or ex.DEFAULT_THRESHOLD)),
    "bounded": (("d", "psi"), ("mmax", "threshold"), lambda ex, a: ex.bounded_derivative_chain(
        a.d, a.psi, a.mmax, threshold=a.threshold or ex.DEFAULT_THRESHOLD)),
    "compactness": (("psi", "weight"), ("x0", "p", "nmax", "threshold"),
                    lambda ex, a: ex.compactness_blowup(
                        a.psi, a.x0, a.p, a.weight, a.nmax,
                        threshold=a.threshold or ex.DEFAULT_THRESHOLD)),
    "sufficient": (("psi", "weight"), ("a", "m", "grid", "jmax"),
                   lambda ex, a: ex.sufficient_condition_check(
                       a.psi, a.weight, a.a, a.m, a.grid or GridSpec("lin", 0.05, 6.0, 120), a.jmax)),
    "necessary": (("psi", "sigma", "omega"), ("grid",), lambda ex, a: ex.necessary_growth(
        a.psi, a.sigma, a.omega, a.grid or GridSpec("log", 1e-3, 1e3, 20000))),
    "nuclear": (("weight",), ("m", "L", "jmax"), _nuclear),
    "equicont": (("weight", "x_seq", "lam_seq"), ("n", "K", "function", "grid"),
                 lambda ex, a: ex.equicontinuity_constant(
                     a.x_seq, a.lam_seq, a.weight, a.n, a.K, f=a.function, grid=a.grid)),
    "cauchy": (("psi",), ("delta", "grid", "jmax"), lambda ex, a: ex.cauchy_derivative_bound(
        a.psi, a.delta, a.grid or GridSpec("log", 1.0, 20.0, 200), a.jmax)),
}

# subcommand -> runner
COMMANDS = {
    "conjugate": _conjugate,
    "weight-check": _weight_check,
    "sequence-check": _sequence_check,
    "fdb": _fdb,
    "identities": _identities,
    "seminorm": _seminorm,
    "estimate-index": _estimate_index,
    "experiment": _experiment,
}

# one parser per process: building it costs more than parsing with it
_parser = functools.cache(build_parser)


def run(args: argparse.Namespace):
    """The result of the command ``args`` name."""
    return COMMANDS[args.subcommand](args)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = run(args)
    except GsbenchError as exc:
        print(f"gsbench: error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, dict):
        _emit(result, args)
        return 0
    _emit(result.to_dict(), args, result)
    return 0 if result.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
