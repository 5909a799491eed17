"""Command-line front end.

Exit codes: 0 when every verdict passes, 1 when an inequality fails or a
divergence threshold is not reached, 2 for usage/config errors.  All JSON is
UTF-8 with sorted keys and 17-significant-digit floats, so identical
invocations produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import experiments
from .errors import GsbenchError
from .fdb import Jet, faa_di_bruno, identity_lah, identity_two_power
from .functions import (estimate_growth_exponent, parse_function,
                        seminorm_p_lambda, seminorm_pi)
from .grids import DEFAULT_T_GRID, GridSpec
from .reports import ChainReport, atomic_write_bytes, to_json_bytes
from .sequences import check_sequence_conditions, parse_sequence
from .weights import (ConjugateEvaluator, check_weight_conditions,
                      parse_weight)


def validate_config(a: argparse.Namespace) -> list:
    """Checks across flags; each argparse ``type`` has checked its own flag."""
    required = EXPERIMENTS[a.name][0] if a.subcommand == "experiment" else ()
    diags = [f"--{f.replace('_', '-')} is required by experiment {a.name}"
             for f in required if getattr(a, f) is None]
    if (a.subcommand == "experiment" and a.name == "negative" and not diags
            and not a.d <= a.dprime < (a.k + 1) * a.d):
        diags.append(f"--dprime: need d <= d' < (k+1)d, got d={a.d:g} "
                     f"d'={a.dprime:g} (k+1)d={(a.k + 1) * a.d:g}")
    return diags


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
WEIGHT, FUNCTION = _arg(parse_weight), _arg(parse_function)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_arg(_writable),
                   help="output path (CSV for experiments; JSON summary written next to it)")
    p.add_argument("--format", default="json", choices=["json", "both"])
    p.add_argument("--grid", type=_arg(GridSpec.parse),
                   help='grid spec, e.g. "log:1e-2,1e8,2000"')
    p.add_argument("--threshold", type=_arg(_number(float, 1, True)),
                   default=experiments.DEFAULT_THRESHOLD, help="divergence threshold (linear scale)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gsbench",
                                 description="verification workbench for "
                                 "weighted smooth-function composition estimates")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("conjugate", help="evaluate the Young conjugate phi*(s)")
    p.add_argument("--weight", type=WEIGHT, required=True)
    p.add_argument("--s", type=POSITIVE, required=True)
    p.add_argument("--method", choices=["closed-form", "numeric-sup"])
    _add_common(p)

    p = sub.add_parser("weight-check", help="weight-function condition report")
    p.add_argument("--weight", type=WEIGHT, required=True)
    _add_common(p)

    p = sub.add_parser("sequence-check", help="weight-sequence condition report")
    p.add_argument("--sequence", type=_arg(parse_sequence), required=True)
    p.add_argument("--pmax", type=COUNT, default=200)
    _add_common(p)

    p = sub.add_parser("fdb", help="derivative of a composition from two jets")
    p.add_argument("--h", type=_arg(_rationals), required=True,
                   help='JSON array of rationals, e.g. ["1","1/2"]')
    p.add_argument("--psi", type=_arg(_rationals), required=True,
                   help="JSON array of rationals")
    p.add_argument("--base", type=_arg(Fraction), default="0",
                   help="base point of the inner jet")
    p.add_argument("--order", type=_arg(_number(int, 0)), required=True)
    _add_common(p)

    p = sub.add_parser("identities", help="combinatorial summation identities")
    p.add_argument("--jmax", type=COUNT, default=25)
    _add_common(p)

    p = sub.add_parser("seminorm", help="finite-box seminorm estimate")
    p.add_argument("--family", required=True, choices=["p", "pi"])
    p.add_argument("--function", type=FUNCTION, required=True)
    p.add_argument("--weight", type=WEIGHT, required=True)
    p.add_argument("--lam", type=POSITIVE, required=True)
    p.add_argument("--mu", type=REAL)
    p.add_argument("--jmax", type=COUNT, default=20)
    p.add_argument("--kmax", type=_arg(_number(int, 0)), default=20)
    _add_common(p)

    p = sub.add_parser("estimate-index", help="growth-exponent fit from a jet")
    p.add_argument("--function", type=FUNCTION, required=True)
    p.add_argument("--x", type=REAL, default=0.0)
    p.add_argument("--jmax", type=COUNT, default=80)
    _add_common(p)

    p = sub.add_parser("experiment", help="inequality-chain experiments")
    p.add_argument("name", choices=list(EXPERIMENTS))
    p.add_argument("--d", type=REAL)
    p.add_argument("--k", type=REAL, default=1.0)
    p.add_argument("--dprime", type=REAL)
    p.add_argument("--jmax", type=COUNT, default=100)
    p.add_argument("--psi", type=FUNCTION)
    p.add_argument("--function", type=FUNCTION, default="gaussian")
    p.add_argument("--weight", type=WEIGHT)
    p.add_argument("--sigma", type=WEIGHT)
    p.add_argument("--omega", type=WEIGHT)
    p.add_argument("--x0", type=REAL, default=0.0)
    p.add_argument("--p", type=COUNT, default=1)
    p.add_argument("--nmax", type=COUNT, default=30)
    p.add_argument("--mmax", type=COUNT, default=12)
    p.add_argument("--a", type=REAL, default=1.5)
    p.add_argument("--m", type=_listof(_number(_whole, 1)),
                   default="1", help="comma-separated list of orders")
    p.add_argument("--L", type=COUNT, default=2)
    p.add_argument("--n", type=COUNT, default=1)
    p.add_argument("--K", type=COUNT, default=2)
    p.add_argument("--x-seq", dest="x_seq", type=REALS,
                   help="comma-separated x_j values")
    p.add_argument("--lam-seq", dest="lam_seq", type=REALS,
                   help="comma-separated lambda_j values")
    p.add_argument("--delta", type=REAL, default=0.5)
    _add_common(p)
    return ap


def _emit(payload: dict, a: argparse.Namespace, result=None) -> None:
    data = to_json_bytes(payload)
    if a.out:
        if isinstance(result, ChainReport) and a.format == "both":
            result.write_csv(a.out)
        stem = os.path.splitext(a.out)[0]
        json_path = a.out if a.out.endswith(".json") else stem + ".json"
        atomic_write_bytes(json_path, data + b"\n")
    sys.stdout.write(data.decode("utf-8") + "\n")


# Runners take the parsed arguments and return a result with ``verdict`` and
# ``to_dict()``, or a plain dict that always passes.  They look functions up
# at call time, so a wrapper patched onto a module attribute is seen.

def _conjugate(a):
    return {"weight": a.weight.label, "s": a.s,
            "value": ConjugateEvaluator(a.weight, method=a.method)(a.s)}


def _fdb(a):
    psi_jet = Jet.from_rationals(a.base, a.psi)
    value = faa_di_bruno(Jet.from_rationals(a.psi[0], a.h), psi_jet, a.order)
    return {"order": a.order, "value": str(value)}


def _identities(a):
    rows = [{"j": j, "two_power": identity_two_power(j),
             "lah": identity_lah(j)} for j in range(1, a.jmax + 1)]
    return {"jmax": a.jmax, "rows": rows, "verdict": True}


def _seminorm(a):
    grid = a.grid or GridSpec("lin", 0.05, 8.0, 160)
    if a.family == "p":
        return seminorm_p_lambda(a.function, a.lam, a.weight, grid, a.jmax,
                                 a.kmax)
    mu = a.mu if a.mu is not None else a.lam
    return seminorm_pi(a.function, a.lam, mu, a.weight, grid, a.jmax)


def _estimate_index(a):
    est = estimate_growth_exponent(a.function.jet(a.x, a.jmax))
    return {"function": a.function.label, "x": a.x, "s_hat": est.s_hat,
            "intercept": est.intercept, "residual_rms": est.residual_rms}


# experiment name -> (required flags, runner)
EXPERIMENTS = {
    "negative": (("d", "dprime"), lambda a: experiments.negative_chain(
        a.d, a.k, a.dprime, a.jmax, threshold=a.threshold)),
    "bounded": (("d", "psi"), lambda a: experiments.bounded_derivative_chain(
        a.d, a.psi, a.mmax, threshold=a.threshold)),
    "compactness": (("psi", "weight"), lambda a: experiments.compactness_blowup(
        a.psi, a.x0, a.p, a.weight, a.nmax, threshold=a.threshold)),
    "sufficient": (("psi", "weight"), lambda a: experiments.sufficient_condition_check(
        a.psi, a.weight, a.a, a.m, a.grid or GridSpec("lin", 0.05, 6.0, 120), a.jmax)),
    "necessary": (("psi", "sigma", "omega"), lambda a: experiments.necessary_growth(
        a.psi, a.sigma, a.omega, a.grid or GridSpec("log", 1e-3, 1e3, 20000))),
    "nuclear": (("weight",), lambda a: experiments.nuclearity_sum(
        a.weight, a.m[0], a.L, a.jmax)),
    "equicont": (("weight", "x_seq", "lam_seq"), lambda a: experiments.equicontinuity_constant(
        a.x_seq, a.lam_seq, a.weight, a.n, a.K, f=a.function, grid=a.grid)),
    "cauchy": (("psi",), lambda a: experiments.cauchy_derivative_bound(
        a.psi, a.delta, a.grid or GridSpec("log", 1.0, 20.0, 200), a.jmax)),
}

# subcommand -> runner
COMMANDS = {
    "conjugate": _conjugate,
    "weight-check": lambda a: check_weight_conditions(
        a.weight, a.grid or DEFAULT_T_GRID),
    "sequence-check": lambda a: check_sequence_conditions(
        a.sequence, P=a.pmax, J=10 * a.pmax),
    "fdb": _fdb,
    "identities": _identities,
    "seminorm": _seminorm,
    "estimate-index": _estimate_index,
    "experiment": lambda a: EXPERIMENTS[a.name][1](a),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    diags = validate_config(args)
    if diags:
        for d in diags:
            print(f"gsbench: error: {d}", file=sys.stderr)
        return 2
    try:
        result = COMMANDS[args.subcommand](args)
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
