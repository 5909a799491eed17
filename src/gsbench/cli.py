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
    """Static checks; each diagnostic names the offending flag."""
    required = EXPERIMENTS[a.name][0] if a.subcommand == "experiment" else ()
    missing = [f for f in required if getattr(a, f) is None]
    diags = [f"--{f.replace('_', '-')} is required by experiment {a.name}"
             for f in missing]
    if a.threshold <= 1.0:
        diags.append("--threshold must exceed 1")
    if a.out:
        d = os.path.dirname(os.path.abspath(a.out))
        if not os.path.isdir(d) or not os.access(d, os.W_OK):
            diags.append(f"--out directory not writable: {d}")
    specs = [("grid", GridSpec.parse), ("weight", parse_weight),
             ("sigma", parse_weight), ("omega", parse_weight),
             ("sequence", parse_sequence)]
    if a.subcommand != "fdb":  # fdb's --h/--psi are jet literals, not specs
        specs += [("function", parse_function), ("psi", parse_function)]
    for flag, parse in specs:
        spec = getattr(a, flag, None)
        if spec is not None:
            try:
                parse(spec)
            except GsbenchError as exc:
                diags.append(f"--{flag}: {exc}")
    if a.subcommand == "experiment" and a.name == "negative" and not missing:
        if not (a.d <= a.dprime < (a.k + 1) * a.d):
            diags.append(
                f"--dprime: need d <= d' < (k+1)d, got d={a.d:g} "
                f"d'={a.dprime:g} (k+1)d={(a.k + 1) * a.d:g}")
    for flag in ("jmax", "pmax", "nmax", "mmax", "s", "lam", "n", "K", "p"):
        v = getattr(a, flag, None)
        if v is not None and isinstance(v, (int, float)) and v <= 0:
            diags.append(f"--{flag} must be positive")
    for flag, v in vars(a).items():
        if isinstance(v, float) and not math.isfinite(v):
            diags.append(f"--{flag} must be finite")
    return diags


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (CSV for experiments; JSON summary written next to it)")
    p.add_argument("--format", default="json", choices=["json", "both"])
    p.add_argument("--grid", help='grid spec, e.g. "log:1e-2,1e8,2000"')
    p.add_argument("--threshold", type=float,
                   default=experiments.DEFAULT_THRESHOLD,
                   help="divergence threshold (linear scale)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gsbench",
                                 description="verification workbench for "
                                 "weighted smooth-function composition estimates")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("conjugate", help="evaluate the Young conjugate phi*(s)")
    p.add_argument("--weight", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--method", default=None,
                   choices=["closed-form", "numeric-sup"])
    _add_common(p)

    p = sub.add_parser("weight-check", help="weight-function condition report")
    p.add_argument("--weight", required=True)
    _add_common(p)

    p = sub.add_parser("sequence-check", help="weight-sequence condition report")
    p.add_argument("--sequence", required=True)
    p.add_argument("--pmax", type=int, default=200)
    _add_common(p)

    p = sub.add_parser("fdb", help="derivative of a composition from two jets")
    p.add_argument("--h", required=True, help='JSON array of rationals, e.g. ["1","1/2"]')
    p.add_argument("--psi", required=True, help="JSON array of rationals")
    p.add_argument("--base", default="0", help="base point of the inner jet")
    p.add_argument("--order", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("identities", help="combinatorial summation identities")
    p.add_argument("--jmax", type=int, default=25)
    _add_common(p)

    p = sub.add_parser("seminorm", help="finite-box seminorm estimate")
    p.add_argument("--family", required=True, choices=["p", "pi"])
    p.add_argument("--function", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--jmax", type=int, default=20)
    p.add_argument("--kmax", type=int, default=20)
    _add_common(p)

    p = sub.add_parser("estimate-index", help="growth-exponent fit from a jet")
    p.add_argument("--function", required=True)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--jmax", type=int, default=80)
    _add_common(p)

    p = sub.add_parser("experiment", help="inequality-chain experiments")
    p.add_argument("name", choices=list(EXPERIMENTS))
    p.add_argument("--d", type=float)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--dprime", type=float)
    p.add_argument("--jmax", type=int, default=100)
    p.add_argument("--psi")
    p.add_argument("--function", default="gaussian")
    p.add_argument("--weight")
    p.add_argument("--sigma")
    p.add_argument("--omega")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--mmax", type=int, default=12)
    p.add_argument("--a", type=float, default=1.5)
    p.add_argument("--m", default="1", help="comma-separated list of orders")
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--x-seq", dest="x_seq", help="comma-separated x_j values")
    p.add_argument("--lam-seq", dest="lam_seq",
                   help="comma-separated lambda_j values")
    p.add_argument("--delta", type=float, default=0.5)
    _add_common(p)
    return ap


def _parse_jet(text: str, base, flag: str) -> Jet:
    try:
        arr = json.loads(text)
        vals = [Fraction(str(v)) for v in arr]
    except (ValueError, ZeroDivisionError) as exc:
        raise GsbenchError(f"{flag}: bad jet literal: {exc}") from None
    return Jet.from_rationals(base, vals)


def _floats(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise GsbenchError(f"{flag}: {exc}") from None


def _grid(a: argparse.Namespace, default):
    return GridSpec.parse(a.grid) if a.grid else default


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
    w = parse_weight(a.weight)
    return {"weight": w.label, "s": a.s,
            "value": ConjugateEvaluator(w, method=a.method)(a.s)}


def _fdb(a):
    base = Fraction(a.base)
    psi_jet = _parse_jet(a.psi, base, "--psi")
    h_jet = _parse_jet(a.h, psi_jet.values[0], "--h")
    value = faa_di_bruno(h_jet, psi_jet, a.order)
    return {"order": a.order, "value": str(value)}


def _identities(a):
    rows = [{"j": j, "two_power": identity_two_power(j),
             "lah": identity_lah(j)} for j in range(1, a.jmax + 1)]
    return {"jmax": a.jmax, "rows": rows, "verdict": True}


def _seminorm(a):
    f, w = parse_function(a.function), parse_weight(a.weight)
    grid = _grid(a, GridSpec("lin", 0.05, 8.0, 160))
    if a.family == "p":
        return seminorm_p_lambda(f, a.lam, w, grid, a.jmax, a.kmax)
    mu = a.mu if a.mu is not None else a.lam
    return seminorm_pi(f, a.lam, mu, w, grid, a.jmax)


def _estimate_index(a):
    f = parse_function(a.function)
    est = estimate_growth_exponent(f.jet(a.x, a.jmax))
    return {"function": f.label, "x": a.x, "s_hat": est.s_hat,
            "intercept": est.intercept, "residual_rms": est.residual_rms}


def _orders(a) -> list:
    return [int(v) for v in _floats(a.m, "--m")]


# experiment name -> (required flags, runner)
EXPERIMENTS = {
    "negative": (("d", "dprime"), lambda a: experiments.negative_chain(
        a.d, a.k, a.dprime, a.jmax, threshold=a.threshold)),
    "bounded": (("d", "psi"), lambda a: experiments.bounded_derivative_chain(
        a.d, parse_function(a.psi), a.mmax, threshold=a.threshold)),
    "compactness": (
        ("psi", "weight"), lambda a: experiments.compactness_blowup(
            parse_function(a.psi), a.x0, a.p, parse_weight(a.weight), a.nmax,
            threshold=a.threshold)),
    "sufficient": (
        ("psi", "weight"), lambda a: experiments.sufficient_condition_check(
            parse_function(a.psi), parse_weight(a.weight), a.a, _orders(a),
            _grid(a, GridSpec("lin", 0.05, 6.0, 120)), a.jmax)),
    "necessary": (
        ("psi", "sigma", "omega"), lambda a: experiments.necessary_growth(
            parse_function(a.psi), parse_weight(a.sigma),
            parse_weight(a.omega),
            _grid(a, GridSpec("log", 1e-3, 1e3, 20000)))),
    "nuclear": (("weight",), lambda a: experiments.nuclearity_sum(
        parse_weight(a.weight), _orders(a)[0], a.L, a.jmax)),
    "equicont": (
        ("weight", "x_seq", "lam_seq"),
        lambda a: experiments.equicontinuity_constant(
            _floats(a.x_seq, "--x-seq"), _floats(a.lam_seq, "--lam-seq"),
            parse_weight(a.weight), a.n, a.K, f=parse_function(a.function),
            grid=_grid(a, None))),
    "cauchy": (("psi",), lambda a: experiments.cauchy_derivative_bound(
        parse_function(a.psi), a.delta,
        _grid(a, GridSpec("log", 1.0, 20.0, 200)), a.jmax)),
}

# subcommand -> runner
COMMANDS = {
    "conjugate": _conjugate,
    "weight-check": lambda a: check_weight_conditions(
        parse_weight(a.weight), _grid(a, DEFAULT_T_GRID)),
    "sequence-check": lambda a: check_sequence_conditions(
        parse_sequence(a.sequence), P=a.pmax, J=10 * a.pmax),
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
