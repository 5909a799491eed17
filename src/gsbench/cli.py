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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import experiments
from .errors import GsbenchError
from .fdb import Jet, faa_di_bruno, identity_lah, identity_two_power
from .functions import (estimate_growth_exponent, parse_function,
                        seminorm_p_lambda, seminorm_pi)
from .grids import DEFAULT_T_GRID, GridSpec
from .logdomain import LogReal
from .reports import atomic_write_bytes, to_json_bytes
from .sequences import check_sequence_conditions, parse_sequence
from .weights import (ConjugateEvaluator, WeightFunction,
                      check_weight_conditions, parse_weight)

_EXPERIMENTS = ("negative", "bounded", "compactness", "sufficient",
                "necessary", "nuclear", "equicont", "cauchy")


@dataclass
class RunConfig:
    subcommand: str
    args: argparse.Namespace
    out: Optional[str] = None
    format: str = "json"
    grid: Optional[GridSpec] = None
    threshold: float = experiments.DEFAULT_THRESHOLD
    diagnostics: list = field(default_factory=list)


def validate_config(cfg: RunConfig) -> list:
    """Static checks; each diagnostic names the offending flag."""
    diags = []
    a = cfg.args
    if cfg.threshold <= 1.0:
        diags.append("--threshold must exceed 1")
    if cfg.out:
        d = os.path.dirname(os.path.abspath(cfg.out))
        if not os.path.isdir(d) or not os.access(d, os.W_OK):
            diags.append(f"--out directory not writable: {d}")
    if cfg.format not in ("json", "csv", "both"):
        diags.append("--format must be json, csv or both")
    for flag in ("weight", "sigma", "omega"):
        spec = getattr(a, flag, None)
        if spec is not None:
            try:
                parse_weight(spec)
            except GsbenchError as exc:
                diags.append(f"--{flag}: {exc}")
    if cfg.subcommand != "fdb":  # fdb's --h/--psi are jet literals, not specs
        for flag in ("function", "psi"):
            spec = getattr(a, flag, None)
            if spec is not None:
                try:
                    parse_function(spec)
                except GsbenchError as exc:
                    diags.append(f"--{flag}: {exc}")
    if getattr(a, "sequence", None) is not None:
        try:
            parse_sequence(a.sequence)
        except GsbenchError as exc:
            diags.append(f"--sequence: {exc}")
    if cfg.subcommand == "experiment" and a.name == "negative":
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
    p.add_argument("--format", default="json", choices=["json", "csv", "both"])
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
    p.add_argument("name", choices=list(_EXPERIMENTS))
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
    p.add_argument("--qmax", type=int, default=20)
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


def _emit(payload: dict, cfg: RunConfig, report=None) -> None:
    data = to_json_bytes(payload)
    if cfg.out:
        if report is not None and cfg.format in ("csv", "both"):
            report.write_csv(cfg.out)
        stem = os.path.splitext(cfg.out)[0]
        json_path = cfg.out if cfg.out.endswith(".json") else stem + ".json"
        atomic_write_bytes(json_path, data + b"\n")
    sys.stdout.write(data.decode("utf-8") + "\n")


def _run_experiment(cfg: RunConfig) -> int:
    a = cfg.args
    name = a.name
    grid = GridSpec.parse(a.grid) if a.grid else None
    if name == "negative":
        if a.d is None or a.dprime is None:
            raise GsbenchError("negative chain requires --d and --dprime")
        rep = experiments.negative_chain(a.d, a.k, a.dprime, a.jmax,
                                         threshold=cfg.threshold)
        _emit(rep.summary_dict(), cfg, rep)
        return 0 if rep.verdict else 1
    if name == "bounded":
        if a.d is None or a.psi is None:
            raise GsbenchError("bounded chain requires --d and --psi")
        rep = experiments.bounded_derivative_chain(
            a.d, parse_function(a.psi), a.mmax, threshold=cfg.threshold)
        _emit(rep.summary_dict(), cfg, rep)
        return 0 if rep.verdict else 1
    if name == "compactness":
        if a.psi is None or a.weight is None:
            raise GsbenchError("compactness requires --psi and --weight")
        rep = experiments.compactness_blowup(
            parse_function(a.psi), a.x0, a.p, parse_weight(a.weight), a.nmax,
            threshold=cfg.threshold)
        _emit(rep.summary_dict(), cfg, rep)
        return 0 if rep.verdict else 1
    if name == "sufficient":
        if a.psi is None or a.weight is None:
            raise GsbenchError("sufficient requires --psi and --weight")
        g = grid or GridSpec("lin", 0.05, 6.0, 120)
        rep = experiments.sufficient_condition_check(
            parse_function(a.psi), parse_weight(a.weight), a.a,
            [int(v) for v in _floats(a.m, "--m")], g, a.jmax)
        _emit(rep.to_dict(), cfg)
        return 0 if not rep.any_growing() else 1
    if name == "necessary":
        if a.psi is None or a.sigma is None or a.omega is None:
            raise GsbenchError("necessary requires --psi, --sigma, --omega")
        g = grid or GridSpec("log", 1e-3, 1e3, 20000)
        res = experiments.necessary_growth(
            parse_function(a.psi), parse_weight(a.sigma),
            parse_weight(a.omega), g)
        _emit(res.__dict__, cfg)
        return 0 if not res.grows_with_radius else 1
    if name == "nuclear":
        if a.weight is None:
            raise GsbenchError("nuclear requires --weight")
        m_val = int(_floats(a.m, "--m")[0])
        rep = experiments.nuclearity_sum(parse_weight(a.weight), m_val, a.L,
                                         a.jmax)
        _emit(rep.summary_dict(), cfg, rep)
        return 0 if rep.verdict else 1
    if name == "equicont":
        if a.weight is None or a.x_seq is None or a.lam_seq is None:
            raise GsbenchError("equicont requires --weight, --x-seq, --lam-seq")
        res = experiments.equicontinuity_constant(
            _floats(a.x_seq, "--x-seq"), _floats(a.lam_seq, "--lam-seq"),
            parse_weight(a.weight), a.n, a.K,
            f=parse_function(a.function), grid=grid)
        payload = {"log_C_n": res.log_C_n, "argmax_j": res.argmax_j,
                   "m": res.m, "lambda_warning": res.lambda_warning,
                   "spot_rows": res.spot_rows}
        _emit(payload, cfg)
        return 0 if all(r["verdict"] for r in res.spot_rows) else 1
    if name == "cauchy":
        if a.psi is None:
            raise GsbenchError("cauchy requires --psi")
        g = grid or GridSpec("log", 1.0, 20.0, 200)
        res = experiments.cauchy_derivative_bound(parse_function(a.psi),
                                                  a.delta, g, a.jmax)
        _emit({"psi": res.psi, "delta": res.delta, "B": res.B,
               "log_B": res.log_B, "witness": res.witness,
               "max_excess_vs_prediction": res.max_excess_vs_prediction}, cfg)
        return 0 if res.max_excess_vs_prediction <= 0.0 else 1
    raise GsbenchError(f"unknown experiment {name!r}")


def _dispatch(cfg: RunConfig) -> int:
    a = cfg.args
    cmd = cfg.subcommand
    if cmd == "conjugate":
        w = parse_weight(a.weight)
        kwargs = {"method": a.method} if a.method else {}
        value = ConjugateEvaluator(w, **kwargs)(a.s)
        _emit({"weight": w.label, "s": a.s, "value": value}, cfg)
        return 0
    if cmd == "weight-check":
        w = parse_weight(a.weight)
        grid = GridSpec.parse(a.grid) if a.grid else DEFAULT_T_GRID
        rep = check_weight_conditions(w, grid)
        _emit(rep.to_dict(), cfg)
        return 0 if all(r.verdict for r in rep.records()) else 1
    if cmd == "sequence-check":
        M = parse_sequence(a.sequence)
        rep = check_sequence_conditions(M, P=a.pmax, J=10 * a.pmax)
        d = rep.to_dict()
        _emit(d, cfg)
        checks = [d[k].get("verdict", True) for k in
                  ("m0", "m1", "m2", "gamma1", "m3prime", "petzsche")]
        return 0 if all(checks) else 1
    if cmd == "fdb":
        base = Fraction(a.base)
        psi_jet = _parse_jet(a.psi, base, "--psi")
        h_jet = _parse_jet(a.h, psi_jet.values[0], "--h")
        val = faa_di_bruno(h_jet, psi_jet, a.order)
        if isinstance(val, LogReal):
            payload = {"order": a.order, "sign": val.sign,
                       "log_abs": val.log_abs}
        else:
            payload = {"order": a.order, "value": str(val)}
        _emit(payload, cfg)
        return 0
    if cmd == "identities":
        rows = [{"j": j, "two_power": identity_two_power(j),
                 "lah": identity_lah(j)} for j in range(1, a.jmax + 1)]
        _emit({"jmax": a.jmax, "rows": rows, "verdict": True}, cfg)
        return 0
    if cmd == "seminorm":
        f = parse_function(a.function)
        w = parse_weight(a.weight)
        grid = GridSpec.parse(a.grid) if a.grid else GridSpec("lin", 0.05, 8.0, 160)
        if a.family == "p":
            rep = seminorm_p_lambda(f, a.lam, w, grid, a.jmax, a.kmax)
        else:
            mu = a.mu if a.mu is not None else a.lam
            rep = seminorm_pi(f, a.lam, mu, w, grid, a.jmax)
        _emit(rep.to_dict(), cfg)
        return 0 if not rep.degenerate else 1
    if cmd == "estimate-index":
        f = parse_function(a.function)
        est = estimate_growth_exponent(f.jet(a.x, a.jmax))
        _emit({"function": f.label, "x": a.x, "s_hat": est.s_hat,
               "intercept": est.intercept,
               "residual_rms": est.residual_rms}, cfg)
        return 0
    if cmd == "experiment":
        return _run_experiment(cfg)
    raise GsbenchError(f"unknown subcommand {cmd!r}")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig(subcommand=args.subcommand, args=args,
                    out=getattr(args, "out", None),
                    format=getattr(args, "format", "json"),
                    threshold=getattr(args, "threshold",
                                      experiments.DEFAULT_THRESHOLD))
    diags = validate_config(cfg)
    if diags:
        for d in diags:
            print(f"gsbench: error: {d}", file=sys.stderr)
        return 2
    try:
        return _dispatch(cfg)
    except GsbenchError as exc:
        print(f"gsbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
