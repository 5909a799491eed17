"""Quantitative proof skeletons as verifiable inequality chains.

Each experiment evaluates the named factors of one argument row by row in log
domain, records a verdict per row, and reports whether the chain's divergent
lower bound crossed the configured threshold.  Nothing here claims proof-level
verification; the chains are checked at finite index ranges only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (CapabilityError, PreconditionError, RegimeError,
                     SearchExhaustedError)
from .fdb import BellTable, Jet, compose_jet, single_jet_compose
from .functions import ModelFunction, jet_log_abs, weighted_log_sup
from .grids import GridSpec
from .logdomain import LOG_ZERO, LogReal, log_sum_exp
from .reports import ChainReport, Result
from .weights import (ConjugateEvaluator, WeightFunction,
                      find_log_scaling_constant, first_true, scaled_weight,
                      verify_log_scaling_constant)

DEFAULT_THRESHOLD = 1e6  # linear scale; log crossing at ~13.8
S_CAP = 10 ** 12         # largest block threshold s0 searched
NEGATIVE_TOL = 1e-9      # slack on the negative chain's inequalities
NUCLEAR_TOL = 1e-10      # slack on the nuclearity partial sums
EQUICONT_J = 16          # derivative orders in the equicontinuity spot checks
NECESSARY_BLOCK = 2048   # grid points per necessary_growth block


# ---------------------------------------------------------------------------
# Compactness: the blow-up sup_n |psi'(x0)|^n
# ---------------------------------------------------------------------------

def compactness_blowup(psi: ModelFunction, x0: float, p: int,
                       w: WeightFunction, nmax: int,
                       threshold: float = DEFAULT_THRESHOLD) -> ChainReport:
    """Single-order jets b_n(n) = exp(p phi*(n/p)) pushed through the
    composition; the full expansion must match the one-term shortcut exactly,
    and |psi'(x0)|^n must cross the divergence threshold."""
    try:
        psi_jet = psi.jet(x0, nmax).to_log()
    except OverflowError:
        raise PreconditionError(
            f"--x0: psi's jet at x0={x0:g} overflows a float") from None
    psi1 = psi_jet.values[1]
    if psi1.is_zero() or psi1.log_abs <= 0.0:
        raise PreconditionError(
            f"|psi'(x0)| = {abs(psi_jet.entry_float(1)):g} <= 1 at x0={x0:g}; "
            "rescale the argument (sigma(x) = psi(a x)) first")
    conj = ConjugateEvaluator(w)
    log_thresh = math.log(threshold)
    report = ChainReport(
        experiment="compactness",
        params={"psi": psi.label, "x0": x0, "p": p, "weight": w.label,
                "nmax": nmax, "threshold": threshold},
        columns=["n", "log_b_n", "log_full_fdb", "log_shortcut",
                 "log_deriv_power", "verdict"])
    base = psi_jet.values[0].to_float()
    bell = BellTable(psi_jet, nmax)
    first_cross = None
    for n in range(1, nmax + 1):
        bn = LogReal.from_log(1, p * conj(n / p))
        h_vals = [LogReal.zero()] * (nmax + 1)
        h_vals[n] = bn
        h_jet = Jet(base, tuple(h_vals), "log")
        full = bell.derivative(h_jet, n)
        short = single_jet_compose(h_jet, psi_jet, n)
        agree = (full.sign == short.sign
                 and abs(full.log_abs - short.log_abs)
                 <= 1e-10 * max(1.0, abs(short.log_abs)))
        power = n * psi1.log_abs
        if first_cross is None and power > log_thresh:
            first_cross = n
        report.add_row({"n": n, "log_b_n": bn.log_abs,
                        "log_full_fdb": full.log_abs,
                        "log_shortcut": short.log_abs,
                        "log_deriv_power": power, "verdict": agree})
    report.verdict = report.all_hold() and first_cross is not None
    report.first_crossing_index = first_cross
    return report


# ---------------------------------------------------------------------------
# The loss-of-regularity chain (Gevrey scale)
# ---------------------------------------------------------------------------

def _block_threshold(c_sigma: ConjugateEvaluator, c_tilde: ConjugateEvaluator,
                     L: int, n: int) -> int:
    """Smallest integer s0 <= S_CAP with phi_sigma*(s) <= 2Ln phi_tilde*(s/(2Ln))
    for all s >= s0.  The per-unit margin (rhs - lhs)/s is increasing in
    log s, so the violation set is an initial segment of the integers."""
    c = 2 * L * n

    def holds(s: int) -> bool:
        return c_sigma(s) <= c * c_tilde(s / c) + 1e-12

    s0 = first_true(holds, 1, S_CAP)
    if s0 is None:
        raise RegimeError(f"block threshold exceeds {S_CAP}; weights too close")
    # guard against stray non-monotonicity just past the boundary
    if not all(holds(s) for s in range(s0, s0 + 64)):
        raise RegimeError("block boundary not clean; condition not monotone")
    return s0


def negative_chain(d: float, k: float, d_prime: float, jmax: int,
                   threshold: float = DEFAULT_THRESHOLD) -> ChainReport:
    """Loss-of-regularity chain for omega = t^(1/d), sigma = t^(1/d'),
    psi' >= psi^k: block construction, stationary points x_j, and the
    divergent lower bound exp(j - 2 lambda_j L), all checked row by row."""
    if not (d <= d_prime < (k + 1) * d):
        raise RegimeError(
            f"need d <= d' < (k+1)d, got d={d:g}, d'={d_prime:g}, "
            f"(k+1)d={(k + 1) * d:g}: the little-o comparison fails")
    omega = WeightFunction.gevrey(d)
    sigma = WeightFunction.gevrey(d_prime)
    tilde = WeightFunction.gevrey((k + 1) * d)
    c_omega = ConjugateEvaluator(omega)
    c_omega_num = ConjugateEvaluator(omega, method="numeric-sup")
    c_sigma = ConjugateEvaluator(sigma)
    c_tilde = ConjugateEvaluator(tilde)
    try:
        L = find_log_scaling_constant(tilde)
    except OverflowError:
        raise PreconditionError(
            f"--d: omega(t) = t^(1/((k+1)d)) overflows a float at d={d:g}") from None

    # blocks I_m = (j_{m-1}, j_m] with j_n = max(2^n, s_{n+1}); the report
    # covers the first jmax indices of the construction, j in (j_0, j_0+jmax]
    s_thresholds = {1: _block_threshold(c_sigma, c_tilde, L, 1)}
    j_bounds = []  # j_bounds[n] = j_n
    n = 0
    while True:
        s_thresholds.setdefault(n + 1,
                                _block_threshold(c_sigma, c_tilde, L, n + 1))
        j_bounds.append(max(2 ** n, s_thresholds[n + 1]))
        if j_bounds[-1] >= j_bounds[0] + jmax:
            break
        n += 1

    def block_of(j: int) -> int:
        for m in range(1, len(j_bounds)):
            if j_bounds[m - 1] < j <= j_bounds[m]:
                return m
        raise RegimeError(f"index {j} not covered by blocks")

    log_thresh = math.log(threshold)
    report = ChainReport(
        experiment="negative-chain",
        params={"d": d, "k": k, "d_prime": d_prime, "jmax": jmax, "L": L,
                "j0": j_bounds[0], "threshold": threshold,
                "tol": NEGATIVE_TOL, "blocks": [int(b) for b in j_bounds]},
        columns=["j", "lambda", "x_j", "log_a_j", "stationarity_lhs",
                 "stationarity_rhs", "numeric_conjugate", "convexity_lhs",
                 "convexity_rhs", "shift_lhs", "shift_rhs", "block_lhs",
                 "block_rhs", "log_lower_bound", "verdict"])
    first_cross = None
    for j in range(j_bounds[0] + 1, j_bounds[0] + jmax + 1):
        lam = float(block_of(j))
        x_j = (k * j * d / lam) ** d
        st_lhs = k * j * math.log(x_j) - lam * omega(x_j)
        st_rhs = lam * c_omega(k * j / lam)
        st_num = lam * c_omega_num(k * j / lam)
        ok_st = (abs(st_lhs - st_rhs) <= 1e-9 * max(1.0, abs(st_rhs))
                 and abs(st_num - st_rhs) <= 1e-9 * max(1.0, abs(st_rhs)))
        conv_lhs = lam * c_omega(j / lam) + lam * c_omega(k * j / lam)
        conv_rhs = 2 * lam * c_omega((k + 1) * j / (2 * lam))
        tilde_same = 2 * lam * c_tilde(j / (2 * lam))
        ok_conv = (conv_lhs >= conv_rhs - NEGATIVE_TOL
                   and abs(conv_rhs - tilde_same) <= 1e-9 * max(1.0, abs(conv_rhs)))
        shift_lhs = 2 * lam * c_tilde(j / (2 * lam))
        shift_rhs = 2 * L * lam * c_tilde(j / (2 * L * lam)) + j - 2 * lam * L
        ok_shift = shift_lhs >= shift_rhs - NEGATIVE_TOL
        block_lhs = 2 * L * lam * c_tilde(j / (2 * L * lam))
        block_rhs = c_sigma(j)
        ok_block = block_lhs >= block_rhs - NEGATIVE_TOL
        log_lb = j - 2 * lam * L
        if first_cross is None and log_lb > log_thresh:
            first_cross = j
        log_a_j = lam * c_omega(j / lam)
        report.add_row({
            "j": j, "lambda": lam, "x_j": x_j, "log_a_j": log_a_j,
            "stationarity_lhs": st_lhs, "stationarity_rhs": st_rhs,
            "numeric_conjugate": st_num,
            "convexity_lhs": conv_lhs, "convexity_rhs": conv_rhs,
            "shift_lhs": shift_lhs, "shift_rhs": shift_rhs,
            "block_lhs": block_lhs, "block_rhs": block_rhs,
            "log_lower_bound": log_lb,
            "verdict": ok_st and ok_conv and ok_shift and ok_block})
    report.verdict = report.all_hold() and first_cross is not None
    report.first_crossing_index = first_cross
    return report


# ---------------------------------------------------------------------------
# Bounded-derivative chain
# ---------------------------------------------------------------------------

def _witness_probes(y_cap: float):
    """200 geomspace points per decade from 1e-3, decades up to y_cap."""
    lo = 1e-3
    while lo < y_cap:
        hi = lo * 10.0
        for y in np.geomspace(lo, hi, 200):
            yield float(y)
        lo = hi


def bounded_derivative_chain(d: float, psi: ModelFunction, mmax: int,
                             threshold: float = DEFAULT_THRESHOLD,
                             y_cap: float = 1e12) -> ChainReport:
    """For each m find a witness y_m with |psi'(y_m)| >= 2^(m d), bracket
    x_m = psi(y_m) on the grid x_{m,j} = (j d / m)^d, and track the divergent
    term (2^m / (m e))^(j(m) d).  The targets grow with m, so a probe that
    fails for m fails for m+1 too: the search for m+1 resumes at y_m."""
    if not d > 0:
        raise PreconditionError(f"--d: the bounded chain needs d > 0, got d={d:g}")
    log_thresh = math.log(threshold)
    report = ChainReport(
        experiment="bounded-derivative",
        params={"d": d, "psi": psi.label, "mmax": mmax, "threshold": threshold},
        columns=["m", "y_m", "x_m", "j_m", "x_bracket_lo", "x_bracket_hi",
                 "log_term", "verdict"])
    if mmax * d >= 1024:
        raise PreconditionError(f"--d: 2^(md) overflows a float at m={mmax}, d={d:g}")
    first_cross = None
    probes = _witness_probes(y_cap)
    y_m = next(probes, None)
    for m in range(1, mmax + 1):
        target = 2.0 ** (m * d)
        while y_m is not None and not (abs(psi.jet(y_m, 1).entry_float(1)) >= target
                                       and psi.value(y_m) > 0):
            y_m = next(probes, None)
        if y_m is None:
            raise SearchExhaustedError(
                f"no y with |psi'(y)| >= 2^(md)={target:g} below {y_cap:g}")
        x_m = psi.value(y_m)
        try:
            j_m = int(m * x_m ** (1.0 / d) / d)
        except OverflowError:  # from ** or from int(inf)
            raise PreconditionError(f"--d: (m/d) x_m^(1/d) overflows a float "
                                    f"at m={m}, d={d:g}, x_m={x_m:g}") from None
        b_lo = (j_m * d / m) ** d
        b_hi = ((j_m + 1) * d / m) ** d
        ok = b_lo <= x_m < b_hi
        log_term = j_m * d * (m * math.log(2.0) - math.log(m) - 1.0)
        if first_cross is None and log_term > log_thresh:
            first_cross = m
        report.add_row({"m": m, "y_m": y_m, "x_m": x_m, "j_m": j_m,
                        "x_bracket_lo": b_lo, "x_bracket_hi": b_hi,
                        "log_term": log_term, "verdict": ok})
    report.verdict = report.all_hold() and first_cross is not None
    report.first_crossing_index = first_cross
    return report


# ---------------------------------------------------------------------------
# Sufficiency: measured constants for conditions (a) and (b)
# ---------------------------------------------------------------------------

@dataclass
class SufficientConditionReport(Result):
    psi: str
    weight: str
    a: float
    p: float
    C0: float
    per_m: dict = field(default_factory=dict)  # m -> {"log_C_m", "witness", "growing"}

    @property
    def verdict(self) -> bool:
        return not any(rec["growing"] for rec in self.per_m.values())


def sufficient_condition_check(psi: ModelFunction, w: WeightFunction, a: float,
                               m_list: Sequence[int], grid: GridSpec,
                               jmax: int) -> SufficientConditionReport:
    """Measure C0 in |x| <= C0 (1+|psi(x)|)^a and, for each m, the minimal C_m
    dominating |psi^(j)(x)| by exp(m phi_sigma*(j/m)) (1+|psi(x)|)^p with
    sigma(t) = omega(t^(1/a)) and p = a-1.  A growing C_m trend across the
    upper half of the order range flags a likely failure."""
    sigma = scaled_weight(w, a)
    conj = ConjugateEvaluator(sigma)
    p = a - 1.0
    xs = grid.symmetric_points()
    psis = psi.values(xs).tolist()
    c0 = max(abs(x) / (1.0 + abs(v)) ** a for x, v in zip(xs.tolist(), psis))
    rep = SufficientConditionReport(psi=psi.label, weight=w.label, a=a, p=p,
                                    C0=c0)
    tables = psi.log_jet_table(xs, jmax)[1]
    tables[:, 0] = LOG_ZERO  # orders j >= 1 only
    lp = [-p * math.log1p(abs(v)) for v in psis]
    for m in m_list:
        best, at = weighted_log_sup(tables, conj, m, extra=lp)
        best_half, _ = weighted_log_sup(tables[:, :jmax // 2 + 1], conj, m,
                                        extra=lp)
        witness = None if at is None else {"j": at[1], "x": float(xs[at[0]])}
        rep.per_m[int(m)] = {"log_C_m": best, "witness": witness,
                             "growing": best > best_half + 1e-6}
    return rep


# ---------------------------------------------------------------------------
# Composed seminorm sup
# ---------------------------------------------------------------------------

@dataclass
class ComposedSeminormResult:
    f: str
    psi: str
    sigma: str
    m: int
    grid: str
    jq_cap: int
    value_log: float
    witness: Optional[dict]
    stable: Optional[bool] = None


def composed_jet_log_table(f: ModelFunction, psi: ModelFunction,
                           xs: Sequence[float], J: int) -> list:
    """Per grid point, log |(f o psi)^(j)(x)| for j = 0..J via full FdB, from
    one jet table of psi over xs and one of f over psi(xs)."""
    xs = [float(x) for x in xs]
    ys = psi.values(xs).tolist()
    psi_sign, psi_log = psi.log_jet_table(xs, J)
    f_sign, f_log = f.log_jet_table(ys, J)
    return [jet_log_abs(compose_jet(Jet.from_log_row(y, f_sign[i], f_log[i]),
                                    Jet.from_log_row(x, psi_sign[i], psi_log[i]),
                                    J))
            for i, (x, y) in enumerate(zip(xs, ys))]


def composed_seminorm_bound(f: ModelFunction, psi: ModelFunction,
                            sigma: WeightFunction, m: int, grid: GridSpec,
                            Jmax: int, Qmax: int, jq_cap: int = None,
                            check_stability: bool = False,
                            jet_table: list = None,
                            xs: Sequence[float] = None) -> ComposedSeminormResult:
    """sup over (j <= Jmax, q <= Qmax, grid x) of
    |x^q (f o psi)^(j)(x)| exp(-m phi_sigma*((j+q)/m)), in log domain.

    A precomputed (xs, jet_table) pair may be supplied to amortize the FdB
    work across several m values."""
    if jq_cap is None:
        jq_cap = Jmax + Qmax
    conj = ConjugateEvaluator(sigma)
    if xs is None:
        xs = grid.symmetric_points()
    if jet_table is None:
        jet_table = composed_jet_log_table(f, psi, xs, Jmax)
    best, at = weighted_log_sup([logs[:Jmax + 1] for logs in jet_table], conj,
                                m, xs, Qmax, jq_cap)
    witness = None if at is None else {"j": at[1], "q": at[2],
                                       "x": float(xs[at[0]])}
    stable = None
    if check_stability:
        J2 = math.ceil(Jmax * 1.25)
        xs2 = grid.scaled(1.25).symmetric_points()
        b2, _ = weighted_log_sup(composed_jet_log_table(f, psi, xs2, J2), conj,
                                 m, xs2, math.ceil(Qmax * 1.25),
                                 math.ceil(jq_cap * 1.25))
        stable = abs(b2 - best) < 1e-6 * max(1.0, abs(best))
    return ComposedSeminormResult(f=f.label, psi=psi.label, sigma=sigma.label,
                                  m=m, grid=grid.spec_string(), jq_cap=jq_cap,
                                  value_log=best, witness=witness,
                                  stable=stable)


# ---------------------------------------------------------------------------
# Necessary growth comparison sigma(x) <= C (1 + omega(psi(x)))
# ---------------------------------------------------------------------------

@dataclass
class NecessaryGrowthResult(Result):
    psi: str
    sigma: str
    omega: str
    C: float
    argmax_x: float
    grows_with_radius: bool

    @property
    def verdict(self) -> bool:
        return not self.grows_with_radius


def necessary_growth(psi: ModelFunction, w_sigma: WeightFunction,
                     w_omega: WeightFunction,
                     grid: GridSpec) -> NecessaryGrowthResult:
    """Measured C = max over the grid of sigma(x) / (1 + omega(psi(x))),
    with a trend flag comparing against the inner half-radius maximum."""
    xs = grid.symmetric_points()
    best, best_x, inner_best = -math.inf, 0.0, -math.inf
    half = grid.hi / 2.0
    # blocks keep the arrays small on large grids; a NaN ratio never wins
    for lo in range(0, len(xs), NECESSARY_BLOCK):
        xb = xs[lo:lo + NECESSARY_BLOCK]
        with np.errstate(invalid="ignore"):  # inf / inf
            ratio = w_sigma.values(xb) / (1.0 + w_omega.values(psi.values(xb)))
        ratio[np.isnan(ratio)] = -math.inf
        i = int(ratio.argmax())
        if ratio[i] > best:
            best, best_x = float(ratio[i]), float(xb[i])
        inner_best = max(inner_best,
                         float(ratio[np.abs(xb) <= half].max(initial=-math.inf)))
    return NecessaryGrowthResult(psi=psi.label, sigma=w_sigma.label,
                                 omega=w_omega.label, C=best, argmax_x=best_x,
                                 grows_with_radius=best > inner_best + 1e-9)


# ---------------------------------------------------------------------------
# Nuclearity: summability of the weight-ratio series
# ---------------------------------------------------------------------------

def nuclearity_sum(w: WeightFunction, m: int, L: int,
                   jmax: int) -> ChainReport:
    """Partial sums of sum_j v_m(j)/v_l(j) with v_n(j) = exp(-n phi*(j/n)) and
    l = L m, checked against the geometric cap e^(mL)/(e-1)."""
    verify_log_scaling_constant(w, L)
    try:
        bound = math.exp(m * L) / (math.e - 1.0)
    except OverflowError:
        raise PreconditionError(
            f"m*L = {m * L} exceeds log(float max); the bound e^(mL)/(e-1) "
            "overflows") from None
    conj = ConjugateEvaluator(w)
    ell = L * m
    report = ChainReport(
        experiment="nuclearity",
        params={"weight": w.label, "m": m, "L": L, "ell": ell, "jmax": jmax,
                "bound": bound, "tol": NUCLEAR_TOL},
        columns=["j", "log_ratio", "partial_sum", "verdict"])
    log_ratios = []
    for j in range(1, jmax + 1):
        log_ratios.append(ell * conj(j / ell) - m * conj(j / m))
        partial = math.exp(log_sum_exp(log_ratios)) if log_ratios else 0.0
        report.add_row({"j": j, "log_ratio": log_ratios[-1],
                        "partial_sum": partial,
                        "verdict": partial <= bound + NUCLEAR_TOL})
    report.verdict = report.all_hold()
    return report


# ---------------------------------------------------------------------------
# Equicontinuity constant for scaled translations
# ---------------------------------------------------------------------------

@dataclass
class EquicontinuityResult(Result):
    log_C_n: float
    C_n: float
    argmax_j: int
    m: int
    lambda_warning: bool
    spot_rows: list = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(r["verdict"] for r in self.spot_rows)


def equicontinuity_constant(x_seq: Sequence[float], lambda_seq: Sequence[float],
                            w: WeightFunction, n: int, K: int,
                            f: ModelFunction = None,
                            grid: GridSpec = None) -> EquicontinuityResult:
    """C_n = sup_j exp((-lambda_j + m) omega(x_j) + m) with m = K n, plus spot
    checks that the scaled translations satisfy
    pi_{n,n}(U_j f) <= C_n pi_{m,m}(f) on a finite box."""
    if len(x_seq) != len(lambda_seq) or not x_seq:
        raise PreconditionError("x and lambda sequences must be equal-length, nonempty")
    m = K * n
    warning = all(lam <= m for lam in lambda_seq)
    best, best_j = -math.inf, 0
    for j, (x_j, lam_j) in enumerate(zip(x_seq, lambda_seq), start=1):
        v = (-lam_j + m) * w(x_j) + m
        if v > best:
            best, best_j = v, j
    result = EquicontinuityResult(
        log_C_n=best, C_n=math.exp(best) if best < 700 else math.inf,
        argmax_j=best_j, m=m, lambda_warning=warning)

    if f is not None:
        if grid is None:
            grid = GridSpec("lin", 0.05, 8.0, 160)
        conj = ConjugateEvaluator(w)
        us = grid.symmetric_points()
        logs_f = f.log_jet_table(us, EQUICONT_J)[1]
        # pi_{m,m}(f) on the box
        pi_m, _ = weighted_log_sup(logs_f, conj, m, extra=m * w.values(us))
        idxs = sorted({1, len(x_seq) // 2 + 1, len(x_seq)})
        for j in idxs:
            x_j, lam_j = x_seq[j - 1], lambda_seq[j - 1]
            # pi_{n,n} of the translate, read at the translated argument
            pi_n, _ = weighted_log_sup(logs_f, conj, n,
                                       extra=n * w.values(us + x_j))
            lhs = pi_n - lam_j * w(x_j)
            rhs = best + pi_m
            result.spot_rows.append({"j": j, "log_lhs": lhs, "log_rhs": rhs,
                                     "verdict": lhs <= rhs + 1e-9})
    return result


# ---------------------------------------------------------------------------
# Cauchy-type derivative bounds for analytic argument functions
# ---------------------------------------------------------------------------

@dataclass
class CauchyBoundResult(Result):
    psi: str
    delta: float
    B: float
    log_B: float
    witness: Optional[dict]
    max_excess_vs_prediction: float  # log-scale; <= 0 means within prediction

    @property
    def verdict(self) -> bool:
        return self.max_excess_vs_prediction <= 0.0


def cauchy_derivative_bound(psi: ModelFunction, delta: float,
                            x_grid: GridSpec, jmax: int) -> CauchyBoundResult:
    """Minimal measured B with |psi^(j)(x)| <= j! B^(j+1) on the grid, and the
    comparison with the radius-based Cauchy prediction
    j! (1+|x|+r_x)/r_x^j, r_x = delta |x|."""
    if psi.analytic not in ("cone", "strip"):
        raise CapabilityError(
            f"{psi.label} carries no analyticity metadata; Cauchy bound n/a")
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must lie in (0, 1)")
    xs = [float(x) for x in x_grid.symmetric_points() if abs(x) >= 1.0]
    if not xs:
        raise PreconditionError("grid must contain points with |x| >= 1")
    best, witness = -math.inf, None
    excess = -math.inf
    for x, logs in zip(xs, psi.log_jet_table(xs, jmax)[1].tolist()):
        for j in range(jmax + 1):
            if logs[j] == LOG_ZERO:
                continue
            lb = (logs[j] - math.lgamma(j + 1)) / (j + 1)
            if lb > best:
                best, witness = lb, {"j": j, "x": x}
            r_x = delta * abs(x)
            pred = math.lgamma(j + 1) + math.log1p(abs(x) + r_x) - j * math.log(r_x)
            excess = max(excess, logs[j] - pred)
    return CauchyBoundResult(psi=psi.label, delta=delta,
                             B=math.exp(best), log_B=best, witness=witness,
                             max_excess_vs_prediction=excess)
