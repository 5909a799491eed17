"""The four scalar inequality chains: compactness' blow-up, the
bounded-derivative chain, loss of regularity and nuclearity.  Each walks
over Young conjugates or one jet and builds no array, so unlike
``experiments`` (which re-exports them) this module imports no numpy.  Each
row is checked in log domain at finite index ranges only.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import PreconditionError
from .grids import GridSpec
from .logdomain import log_sum_exp
from .reports import ChainReport
from .weights import (ConjugateEvaluator, WeightFunction, find_log_scaling_constant,
                      first_true, verify_log_scaling_constant)

if TYPE_CHECKING:
    from .functions import ModelFunction

DEFAULT_THRESHOLD = 1e6  # linear scale; log crossing at ~13.8
S_CAP = 10 ** 12         # largest block threshold s0 searched
NEGATIVE_TOL = 1e-9      # slack on the negative chain's inequalities
NUCLEAR_TOL = 1e-10      # slack on the nuclearity partial sums


# ---------------------------------------------------------------------------
# Compactness: the blow-up sup_n |psi'(x0)|^n
# ---------------------------------------------------------------------------

def compactness_blowup(psi: ModelFunction, x0: float, p: int,
                       w: WeightFunction, nmax: int,
                       threshold: float = DEFAULT_THRESHOLD) -> ChainReport:
    """Single-order jets b_n(n) = exp(p phi*(n/p)) pushed through the
    composition; the full expansion must match the one-term shortcut exactly,
    and |psi'(x0)|^n must cross the divergence threshold.

    A jet concentrated at order n composes to b_n B(n, n).  In the Bell
    recurrence B(n, n) = sum_i C(n-1, i-1) psi^(i) B(n-i, n-1) only i = 1 is
    live, since B(m, k) = 0 for k > m, and ``signed_log_sum`` returns a sum
    of one term as that term bit for bit.  So the full column is
    log b_n + L_n with L_n = L_(n-1) + log|psi'(x0)|, L_0 = 0, sign psi'^n:
    the diagonal of ``fdb.bell_rows`` of psi's log jet, read with no table.
    The shortcut column is log b_n + n log|psi'(x0)|, each with its sign."""
    try:
        psi1 = psi.jet(x0, 1).to_log().values[1]  # a row reads psi' alone
        if psi1.log_abs == math.inf:  # expsqr's log psi = x0^2 past a float
            raise OverflowError
    except OverflowError:
        raise PreconditionError(
            f"--x0: psi's jet at x0={x0:g} overflows a float") from None
    if psi1.sign == 0 or psi1.log_abs <= 0.0:
        raise PreconditionError(
            f"--x0: |psi'(x0)| = {abs(psi1.to_float()):g} <= 1 at x0={x0:g}; "
            "rescale the argument (sigma(x) = psi(a x)) first")
    conj = ConjugateEvaluator(w)
    log_thresh = math.log(threshold)
    report = ChainReport(
        experiment="compactness",
        params={"psi": psi.label, "x0": x0, "p": p, "weight": w.label,
                "nmax": nmax, "threshold": threshold},
        columns=["n", "log_b_n", "log_full_fdb", "log_shortcut",
                 "log_deriv_power", "verdict"])
    log_d, sign_d, first_cross = 0.0, 1, None  # B(0, 0) = 1
    for n in range(1, nmax + 1):
        log_d, sign_d = log_d + psi1.log_abs, sign_d * psi1.sign
        log_b = p * conj(n / p)
        full, power = log_b + log_d, n * psi1.log_abs
        short = log_b + power
        if first_cross is None and power > log_thresh:
            first_cross = n
        report.add_row({"n": n, "log_b_n": log_b, "log_full_fdb": full,
                        "log_shortcut": short, "log_deriv_power": power,
                        "verdict": sign_d == psi1.sign ** n and abs(full - short)
                        <= 1e-10 * max(1.0, abs(short))})
    report.verdict = report.all_hold() and first_cross is not None
    report.first_crossing_index = first_cross
    return report


# ---------------------------------------------------------------------------
# Bounded-derivative chain
# ---------------------------------------------------------------------------

def _witness_probes(y_cap: float):
    """The 200 points of a log grid per decade from 1e-3, decades up to y_cap."""
    lo = 1e-3
    while lo < y_cap:
        hi = lo * 10.0
        yield from GridSpec("log", lo, hi, 200).points()
        lo = hi


def bounded_derivative_chain(d: float, psi: ModelFunction, mmax: int,
                             threshold: float = DEFAULT_THRESHOLD,
                             y_cap: float = 1e12) -> ChainReport:
    """For each m find a witness y_m with |psi'(y_m)| >= 2^(m d) and
    psi(y_m) > 0, bracket x_m = psi(y_m) on the grid x_{m,j} = (j d / m)^d,
    and track the divergent term (2^m / (m e))^(j(m) d).  The targets grow
    with m, so a probe that fails for m fails for m+1 too: the search for m+1
    resumes at y_m."""
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
            raise PreconditionError(
                f"--psi: no y with |psi'(y)| >= 2^(md)={target:g} below "
                f"{y_cap:g} has psi(y) > 0")
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
        raise PreconditionError(f"--dprime: block threshold exceeds {S_CAP}; weights too close")
    # guard against stray non-monotonicity just past the boundary
    if not all(holds(s) for s in range(s0, s0 + 64)):
        raise PreconditionError("--dprime: block boundary not clean; condition not monotone")
    return s0


def negative_chain(d: float, k: float, d_prime: float, jmax: int,
                   threshold: float = DEFAULT_THRESHOLD) -> ChainReport:
    """Loss-of-regularity chain for omega = t^(1/d), sigma = t^(1/d'),
    psi' >= psi^k: block construction, stationary points x_j, and the
    divergent lower bound exp(j - 2 lambda_j L), all checked row by row."""
    if not d <= d_prime < (k + 1) * d:
        raise PreconditionError(
            f"--dprime: need d <= d' < (k+1)d, got d={d:g}, d'={d_prime:g}, "
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
    j_bounds = []  # j_bounds[n] = j_n
    while not j_bounds or j_bounds[-1] < j_bounds[0] + jmax:
        n = len(j_bounds)
        j_bounds.append(max(2 ** n, _block_threshold(c_sigma, c_tilde, L, n + 1)))

    def block_of(j: int) -> int:
        for m in range(1, len(j_bounds)):
            if j_bounds[m - 1] < j <= j_bounds[m]:
                return m
        raise PreconditionError(f"index {j} not covered by blocks")

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
        log_a_j = lam * c_omega(j / lam)
        conv_lhs = log_a_j + st_rhs
        conv_rhs = 2 * lam * c_omega((k + 1) * j / (2 * lam))
        # phi_tilde*(s) = phi_omega*((k+1) s), so shift_lhs equals conv_rhs
        shift_lhs = 2 * lam * c_tilde(j / (2 * lam))
        ok_conv = (conv_lhs >= conv_rhs - NEGATIVE_TOL
                   and abs(conv_rhs - shift_lhs) <= 1e-9 * max(1.0, abs(conv_rhs)))
        block_lhs = 2 * L * lam * c_tilde(j / (2 * L * lam))
        shift_rhs = block_lhs + j - 2 * lam * L
        ok_shift = shift_lhs >= shift_rhs - NEGATIVE_TOL
        block_rhs = c_sigma(j)
        ok_block = block_lhs >= block_rhs - NEGATIVE_TOL
        log_lb = j - 2 * lam * L
        if first_cross is None and log_lb > log_thresh:
            first_cross = j
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
            f"--m, --L: m*L = {m * L} exceeds log(float max); the bound e^(mL)/(e-1) "
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
