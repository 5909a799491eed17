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

from .errors import CapabilityError, PreconditionError, SearchExhaustedError
from .fdb import log_bell_table, log_compose_table
from .functions import (ModelFunction, box_size, mirrored_half, stable_sup,
                        weighted_log_sup)
from .grids import DEFAULT_X_GRID, GridSpec
from .logdomain import LOG_ZERO
from .reports import ChainReport, Result
from .weights import ConjugateEvaluator, WeightFunction
# the scalar chains live in the numpy-free ``chains``; callers may name them here
from .chains import DEFAULT_THRESHOLD, negative_chain, nuclearity_sum

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
    and |psi'(x0)|^n must cross the divergence threshold.

    A jet concentrated at order n composes to b_n B(n, n), so the full
    column reads the diagonal of one Bell table of psi's jet,
    log b_n + log|B(n, n)|, and the shortcut column is
    log b_n + n log|psi'(x0)|, each with its sign."""
    try:
        psi_jet = psi.jet(x0, nmax).to_log()
    except OverflowError:
        raise PreconditionError(
            f"--x0: psi's jet at x0={x0:g} overflows a float") from None
    psi_sign = np.array([[v.sign for v in psi_jet.values]], dtype=float)
    psi_log = np.array([[v.log_abs for v in psi_jet.values]])
    if psi_sign[0, 1] == 0 or psi_log[0, 1] <= 0.0:
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
    ns = np.arange(1, nmax + 1)
    log_b = np.array([p * conj(n / p) for n in ns.tolist()])
    b_sign, b_log = log_bell_table(psi_sign.T, psi_log.T, nmax)
    full_sign, full = b_sign[ns, ns, 0], log_b + b_log[ns, ns, 0]
    power = ns * psi_log[0, 1]
    short_sign, short = psi_sign[0, 1] ** ns, log_b + power
    agree = (full_sign == short_sign) & (
        np.abs(full - short) <= 1e-10 * np.maximum(1.0, np.abs(short)))
    crossed = np.flatnonzero(power > log_thresh)
    for row in zip(ns.tolist(), log_b.tolist(), full.tolist(), short.tolist(),
                   power.tolist(), agree.tolist()):
        report.add_row(dict(zip(report.columns, row)))
    report.verdict = report.all_hold() and len(crossed) > 0
    report.first_crossing_index = int(ns[crossed[0]]) if len(crossed) else None
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


def _c0_term(x: float, v: float, a: float) -> float:
    """|x| / (1 + |v|)^a; in logs where the power overflows."""
    try:
        return abs(x) / (1.0 + abs(v)) ** a
    except OverflowError:
        return math.exp(math.log(abs(x)) - a * math.log1p(abs(v))) if x else 0.0


def sufficient_condition_check(psi: ModelFunction, w: WeightFunction, a: float,
                               m_list: Sequence[int], grid: GridSpec,
                               jmax: int) -> SufficientConditionReport:
    """Measure C0 in |x| <= C0 (1+|psi(x)|)^a and, for each m, the minimal C_m
    dominating |psi^(j)(x)| by exp(m phi_sigma*(j/m)) (1+|psi(x)|)^p with
    sigma(t) = omega(t^(1/a)) and p = a-1.  A growing C_m trend across the
    upper half of the order range flags a likely failure.  No sigma is built:
    phi_sigma(u) = phi_omega(u/a), so phi_sigma*(s) = phi_omega*(a s).  For
    even or odd psi, only the grid's rows x <= 0 are read (``stable_sup``)."""
    if not a > 0:
        raise PreconditionError(f"--a: the scaling exponent must be > 0, got {a:g}")
    conj_omega = ConjugateEvaluator(w)
    conj = lambda s: conj_omega(a * s)
    p = a - 1.0
    xs = mirrored_half(grid.symmetric_points(), psi.parity)
    psis = psi.values(xs).tolist()
    c0 = max(_c0_term(x, v, a) for x, v in zip(xs.tolist(), psis))
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


def composed_parity(f: ModelFunction, psi: ModelFunction):
    """The parity of f o psi: even for even psi, f's for odd psi, else None."""
    return 0 if psi.parity == 0 else f.parity if psi.parity == 1 else None


def composed_jet_log_table(f: ModelFunction, psi: ModelFunction,
                           xs: Sequence[float], J: int) -> np.ndarray:
    """log |(f o psi)^(j)(x)|, one row per grid point x and one column per
    order j = 0..J, via full FdB: one jet table of psi over xs and one of f
    over psi(xs), composed by one ``log_compose_table``.  For even or odd
    f o psi on mirrored xs, only the rows x <= 0 are composed and mirrored:
    at -x every Bell and contraction term is negated or kept exactly, and a
    TwoSum tree of negated terms sums to the negated sum, so the logs match."""
    xs = np.asarray(xs, dtype=float)
    half = mirrored_half(xs, composed_parity(f, psi))
    t = log_compose_table(*f.log_jet_table(psi.values(half), J),
                          *psi.log_jet_table(half, J), J)[1]
    return t if len(half) == len(xs) else np.concatenate([t, t[-2::-1]])


def composed_seminorm_bound(f: ModelFunction, psi: ModelFunction,
                            sigma: WeightFunction, m: int, grid: GridSpec,
                            Jmax: int, Qmax: int, jq_cap: int = None,
                            jet_table: np.ndarray = None,
                            xs: Sequence[float] = None) -> ComposedSeminormResult:
    """sup over (j <= Jmax, q <= Qmax, grid x) of
    |x^q (f o psi)^(j)(x)| exp(-m phi_sigma*((j+q)/m)), in log domain.

    A precomputed jet_table over xs (the grid's symmetric points by default),
    one row per point, or xs alone, is scanned as it is; else stable_sup
    checks its own box.  For even or odd f o psi, only the rows x <= 0 of a
    mirrored xs or box are read (``stable_sup``): a table's first rows."""
    jq_cap = Jmax + Qmax if jq_cap is None else jq_cap
    xs = grid.symmetric_points() if jet_table is not None and xs is None else xs
    if jet_table is None and xs is None:  # its own box
        box_size(Jmax, f, psi)
    if jet_table is not None and len(jet_table) != len(xs):
        raise PreconditionError(f"jet_table has {len(jet_table)} rows for "
                                f"{len(xs)} points: one row per point")
    conj = ConjugateEvaluator(sigma)
    return ComposedSeminormResult(
        f.label, psi.label, sigma.label, m, grid.spec_string(), jq_cap, *stable_sup(
            lambda pts, J: (composed_jet_log_table(f, psi, pts, J) if jet_table is None
                            else np.asarray(jet_table)[:len(pts), :J + 1]),
            lambda logs, pts, Q, cap: weighted_log_sup(logs, conj, m, pts, Q, cap),
            grid, (Jmax, Qmax, jq_cap), "q", xs, composed_parity(f, psi)))


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


def _weight_values(w: WeightFunction, ts, flag: str) -> np.ndarray:
    try:
        return w.values(ts)
    except OverflowError:
        raise PreconditionError(
            f"{flag}: {w.label} overflows a float on the grid, at "
            f"|t| <= {float(np.abs(ts).max()):g}") from None


def necessary_growth(psi: ModelFunction, w_sigma: WeightFunction,
                     w_omega: WeightFunction,
                     grid: GridSpec) -> NecessaryGrowthResult:
    """Measured C = max over the grid of sigma(x) / (1 + omega(psi(x))),
    with a trend flag comparing against the inner half-radius maximum.  For
    even or odd psi, only the grid's rows x <= 0 are read (``stable_sup``)."""
    xs = grid.symmetric_points()
    c = len(xs) // 2  # xs[c] = 0 and xs[c + i] = -xs[c - i]
    xs = mirrored_half(xs, psi.parity)
    sig = np.empty(c + 1)
    best, best_x, inner_best = -math.inf, 0.0, -math.inf
    half = grid.hi / 2.0
    # blocks keep the arrays small on large grids; a NaN ratio never wins
    for lo in range(0, len(xs), NECESSARY_BLOCK):
        xb = xs[lo:lo + NECESSARY_BLOCK]
        # sigma(x) = sigma(|x|): evaluated at x <= 0, mirrored past x = 0
        k = min(lo + NECESSARY_BLOCK, c + 1)
        sig[lo:k] = _weight_values(w_sigma, xs[lo:k], "--sigma")
        sigma = sig[c - np.abs(np.arange(lo, lo + len(xb)) - c)]
        omega = _weight_values(w_omega, psi.values(xb), "--omega")
        with np.errstate(invalid="ignore"):  # inf / inf
            ratio = sigma / (1.0 + omega)
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
        conj = ConjugateEvaluator(w)
        us = (grid or DEFAULT_X_GRID).symmetric_points()
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
    logs = psi.log_jet_table(xs, jmax)[1]
    j = np.arange(jmax + 1)
    lgam = np.array([math.lgamma(i + 1) for i in j.tolist()])
    log1p_x = np.array([math.log1p(abs(x) + delta * abs(x)) for x in xs])
    log_r = np.array([math.log(delta * abs(x)) for x in xs])
    pred = lgam + log1p_x[:, None] - j * log_r[:, None]
    live = logs > LOG_ZERO  # False at NaN too: a NaN entry is never the max
    lb = np.where(live, (logs - lgam) / (j + 1), -math.inf)
    i = int(lb.argmax())  # the first strict maximum in (x, j) order
    best = float(lb.flat[i])
    witness = (None if best == -math.inf
               else {"j": i % (jmax + 1), "x": xs[i // (jmax + 1)]})
    excess = float(np.where(live, logs - pred, -math.inf).max())
    try:
        B = math.exp(best)
    except OverflowError:
        raise PreconditionError(
            f"--psi: the measured B = e^{best:g} of {psi.label} overflows a "
            "float") from None
    return CauchyBoundResult(psi=psi.label, delta=delta,
                             B=B, log_B=best, witness=witness,
                             max_excess_vs_prediction=excess)
