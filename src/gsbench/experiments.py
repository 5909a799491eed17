"""Quantitative proof skeletons as verifiable inequality chains.

Each experiment evaluates the named factors of one argument row by row in log
domain, records a verdict per row, and reports whether the chain's divergent
lower bound crossed the configured threshold.  Nothing here claims proof-level
verification; the chains are checked at finite index ranges only.  The
composed seminorm sup checks no box: it scans the jet table it is given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .fdb import log_bell_table, log_compose_table
from .functions import ModelFunction, Polynomial, mirrored_half, weighted_log_sup
from .grids import DEFAULT_X_GRID, GridSpec
from .logdomain import LOG_ZERO, LogReal
from .reports import ChainReport, Result
from .weights import ConjugateEvaluator, WeightFunction, weight_values
# the scalar chains live in the numpy-free ``chains``; callers may name them here
from .chains import DEFAULT_THRESHOLD, negative_chain, nuclearity_sum

EQUICONT_J = 16          # derivative orders in the equicontinuity spot checks
NECESSARY_BLOCK = 64     # grid points per necessary_growth block


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
            f"--x0: |psi'(x0)| = {abs(psi_jet.entry_float(1)):g} <= 1 at x0={x0:g}; "
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
            raise PreconditionError(
                f"--psi: no y with |psi'(y)| >= 2^(md)={target:g} below {y_cap:g}")
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
    even or odd psi, only the grid's rows x <= 0 are read (``mirrored_half``)."""
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
        # a witness at j <= jmax // 2 is the half sup's too, bit for bit
        growing = at is not None and at[1] > jmax // 2 and best > weighted_log_sup(
            tables[:, :jmax // 2 + 1], conj, m, extra=lp)[0] + 1e-6
        witness = None if at is None else {"j": at[1], "x": float(xs[at[0]])}
        rep.per_m[int(m)] = {"log_C_m": best, "witness": witness,
                             "growing": growing}
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
    stable: Optional[bool] = None  # always None: no box is checked


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
                            Jmax: int, Qmax: int, jq_cap: int = None, *,
                            jet_table: np.ndarray,
                            xs: Sequence[float]) -> ComposedSeminormResult:
    """sup over (j <= Jmax, q <= Qmax, j + q <= jq_cap, x of xs) of
    |x^q (f o psi)^(j)(x)| exp(-m phi_sigma*((j+q)/m)), in log domain, read
    off jet_table, one row per point of xs (``composed_jet_log_table``).
    For even or odd f o psi on a mirrored xs, only the rows x <= 0 are read:
    the table's first rows (``mirrored_half``)."""
    jq_cap = Jmax + Qmax if jq_cap is None else jq_cap
    if len(jet_table) != len(xs):
        raise PreconditionError(f"jet_table has {len(jet_table)} rows for "
                                f"{len(xs)} points: one row per point")
    xs = mirrored_half(xs, composed_parity(f, psi))
    best, at = weighted_log_sup(np.asarray(jet_table)[:len(xs), :Jmax + 1],
                                ConjugateEvaluator(sigma), m, xs, Qmax, jq_cap)
    witness = None if at is None else {"j": at[1], "q": at[2], "x": float(xs[at[0]])}
    return ComposedSeminormResult(f.label, psi.label, sigma.label, m,
                                  grid.spec_string(), jq_cap, best, witness)


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
    with a trend flag comparing against the inner half-radius maximum.  For
    even or odd psi, only the grid's rows x <= 0 are read, as
    ``mirrored_half`` takes them.

    The points go in blocks of NECESSARY_BLOCK, bounded before any point is
    made (``_ratio_bounds``).  The blocks of bound +inf and of the largest
    bound are read first, then all whose bound is not below the inner max:
    C, argmax_x (the first max in order) and the flag are the full scan's,
    and a refusal names the first block in order that overflows."""
    count, points = grid.symmetric_points_at()
    if psi.parity is not None:  # the rows x <= 0
        count = count // 2 + 1
    starts = np.arange(0, count, NECESSARY_BLOCK)
    ends = np.minimum(starts + NECESSARY_BLOCK, count)
    x0, x1 = points(starts), points(ends - 1)
    bound, half = _ratio_bounds(psi, w_sigma, w_omega, x0, x1), grid.hi / 2.0
    first = np.isinf(bound)
    first[np.where(first, -math.inf, bound).argmax()] = True
    best, best_at, best_x, inner_best = -math.inf, count, 0.0, -math.inf
    for rest in (False, True):  # a block below inner_best <= best holds no max
        ks = np.flatnonzero(~first & ~(bound < inner_best) if rest else first)
        if not len(ks):
            break
        at = np.concatenate([np.arange(starts[k], ends[k]) for k in ks])
        xb = points(at)
        try:
            ratio = _ratios(psi, w_sigma, w_omega, xb)
        except PreconditionError:  # refused at the first block that overflows
            for k in ks:
                _ratios(psi, w_sigma, w_omega, points(np.arange(starts[k], ends[k])))
            raise
        i = int(ratio.argmax())
        if ratio[i] > best or ratio[i] == best > -math.inf and at[i] < best_at:
            best, best_at, best_x = float(ratio[i]), at[i], float(xb[i])
        inner_best = max(inner_best,
                         float(ratio[np.abs(xb) <= half].max(initial=-math.inf)))
    return NecessaryGrowthResult(psi=psi.label, sigma=w_sigma.label,
                                 omega=w_omega.label, C=best, argmax_x=best_x,
                                 grows_with_radius=best > inner_best + 1e-9)


def _ratios(psi, w_sigma, w_omega, xs) -> np.ndarray:
    """sigma(x) / (1 + omega(psi(x))) at each x of xs; -inf for NaN."""
    sigma = weight_values(w_sigma, xs, "--sigma")
    omega = weight_values(w_omega, psi.values(xs), "--omega")
    with np.errstate(invalid="ignore", divide="ignore"):  # inf / inf, x / 0
        ratio = sigma / (1.0 + omega)
    ratio[np.isnan(ratio)] = -math.inf  # a NaN ratio never wins
    return ratio


def _ratio_bounds(psi, w_sigma, w_omega, x0, x1) -> np.ndarray:
    """Per block x0 <= x <= x1, a bound on its ratios: sigma's upper envelope
    at max |x| over 1 + omega's lower one at a polynomial psi's abs_lower,
    else 0 (division rounds monotonically).  +inf where sigma's is negative
    or infinite, 1 + omega's not positive or the bound NaN; everywhere where
    a weight has no envelope, one overflows, or omega may: unless omega at
    the largest float is below 2^1023."""
    b = np.maximum(np.abs(x0), np.abs(x1))
    try:
        m = psi.abs_lower(x0, x1) if isinstance(psi, Polynomial) else np.zeros(len(b))
        sig, om = w_sigma.envelope(b, True), w_omega.envelope(m, False)
        if sig is None or om is None or not w_omega(np.finfo(float).max) < 2.0 ** 1023:
            return np.full(len(b), math.inf)
    except OverflowError:  # near a refusal: every block, in order
        return np.full(len(b), math.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        bound = sig / (1.0 + om)
        keep = (sig >= 0) & np.isfinite(sig) & (1.0 + om > 0) & ~np.isnan(bound)
    return np.where(keep, bound, math.inf)


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
                            f: ModelFunction,
                            grid: GridSpec = None) -> EquicontinuityResult:
    """C_n = sup_j exp((-lambda_j + m) omega(x_j) + m) with m = K n, plus spot
    checks that the scaled translations satisfy
    pi_{n,n}(U_j f) <= C_n pi_{m,m}(f) on a finite box."""
    if len(x_seq) != len(lambda_seq) or not x_seq:
        raise PreconditionError("--x-seq, --lam-seq: need equal-length, nonempty sequences")
    m = K * n
    omegas = weight_values(w, x_seq, "--weight").tolist()  # omega(x_j)
    vs = [(-lam_j + m) * w_j + m for w_j, lam_j in zip(omegas, lambda_seq)]
    best = max(vs)  # log C_n, first attained at j = argmax_j
    result = EquicontinuityResult(
        log_C_n=best, C_n=LogReal(1, best).to_float(),
        argmax_j=vs.index(best) + 1, m=m,
        lambda_warning=all(lam <= m for lam in lambda_seq))

    conj = ConjugateEvaluator(w)
    us = (grid or DEFAULT_X_GRID).symmetric_points()
    logs_f = f.log_jet_table(us, EQUICONT_J)[1]
    # pi_{m,m}(f) on the box: its rows x <= 0 for even or odd f
    half = mirrored_half(us, f.parity)
    pi_m, _ = weighted_log_sup(logs_f[:len(half)], conj, m,
                               extra=weight_values(w, half, "--weight", m, "--K"))
    for j in sorted({1, len(x_seq) // 2 + 1, len(x_seq)}):
        x_j, lam_j = x_seq[j - 1], lambda_seq[j - 1]
        # pi_{n,n} of the translate, read at the translated argument
        with np.errstate(over="ignore"):
            moved = us + x_j
        if not np.isfinite(moved).all():
            raise PreconditionError(
                f"--x-seq: the translate u + x_j of the grid's |u| <= "
                f"{float(np.abs(us).max()):g} by x_j = {x_j:g} overflows a float")
        pi_n, _ = weighted_log_sup(logs_f, conj, n, extra=weight_values(
            w, moved, "--weight", n, "--n"))
        lhs = pi_n - lam_j * omegas[j - 1]
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
        raise PreconditionError(
            f"--psi: {psi.label} carries no analyticity metadata; Cauchy bound n/a")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"--delta: delta must lie in (0, 1), got {delta:g}")
    # for even or odd psi, the rows x <= 0 only (``mirrored_half``): each
    # x > 0 row repeats its twin, which comes first in (x, j) order
    xs = [x for x in mirrored_half(x_grid.symmetric_points(), psi.parity).tolist()
          if abs(x) >= 1.0]
    if not xs:
        raise PreconditionError("--grid: the grid must contain points with |x| >= 1")
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
