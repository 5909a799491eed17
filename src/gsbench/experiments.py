"""Quantitative proof skeletons as verifiable inequality chains.

Each experiment evaluates the named factors of one argument row by row in log
domain, records a verdict per row, and reports whether the chain's divergent
lower bound crossed the configured threshold.  Nothing here claims proof-level
verification; the chains are checked at finite index ranges only.  The
composed seminorm sup checks no box: it scans the jet table it is given.

This module holds the experiments that build arrays (sufficient, necessary,
equicont, cauchy and the composed tables and sups).  The four scalar chains,
compactness, bounded, negative and nuclear, build none: they live in the
numpy-free ``chains`` and are re-exported here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .functions import (ModelFunction, Polynomial, composed_taylor_table,
                        mirrored_half, pruned_max, weighted_log_sup)
from .grids import DEFAULT_X_GRID, GridSpec
from .logdomain import LOG_ZERO, LogReal
from .reports import Result
from .weights import ConjugateEvaluator, WeightFunction, weight_values
# the four scalar chains live in the numpy-free ``chains``; callers may name
# them here
from .chains import (DEFAULT_THRESHOLD, bounded_derivative_chain,
                     compactness_blowup, negative_chain, nuclearity_sum)

EQUICONT_J = 16          # derivative orders in the equicontinuity spot checks
NECESSARY_BLOCK = 64     # grid points per necessary_growth block


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
    order j = 0..J (``composed_taylor_table``).  For even or odd f o psi on
    mirrored xs, only the rows x <= 0 are built and mirrored: at -x every term
    is negated or kept exactly, and so is its sum, so the logs match."""
    xs = np.asarray(xs, dtype=float)
    half = mirrored_half(xs, composed_parity(f, psi))
    t = composed_taylor_table(f, psi, half, J)[1]
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
    made (``_ratio_bounds``) and read by ``pruned_max``, the inner max its
    floor: C, argmax_x and the flag are the full scan's."""
    count, points = grid.symmetric_points_at()
    if psi.parity is not None:  # the rows x <= 0
        count = count // 2 + 1
    starts = np.arange(0, count, NECESSARY_BLOCK)
    ends = np.minimum(starts + NECESSARY_BLOCK, count)

    def read(ks):
        at = np.concatenate([np.arange(starts[k], ends[k]) for k in ks])
        xs = points(at)
        sigma = weight_values(w_sigma, xs, "--sigma")
        omega = weight_values(w_omega, psi.values(xs), "--omega")
        with np.errstate(invalid="ignore", divide="ignore"):  # inf / inf, x / 0
            ratio = sigma / (1.0 + omega)
        ratio[np.isnan(ratio)] = -math.inf  # a NaN ratio never wins
        i = int(ratio.argmax())
        return (float(ratio[i]), (int(at[i]), float(xs[i])),
                float(ratio[np.abs(xs) <= grid.hi / 2.0].max(initial=-math.inf)))

    bound = _ratio_bounds(psi, w_sigma, w_omega, points(starts), points(ends - 1))
    best, at, inner_best = pruned_max(bound, read, len(starts))
    return NecessaryGrowthResult(psi=psi.label, sigma=w_sigma.label,
                                 omega=w_omega.label, C=best,
                                 argmax_x=0.0 if at is None else at[1],
                                 grows_with_radius=best > inner_best + 1e-9)


def _ratio_bounds(psi, w_sigma, w_omega, x0, x1) -> np.ndarray:
    """Per block x0 <= x <= x1, a bound on its ratios: sigma's upper envelope
    at max |x| over 1 + omega's lower one at |psi|'s lower enclosure
    (``abs_bounds``; 0 for psi not polynomial), as division rounds
    monotonically.  +inf where sigma's is negative or infinite, 1 + omega's
    not positive, or omega may overflow: where neither omega at the largest
    float nor its upper envelope at |psi|'s upper enclosure is below 2^1023;
    everywhere where a weight has no envelope or one overflows."""
    b = np.maximum(np.abs(x0), np.abs(x1))
    try:
        m, top = (psi.abs_bounds(x0, x1) if isinstance(psi, Polynomial)
                  else (np.zeros(len(b)), np.full(len(b), math.inf)))
        sig, om = w_sigma.envelope(b, True), w_omega.envelope(m, False)
        if sig is None or om is None:
            return np.full(len(b), math.inf)
        try:
            fits = w_omega(np.finfo(float).max) < 2.0 ** 1023
        except OverflowError:
            fits = False
        fits = fits or w_omega.envelope(top, True) < 2.0 ** 1023
    except OverflowError:  # near a refusal: every block, in order
        return np.full(len(b), math.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        bound = sig / (1.0 + om)
        keep = fits & (sig >= 0) & np.isfinite(sig) & (1.0 + om > 0)
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
