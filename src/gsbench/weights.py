"""Weight functions, their defining conditions, and Young conjugates.

A weight is a continuous increasing gauge omega on [0, inf) extended to the
real line by omega(x) = omega(|x|).  The Young conjugate of
phi(t) = omega(e^t) is

    phi*(s) = sup { s t - omega(e^t) : t >= 0 },

computed in closed form for the Gevrey family and by bracketing plus
golden-section search otherwise (phi is convex, so the objective is concave
and unimodal).
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, PreconditionError, RangeError
from .grids import DEFAULT_T_GRID, GridSpec
from .reports import ChainReport, Result

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_REL_TOL = 1e-12  # golden-section stops at this width relative to max(1, b)
BRACKET_T_CAP = 1e8     # numeric phi* gives up bracketing past this t
K_BOUND = 1000          # largest (alpha) constant K accepted
C_BOUND = 1000          # largest (epsilon) constant C accepted
H_BOUND = 10 ** 6       # largest doubling constant H searched
L_BOUND = 64            # largest log-scaling constant L searched


def first_true(holds: Callable[[int], bool], lo: int, hi: int) -> Optional[int]:
    """Smallest integer n in [lo, hi] with holds(n), for a predicate that is
    false then true on [lo, hi] (lo >= 1); None when holds(hi) is false.
    Probes lo, 2 lo, 4 lo, ... (the last probe clamped to hi), then bisects
    the gap between the last failing probe and the first holding one."""
    below, n = lo - 1, lo  # holds(below) is false, or below == lo - 1
    while not holds(n):
        if n >= hi:
            return None
        below, n = n, min(2 * n, hi)
    while n - below > 1:
        mid = (below + n) // 2
        if holds(mid):
            n = mid
        else:
            below = mid
    return n


class WeightFunction:
    """Evaluator for a weight omega(t) with parsed metadata.

    Builtin kinds:
      gevrey(d):  omega(t) = t^(1/d), d > 0
      logpow(s):  omega(t) = (log t)^s for t > 1, else 0; s > 1
      tabulated:  monotone piecewise-linear interpolation in (log t, omega)
      custom:     arbitrary callable (used for associated weights and
                  rescalings); assumed to satisfy the weight conditions
    """

    def __init__(self, kind: str, *, d: float = None, s: float = None,
                 table: tuple = None, fn: Callable[[float], float] = None,
                 label: str = None):
        self.kind = kind
        self.d = d
        self.s = s
        self.label = label or kind
        if kind == "gevrey":
            if d is None or d <= 0:
                raise PreconditionError("gevrey weight requires d > 0")
        elif kind == "logpow":
            if s is None or s <= 1:
                raise PreconditionError("logpow weight requires s > 1")
        elif kind == "tabulated":
            ts, vals = table
            ts = np.asarray(ts, dtype=float)
            vals = np.asarray(vals, dtype=float)
            if ts.ndim != 1 or ts.shape != vals.shape or len(ts) < 2:
                raise PreconditionError("table must be two equal 1-d columns")
            if not np.all(np.diff(ts) > 0):
                raise PreconditionError("table t-column must be strictly increasing")
            if np.any(ts <= 0):
                raise PreconditionError("table t values must be positive")
            if np.any(np.diff(vals) < 0):
                raise PreconditionError("table omega values must be nondecreasing")
            self._log_ts = np.log(ts)
            self._vals = vals
        elif kind == "custom":
            if fn is None:
                raise PreconditionError("custom weight requires a callable")
            self._fn = fn
        else:
            raise PreconditionError(f"unknown weight kind {kind!r}")

    # omega(x) = omega(|x|)
    def __call__(self, t: float) -> float:
        t = abs(float(t))
        if self.kind == "gevrey":
            return t ** (1.0 / self.d)
        if self.kind == "logpow":
            if t <= 1.0:
                return 0.0
            return math.log(t) ** self.s
        if self.kind == "custom":
            return self._fn(t)
        # tabulated
        if t == 0.0:
            lt = -math.inf
        else:
            lt = math.log(t)
        if lt < self._log_ts[0] - 1e-12 or lt > self._log_ts[-1] + 1e-12:
            raise RangeError(
                f"t={t:g} outside tabulated range "
                f"[{math.exp(self._log_ts[0]):g}, {math.exp(self._log_ts[-1]):g}]")
        return float(np.interp(lt, self._log_ts, self._vals))

    def values(self, ts) -> np.ndarray:
        """omega at every t of ts, equal bit for bit to [w(t) for t in ts].
        Powers and logs stay per element in math and **: numpy's vector
        power and log may differ from them in the last bit."""
        ts = np.abs(np.asarray(ts, dtype=float)).tolist()
        if self.kind == "gevrey":
            e = 1.0 / self.d
            return np.array([t ** e for t in ts])
        if self.kind == "logpow":
            return np.array([0.0 if t <= 1.0 else math.log(t) ** self.s for t in ts])
        return np.array([self(t) for t in ts], dtype=float)

    def phi(self, t: float) -> float:
        """phi(t) = omega(e^t); overflow of e^t reported as +inf."""
        try:
            et = math.exp(t)
        except OverflowError:
            return math.inf
        return self(et)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def gevrey(d: float) -> "WeightFunction":
        return WeightFunction("gevrey", d=d, label=f"gevrey:d={d:g}")

    @staticmethod
    def logpow(s: float) -> "WeightFunction":
        return WeightFunction("logpow", s=s, label=f"logpow:s={s:g}")

    @staticmethod
    def tabulated(ts, vals) -> "WeightFunction":
        return WeightFunction("tabulated", table=(ts, vals), label="table")

    @staticmethod
    def custom(fn: Callable[[float], float], label: str = "custom") -> "WeightFunction":
        return WeightFunction("custom", fn=fn, label=label)

    @staticmethod
    def from_csv(path: str) -> "WeightFunction":
        rows = read_table(path, ("t", "x"))
        return WeightFunction.tabulated([t for t, _ in rows],
                                        [v for _, v in rows])


def parse_real(text, spec: str) -> float:
    """A finite float parameter of a mini-language ``spec``."""
    try:
        v = float(text)
    except ValueError:
        raise PreconditionError(f"bad number {text!r} in {spec!r}") from None
    if not math.isfinite(v):
        raise PreconditionError(f"non-finite parameter {text!r} in {spec!r}")
    return v


def read_table(path: str, headers: tuple) -> list:
    """Pairs of finite floats from the first two cells of each CSV row,
    skipping blank rows, '#' comments and rows whose first cell is a header."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")
                    and r[0].strip().lower() not in headers]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise PreconditionError(f"cannot read table {path!r}: {exc}") from None
    if any(len(r) < 2 for r in rows):
        raise PreconditionError(f"every row of {path!r} needs two cells")
    return [(parse_real(r[0], path), parse_real(r[1], path)) for r in rows]


def parse_weight(spec: str) -> WeightFunction:
    """Parse the weight mini-language: gevrey:d=2 | logpow:s=2 | table:file.csv"""
    head, _, rest = spec.partition(":")
    if head == "gevrey":
        key, _, val = rest.partition("=")
        if key != "d":
            raise PreconditionError(f"gevrey spec needs d=<real>, got {spec!r}")
        return WeightFunction.gevrey(parse_real(val, spec))
    if head == "logpow":
        key, _, val = rest.partition("=")
        if key != "s":
            raise PreconditionError(f"logpow spec needs s=<real>, got {spec!r}")
        return WeightFunction.logpow(parse_real(val, spec))
    if head == "table":
        return WeightFunction.from_csv(rest)
    raise PreconditionError(f"unknown weight spec {spec!r}")


def scaled_weight(w: WeightFunction, a: float) -> WeightFunction:
    """sigma(t) = omega(t^(1/a)).  For gevrey(d) this is gevrey(a*d)."""
    if a <= 0:
        raise PreconditionError("scaling exponent must be positive")
    if w.kind == "gevrey":
        return WeightFunction.gevrey(w.d * a)
    return WeightFunction.custom(lambda t, _w=w, _a=a: _w(t ** (1.0 / _a)),
                                 label=f"{w.label}^(1/{a:g})")


class ConjugateEvaluator:
    """Young conjugate phi*(s) with a per-s cache.

    method "closed-form" is available for the Gevrey family:
        phi*(s) = s d log(s d / e)   if s d >= 1
        phi*(s) = -1                 if s d <= 1 (maximizer pinned at t = 0)
    method "numeric-sup" maximizes the concave t -> s t - omega(e^t) by
    geometric bracketing plus golden-section refinement.
    """

    def __init__(self, weight: WeightFunction, method: str = None):
        if method is None:
            method = "closed-form" if weight.kind == "gevrey" else "numeric-sup"
        if method == "closed-form" and weight.kind != "gevrey":
            raise PreconditionError("closed form only available for gevrey weights")
        self.weight = weight
        self.method = method
        self._cache: dict = {}

    def __call__(self, s: float) -> float:
        if not s >= 0:  # also rejects NaN
            raise PreconditionError(f"conjugate argument must be >= 0, got {s}")
        v = self._cache.get(s)
        if v is None:
            if self.method == "closed-form":
                v = self._closed_form(s)
            else:
                v = self._numeric_sup(s)
            self._cache[s] = v
        return v

    def _closed_form(self, s: float) -> float:
        sd = s * self.weight.d
        if sd <= 1.0:
            return -1.0
        return sd * (math.log(sd) - 1.0)

    def _objective(self, s: float, t: float) -> float:
        p = self.weight.phi(t)
        if math.isinf(p):
            return -math.inf
        return s * t - p

    def _numeric_sup(self, s: float) -> float:
        g = lambda t: self._objective(s, t)
        # expand until the objective has turned down
        hi = 1.0
        while g(hi) >= g(hi / 2.0):
            hi *= 2.0
            if hi > BRACKET_T_CAP:
                raise BracketError(
                    f"no bracket for s={s:g} below t={BRACKET_T_CAP:g}; "
                    "weight appears to violate condition (gamma)")
        a, b = 0.0, hi
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = g(c), g(d)
        while (b - a) > GOLDEN_REL_TOL * max(1.0, b):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = g(d)
        t_star = 0.5 * (a + b)
        return max(g(t_star), g(0.0))


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

@dataclass
class ConditionRecord:
    condition: str
    verdict: bool
    witness: Optional[dict] = None
    detail: dict = field(default_factory=dict)


@dataclass
class WeightConditionReport(Result):
    weight: str
    grid: str
    alpha: ConditionRecord
    beta: ConditionRecord
    gamma: ConditionRecord
    delta: ConditionRecord
    epsilon: ConditionRecord
    doubling: ConditionRecord

    def records(self) -> list:
        return [self.alpha, self.beta, self.gamma, self.delta,
                self.epsilon, self.doubling]

    @property
    def verdict(self) -> bool:
        return all(r.verdict for r in self.records())

    def to_dict(self) -> dict:
        return {"weight": self.weight, "grid": self.grid,
                "conditions": [asdict(r) for r in self.records()]}


def _integral(f: Callable[[float], float], a: float, b: float) -> tuple:
    """(value, abs_error, ok) of quad for a nonnegative integrand: not ok when
    quad warns (e.g. a divergent integral) or the value is negative."""
    from scipy.integrate import IntegrationWarning, quad  # lazy: only weight-check integrates
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        v, e = quad(f, a, b, limit=200)
    warned = any(issubclass(c.category, IntegrationWarning) for c in caught)
    return v, e, not warned and v >= 0.0


def check_weight_conditions(w: WeightFunction, grid: GridSpec = None) -> WeightConditionReport:
    """Numerically audit Definition-level conditions (alpha)-(epsilon) plus the
    doubling inequality 2 omega(t) <= omega(H t) + H.

    Witness constants are the smallest integers that satisfy the inequality at
    every grid point; failures are recorded in the report, never raised.
    """
    if grid is None:
        grid = DEFAULT_T_GRID
    ts = np.concatenate([[0.0], grid.points()])
    om = w.values(ts)

    # (alpha): omega(2t) <= K (omega(t) + 1)
    om2 = w.values(2.0 * ts)
    k_req = math.ceil(np.max(om2 / (om + 1.0)) - 1e-12)
    alpha = ConditionRecord(
        "alpha", k_req <= K_BOUND,
        witness={"K": int(k_req)} if k_req <= K_BOUND else None,
        detail={"max_ratio": float(np.max(om2 / (om + 1.0)))})

    # (beta): integral of omega(t)/(1+t^2), split at t = 1
    f = lambda t: w(t) / (1.0 + t * t)
    (v1, e1, ok1), (v2, e2, ok2) = _integral(f, 0.0, 1.0), _integral(f, 1.0, np.inf)
    beta_val, beta_err = v1 + v2, e1 + e2
    beta = ConditionRecord("beta", ok1 and ok2 and math.isfinite(beta_val)
                           and beta_err < 1e-8 * max(1.0, beta_val),
                           witness={"integral": float(beta_val)},
                           detail={"abs_error": float(beta_err)})

    # (gamma): log(1+t^2) = o(omega(t)) -- ratio trend only
    tail = [t for t in grid.points() if t >= 10.0]
    samples = [(float(t), float(w(t) / math.log1p(t * t))) for t in tail[:: max(1, len(tail) // 12)]]
    ratios = [r for _, r in samples]
    gamma = ConditionRecord("gamma", bool(ratios and ratios[-1] > ratios[0]),
                            detail={"ratio_samples": samples,
                                    "note": "little-o not certifiable from finite samples"})

    # (delta): midpoint convexity of phi(t) = omega(e^t) on a t-grid
    tgrid = np.linspace(0.0, math.log(grid.hi), 400)
    ph = np.array([w.phi(t) for t in tgrid])
    mid = np.array([w.phi(0.5 * (tgrid[i] + tgrid[i + 2])) for i in range(len(tgrid) - 2)])
    viol = int(np.sum(mid > 0.5 * (ph[:-2] + ph[2:]) + 1e-9 * (1.0 + np.abs(ph[:-2]) + np.abs(ph[2:]))))
    delta = ConditionRecord("delta", viol == 0, detail={"violations": viol})

    # (epsilon): int_1^inf omega(y t)/t^2 dt <= C omega(y) + C
    ys = np.logspace(math.log10(max(grid.lo, 1e-2)), math.log10(grid.hi), 30)
    c_req, clean = 0.0, True
    for y in ys:
        val, _, ok = _integral(lambda t: w(y * t) / (t * t), 1.0, np.inf)
        c_req = max(c_req, val / (w(y) + 1.0))
        clean = clean and ok
    c_int = math.ceil(c_req - 1e-12)
    eps_ok = clean and c_int <= C_BOUND
    epsilon = ConditionRecord("epsilon", eps_ok,
                              witness={"C": int(c_int)} if eps_ok else None,
                              detail={"max_ratio": float(c_req)})

    # doubling: 2 omega(t) <= omega(H t) + H; monotone in H
    h_witness = first_true(
        lambda H: bool(np.all(2.0 * om <= w.values(H * ts) + H + 1e-12)),
        1, H_BOUND)
    doubling = ConditionRecord(
        "doubling", h_witness is not None,
        witness={"H": int(h_witness)} if h_witness is not None else None,
        detail={"search_bound": H_BOUND})

    return WeightConditionReport(weight=w.label, grid=grid.spec_string(),
                                 alpha=alpha, beta=beta, gamma=gamma,
                                 delta=delta, epsilon=epsilon, doubling=doubling)


# ---------------------------------------------------------------------------
# Log-scaling constant and the seminorm-shift inequality
# ---------------------------------------------------------------------------

def find_log_scaling_constant(w: WeightFunction, grid: GridSpec = None) -> int:
    """Smallest integer L with omega(e t) <= L (1 + omega(t)) on the grid."""
    if grid is None:
        grid = DEFAULT_T_GRID
    ts = np.concatenate([[0.0], grid.points()])
    ratios = (w.values(math.e * ts) / (1.0 + w.values(ts))).tolist()
    L = math.ceil(max(ratios) - 1e-12)
    if L > L_BOUND:
        raise BracketError(f"no L <= {L_BOUND} scales the weight (max ratio {max(ratios):g})")
    return max(1, L)


def verify_log_scaling_constant(w: WeightFunction, L: int,
                                grid: GridSpec = None) -> None:
    """Raise with a witness t if omega(e t) <= L (1 + omega(t)) fails."""
    if grid is None:
        grid = DEFAULT_T_GRID
    for t in np.concatenate([[0.0], grid.points()]):
        if w(math.e * t) > L * (1.0 + w(t)) + 1e-9:
            raise PreconditionError(
                f"L={L} invalid: omega(e*t)={w(math.e * t):g} > "
                f"L(1+omega(t))={L * (1.0 + w(t)):g} at t={t:g}")


def conjugate_shift_bound(c: ConjugateEvaluator, lam: float, N: int, L: int,
                          jmax: int, tol: float = 1e-9,
                          grid: GridSpec = None) -> ChainReport:
    """Row-by-row check of the conjugate shift inequality

        mu phi*(j/mu) + N j <= lam phi*(j/lam) + lam sum_{k=1}^N L^k

    with mu = L^N lam, after verifying that L scales the weight."""
    verify_log_scaling_constant(c.weight, L, grid)
    mu = (L ** N) * lam
    slack = lam * sum(L ** k for k in range(1, N + 1))
    report = ChainReport(
        experiment="conjugate-shift",
        params={"weight": c.weight.label, "lambda": lam, "N": N, "L": L,
                "mu": mu, "jmax": jmax, "tol": tol},
        columns=["j", "lhs", "rhs", "margin", "verdict"])
    for j in range(jmax + 1):
        lhs = mu * c(j / mu) + N * j
        rhs = lam * c(j / lam) + slack
        ok = lhs <= rhs + tol
        report.add_row({"j": j, "lhs": lhs, "rhs": rhs,
                        "margin": rhs - lhs, "verdict": ok})
    report.verdict = report.all_hold()
    return report


@dataclass
class FactorialDominationResult:
    log_C: float
    C: float
    argmax_j: int


def factorial_domination(c: ConjugateEvaluator, A: float, lam: float,
                         jmax: int) -> FactorialDominationResult:
    """Witness C for A^j j! <= C exp(lam phi*(j/lam)), via a log-domain scan."""
    best, best_j = -math.inf, 0
    logA = math.log(A)
    for j in range(jmax + 1):
        v = j * logA + math.lgamma(j + 1) - lam * c(j / lam)
        if v > best:
            best, best_j = v, j
    C = math.exp(best) if best < 700 else math.inf
    return FactorialDominationResult(log_C=best, C=C, argmax_j=best_j)
