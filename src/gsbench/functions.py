"""Model-function library: values, exact/high-order jets, seminorms.

Every seminorm sup runs through one kernel, ``weighted_log_sup``: the max over
grid points x, orders j and powers k of
log|f^(j)(x)| - lam phi*((j+k)/lam) + k log|x| + extra(x).

Jet strategy per family:
  * polynomial, monomial bump at 0, gaussian/expsqr at 0: exact rationals
  * gaussian/expsqr elsewhere: Hermite-type three-term recurrence in signed
    log domain
  * sqrt(1+x^2) and (1+x^2)^a: recurrences from their algebraic first-order
    ODE (1+x^2) f' = 2a x f
  * compactly supported bump: recurrences for the inner rational power
    composed with exp, capped at order 40
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CapabilityError, DegenerateInputError, PreconditionError
from .fdb import Jet
from .grids import GridSpec
from .logdomain import LOG_ZERO, LogReal
from .reports import Result
from .weights import ConjugateEvaluator, WeightFunction, parse_real

_CLOSED_FORM_JMAX = 200
_BUMP_JMAX = 40


class ModelFunction:
    """Base: value(x) plus jet(x, J); families override both."""

    label = "model"
    analytic: Optional[str] = None  # "cone" | "strip" | None

    def value(self, x: float) -> float:
        raise NotImplementedError

    def jet(self, x, J: int) -> Jet:
        raise NotImplementedError

    def _check_order(self, J: int, cap: int) -> None:
        if J > cap:
            raise CapabilityError(
                f"{self.label}: jets supported up to order {cap}, asked {J}")


def _ode_recurrence_jet(x: float, J: int, f0: LogReal, f1: LogReal,
                        two_a: float) -> Jet:
    """Jet from (1+x^2) f' = two_a * x * f via the Leibniz recurrence

        f^(n+1) = [ (two_a - 2n) x f^(n) + n (two_a - n + 1) f^(n-1) ] / (1+x^2)
    """
    inv = -math.log1p(x * x)  # log of 1/(1+x^2)
    vals = [f0, f1]
    cx = LogReal.from_float(x)
    for n in range(1, J):
        t1 = LogReal.from_float(two_a - 2.0 * n) * cx * vals[n]
        t2 = LogReal.from_float(n * (two_a - n + 1.0)) * vals[n - 1]
        vals.append((t1 + t2).scaled(inv))
    return Jet.from_logreals(x, vals[: J + 1])


class Gaussian(ModelFunction):
    """f(x) = exp(-x^2)."""

    label = "gaussian"

    def value(self, x: float) -> float:
        return math.exp(-x * x)

    def jet(self, x, J: int) -> Jet:
        self._check_order(J, _CLOSED_FORM_JMAX)
        if x == 0:
            vals = []
            for j in range(J + 1):
                if j % 2:
                    vals.append(Fraction(0))
                else:
                    m = j // 2
                    vals.append(Fraction((-1) ** m * math.factorial(j)
                                         // math.factorial(m)))
            return Jet.from_rationals(0, vals)
        x = float(x)
        vals = [LogReal.from_log(1, -x * x)]
        if J >= 1:
            vals.append(LogReal.from_float(-2.0 * x) * vals[0])
        c = LogReal.from_float(-2.0 * x)
        for n in range(1, J):
            vals.append(c * vals[n] + LogReal.from_float(-2.0 * n) * vals[n - 1])
        return Jet.from_logreals(x, vals[: J + 1])


class ExpSqr(ModelFunction):
    """f(x) = exp(x^2)."""

    label = "expsqr"

    def value(self, x: float) -> float:
        return math.exp(min(x * x, 700.0)) if x * x < 700 else math.inf

    def jet(self, x, J: int) -> Jet:
        self._check_order(J, _CLOSED_FORM_JMAX)
        if x == 0:
            vals = []
            for j in range(J + 1):
                if j % 2:
                    vals.append(Fraction(0))
                else:
                    m = j // 2
                    vals.append(Fraction(math.factorial(j) // math.factorial(m)))
            return Jet.from_rationals(0, vals)
        x = float(x)
        vals = [LogReal.from_log(1, x * x)]
        if J >= 1:
            vals.append(LogReal.from_float(2.0 * x) * vals[0])
        c = LogReal.from_float(2.0 * x)
        for n in range(1, J):
            vals.append(c * vals[n] + LogReal.from_float(2.0 * n) * vals[n - 1])
        return Jet.from_logreals(x, vals[: J + 1])


class Polynomial(ModelFunction):
    """f(x) = sum c_i x^i with exact rational coefficients."""

    analytic = "strip"

    def __init__(self, coeffs: Sequence):
        self.coeffs = [Fraction(c) for c in coeffs]
        while len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            self.coeffs.pop()
        self.label = "poly:" + ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def jet(self, x, J: int) -> Jet:
        xq = Fraction(x)  # floats are rationals, so the jet stays exact
        vals = []
        for j in range(J + 1):
            acc = Fraction(0)
            for i in range(j, len(self.coeffs)):
                acc += self.coeffs[i] * (math.factorial(i) // math.factorial(i - j)) * xq ** (i - j)
            vals.append(acc)
        return Jet(xq, tuple(vals), "exact")


def identity_function() -> Polynomial:
    return Polynomial([0, 1])


def _smooth_step(t: float, gamma: float) -> float:
    """0 for t<=0, 1 for t>=1, smooth Gevrey-type bridge in between."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    b = math.exp(-t ** -gamma)
    b1 = math.exp(-(1.0 - t) ** -gamma)
    return b / (b + b1)


class MonomialBump(ModelFunction):
    """f(x) = a x^n / n! * chi(x) with chi == 1 near 0, supported in [-r, r].

    The jet at 0 is the prescribed one: f^(l)(0) = a * delta_{l n}."""

    def __init__(self, n: int, a, r: float = 1.0, gamma: float = 1.0):
        if n < 0 or r <= 0 or gamma <= 0:
            raise PreconditionError("monomial bump needs n >= 0, r > 0, gamma > 0")
        self.n = n
        self.a = Fraction(a)
        self.r = float(r)
        self.gamma = float(gamma)
        self.label = f"monbump:n={n},a={a},r={r:g},g={gamma:g}"

    def value(self, x: float) -> float:
        u = abs(x)
        if u >= self.r:
            return 0.0
        chi = _smooth_step((self.r - u) / (self.r / 2.0), self.gamma)
        return float(self.a) * x ** self.n / math.factorial(self.n) * chi

    def jet(self, x, J: int) -> Jet:
        if x != 0:
            raise CapabilityError("monomial bump jets available at the base point 0 only")
        vals = [Fraction(0)] * (J + 1)
        if self.n <= J:
            vals[self.n] = self.a
        return Jet.from_rationals(0, vals)


class Sqrt1px2(ModelFunction):
    """psi(x) = sqrt(1 + x^2); holomorphic on a cone around the real axis."""

    label = "sqrt1px2"
    analytic = "cone"

    def value(self, x: float) -> float:
        return math.hypot(1.0, x)

    def jet(self, x, J: int) -> Jet:
        self._check_order(J, _CLOSED_FORM_JMAX)
        x = float(x)
        f0 = LogReal.from_float(self.value(x))
        if J == 0:
            return Jet.from_logreals(x, [f0])
        f1 = LogReal.from_float(x / self.value(x))
        return _ode_recurrence_jet(x, J, f0, f1, two_a=1.0)


class Pow1px2(ModelFunction):
    """psi(x) = (1 + x^2)^a; holomorphic on a strip around the real axis."""

    analytic = "strip"

    def __init__(self, a: float):
        self.a = float(a)
        self.label = f"pow1px2:a={a:g}"

    def value(self, x: float) -> float:
        return (1.0 + x * x) ** self.a

    def jet(self, x, J: int) -> Jet:
        self._check_order(J, _CLOSED_FORM_JMAX)
        x = float(x)
        f0 = LogReal.from_float(self.value(x))
        if J == 0:
            return Jet.from_logreals(x, [f0])
        f1 = LogReal.from_float(2.0 * self.a * x * self.value(x) / (1.0 + x * x))
        return _ode_recurrence_jet(x, J, f0, f1, two_a=2.0 * self.a)


class GevreyBump(ModelFunction):
    """f(x) = exp(-(1-(x/r)^2)^(-gamma)) inside (-r, r), identically 0 outside."""

    def __init__(self, gamma: float = 1.0, r: float = 1.0):
        if gamma <= 0 or r <= 0:
            raise PreconditionError("bump needs gamma > 0, r > 0")
        self.gamma = float(gamma)
        self.r = float(r)
        self.label = f"gbump:g={gamma:g},r={r:g}"

    def value(self, x: float) -> float:
        y = x / self.r
        v = 1.0 - y * y
        if v <= 0.0:
            return 0.0
        return math.exp(-v ** -self.gamma)

    def jet(self, x, J: int) -> Jet:
        self._check_order(J, _BUMP_JMAX)
        x = float(x)
        if abs(x) >= self.r:
            return Jet.from_logreals(x, [LogReal.zero()] * (J + 1))
        g = self.gamma
        r = self.r
        # v = 1 - (x/r)^2, u = -v^(-gamma): v u' = -gamma u v' (Leibniz below)
        vd = [1.0 - (x / r) ** 2, -2.0 * x / r ** 2, -2.0 / r ** 2]

        def dv(i: int) -> float:
            return vd[i] if i < 3 else 0.0

        u = [-(vd[0] ** -g)]
        for m in range(J):
            # v u^{(m+1)} = -gamma sum_i C(m,i) u^{(i)} v^{(m+1-i)}
            #               - sum_{i>=1} C(m,i) v^{(i)} u^{(m+1-i)}
            rhs = 0.0
            for i in range(m + 1):
                if dv(m + 1 - i):
                    rhs += -g * math.comb(m, i) * u[i] * dv(m + 1 - i)
            for i in range(1, m + 1):
                if dv(i):
                    rhs += -math.comb(m, i) * dv(i) * u[m + 1 - i]
            u.append(rhs / vd[0])
        # f = exp(u): f^{(m+1)} = sum_i C(m,i) u^{(i+1)} f^{(m-i)}
        f = [math.exp(u[0])]
        for m in range(J):
            f.append(math.fsum(math.comb(m, i) * u[i + 1] * f[m - i]
                               for i in range(m + 1)))
        return Jet.from_floats(x, f)


def parse_function(spec: str) -> ModelFunction:
    """Function mini-language, e.g. gaussian | poly:1,0,2 | pow1px2:a=1.5"""
    head, _, rest = spec.partition(":")
    if head == "gaussian":
        return Gaussian()
    if head == "expsqr":
        return ExpSqr()
    if head == "sqrt1px2":
        return Sqrt1px2()
    if head == "poly":
        try:
            return Polynomial([Fraction(c) for c in rest.split(",")])
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(
                f"poly spec needs rational coefficients, got {spec!r}") from None
    if head == "pow1px2":
        key, _, val = rest.partition("=")
        if key != "a":
            raise PreconditionError(f"pow1px2 spec needs a=<real>, got {spec!r}")
        return Pow1px2(parse_real(val, spec))
    if head in ("monbump", "gbump"):
        kv = {}
        for item in rest.split(","):
            key, _, val = item.partition("=")
            kv[key] = val
        r = parse_real(kv.get("r", 1.0), spec)
        g = parse_real(kv.get("g", 1.0), spec)
        if head == "gbump":
            return GevreyBump(g, r)
        try:
            return MonomialBump(int(kv["n"]), Fraction(kv["a"]), r, g)
        except (KeyError, ValueError, ZeroDivisionError):
            raise PreconditionError(
                f"monbump spec needs n=<int>,a=<rational>, got {spec!r}") from None
    raise PreconditionError(f"unknown function spec {spec!r}")


def jet_log_abs(jet: Jet) -> list:
    """log |f^(j)| per entry (exact jets converted via big-int logs)."""
    out = []
    for v in jet.values:
        if jet.kind == "log":
            out.append(v.log_abs)
        else:
            if v == 0:
                out.append(LOG_ZERO)
            else:
                out.append(math.log(abs(v.numerator)) - math.log(v.denominator))
    return out


def weighted_log_sup(logs, conj: ConjugateEvaluator, lam: float, xs=None,
                     K: int = 0, jk_cap: int = None, extra=None) -> tuple:
    """max over rows x, orders j and powers k <= K (j + k <= jk_cap) of

        logs[x][j] - lam phi*((j+k)/lam) + k log|x| + extra[x]

    with one log-jet row per grid point (xs needed when K > 0).  Returns
    (value, (xi, j, k)) for the first strict maximum in (x, j, k) order, or
    (LOG_ZERO, None) when every term is log 0.  Each x row is one
    (J+1) x (K+1) array, so memory does not grow with the grid."""
    table = np.asarray(logs, dtype=float)
    J = table.shape[1] - 1
    cap = J + K if jk_cap is None else min(jk_cap, J + K)
    # phi*(s) past the cap is never read: +inf sends those terms to log 0
    c = np.full(J + K + 1, math.inf)
    for s in range(cap + 1):
        c[s] = lam * conj(s / lam)
    ks = np.arange(K + 1)
    c_jk = c[np.add.outer(np.arange(J + 1), ks)]
    best, witness = LOG_ZERO, None
    with np.errstate(invalid="ignore"):  # inf - inf terms are masked below
        for xi, row in enumerate(table):
            v = row[:, None] - c_jk
            if K:
                x = float(xs[xi])
                if x == 0:
                    v[:, 1:] = LOG_ZERO
                else:
                    v[:, 1:] += ks[1:] * math.log(abs(x))
            if extra is not None:
                v += extra[xi]
            v[np.isnan(v)] = LOG_ZERO
            i = int(v.argmax())
            if v.flat[i] > best:
                best = float(v.flat[i])
                witness = (xi, i // (K + 1), i % (K + 1))
    return best, witness


# ---------------------------------------------------------------------------
# Seminorms
# ---------------------------------------------------------------------------

@dataclass
class SeminormReport(Result):
    family: str
    lam: float
    mu: Optional[float]
    weight: str
    grid: str
    J: int
    K: Optional[int]
    value_log: float
    witness: Optional[dict]
    stable: Optional[bool] = None
    degenerate: bool = False

    @property
    def verdict(self) -> bool:
        return not self.degenerate

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["lambda"] = d.pop("lam")
        return d


def _jet_logs(f: ModelFunction, xs, J: int) -> list:
    return [jet_log_abs(f.jet(float(x), J)) for x in xs]


def seminorm_p_lambda(f: ModelFunction, lam: float, w: WeightFunction,
                      grid: GridSpec, J: int, K: int,
                      check_stability: bool = True) -> SeminormReport:
    """Finite-box lower estimate of
    sup_{j,k,x} |x^k f^(j)(x)| exp(-lam phi*((j+k)/lam)), in log domain."""
    if J + K > 2 * _CLOSED_FORM_JMAX:
        raise PreconditionError("J + K too large")
    conj = ConjugateEvaluator(w)
    xs = grid.symmetric_points()
    best, at = weighted_log_sup(_jet_logs(f, xs, J), conj, lam, xs, K)
    witness = None if at is None else {"j": at[1], "k": at[2],
                                       "x": float(xs[at[0]])}
    stable = None
    if check_stability and witness is not None:
        xs2 = grid.scaled(1.25).symmetric_points()
        b2, _ = weighted_log_sup(_jet_logs(f, xs2, math.ceil(J * 1.25)),
                                 conj, lam, xs2, math.ceil(K * 1.25))
        stable = abs(b2 - best) < 1e-6 * max(1.0, abs(best))
    return SeminormReport("p_lambda", lam, None, w.label, grid.spec_string(),
                          J, K, best, witness, stable,
                          degenerate=witness is None)


def seminorm_pi(f: ModelFunction, lam: float, mu: float, w: WeightFunction,
                grid: GridSpec, J: int,
                check_stability: bool = True) -> SeminormReport:
    """Finite-box lower estimate of
    sup_{j,x} |f^(j)(x)| exp(-lam phi*(j/lam) + mu omega(x))."""
    conj = ConjugateEvaluator(w)

    def scan(xs, J):
        return weighted_log_sup(_jet_logs(f, xs, J), conj, lam,
                                extra=[mu * w(float(x)) for x in xs])

    xs = grid.symmetric_points()
    best, at = scan(xs, J)
    witness = None if at is None else {"j": at[1], "x": float(xs[at[0]])}
    stable = None
    if check_stability and witness is not None:
        b2, _ = scan(grid.scaled(1.25).symmetric_points(), math.ceil(J * 1.25))
        stable = abs(b2 - best) < 1e-6 * max(1.0, abs(best))
    return SeminormReport("pi", lam, mu, w.label, grid.spec_string(),
                          J, None, best, witness, stable,
                          degenerate=witness is None)


# ---------------------------------------------------------------------------
# Growth-index estimator
# ---------------------------------------------------------------------------

@dataclass
class IndexEstimate:
    s_hat: float
    intercept: float
    residual_rms: float
    j_used: list = field(default_factory=list)


def estimate_growth_exponent(jet: Jet, j_range=None) -> IndexEstimate:
    """Least-squares fit log|f^(j)| ~ s * j log j + c * j over nonzero orders.

    Diagnoses the factorial-power growth class of a jet at one point."""
    logs = jet_log_abs(jet)
    if j_range is None:
        j_range = range(1, jet.order + 1)
    js = [j for j in j_range if 1 <= j <= jet.order and logs[j] != LOG_ZERO]
    if len(js) < 8:
        raise DegenerateInputError(
            f"need >= 8 nonzero derivatives in range, found {len(js)}")
    A = np.array([[j * math.log(j), float(j)] for j in js])
    b = np.array([logs[j] for j in js])
    coef, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    resid = A @ coef - b
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return IndexEstimate(s_hat=float(coef[0]), intercept=float(coef[1]),
                         residual_rms=rms, j_used=list(js))
