"""Model-function library: values, exact/high-order jets, seminorms.

Every seminorm sup runs through one kernel, ``weighted_log_sup``: the max over
grid points x, orders j and powers k of
log|f^(j)(x)| - lam phi*((j+k)/lam) + k log|x| + extra(x),
taken over blocks of grid points, one (rows, J+1, K+1) array of at most
SUP_BLOCK_TERMS terms per block, so memory is bounded per block.

Jets on a grid come from one call, ``log_jet_table(xs, J)``: the sign and
log|f^(j)(x)| of every point as two (len(xs), J+1) arrays.  Per family:
  * gaussian/expsqr (Hermite) and (1+x^2)^a, sqrt(1+x^2) (Leibniz on
    (1+x^2) f' = 2a x f): one three-term recurrence run over all points at
    once on float mantissas with a power-of-two scale per point, no log or exp
    per operation (``_Recurrence``).  A single-point jet is a one-row table;
    gaussian/expsqr at 0 stay exact rationals.
  * polynomial: exact rationals, orders up to the degree only, each by one
    integer Horner on x = m/q (``Polynomial._derivatives``); past the degree
    exact zeros
  * monomial bump at 0: exact rationals, one jet per point
  * compactly supported bump: recurrences for the inner rational power
    composed with exp, capped at order 40, one jet per point

A family declares its ``parity``: 0 for an even f, 1 for an odd one, None
when it declares none.  For even or odd f, |f^(j)(-x)| = |f^(j)(x)| bit for
bit (every family's arithmetic is sign-symmetric), and a weight reads |x|,
so on a grid mirrored through 0 the x > 0 rows of a sup repeat the x < 0
ones: the sups build and scan only the rows x <= 0 (``mirrored_half``).
The first strict maximum in (x, j, k) order lies at x <= 0 anyway, so value
and witness are the full scan's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapabilityError, DegenerateInputError, PreconditionError
from .fdb import Jet
from .grids import BOX_GROWTH, GridSpec
from .logdomain import LOG_ZERO
from .reports import Result
from . import specs
from .specs import check_gbump, check_monbump, check_pow1px2, label_real
from .weights import ConjugateEvaluator, WeightFunction

_CLOSED_FORM_JMAX = 200
SUP_BLOCK_TERMS = 1 << 14  # (x, j, k) terms per weighted_log_sup block


class ModelFunction:
    """Base: value(x) and values(xs), jet(x, J) and its batched form
    log_jet_table."""

    label = "model"
    analytic: Optional[str] = None  # "cone" | "strip" | None
    jet_cap = math.inf  # the highest jet order the family computes
    parity: Optional[int] = None  # 0 even, 1 odd: f(-x) = (-1)^parity f(x)

    def value(self, x: float) -> float:
        raise NotImplementedError

    def values(self, xs) -> np.ndarray:
        """f at every x of xs; default: one value(x) per point."""
        return np.array([self.value(x) for x in np.asarray(xs, dtype=float).tolist()])

    def jet(self, x, J: int) -> Jet:
        raise NotImplementedError

    def log_jet_table(self, xs, J: int) -> tuple:
        """(sign, log|f^(j)(x)|), each (len(xs), J+1); default: one jet per x."""
        sign, log_abs = np.zeros((2, len(xs), J + 1))
        for i, x in enumerate(xs):
            jet = self.jet(float(x), J)
            sign[i] = [v.sign if jet.kind == "log" else (v > 0) - (v < 0)
                       for v in jet.values]
            log_abs[i] = jet_log_abs(jet)
        return sign, log_abs

    def _check_order(self, J: int) -> None:
        if J > self.jet_cap:
            raise CapabilityError(
                f"{self.label}: jets supported up to order {self.jet_cap}, asked {J}")


class _Recurrence(ModelFunction):
    """Even f with f^(n) = f r^(pn) (x/r)^(n mod 2) h_n, r = sqrt(1+x^2), and
    h_(n+1) = a_n c_n h_n + b_n beta h_(n-1), c_n = 1 or (x/r)^2 at even or
    odd n: p = 1, beta = 1/r^2 for exp(s x^2); p = -1, beta = 1 for
    (1+x^2)^a.  Every multiplier is bounded at every x; log|x/r| = -inf at
    x = 0 makes odd orders there exact zeros.  ``_recurrence(xs, log r, J)``
    gives (log f, p, beta, [a_n], [b_n])."""

    jet_cap = _CLOSED_FORM_JMAX
    parity = 0

    def log_jet_table(self, xs, J: int) -> tuple:
        self._check_order(J)
        xs = np.asarray(xs, dtype=float)
        r = np.hypot(1.0, xs)
        xr, log_r = xs / r, np.log(r)
        log_f, p, beta, a, b = self._recurrence(xs, log_r, J)
        # h_n = mant[n] 2^expo[n]; each order rescales both live mantissas by
        # the power of two (exact) that puts the larger in [1/2, 1)
        mant, expo = np.ones((J + 1, len(xs))), np.zeros((J + 1, len(xs)))
        prev, cur, e, xr2 = np.zeros(len(xs)), mant[0], 0, xr * xr
        for n in range(J):
            nxt = (a[n] * xr2 if n % 2 else a[n]) * cur + b[n] * beta * prev
            k = np.frexp(np.maximum(np.abs(cur), np.abs(nxt)))[1]
            prev, cur, e = np.ldexp(cur, -k), np.ldexp(nxt, -k), e + k
            mant[n + 1], expo[n + 1] = cur, e
        sign = np.sign(mant)
        sign[1::2] *= np.sign(xs)
        with np.errstate(divide="ignore"):  # log 0 at exact zeros
            log_abs = (np.log(np.abs(mant)) + expo * math.log(2.0) + log_f
                       + p * np.arange(J + 1)[:, None] * log_r)
            log_abs[1::2] += np.log(np.abs(xr))
        return sign.T, log_abs.T

    def jet(self, x, J: int) -> Jet:
        sign, log_abs = self.log_jet_table([x], J)
        return Jet.from_log_row(x, sign[0], log_abs[0])


class _ExpQuadratic(_Recurrence):
    """f(x) = exp(s x^2): f^(n+1) = 2s x f^(n) + 2s n f^(n-1) (Hermite)."""

    s = -1

    def jet(self, x, J: int) -> Jet:
        if x != 0:
            return super().jet(x, J)
        self._check_order(J)
        return Jet.from_rationals(0, [
            0 if j % 2 else self.s ** (j // 2) * math.factorial(j)
            // math.factorial(j // 2) for j in range(J + 1)])

    def _recurrence(self, xs, log_r, J):
        c = 2.0 * self.s
        return (self.s * xs * xs, 1, 1.0 / (1.0 + xs * xs), [c] * J,
                [c * n for n in range(J)])


class Gaussian(_ExpQuadratic):
    """f(x) = exp(-x^2)."""

    label = "gaussian"

    def value(self, x: float) -> float:
        return math.exp(-x * x)


class ExpSqr(_ExpQuadratic):
    """f(x) = exp(x^2)."""

    label = "expsqr"
    s = 1

    def value(self, x: float) -> float:
        return math.exp(x * x) if x * x < 700 else math.inf


class Polynomial(ModelFunction):
    """f(x) = sum c_i x^i with exact rational coefficients."""

    analytic = "strip"

    def __init__(self, coeffs: Sequence):
        self.coeffs = [Fraction(c) for c in coeffs]
        while len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            self.coeffs.pop()
        self._horner = [float(c) for c in reversed(self.coeffs)]
        self.label = "poly:" + ",".join(str(c) for c in self.coeffs)
        # the parity of the nonzero coefficients' powers, if they share one
        powers = {i % 2 for i, c in enumerate(self.coeffs) if c} or {0}
        self.parity = powers.pop() if len(powers) == 1 else None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, x: float) -> float:
        acc = 0.0
        for c in self._horner:
            acc = acc * x + c
        return acc

    def values(self, xs) -> np.ndarray:
        """Horner over the whole array: the same product-then-sum per step
        (no fused multiply-add) as value, so equal bit for bit."""
        xs = np.asarray(xs, dtype=float)
        acc = np.zeros_like(xs)
        with np.errstate(over="ignore", invalid="ignore"):  # inf/nan as in value
            for c in self._horner:
                acc = acc * xs + c
        return acc

    def _derivatives(self, xs, J: int):
        """Per x of xs (floats or rationals): [(N_j, d_j)] with f^(j)(x) =
        N_j / d_j exactly, for j <= min(J, degree).  Once per call, the
        integer rows A_ji = D c_i i!/(i-j)! (D the lcm of the denominators);
        per x = m/q, one integer Horner in m per order, scaled by powers of q:
        N_j = sum_i A_ji m^(i-j) q^(deg-i), d_j = D q^(deg-j)."""
        deg = self.degree
        D = math.lcm(*(c.denominator for c in self.coeffs))
        rows = [[c.numerator * (D // c.denominator) * math.perm(i, j)
                 for i, c in enumerate(self.coeffs[j:], j)][::-1]
                for j in range(min(J, deg) + 1)]
        for x in xs:
            m, q = x.as_integer_ratio()  # OverflowError/ValueError if not finite
            qp = [1]  # q^0 .. q^deg
            for _ in range(deg):
                qp.append(qp[-1] * q)
            out = []
            for j, row in enumerate(rows):  # row[k] multiplies x^(deg-j-k)
                n = 0
                for a, qk in zip(row, qp):
                    n = n * m + a * qk
                out.append((n, D * qp[deg - j]))
            yield out

    def log_jet_table(self, xs, J: int) -> tuple:
        """Exact: log|N/g| - log(d/g) with g = gcd(N, d), which is log|num| -
        log den of the reduced Fraction; orders past the degree are log 0."""
        sign = np.zeros((len(xs), J + 1))
        log_abs = np.full((len(xs), J + 1), LOG_ZERO)
        for i, row in enumerate(self._derivatives([float(x) for x in xs], J)):
            for j, (n, d) in enumerate(row):
                if n:
                    g = math.gcd(n, d)
                    sign[i, j] = 1 if n > 0 else -1
                    log_abs[i, j] = math.log(abs(n // g)) - math.log(d // g)
        return sign, log_abs

    def jet(self, x, J: int) -> Jet:
        xq = Fraction(x)  # floats are rationals, so the jet stays exact
        vals = [Fraction(n, d) for n, d in next(self._derivatives([xq], J))]
        return Jet(xq, tuple(vals + [Fraction(0)] * (J + 1 - len(vals))), "exact")


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
        check_monbump(n, r, gamma)
        self.n = n
        self.a = Fraction(a)
        self.r = float(r)
        self.gamma = float(gamma)
        self.label = (f"monbump:n={n},a={a},r={label_real(self.r)},"
                      f"g={label_real(self.gamma)}")

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


class Pow1px2(_Recurrence):
    """psi(x) = (1 + x^2)^a; holomorphic on a strip around the real axis.

    Leibniz on (1+x^2) f' = 2a x f gives the recurrence
    (1+x^2) f^(n+1) = (2a - 2n) x f^(n) + n (2a - n + 1) f^(n-1)."""

    analytic = "strip"

    def __init__(self, a: float):
        check_pow1px2(a)
        self.a = float(a)
        self.label = f"pow1px2:a={label_real(self.a)}"

    def value(self, x: float) -> float:
        return (1.0 + x * x) ** self.a

    def _recurrence(self, xs, log_r, J):
        two_a = 2.0 * self.a
        return (two_a * log_r, -1, 1.0, [two_a - 2.0 * n for n in range(J)],
                [n * (two_a + (1 - n)) for n in range(J)])


class Sqrt1px2(Pow1px2):
    """psi(x) = sqrt(1 + x^2); holomorphic on a cone around the real axis."""

    label = "sqrt1px2"
    analytic = "cone"

    def __init__(self):
        self.a = 0.5

    def value(self, x: float) -> float:
        return math.hypot(1.0, x)


class GevreyBump(ModelFunction):
    """f(x) = exp(-(1-(x/r)^2)^(-gamma)) inside (-r, r), identically 0 outside."""

    jet_cap = 40

    def __init__(self, gamma: float = 1.0, r: float = 1.0):
        check_gbump(gamma, r)
        self.gamma = float(gamma)
        self.r = float(r)
        self.label = f"gbump:g={label_real(self.gamma)},r={label_real(self.r)}"

    def value(self, x: float) -> float:
        y = x / self.r
        v = 1.0 - y * y
        if v <= 0.0:
            return 0.0
        return math.exp(-v ** -self.gamma)

    def jet(self, x, J: int) -> Jet:
        self._check_order(J)
        x = float(x)
        if abs(x) >= self.r:
            return Jet.from_floats(x, [0.0] * (J + 1))
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


FAMILIES = {"gaussian": Gaussian, "expsqr": ExpSqr, "sqrt1px2": Sqrt1px2,
            "poly": Polynomial, "pow1px2": Pow1px2, "monbump": MonomialBump,
            "gbump": GevreyBump}  # spec kind -> model class


def parse_function(spec: str) -> ModelFunction:
    """The function a spec names, e.g. gaussian | poly:1,0,2 | pow1px2:a=1.5"""
    return specs.parse_function(spec).build()


def jet_log_abs(jet: Jet) -> list:
    """log |f^(j)| per entry (exact jets converted via big-int logs)."""
    if jet.kind == "log":
        return [v.log_abs for v in jet.values]
    return [math.log(abs(v.numerator)) - math.log(v.denominator) if v
            else LOG_ZERO for v in jet.values]


def weighted_log_sup(logs, conj: Callable[[float], float], lam: float, xs=None,
                     K: int = 0, jk_cap: int = None, extra=None) -> tuple:
    """max over rows x, orders j and powers k <= K (j + k <= jk_cap) of

        logs[x][j] - lam phi*((j+k)/lam) + k log|x| + extra[x]

    with one log-jet row per grid point (xs needed when K > 0).  Returns
    (value, (xi, j, k)) for the first strict maximum in (x, j, k) order, or
    (LOG_ZERO, None) when every term is log 0.  Rows go in blocks, each one
    (rows, J+1, K+1) array of at most SUP_BLOCK_TERMS terms (or one row), so
    memory is bounded per block and does not grow with the grid."""
    table = np.asarray(logs, dtype=float)
    J = table.shape[1] - 1
    cap = J + K if jk_cap is None else min(jk_cap, J + K)
    # phi*(s) past the cap is never read: +inf sends those terms to log 0
    c = np.full(J + K + 1, math.inf)
    for s in range(cap + 1):
        c[s] = lam * conj(s / lam)
    ks = np.arange(1, K + 1)
    c_jk = c[np.add.outer(np.arange(J + 1), np.arange(K + 1))]
    rows = max(1, SUP_BLOCK_TERMS // c_jk.size)
    best, witness = LOG_ZERO, None
    with np.errstate(invalid="ignore"):  # inf - inf terms are masked below
        for lo in range(0, len(table), rows):
            v = table[lo:lo + rows, :, None] - c_jk
            if K:  # log|0| = -inf sends every k >= 1 term at x = 0 to log 0
                lx = [math.log(abs(x)) if x else LOG_ZERO
                      for x in np.asarray(xs[lo:lo + len(v)], dtype=float).tolist()]
                v[:, :, 1:] += np.multiply.outer(lx, ks)[:, None, :]
            if extra is not None:
                v += np.asarray(extra[lo:lo + len(v)], dtype=float)[:, None, None]
            v[np.isnan(v)] = LOG_ZERO
            i = int(v.argmax())
            if v.flat[i] > best:
                best = float(v.flat[i])
                xi, jk = divmod(i, (J + 1) * (K + 1))
                witness = (lo + xi, jk // (K + 1), jk % (K + 1))
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
    degenerate: bool = field(init=False)  # every term log 0, so no witness

    def __post_init__(self):
        self.degenerate = self.witness is None

    @property
    def verdict(self) -> bool:
        return not self.degenerate

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["lambda"] = d.pop("lam")
        return d


def box_size(n: int, *fns: ModelFunction) -> int:
    """ceil(BOX_GROWTH n), a size of the stability box.  As its jet order, it
    is refused up front where it passes the jet cap of one of fns."""
    raised = math.ceil(n * BOX_GROWTH)
    for f in fns:
        if raised > f.jet_cap:
            raise CapabilityError(
                f"{f.label}: jets supported up to order {f.jet_cap}, and the "
                f"stability box raises J = {n} to ceil({BOX_GROWTH:g} J) = "
                f"{raised}: J <= {math.floor(f.jet_cap / BOX_GROWTH)} fits")
    return raised


def mirrored_half(xs, parity: Optional[int]) -> np.ndarray:
    """The rows x <= 0 of xs, xs[:len(xs)//2 + 1], where parity is not None
    and xs is mirrored through 0 exactly (odd length, 0 in the middle, and
    each point past it the negative of its twin before it); else all of xs."""
    xs = np.asarray(xs, dtype=float)
    c = len(xs) // 2
    if parity is None or not (len(xs) % 2 and xs[c] == 0
                              and np.array_equal(xs[c + 1:], -xs[c - 1::-1])):
        return xs
    return xs[:c + 1]


def stable_sup(table, scan, grid: GridSpec, sizes: tuple, power: str = None,
               xs=None, parity: Optional[int] = None) -> tuple:
    """(value, witness, stable) of scan(logs, xs, *sizes[1:]) -> (value,
    (xi, j, k)) on the log-jet rows logs = table(xs, sizes[0]); the witness
    names j, k as ``power`` and x, or is None when every term is log 0.
    Handed xs, it scans their rows as they are: ``stable`` is None.  Else one
    table over GridSpec.extended_symmetric_points at every size raised by
    box_size gives logs as its middle rows and low orders (a row depends on
    its own point only, an order on lower ones only), and ``stable``, with a
    witness: the scan of that whole table agrees to 1e-6 relative.

    For an even or odd f (``parity`` not None) the x > 0 rows of a mirrored
    xs or box are neither built nor scanned (``mirrored_half``): each repeats
    its twin at -x bit for bit, so the first strict maximum in (x, j, k)
    order, the witness, lies at x <= 0 in the full scan too, and the box's
    max is the same number."""
    if xs is None:
        ext, pad = grid.extended_symmetric_points()
        end = len(ext) - pad  # the grid's rows are ext[pad:end], or its half
        ext = mirrored_half(ext, parity)
        whole = table(ext, box_size(sizes[0]))
        xs, logs = ext[pad:end], whole[pad:end, :sizes[0] + 1]
    else:
        xs = mirrored_half(xs, parity)
        whole, logs = None, table(xs, sizes[0])
    best, at = scan(logs, xs, *sizes[1:])
    if at is None:
        return best, None, None
    witness = {"j": at[1], **({power: at[2]} if power else {}), "x": float(xs[at[0]])}
    if whole is None:
        return best, witness, None
    b2, _ = scan(whole, ext, *map(box_size, sizes[1:]))
    return best, witness, abs(b2 - best) < 1e-6 * max(1.0, abs(best))


def seminorm_p_lambda(f: ModelFunction, lam: float, w: WeightFunction,
                      grid: GridSpec, J: int, K: int) -> SeminormReport:
    """Finite-box lower estimate of
    sup_{j,k,x} |x^k f^(j)(x)| exp(-lam phi*((j+k)/lam)), in log domain."""
    if J + K > 2 * _CLOSED_FORM_JMAX:
        raise PreconditionError(f"--jmax + --kmax: J + K = {J} + {K} = {J + K} "
                                f"is past the limit {2 * _CLOSED_FORM_JMAX}")
    box_size(J, f)
    conj = ConjugateEvaluator(w)
    return SeminormReport(
        "p_lambda", lam, None, w.label, grid.spec_string(), J, K, *stable_sup(
            lambda xs, J: f.log_jet_table(xs, J)[1],
            lambda logs, xs, K: weighted_log_sup(logs, conj, lam, xs, K),
            grid, (J, K), "k", parity=f.parity))


def seminorm_pi(f: ModelFunction, lam: float, mu: float, w: WeightFunction,
                grid: GridSpec, J: int) -> SeminormReport:
    """Finite-box lower estimate of
    sup_{j,x} |f^(j)(x)| exp(-lam phi*(j/lam) + mu omega(x))."""
    box_size(J, f)
    conj = ConjugateEvaluator(w)
    return SeminormReport(
        "pi", lam, mu, w.label, grid.spec_string(), J, None, *stable_sup(
            lambda xs, J: f.log_jet_table(xs, J)[1],
            lambda logs, xs: weighted_log_sup(logs, conj, lam, extra=mu * w.values(xs)),
            grid, (J,), parity=f.parity))


# ---------------------------------------------------------------------------
# Growth-index estimator
# ---------------------------------------------------------------------------

@dataclass
class IndexEstimate:
    s_hat: float
    intercept: float
    residual_rms: float
    j_used: list = field(default_factory=list)


def estimate_growth_exponent(jet: Jet) -> IndexEstimate:
    """Least-squares fit log|f^(j)| ~ s * j log j + c * j over nonzero orders.

    Diagnoses the factorial-power growth class of a jet at one point."""
    logs = jet_log_abs(jet)
    js = [j for j in range(1, jet.order + 1) if logs[j] != LOG_ZERO]
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
