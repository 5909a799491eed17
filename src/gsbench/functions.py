"""Model-function library: values, exact/high-order jets, seminorms.

Every seminorm sup runs through one kernel, ``weighted_log_sup``: the max over
grid points x, orders j and powers k of
log|f^(j)(x)| - lam phi*((j+k)/lam) + k log|x| + extra(x),
taken over blocks of grid points, one (rows, J+1, K+1) array of at most
SUP_BLOCK_TERMS terms per block, so memory is bounded per block.  Where
K > 0 and the rows span more than one block, each row is first bounded from
above, exactly up to an outward margin of 2^-49 (1 + S) that covers every
rounding (``_row_bounds``), and only the rows whose bound reaches the max of
the row with the largest bound are scanned: the value and witness are the
full scan's bit for bit.  The two seminorms alone check their sup against a
1.25x box (``stable_sup``); the composed sup in ``experiments`` scans the
table it is given.

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

For composition, ``taylor_table`` gives f^(k)(x)/k! as floats scaled by a
power-of-two radius per point, and ``square_taylor_table`` those of f^2, a
family's own where f^2 is one, else a Cauchy product.  gaussian, expsqr,
pow1px2 and sqrt1px2 declare the ``ode`` that composes them as outer
functions (``experiments.composed_taylor_table``).

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

from .errors import PreconditionError
from .fdb import Jet
from .grids import BOX_GROWTH, GridSpec
from .logdomain import LOG_ZERO, LogReal
from .reports import Result
from . import specs
from .specs import check_gbump, check_monbump, check_pow1px2, label_real
from .weights import ConjugateEvaluator, WeightFunction, weight_values

_CLOSED_FORM_JMAX = 200
LN2 = math.log(2.0)
SUP_BLOCK_TERMS = 1 << 14  # (x, j, k) terms per weighted_log_sup block


class ModelFunction:
    """Base: value(x) and values(xs), jet(x, J) and its batched form
    log_jet_table."""

    label = "model"
    analytic: Optional[str] = None  # "cone" | "strip" | None
    jet_cap = math.inf  # the highest jet order the family computes
    parity: Optional[int] = None  # 0 even, 1 odd: f(-x) = (-1)^parity f(x)
    ode = None  # f o psi's Taylor recurrence in psi^2, where f has one

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

    def square_taylor_table(self, xs, J: int) -> tuple:
        """psi^2's ``taylor_table``: by default the Cauchy product of psi's, at
        its radius (|w_k| <= 2 |psi(x)| + k - 1 for k >= 1)."""
        a, e = self.taylor_table(xs, J)
        return np.array([(a[:k + 1] * a[k::-1]).sum(axis=0) for k in range(J + 1)]), e

    def taylor_table(self, xs, J: int) -> tuple:
        """(c, e): c[k] = f^(k)(x)/k! 2^(-e k) per x of xs, (J+1, len(xs)),
        e per x an integer >= 0 that brings every |c[k]|, k >= 1, to <= 1.
        Default: from log_jet_table, by libm's exp per entry."""
        sign, log = (t.T for t in self.log_jet_table(xs, J))
        k = np.arange(J + 1)[:, None]
        log = log - [[math.lgamma(n + 1)] for n in range(J + 1)]
        with np.errstate(invalid="ignore"):  # log 0 = -inf
            e = np.ceil(log[1:] / (k[1:] * LN2)).max(axis=0, initial=0.0)
        shifted = (log - k * e * LN2).ravel().tolist()
        return sign * np.array([math.exp(v) for v in shifted]).reshape(log.shape), e

    def _check_order(self, J: int) -> None:
        if J > self.jet_cap:
            raise PreconditionError(
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

    def ode(self, w0):
        """g = e^q, q = s psi^2, solves g' = q' g: (alpha, beta, c, log g_0) =
        (1, 0, s, s w0) in ``composed_taylor_table``, w0 = psi^2 per point."""
        return 1.0, 0.0, self.s, self.s * w0

    def jet(self, x, J: int) -> Jet:
        if x != 0:
            return super().jet(x, J)
        self._check_order(J)
        return Jet.from_rationals(0, [
            0 if j % 2 else self.s ** (j // 2) * math.factorial(j)
            // math.factorial(j // 2) for j in range(J + 1)])

    def _recurrence(self, xs, log_r, J):
        c = 2.0 * self.s
        with np.errstate(over="ignore"):  # x^2 past a float: log f = s x^2 = +-inf
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
        return LogReal(1, x * x).to_float()  # inf past the float range


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

    def square_taylor_table(self, xs, J: int) -> tuple:
        return Polynomial(np.convolve(self.coeffs, self.coeffs)).taylor_table(xs, J)

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

    def abs_lower(self, x0, x1) -> np.ndarray:
        """m <= |values(x)| for every x0 <= x <= x1, per entry of the arrays
        x0 <= x1: Horner on intervals (Moore 1966) with values' products and
        sums, each rounded to nearest, which is monotone, so the intervals
        hold every value that values computes and need no rounding term."""
        lo = hi = np.zeros(len(x0))
        with np.errstate(over="ignore", invalid="ignore"):
            for c in self._horner:
                ends = (lo * x0, lo * x1, hi * x0, hi * x1)
                lo, hi = np.minimum.reduce(ends) + c, np.maximum.reduce(ends) + c
            m = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        return np.fmax(m, 0.0)  # a NaN bound: 0

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

    def taylor_table(self, xs, J: int) -> tuple:
        """Each N_j / (d_j j!) rounded once, and e from their binary
        exponents, so the scaling is exact."""
        c = np.zeros((J + 1, len(xs)))
        for i, row in enumerate(self._derivatives([float(x) for x in xs], J)):
            c[:len(row), i] = [n / (d * math.factorial(j)) for j, (n, d) in enumerate(row)]
        k = np.arange(J + 1)[:, None]
        e = (-(-np.frexp(c[1:])[1] // k[1:])).max(axis=0, initial=0)
        return np.ldexp(c, -k * e), e

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
            raise PreconditionError("monomial bump jets available at the base point 0 only")
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

    def ode(self, w0):
        """g = u^a, u = 1 + psi^2, solves u g' = a u' g (J. C. P. Miller's
        formula for the powers of a series): (a, 1, 1/u_0, a log u_0)."""
        log_u0 = np.array([math.log1p(w) for w in w0.tolist()])
        return self.a, 1.0, 1.0 / (1.0 + w0), self.a * log_u0

    def square_taylor_table(self, xs, J: int) -> tuple:
        """psi^2 = (1 + x^2)^m, m = 2a: for an integer 0 <= m <= J (J-bit
        integers) the exact sum_k C(m, k) x^(2k); else pow1px2:m's jets."""
        m = 2.0 * self.a
        if m.is_integer() and 0 <= m <= J:
            return Polynomial([math.comb(int(m), i // 2) * (1 - i % 2)
                               for i in range(2 * int(m) + 1)]).taylor_table(xs, J)
        return Pow1px2(m).taylor_table(xs, J)

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
    memory is bounded per block and does not grow with the grid.

    When K > 0 and the rows span more than one block, rows that cannot hold
    the maximum are pruned first (``_row_bounds``): the row with the largest
    bound is scanned exactly, and only the rows whose bound is not below its
    max are block-scanned, in their order.  A pruned row's every term lies
    strictly below a value that some term attains, so value and witness are
    the unpruned scan's bit for bit.  With K = 0 a bound costs the scan
    itself, and a single block has nothing to prune."""
    table = np.asarray(logs, dtype=float)
    J = table.shape[1] - 1
    cap = J + K if jk_cap is None else min(jk_cap, J + K)
    # phi*(s) past the cap is never read: +inf sends those terms to log 0
    c = np.full(J + K + 1, math.inf)
    for s in range(cap + 1):
        c[s] = lam * conj(s / lam)
    c_jk = c[np.add.outer(np.arange(J + 1), np.arange(K + 1))]
    rows = max(1, SUP_BLOCK_TERMS // c_jk.size)
    # log|0| = -inf sends every k >= 1 term at x = 0 to log 0
    lx = np.array([math.log(abs(x)) if x else LOG_ZERO for x in
                   np.asarray(xs, dtype=float)[:len(table)].tolist()]) if K else None
    extra = None if extra is None else np.asarray(extra, dtype=float)[:len(table)]
    if not K or len(table) <= rows:
        return _block_sup(table, c_jk, lx, extra, rows)
    scan = lambda at: _block_sup(table[at], c_jk, lx[at],
                                 None if extra is None else extra[at], rows)
    bound = _row_bounds(table, c, lx, extra, K)
    top = int(bound.argmax())
    threshold, _ = scan(slice(top, top + 1))
    kept = np.flatnonzero(~(bound < threshold))
    best, at = scan(kept)
    return best, None if at is None else (int(kept[at[0]]), at[1], at[2])


def _block_sup(table, c_jk, lx, extra, rows) -> tuple:
    """weighted_log_sup's block scan: c_jk[j, k] = lam phi*((j+k)/lam), lx
    the rows' log|x| (None when K = 0), extra an array or None."""
    J, K = c_jk.shape[0] - 1, c_jk.shape[1] - 1
    ks = np.arange(1, K + 1)
    best, witness = LOG_ZERO, None
    with np.errstate(invalid="ignore"):  # inf - inf terms are masked below
        for lo in range(0, len(table), rows):
            v = table[lo:lo + rows, :, None] - c_jk
            if K:
                v[:, :, 1:] += np.multiply.outer(lx[lo:lo + len(v)], ks)[:, None, :]
            if extra is not None:
                v += extra[lo:lo + len(v), None, None]
            i = int(v.argmax())
            if math.isnan(v.flat[i]):  # argmax stops at the first NaN
                v[np.isnan(v)] = LOG_ZERO
                i = int(v.argmax())
            if v.flat[i] > best:
                best = float(v.flat[i])
                xi, jk = divmod(i, (J + 1) * (K + 1))
                witness = (lo + xi, jk // (K + 1), jk % (K + 1))
    return best, witness


def _row_bounds(table, c, lx, extra, K) -> np.ndarray:
    """Per row x, an upper bound on every term of weighted_log_sup's row, by

        L[x,j] - c[j+k] + k log|x| = (L[x,j] - j log|x|) + (n log|x| - c[n])

    with n = j + k: the second part's max over the window n in [j, j+K] is
    taken by a sliding-window max, log2(K+1) passes of np.maximum.  A row at
    x = 0 reads log|x| as 0, which bounds its k = 0 terms (its others are
    log 0).  The bound is widened by the margin 2^-49 (1 + S), with
    S = max|L[x]| + max|c| + 2 (J+K) |log x| + |extra[x]| over the finite
    parts: a term is four roundings (L - c, k log|x|, their sum, + extra),
    its bound six (j log|x|, L minus it, n log|x|, minus c, their sum,
    + extra) and the margin's addition one, each off by at most 2^-53 of a
    result no larger than S (1 + 2^-50), so 16 of them cover all eleven.
    Term and bound share one math.log value of log|x|.  An infinite or NaN
    part makes the bound +inf or NaN, and a NaN bound keeps its row, as does
    S >= 2^1023, where a sum's part may overflow."""
    J = table.shape[1] - 1
    lx = np.where(lx == LOG_ZERO, 0.0, lx)
    ns = np.arange(J + K + 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        # (n, x) layout: the window passes slice whole contiguous rows
        q = np.multiply.outer(ns, lx) - c[:, None]
        w = 1
        while 2 * w <= K + 1:  # q[n]: the max of the first q over n .. n + w - 1
            q, w = np.maximum(q[:-w], q[w:]), 2 * w
        window = np.maximum(q[:J + 1], q[K + 1 - w:K + 2 - w + J])
        bound = (table.T - np.multiply.outer(ns[:J + 1], lx) + window).max(axis=0)
        finite = lambda a: np.where(np.isfinite(a), np.abs(a), 0.0)
        scale = (finite(table).max(axis=1) + finite(c).max()
                 + 2 * (J + K) * np.abs(lx))
        if extra is not None:
            bound += extra
            scale += finite(extra)
        bound += np.where(scale < 2.0 ** 1023, (1 + scale) * 2.0 ** -49, math.inf)
    return np.where(np.isnan(bound), math.inf, bound)


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


def box_size(n: int, f: ModelFunction = None) -> int:
    """ceil(BOX_GROWTH n), a size of the stability box.  As its jet order, it
    is refused up front where it passes f's jet cap."""
    raised = math.ceil(n * BOX_GROWTH)
    if f is not None and raised > f.jet_cap:
        raise PreconditionError(
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


def stable_sup(f: ModelFunction, grid: GridSpec, J: int, K: Optional[int],
               scan) -> tuple:
    """(value, witness, stable) of scan(logs, xs, K) -> (value, (xi, j, k))
    on f's log-jet rows logs over the grid's symmetric points xs, orders
    0..J; K is None where the sup has no power k.  The witness names j, k
    (unless K is None) and x, or is None when every term is log 0.  One
    table over GridSpec.extended_symmetric_points at order box_size(J),
    refused first where it passes f's jet cap, gives logs as its middle rows
    and low orders (a row depends on its own point only, an order on lower
    ones only), and ``stable``, with a witness: the scan of that whole table
    at K raised by box_size agrees to 1e-6 relative.

    For an even or odd f the x > 0 rows of the grid and of the box are
    neither built nor scanned (``mirrored_half``): each repeats its twin at
    -x bit for bit, so the first strict maximum in (x, j, k) order, the
    witness, lies at x <= 0 in the full scan too, and the box's max is the
    same number."""
    raised = box_size(J, f)
    ext, pad = grid.extended_symmetric_points()
    end = len(ext) - pad  # the grid's rows are ext[pad:end], or its half
    ext = mirrored_half(ext, f.parity)
    whole = f.log_jet_table(ext, raised)[1]
    xs = ext[pad:end]
    best, at = scan(whole[pad:end, :J + 1], xs, K)
    if at is None:
        return best, None, None
    witness = {"j": at[1], **({} if K is None else {"k": at[2]}), "x": float(xs[at[0]])}
    b2, _ = scan(whole, ext, None if K is None else box_size(K))
    return best, witness, abs(b2 - best) < 1e-6 * max(1.0, abs(best))


def seminorm_p_lambda(f: ModelFunction, lam: float, w: WeightFunction,
                      grid: GridSpec, J: int, K: int) -> SeminormReport:
    """Finite-box lower estimate of
    sup_{j,k,x} |x^k f^(j)(x)| exp(-lam phi*((j+k)/lam)), in log domain."""
    if J + K > 2 * _CLOSED_FORM_JMAX:
        raise PreconditionError(f"--jmax + --kmax: J + K = {J} + {K} = {J + K} "
                                f"is past the limit {2 * _CLOSED_FORM_JMAX}")
    conj = ConjugateEvaluator(w)
    return SeminormReport(
        "p_lambda", lam, None, w.label, grid.spec_string(), J, K, *stable_sup(
            f, grid, J, K, lambda logs, xs, K: weighted_log_sup(logs, conj, lam, xs, K)))


def seminorm_pi(f: ModelFunction, lam: float, mu: float, w: WeightFunction,
                grid: GridSpec, J: int) -> SeminormReport:
    """Finite-box lower estimate of
    sup_{j,x} |f^(j)(x)| exp(-lam phi*(j/lam) + mu omega(x))."""
    conj = ConjugateEvaluator(w)
    return SeminormReport(
        "pi", lam, mu, w.label, grid.spec_string(), J, None, *stable_sup(
            f, grid, J, None, lambda logs, xs, K: weighted_log_sup(
                logs, conj, lam, extra=weight_values(w, xs, "--weight", mu, "--mu"))))


# ---------------------------------------------------------------------------
# Growth-index estimator
# ---------------------------------------------------------------------------

@dataclass
class IndexEstimate:
    s_hat: float
    intercept: float
    residual_rms: float


def estimate_growth_exponent(jet: Jet) -> IndexEstimate:
    """Least-squares fit log|f^(j)| ~ s * j log j + c * j over nonzero orders.

    Diagnoses the factorial-power growth class of a jet at one point."""
    logs = jet_log_abs(jet)
    js = [j for j in range(1, jet.order + 1) if logs[j] != LOG_ZERO]
    if len(js) < 8:
        raise PreconditionError(
            f"--function, --jmax: need >= 8 nonzero derivatives in range, "
            f"found {len(js)}")
    A = np.array([[j * math.log(j), float(j)] for j in js])
    b = np.array([logs[j] for j in js])
    coef, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    resid = A @ coef - b
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return IndexEstimate(s_hat=float(coef[0]), intercept=float(coef[1]),
                         residual_rms=rms)
