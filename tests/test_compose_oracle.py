"""Composed jet tables against exact integer and 50-digit mpmath oracles.

For f in {gaussian, expsqr} and a polynomial psi with integer coefficients,
f o psi = e^q with q = -+psi^2, and g^(n) = P_n e^q for the integer
polynomials P_0 = 1, P_(n+1) = P_n' + q' P_n.  At a float x = m/2^e,
integer Horner gives P_n(x) 2^(e deg P_n) exactly, so every entry's sign is
exact and log|g^(n)(x)| = log|P_n(x)| + q(x) is good to the rounding of q(x).
For non-polynomial psi, mpmath's ``taylor`` differentiates f(psi(t)) /
f(psi(x)) at 50 digits.

``composed_jet_log_table`` takes gaussian, expsqr, pow1px2 and sqrt1px2 by
their Taylor recurrence (``composed_taylor_table``): on the bench's grids,
and for gaussian o x^2 up to J = 160, within 1e-10 in log of both oracles,
with every sign and exact zero right.  The Bell kernel
``log_compose_table`` forms each entry as a sum over k of f^(k)(psi) B(n, k)
with mixed signs, so it loses digits as J grows.  Each kernel case below
pins that loss: no entry has the wrong sign, and the worst |delta log| stays
within MARGIN times the value measured on numpy's AVX-512 kernels (its AVX2
kernels gave the same worst values).  The kernel's bytes depend on numpy's
SIMD level, so the envelope must hold at every level.
"""
import math
from fractions import Fraction
from itertools import zip_longest

import mpmath as mp
import numpy as np
import pytest

from gsbench.errors import PreconditionError
from gsbench.experiments import composed_jet_log_table, composed_taylor_table
from gsbench.fdb import log_compose_table
from gsbench.functions import (ExpSqr, Gaussian, GevreyBump, Polynomial,
                               Pow1px2, Sqrt1px2)
from gsbench.grids import GridSpec

LN2 = math.log(2.0)
MARGIN = 4.0  # headroom over the measured worst |delta log| of each case


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _mul(p, r):
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def _add(p, r):
    return [a + b for a, b in zip_longest(p, r, fillvalue=0)]


def exact_composed_table(q, xs, J: int):
    """(sign, log|(e^q)^(n)(x)|), each (len(xs), J+1), for q an integer
    polynomial (ascending coefficients): P_n by its recurrence, each P_n(x)
    by integer Horner at x = m/2^e, its log from the top 64 bits."""
    polys, dq = [[1]], _deriv(q)
    for _ in range(J):
        polys.append(_add(_deriv(polys[-1]), _mul(dq, polys[-1])))
    sign, log = np.zeros((2, len(xs), J + 1))
    for i, x in enumerate(xs):
        m, den = float(x).as_integer_ratio()  # den = 2^e
        e = den.bit_length() - 1
        qx = float(sum(c * Fraction(m, den) ** k for k, c in enumerate(q)))
        dens = [den ** k for k in range(len(polys[-1]))]
        for n, p in enumerate(polys):
            acc = 0  # P_n(x) 2^(e deg P_n): sum of c_k m^k den^(deg - k)
            for c, dk in zip(reversed(p), dens):
                acc = acc * m + c * dk
            if acc:
                sign[i, n] = 1 if acc > 0 else -1
                shift = max(abs(acc).bit_length() - 64, 0)
                log[i, n] = (math.log(abs(acc) >> shift)
                             + (shift - e * (len(p) - 1)) * LN2 + qx)
            else:
                log[i, n] = -math.inf
    return sign, log


X2, X_X3 = [0, 0, 1], [0, 1, 0, 1]
GRIDS = {"x^2": GridSpec("lin", 0.05, 5.0, 10), "x+x^3": GridSpec("lin", 0.05, 3.0, 10)}

# (f, psi, J, the worst |delta log| measured on the 21-row mirrored grid);
# the expsqr entries sit at the rounding of q(x) itself, |q| <= 900
CASES = [
    (Gaussian(), "x^2", 24, 1.82e-12), (Gaussian(), "x^2", 40, 3.12e-10),
    (Gaussian(), "x+x^3", 24, 5.54e-12), (Gaussian(), "x+x^3", 40, 1.58e-9),
    (ExpSqr(), "x^2", 24, 1.14e-13), (ExpSqr(), "x^2", 40, 2.27e-13),
    (ExpSqr(), "x+x^3", 24, 2.27e-13), (ExpSqr(), "x+x^3", 40, 3.13e-13),
]


def _q(f, psi):
    """q = -+psi^2 with f o psi = e^q."""
    return [(-1 if f.label == "gaussian" else 1) * c for c in _mul(psi, psi)]


@pytest.mark.parametrize("x", [-1.75, -0.3, 0.0, 0.625, 2.0])
@pytest.mark.parametrize("psi", [X2, X_X3], ids=["x^2", "x+x^3"])
@pytest.mark.parametrize("f", [Gaussian(), ExpSqr()], ids=lambda f: f.label)
def test_oracle_matches_mpmath_at_low_order(f, psi, x):
    # the oracle itself against 50-digit numerical differentiation of e^q
    q = _q(f, psi)
    sign, log = exact_composed_table(q, [x], 8)
    with mp.workdps(50):
        for n in range(9):
            d = mp.diff(lambda t: mp.exp(mp.polyval(q[::-1], t)), mp.mpf(x), n)
            if sign[0, n] == 0:  # an exact zero: the difference quotient's noise
                assert abs(d) < 1e-30 and log[0, n] == -math.inf
            else:
                assert sign[0, n] == mp.sign(d)
                assert log[0, n] == pytest.approx(float(mp.log(abs(d))), abs=1e-13)


@pytest.mark.parametrize("f, psi, J, measured", CASES,
                         ids=[f"{f.label}-{p}-J{J}" for f, p, J, _ in CASES])
def test_bell_kernel_within_its_envelope(f, psi, J, measured):
    coeffs = X2 if psi == "x^2" else X_X3
    inner = Polynomial(coeffs)
    xs = GRIDS[psi].symmetric_points()
    sign, log = log_compose_table(*f.log_jet_table(inner.values(xs), J),
                                  *inner.log_jet_table(xs, J), J)
    exact_sign, exact_log = exact_composed_table(_q(f, coeffs), xs.tolist(), J)
    assert (sign == exact_sign).all()  # exact zeros included
    live = exact_sign != 0
    assert (log[~live] == -math.inf).all()
    assert float(np.abs(log[live] - exact_log[live]).max()) <= MARGIN * measured


# -- the Taylor recurrence against the oracles --------------------------------

def mp_composed_rows(f, psi, xs, J, even=True):
    """[(sign, log|(f o psi)^(n)(x)|) for n <= J] per x of xs by mpmath's
    ``taylor`` of f(psi(t)) / f(psi(x)) at 50 digits.  An exact zero is
    (0, None): for an even f o psi, the odd orders at x = 0, where the
    difference quotients leave noise."""
    rows = []
    with mp.workdps(50):
        for x in map(mp.mpf, xs):
            v0 = f(psi(x))
            c = mp.taylor(lambda t: f(psi(t)) / v0, x, J)
            rows.append([(0, None) if even and not x and n % 2 or not v else
                         (int(mp.sign(v)), float(mp.log(abs(v) * v0) + mp.loggamma(n + 1)))
                         for n, v in enumerate(c)])
    return rows


def assert_matches_rows(sign, log, rows, tol, rel=False):
    """Every entry's sign, and |delta log| <= tol (times max(1, |log|) when
    rel), against rows; the rows' exact zeros are exact zeros."""
    for i, row in enumerate(rows):
        for n, (s, want) in enumerate(row):
            if want is None:
                assert sign[i, n] == 0 and log[i, n] == -math.inf, (i, n)
                continue
            assert sign[i, n] == s, (i, n)
            scale = max(1.0, abs(want)) if rel else 1.0
            assert abs(log[i, n] - want) <= tol * scale, (i, n, log[i, n], want)


def mp_gaussian(y):
    return mp.exp(-y * y)


def mp_pow1px2(a):
    return lambda t: (1 + t * t) ** mp.mpf(a)


# the bench's variant-0 grids: dense.sqrt at J = 24, dense.pow at J = 30
TAYLOR_CASES = [(Sqrt1px2(), mp_pow1px2(0.5), "lin:0.1,2,10", 24)] + [
    (Pow1px2(a), mp_pow1px2(a), "lin:0.5,1.5,2", 30) for a in (1.25, 1.5, 2.5)]


@pytest.mark.parametrize("psi, mp_psi, grid, J", TAYLOR_CASES,
                         ids=[c[0].label for c in TAYLOR_CASES])
def test_taylor_table_matches_mpmath_on_the_bench_grids(psi, mp_psi, grid, J):
    xs = GridSpec.parse(grid).symmetric_points()
    rows = mp_composed_rows(mp_gaussian, mp_psi, xs.tolist(), J)
    sign = composed_taylor_table(Gaussian(), psi, xs, J)[0]
    assert_matches_rows(sign, composed_jet_log_table(Gaussian(), psi, xs, J),
                        rows, 1e-10)


def test_bell_kernel_envelope_on_gaussian_of_sqrt1px2():
    # the dense.sqrt table as the kernel composed it: off by 3.93e-8 at
    # x = -0.1, j = 24, although both input jet tables are good to 1e-13
    psi, J = Sqrt1px2(), 24
    xs = GridSpec.parse("lin:0.1,2,10").symmetric_points()
    rows = mp_composed_rows(mp_gaussian, mp_pow1px2(0.5), xs.tolist(), J)
    sign, log = log_compose_table(*Gaussian().log_jet_table(psi.values(xs), J),
                                  *psi.log_jet_table(xs, J), J)
    assert_matches_rows(sign, log, rows, MARGIN * 3.93e-8)
    with pytest.raises(AssertionError):  # the envelope is the kernel's, not noise
        assert_matches_rows(sign, log, rows, 1e-8)


@pytest.mark.parametrize("J", [100, 160])
def test_taylor_table_matches_the_integer_oracle_at_high_order(J):
    # where the Bell kernel was off by 2.7e-4 (J = 100) and 6.9 with wrong
    # signs (J = 160)
    xs = GridSpec.parse("lin:0.25,5,20").symmetric_points()
    want_sign, want_log = exact_composed_table([0, 0, 0, 0, -1], xs.tolist(), J)
    sign = composed_taylor_table(Gaussian(), Polynomial(X2), xs, J)[0]
    log = composed_jet_log_table(Gaussian(), Polynomial(X2), xs, J)
    assert (sign == want_sign).all()  # exact zeros included
    live = want_sign != 0
    assert (log[~live] == -math.inf).all()
    assert float(np.abs(log[live] - want_log[live]).max()) <= 1e-10


def mp_taylor_recurrence(u, power, x, J):
    """(sign, log|(e^-w)^(n)(x)|) for w = u^power, u a polynomial (ascending
    integer coefficients), at 60 digits: w's Taylor coefficients at x by
    Miller's formula for u's power, then e^-w's by g' = -w' g; reaches
    J = 200 where mpmath's ``taylor`` would take minutes."""
    with mp.workdps(60):
        x = mp.mpf(x)
        uc = [mp.polyval([c * math.comb(i, k) for i, c in enumerate(u)][k:][::-1], x)
              for k in range(len(u))] + [mp.mpf(0)] * J
        w = uc if power == 1 else [uc[0] ** power]
        for n in range(len(w), J + 1):
            w.append(sum((power * k - (n - k)) * uc[k] * w[n - k]
                         for k in range(1, min(n, len(u) - 1) + 1)) / (n * uc[0]))
        g = [mp.mpf(1)]
        for n in range(1, J + 1):
            g.append(-sum(k * w[k] * g[n - k] for k in range(1, n + 1) if w[k]) / n)
        return [(int(mp.sign(v)), float(mp.log(abs(v)) - w[0] + mp.loggamma(n + 1))
                 if v else None) for n, v in enumerate(g)]


# every bench inner function at J = 200 and hi = 8, as (psi, u, power) with
# psi^2 = u^power; |log| reaches 1.2e9 there, so the bound is relative
EXTREMES = [(Sqrt1px2(), [1, 0, 1], 1), (Polynomial(X2), [0, 0, 0, 0, 1], 1)] + [
    (Pow1px2(a), [1, 0, 1], 2 * a) for a in (1.25, 1.5, 1.75, 2.5)]


@pytest.mark.parametrize("psi, u, power", EXTREMES, ids=[c[0].label for c in EXTREMES])
def test_taylor_table_at_the_jet_cap_and_far_out(psi, u, power):
    xs = GridSpec.parse("lin:2,8,3").symmetric_points()  # -8 .. 8, and 0
    J = 200  # the recurrence families' jet cap
    sign, log = composed_taylor_table(Gaussian(), psi, xs, J)
    assert not np.isnan(log).any() and (log < math.inf).all()
    assert (composed_jet_log_table(Gaussian(), psi, xs, J).tobytes() == log.tobytes())
    half = len(xs) // 2 + 1  # the rows x >= 0 mirror these bit for bit
    rows = [mp_taylor_recurrence(u, power, x, J) for x in xs[:half].tolist()]
    assert_matches_rows(sign, log, rows, 1e-13, rel=True)


@pytest.mark.parametrize("f, psi, mp_f, mp_psi, grid, J, even", [
    (ExpSqr(), Sqrt1px2(), lambda y: mp.exp(y * y), mp_pow1px2(0.5),
     "lin:0.1,2,6", 20, True),
    (Sqrt1px2(), Polynomial(X_X3), mp_pow1px2(0.5),
     lambda t: t + t ** 3, "lin:0.1,2,6", 20, True),
    (Pow1px2(0.75), Polynomial([1, 1, 1]), mp_pow1px2(0.75),
     lambda t: 1 + t + t * t, "lin:0.1,2,6", 20, False),
    (Gaussian(), Gaussian(), mp_gaussian, mp_gaussian, "lin:0.1,3,8", 24, True),
    (Gaussian(), GevreyBump(), mp_gaussian, lambda t: mp.exp(-1 / (1 - t * t)),
     "lin:0.05,0.9,6", 20, True),  # even, though gbump declares no parity
], ids=["expsqr-sqrt1px2", "sqrt1px2-x+x^3", "pow1px2-no-parity",
        "gaussian-gaussian-cauchy", "gaussian-gbump-cauchy"])
def test_every_outer_family_and_the_cauchy_square(f, psi, mp_f, mp_psi, grid, J, even):
    # exp and Miller outer recurrences, a psi of no parity (every row), and
    # psi^2 as a Cauchy product of psi's coefficients (gaussian, gbump);
    # gaussian o gaussian's x^4 coefficient at 0 is 2 - 2 = 0, which the
    # float Cauchy product leaves at ~1e-14 of its neighbours
    xs = GridSpec.parse(grid).symmetric_points()
    rows = mp_composed_rows(mp_f, mp_psi, xs.tolist(), J, even)
    sign, log = composed_taylor_table(f, psi, xs, J)
    assert (composed_jet_log_table(f, psi, xs, J).tobytes() == log.tobytes())
    at0 = int(np.flatnonzero(xs == 0)[0])
    if psi.label == "gaussian":
        assert rows[at0][4][1] is None and log[at0, 4] < log[at0, 2] - 30
        rows[at0][4] = (int(sign[at0, 4]), float(log[at0, 4]))
    assert_matches_rows(sign, log, rows, 1e-10)


def test_taylor_table_refuses_past_either_jet_cap():
    xs = GridSpec.parse("lin:0.1,0.9,5").symmetric_points()
    # f's cap first, as for the Bell kernel: sqrt1px2's square is a
    # polynomial, which has none
    with pytest.raises(PreconditionError,
                       match=r"^gaussian: jets supported up to order 200, asked 201$"):
        composed_jet_log_table(Gaussian(), Sqrt1px2(), xs, 201)
    with pytest.raises(PreconditionError,
                       match=r"^gbump:g=1,r=1: jets supported up to order 40, asked 41$"):
        composed_jet_log_table(Gaussian(), GevreyBump(), xs, 41)


@pytest.mark.parametrize("f", [Gaussian(), ExpSqr(), Sqrt1px2()], ids=lambda f: f.label)
def test_taylor_table_refuses_an_overflowing_square(f):
    # psi^2 past the float range is refused; just inside it, no NaN
    with pytest.raises(PreconditionError, match=r"^poly:0,1: psi\^2 overflows "
                                                r"a float at x = -1e\+200$"):
        composed_jet_log_table(f, Polynomial([0, 1]), np.array([-1e200, 0.0, 1e200]), 8)
    with pytest.raises(PreconditionError, match="psi\\^2 overflows a float"):
        composed_jet_log_table(f, Pow1px2(1.5), np.array([-1e60, 0.0, 1e60]), 8)
    xs = np.array([-1e150, -1.0, 0.0, 1.0, 1e150])
    sign, log = composed_taylor_table(f, Polynomial([0, 1]), xs, 8)
    assert not np.isnan(log).any() and (log < math.inf).all()
    assert (np.isinf(log) == (sign == 0)).all()
