"""Composed jet tables against an exact integer oracle.

For f in {gaussian, expsqr} and a polynomial psi with integer coefficients,
f o psi = e^q with q = -+psi^2, and g^(n) = P_n e^q for the integer
polynomials P_0 = 1, P_(n+1) = P_n' + q' P_n.  At a float x = m/2^e,
integer Horner gives P_n(x) 2^(e deg P_n) exactly, so every entry's sign is
exact and log|g^(n)(x)| = log|P_n(x)| + q(x) is good to the rounding of q(x).

``log_compose_table`` forms each entry as a sum over k of f^(k)(psi) B(n, k)
with mixed signs, so it loses digits as J grows.  Each case below pins that
loss: no entry has the wrong sign, and the worst |delta log| stays within
MARGIN times the value measured on numpy's AVX-512 kernels (its AVX2
kernels gave the same worst values).  The composed tables are the one
output whose bytes depend on numpy's SIMD level, so the envelope must hold
at every level.
"""
import math
from fractions import Fraction
from itertools import zip_longest

import mpmath as mp
import numpy as np
import pytest

from gsbench.fdb import log_compose_table
from gsbench.functions import ExpSqr, Gaussian, Polynomial
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
