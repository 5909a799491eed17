"""Batched jet tables against independent oracles.

* the scalar signed-log (``LogReal``) recurrences the families used before
  their jets were batched, one log-domain operation at a time;
* 60-digit mpmath runs of the same recurrences, which also give each entry's
  condition number;
* closed forms in mpmath: Hermite polynomials for exp(-+x^2), and Leibniz on
  (x+i)^a (x-i)^a for (1+x^2)^a;
* for polynomials, the per-point ``Fraction`` jet (every order a ``Fraction``
  sum) read into a table one jet per point;
* for the Gevrey bump, its program (Miller's power, then the exp rule) run
  at 50 digits, itself checked against mpmath's ``taylor``.
"""
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from gsbench.experiments import compactness_blowup, composed_jet_log_table
from gsbench.fdb import Jet
from gsbench.functions import (ExpSqr, Gaussian, GevreyBump, ModelFunction,
                               MonomialBump, Polynomial, Pow1px2, Sqrt1px2,
                               jet_log_abs, parse_function)
from gsbench.grids import GridSpec
from gsbench.logdomain import LOG_ZERO, LogReal
from gsbench.weights import WeightFunction

# entries whose first-order rounding amplification (see mp_recurrence) stays
# below this are compared; past it the recurrence itself cannot deliver 9
# digits, in any float arithmetic
WELL_CONDITIONED = 1e5


# -- oracle: the scalar LogReal recurrences ---------------------------------

def _ode_recurrence_jet(x, J, f0, f1, two_a):
    """Jet from (1+x^2) f' = two_a * x * f via the Leibniz recurrence

        f^(n+1) = [ (two_a - 2n) x f^(n) + n (two_a - n + 1) f^(n-1) ] / (1+x^2)
    """
    inv = -math.log1p(x * x)  # log of 1/(1+x^2)
    vals = [f0, f1]
    cx = LogReal.from_float(x)
    for n in range(1, J):
        t1 = LogReal.from_float(two_a - 2.0 * n) * cx * vals[n]
        t2 = LogReal.from_float(n * (two_a + (1 - n))) * vals[n - 1]
        vals.append((t1 + t2) * LogReal.from_log(1, inv))
    return vals[: J + 1]


def logreal_jet(f, x, J):
    """f^(0..J)(x) as LogReals: Hermite for exp(s x^2),
    f^(n+1) = 2s x f^(n) + 2s n f^(n-1); the ODE recurrence for (1+x^2)^a."""
    x = float(x)
    if isinstance(f, (Gaussian, ExpSqr)):
        c = LogReal.from_float(2.0 * f.s * x)
        vals = [LogReal.from_log(1, f.s * x * x)]
        if J >= 1:
            vals.append(c * vals[0])
        for n in range(1, J):
            vals.append(c * vals[n]
                        + LogReal.from_float(2.0 * f.s * n) * vals[n - 1])
        return vals[: J + 1]
    f0 = LogReal.from_float(f.value(x))
    # f' = 2a x f / (1+x^2), as a log-domain product so tiny x keeps its digits
    f1 = (LogReal.from_float(2.0 * f.a) * LogReal.from_float(x)
          * f0 * LogReal.from_log(1, -math.log1p(x * x)))
    return _ode_recurrence_jet(x, J, f0, f1, 2.0 * f.a)[: J + 1]


# -- oracle: the same recurrences at 60 digits ------------------------------

def mp_recurrence(f, x, J):
    """(values, kappa) of f^(0..J)(x), F(n+1) = A_n F(n) + B_n F(n-1), at 60
    digits.  kappa[n] is the first-order amplification of one relative
    rounding in each term of every step, sum_m |G(n, m+1)| (|A_m F(m)| +
    |B_m F(m-1)|) / |F(n)|, with G(., m) the solution started by
    (F(m-1), F(m)) = (0, 1); it is infinite at a root."""
    with mp.workdps(60):
        x = mp.mpf(x)
        if isinstance(f, (Gaussian, ExpSqr)):
            A = [2 * f.s * x] * J
            B = [2 * f.s * n for n in range(J)]
            F = [mp.exp(f.s * x * x)]
        else:
            q, two_a = 1 + x * x, 2 * mp.mpf(f.a)
            A = [(two_a - 2 * n) * x / q for n in range(J)]
            B = [n * (two_a + (1 - n)) / q for n in range(J)]
            F = [q ** mp.mpf(f.a)]
        for n in range(J):
            F.append(A[n] * F[n] + B[n] * (F[n - 1] if n else 0))
        err = [abs(F[0])] + [mp.mpf(0)] * J
        for m in range(J):
            size = abs(A[m] * F[m]) + abs(B[m] * (F[m - 1] if m else 0))
            err[m + 1] += size
            g_prev, g = mp.mpf(0), mp.mpf(1)
            for n in range(m + 1, J):
                g_prev, g = g, A[n] * g + B[n] * g_prev
                err[n + 1] += abs(g) * size
        kappa = [float(e / abs(v)) if v else math.inf for e, v in zip(err, F)]
        return F, kappa


# Pow1px2 rejects subnormal exponents (test_functions), so a is a normal float
FAMILY = (st.sampled_from([Gaussian(), ExpSqr(), Sqrt1px2()])
          | st.floats(-3.0, 3.0, allow_subnormal=False).map(Pow1px2))


@settings(max_examples=40, deadline=None)
@given(FAMILY, st.floats(-9.0, 9.0), st.integers(0, 60))
def test_batched_recurrence_matches_logreal_and_60_digit_oracles(f, x, J):
    sign, logs = f.log_jet_table([x], J)
    oracle = logreal_jet(f, x, J)
    ref, kappa = mp_recurrence(f, x, J)
    for n in range(J + 1):
        if x == 0 and ref[n] == 0:  # odd orders vanish exactly at 0
            assert sign[0, n] == 0 and logs[0, n] == LOG_ZERO
            assert oracle[n].is_zero()
        elif kappa[n] <= WELL_CONDITIONED:
            want = float(mp.log(abs(ref[n])))
            tol = 1e-9 * max(1.0, abs(want))
            assert sign[0, n] == oracle[n].sign == mp.sign(ref[n])
            assert abs(logs[0, n] - want) <= tol
            assert abs(oracle[n].log_abs - want) <= tol


# -- closed forms at fixed points --------------------------------------------

def closed_form(f, x, n):
    """f^(n)(x) to 60 digits, independent of the recurrences."""
    with mp.workdps(60):
        x = mp.mpf(x)
        if isinstance(f, Gaussian):
            return (-1) ** n * mp.hermite(n, x) * mp.exp(-x * x)
        if isinstance(f, ExpSqr):
            return mp.re((-1j) ** n * mp.hermite(n, 1j * x)) * mp.exp(x * x)
        a = mp.mpf(f.a)
        return mp.re(mp.fsum(
            mp.binomial(n, k) * mp.ff(a, k) * (x + 1j) ** (a - k)
            * mp.ff(a, n - k) * (x - 1j) ** (a - n + k) for k in range(n + 1)))


FIXED_X = [-8.5, -5.2, -2.75, -1.1, -0.35, 0.004, 0.6, 1.3, 2.2, 3.9, 6.6, 9.0]
FIXED = [  # (family, the order n paired with each of FIXED_X)
    (Gaussian(), [0, 1, 2, 5, 8, 13, 17, 24, 31, 40, 60, 49]),
    (ExpSqr(), [0, 1, 2, 5, 8, 13, 17, 24, 31, 40, 49, 60]),
    (Sqrt1px2(), [40, 60, 50, 30, 20, 13, 10, 5, 2, 8, 1, 0]),
    (Pow1px2(1.25), [0, 3, 60, 50, 40, 30, 20, 24, 17, 20, 4, 6]),
]


@pytest.mark.parametrize("f, orders", FIXED, ids=[f.label for f, _ in FIXED])
def test_batched_recurrence_matches_closed_forms(f, orders):
    sign, logs = f.log_jet_table(FIXED_X, max(orders))
    for i, (x, n) in enumerate(zip(FIXED_X, orders)):
        assert mp_recurrence(f, x, n)[1][n] < 1e3  # away from roots
        want = closed_form(f, x, n)
        assert sign[i, n] == mp.sign(want)
        # log|f^(n)| to 1e-10: the relative error of f^(n) itself
        assert abs(logs[i, n] - float(mp.log(abs(want)))) <= 1e-10


@pytest.mark.parametrize("f", [Gaussian(), ExpSqr()], ids=lambda f: f.label)
def test_zero_row_equals_exact_jet(f):
    J = 200
    sign, logs = f.log_jet_table([0.0], J)
    exact = f.jet(0, J)
    assert exact.kind == "exact"
    for n, (v, want) in enumerate(zip(exact.values, jet_log_abs(exact))):
        if n % 2:
            assert v == 0 and sign[0, n] == 0 and logs[0, n] == LOG_ZERO
        else:
            assert sign[0, n] == (1 if v > 0 else -1)
            assert abs(logs[0, n] - want) <= 1e-15 * max(1.0, abs(want))


def test_single_point_jet_is_a_table_row():
    for f in (Gaussian(), ExpSqr(), Sqrt1px2(), Pow1px2(-0.5)):
        sign, logs = f.log_jet_table([-2.5, 0.7], 25)
        jet = f.jet(0.7, 25)
        assert jet.kind == "log" and jet.base_point == 0.7
        assert [v.sign for v in jet.values] == sign[1].tolist()
        assert [v.log_abs for v in jet.values] == logs[1].tolist()


def test_default_table_reads_one_jet_per_point():
    cases = [(Polynomial([1, -2, 0, 3]), [-1.5, 0.0, 0.25, 2.0]),
             (GevreyBump(1.0, 3.0), [-3.5, -1.0, 0.0, 2.9]),
             (MonomialBump(3, 5), [0.0])]
    for f, xs in cases:
        sign, logs = f.log_jet_table(xs, 8)
        assert sign.shape == logs.shape == (len(xs), 9)
        for i, x in enumerate(xs):
            jet = f.jet(x, 8)
            assert logs[i].tolist() == jet_log_abs(jet)
            assert sign[i].tolist() == [
                v.sign if jet.kind == "log" else (v > 0) - (v < 0)
                for v in jet.values]


def test_jets_and_verdicts_hold_python_numbers():
    # a numpy bool in a verdict serializes as 1.0, not true
    for f in (Gaussian(), ExpSqr(), Sqrt1px2(), Pow1px2(1.5)):
        for v in f.jet(0.7, 12).values:
            assert type(v.sign) is int and type(v.log_abs) is float
    rep = compactness_blowup(Pow1px2(1.5), 1.0, 1, WeightFunction.gevrey(2.0),
                             30)
    assert rep.rows and all(type(r["verdict"]) is bool for r in rep.rows)
    assert all(type(r[c]) is float for r in rep.rows
               for c in ("log_full_fdb", "log_shortcut", "log_deriv_power"))
    assert type(rep.verdict) is bool


# -- polynomials: the exact Fraction-sum oracle -----------------------------

class FractionPolynomial(Polynomial):
    """The oracle: every order j <= J of the jet a ``Fraction`` sum of
    c_i i!/(i-j)! x^(i-j), and the ``ModelFunction`` table, one such jet per
    point."""

    log_jet_table = ModelFunction.log_jet_table

    def jet(self, x, J: int) -> Jet:
        xq = Fraction(x)
        vals = []
        for j in range(J + 1):
            acc = Fraction(0)
            for i in range(j, len(self.coeffs)):
                acc += (self.coeffs[i] * (math.factorial(i) // math.factorial(i - j))
                        * xq ** (i - j))
            vals.append(acc)
        return Jet(xq, tuple(vals), "exact")


EDGE_XS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
           -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -0.5]
POLY_X = st.one_of(
    st.sampled_from(EDGE_XS),
    st.floats(-1e-307, 1e-307),  # subnormals and tiny normals
    st.floats(1e299, 1e301) | st.floats(-1e301, -1e299),
    st.floats(allow_nan=False, allow_infinity=False))
COEFF = st.one_of(st.just(Fraction(0)), st.integers(-10 ** 6, 10 ** 6).map(Fraction),
                  st.fractions(max_denominator=10 ** 40))


def assert_poly_equals_oracle(coeffs, xs, J):
    p, oracle = Polynomial(coeffs), FractionPolynomial(coeffs)
    sign, logs = p.log_jet_table(xs, J)
    want_sign, want_logs = oracle.log_jet_table(xs, J)
    assert sign.tolist() == want_sign.tolist()
    assert logs.tolist() == want_logs.tolist()
    for x in xs:
        jet, want = p.jet(x, J), oracle.jet(x, J)
        assert jet.kind == "exact" and jet.base_point == want.base_point
        assert jet.values == want.values


@settings(max_examples=150, deadline=None)
@given(st.lists(COEFF, min_size=1, max_size=9), st.integers(-3, 4),
       st.lists(POLY_X, min_size=1, max_size=6))
def test_polynomial_table_and_jet_equal_fraction_oracle(coeffs, dj, xs):
    # J below, at and above the degree: orders past it are exact zeros
    J = max(0, len(Polynomial(coeffs).coeffs) - 1 + dj)
    assert_poly_equals_oracle(coeffs, xs, J)


@pytest.mark.parametrize("coeffs", [
    [0, 0, 1], [1, -7, 3, 0, Fraction(1, 2)], [0, 2, 0, 1],
    [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 9)], [4]], ids=str)
@pytest.mark.parametrize("J", [0, 1, 2, 5, 24])
def test_polynomial_table_equals_fraction_oracle_on_edges(coeffs, J):
    assert_poly_equals_oracle(coeffs, EDGE_XS, J)


def test_zero_polynomial_table_is_log_zero():
    p = parse_function("poly:0")
    sign, logs = p.log_jet_table(EDGE_XS, 6)
    assert (sign == 0).all() and (logs == LOG_ZERO).all()
    assert p.jet(2.5, 6).values == (Fraction(0),) * 7


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_polynomial_jet_rejects_non_finite_x_like_oracle(x):
    oracle = FractionPolynomial([1, -2, 0, 3])
    with pytest.raises((OverflowError, ValueError)) as want:
        oracle.jet(x, 4)
    with pytest.raises((OverflowError, ValueError)) as want_table:
        oracle.log_jet_table([0.5, x], 4)
    p = Polynomial([1, -2, 0, 3])
    with pytest.raises(want.type):
        p.jet(x, 4)
    with pytest.raises(want_table.type):
        p.log_jet_table([0.5, x], 4)


# -- what a stability check's one table rests on ----------------------------

def family(f):
    """f's (sign, log) table pair."""
    return lambda xs, J: f.log_jet_table(xs, J)


def composed(f, psi):
    """The composed table of f o psi, its log only."""
    return lambda xs, J: (composed_jet_log_table(f, psi, xs, J),)


# (name, (xs, J) -> tables, grid, J): every family and the composed tables of
# the composed seminorms
STABILITY_TABLES = [
    *((f.label, family(f), g, 20)
      for f in (Gaussian(), ExpSqr(), Sqrt1px2(), parse_function("pow1px2:a=1.5"),
                parse_function("poly:0,0,1"), parse_function("poly:1,-2,0,3/2"),
                parse_function("gbump:g=0.5,r=9"))
      for g in (GridSpec.parse("lin:0.05,8,160"), GridSpec.parse("log:0.01,8,80"))),
    ("gaussian o x^2", composed(Gaussian(), parse_function("poly:0,0,1")),
     GridSpec.parse("lin:0.05,5,100"), 16),
    ("gaussian o x^2", composed(Gaussian(), parse_function("poly:0,0,1")),
     GridSpec.parse("log:0.01,8,80"), 12),
    ("gaussian o sqrt1px2", composed(Gaussian(), Sqrt1px2()),
     GridSpec.parse("lin:0.1,2,10"), 24),
]


@pytest.mark.parametrize("name, table, grid, J", STABILITY_TABLES,
                         ids=[f"{n}-{g.spec_string()}" for n, _, g, _ in STABILITY_TABLES])
def test_tables_keep_low_orders_and_rows_bit_for_bit(name, table, grid, J):
    # stable_sup reads the table over the symmetric points as the middle
    # rows and low orders of one table over the extended grid at the raised
    # order: an order does not depend on higher ones, a row on other points
    xs = grid.symmetric_points()
    ext, pad = grid.extended_symmetric_points()
    raised = math.ceil(J * 1.25)
    for want, higher, wider, both in zip(table(xs, J), table(xs, raised),
                                         table(ext, J), table(ext, raised)):
        assert higher[:, :J + 1].tobytes() == want.tobytes()
        assert wider[pad:-pad].tobytes() == want.tobytes()
        assert both[pad:-pad, :J + 1].tobytes() == want.tobytes()


# -- the Gevrey bump: Miller's power, then the exp rule ---------------------

def mp_gbump(g, y, J):
    """[(sign, log|F^(n)(y)|, kappa)] for n <= J, F(y) = exp(-(1 - y^2)^-g),
    at 50 digits: u = v^-g for v = 1 - y^2 by Miller's rule, then e^-u by
    the exp rule.  kappa is the exp rule's cancellation at order n,
    sum_k |k q_k G_(n-k)| / |n G_n|; an exact zero is (0, -inf, 1)."""
    with mp.workdps(50):
        y, g = mp.mpf(y), mp.mpf(g)
        v = [1 - y * y, -2 * y, mp.mpf(-1)]
        u = [v[0] ** -g]
        for n in range(1, J + 1):
            u.append(sum((-g * k - (n - k)) * v[k] * u[n - k]
                         for k in range(1, min(n, 2) + 1)) / (n * v[0]))
        G, rows = [mp.exp(-u[0])], [(1, float(-u[0]), 1.0)]
        for n in range(1, J + 1):
            terms = [-k * u[k] * G[n - k] for k in range(1, n + 1)]
            G.append(sum(terms) / n)
            rows.append((int(mp.sign(G[n])), float(mp.log(abs(G[n])) + mp.loggamma(n + 1)),
                         float(sum(map(abs, terms)) / abs(n * G[n])))
                        if G[n] else (0, -math.inf, 1.0))
        return rows


@pytest.mark.parametrize("g, y", [(0.5, 0.3), (1, -0.9), (2, 0.99), (1, 0.0)])
def test_gbump_oracle_matches_mpmath_taylor(g, y):
    J = 12
    F = lambda t: mp.exp(-(1 - t * t) ** -mp.mpf(g))
    with mp.workdps(50):
        y0 = F(mp.mpf(y))
        c = mp.taylor(lambda t: F(t) / y0, mp.mpf(y), J)
        for n, (s, log, _) in enumerate(mp_gbump(g, y, J)):
            if not y and n % 2:  # an even F: the quotients' noise at 0
                assert s == 0 and abs(c[n]) < 1e-30
                continue
            assert s == mp.sign(c[n])
            want = float(mp.log(abs(c[n]) * y0) + mp.loggamma(n + 1))
            assert abs(log - want) <= 1e-13 * max(1.0, abs(want))


def assert_gbump_matches(f, ys, J, tol):
    """Every entry of f's table at ys against ``mp_gbump``: the sign, exact
    zeros, and |delta log| <= tol(kappa) max(1, |log|)."""
    sign, log = f.log_jet_table(ys, J)
    for i, y in enumerate(ys):
        for n, (s, want, kappa) in enumerate(mp_gbump(f.gamma, y, J)):
            assert sign[i, n] == s, (y, n)
            if s:
                err = abs(log[i, n] - want) / max(1.0, abs(want))
                assert err <= tol(kappa), (y, n, err, kappa)
            else:
                assert log[i, n] == -math.inf, (y, n)


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_gbump_jets_match_the_50_digit_program_at_order_40(g):
    # where the exp rule cancels (kappa > 1e3: g = 0.5 near the edge) every
    # float method loses digits, so the bound grows with kappa there
    assert_gbump_matches(GevreyBump(g), [-0.999, -0.9, 0.0, 0.3, 0.7, 0.99, 0.999],
                         40, lambda kappa: max(1e-11, 1e-14 * kappa))


@pytest.mark.parametrize("g", [1.0, 2.0])
def test_gbump_jets_to_the_cap_near_the_edge(g):
    # the order-40 Leibniz loop these replace returned every entry as 0 at
    # g = 2, y >= 0.99 and g = 1, y = 0.999999
    assert_gbump_matches(GevreyBump(g), [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999,
                                         0.999999], 200, lambda kappa: 1e-10)


@pytest.mark.parametrize("r", [1e-300, 3.0, 1e200])
def test_gbump_scales_by_its_radius(r):
    # f(x) = F(x/r): log|f^(n)(x)| = log|F^(n)(x/r)| - n log r, with no r^2
    # formed (it under- or overflows at r = 1e-300, 1e200)
    import numpy as np
    ys = GridSpec.parse("lin:0.05,1.5,16").symmetric_points()
    sign, log = GevreyBump(2.0, r).log_jet_table(ys * r, 30)
    want_sign, want = GevreyBump(2.0).log_jet_table(ys, 30)
    want = want - np.arange(31) * math.log(r)
    assert (sign == want_sign).all() and ((log == -math.inf) == (want == -math.inf)).all()
    live = want > -math.inf
    err = np.abs(log[live] - want[live]) / np.maximum(1.0, np.abs(want[live]))
    assert (err <= 1e-12).all()
