"""The QUADPACK port against its oracle, scipy.integrate.quad: the same
Fortran algorithm, so value, error estimate and the warning verdict must
agree bit for bit."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gsbench import quadpack
from gsbench.weights import WeightFunction, check_weight_conditions

scipy_integrate = pytest.importorskip("scipy.integrate")

LIMITS = (3, 5, 10, 50, 200)
LOG2_KNOTS = [10.0 ** (k / 4) for k in range(-12, 49)]
LOG2_TABLE = WeightFunction.tabulated(LOG2_KNOTS,
                                      [math.log1p(t) ** 2 for t in LOG2_KNOTS])


def oracle(f, a, b, limit):
    """(value, abs_error, warned) of scipy's quad on f at one node a call."""
    with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v, e = scipy_integrate.quad(lambda x: float(f(np.array([x]))[0]),
                                    a, b, limit=limit)
    warned = any(issubclass(c.category, scipy_integrate.IntegrationWarning)
                 for c in caught)
    return v, e, warned


def quad(f, a, b, limit):
    """(value, abs_error, ier) of the integral of f(t) over [a, b]: a batch
    of one."""
    return quadpack.quad_many(lambda t, owner: f(t), [(a, b)], limit)[0]


def assert_bit_equal(f, a, b, limit):
    v, e, ier = quad(f, a, b, limit)
    assert (v, e, ier != 0) == oracle(f, a, b, limit), (a, b, limit)
    return ier


def by_owner(fs):
    """The batch integrand that gives node t[k] the value fs[owner[k]](t[k])."""
    def f(t, owner):
        y = np.empty_like(t)
        for i, g in enumerate(fs):
            y[owner == i] = g(t[owner == i])
        return y
    return f


@pytest.mark.parametrize("w", [
    *(WeightFunction.gevrey(d) for d in (0.5, 1, 1.5, 2, 3, 4)),
    *(WeightFunction.logpow(s) for s in (1.75, 2, 2.25, 2.5, 3)),
    LOG2_TABLE], ids=lambda w: w.label)
def test_every_weight_check_integral_equals_quad(w, monkeypatch):
    calls = []

    def recording(f, intervals, limit=50):
        rows = quad_many(f, intervals, limit)
        calls.extend((f, i, a, b, limit, row) for i, ((a, b), row) in enumerate(zip(intervals, rows)))
        return rows
    quad_many = quadpack.quad_many
    monkeypatch.setattr(quadpack, "quad_many", recording)
    check_weight_conditions(w)
    monkeypatch.undo()
    # beta's pieces and (epsilon)'s 30 ordinates, each of a table's gaps too,
    # each row of the batch equal to scipy's quad of its own integrand
    assert len(calls) >= 32
    for f, i, a, b, limit, (v, e, ier) in calls:
        g = lambda x: f(x, np.zeros(x.shape, int) + i)
        assert (v, e, ier != 0) == oracle(g, a, b, limit), (i, a, b, limit)


# integrands of +, -, *, /, abs and sqrt, evaluated elementwise by numpy
# (IEEE operations, so one node at a time gives the same bits)
LEAVES = st.one_of(st.just(("x",)), st.tuples(st.just("c"), st.sampled_from(
    [0.0, 0.5, 1.0, 2.0, -1.0, 1e-3, 3.7])))
EXPRS = st.recursive(LEAVES, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["abs", "sqrt"]), sub),
    st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub)), max_leaves=8)


def evaluate(e, x):
    kind = e[0]
    if kind == "x":
        return x
    if kind == "c":
        return np.full_like(x, e[1])
    if kind == "abs":
        return np.abs(evaluate(e[1], x))
    if kind == "sqrt":
        return np.sqrt(np.abs(evaluate(e[1], x)))
    a, b = evaluate(e[1], x), evaluate(e[2], x)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[kind]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(EXPRS, st.sampled_from([-2.0, 0.0, 0.5, 1.0]),
       st.sampled_from([1e-3, 0.5, 1.0, 4.0, math.inf]), st.sampled_from(LIMITS))
def test_basic_operation_integrands_equal_quad(e, a, length, limit):
    finite = [True]

    def f(x):
        y = evaluate(e, x)
        finite[0] = finite[0] and bool(np.all(np.isfinite(y)))
        return y
    with np.errstate(all="ignore"):
        got = quad(f, a, a + length, limit)
        # where the integrand reaches inf or NaN, Fortran's and Python's
        # max and min part ways; the port promises finite integrands only
        assume(finite[0])
        v, e_, warned = oracle(f, a, a + length, limit)
    assert (got[0], got[1], got[2] != 0) == (v, e_, warned)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.lists(st.tuples(EXPRS, st.sampled_from([-2.0, 0.0, 0.5, 1.0]),
                          st.sampled_from([1e-3, 0.5, 1.0, 4.0, math.inf])),
                min_size=1, max_size=12), st.sampled_from(LIMITS))
def test_a_batch_equals_quad_integral_by_integral(cases, limit):
    # each interval its own integrand, finite or [a, inf), in one batch
    finite = [True] * len(cases)

    def integrand(i, e):
        def g(x):
            y = evaluate(e, x)
            finite[i] = finite[i] and bool(np.all(np.isfinite(y)))
            return y
        return g
    f = by_owner([integrand(i, e) for i, (e, _, _) in enumerate(cases)])
    with np.errstate(all="ignore"):
        rows = quadpack.quad_many(f, [(a, a + length) for _, a, length in cases], limit)
        assume(any(finite))
        for (e, a, length), (v, e_, ier), ok in zip(cases, rows, finite):
            if ok:
                assert (v, e_, ier != 0) == oracle(lambda x: evaluate(e, x), a, a + length, limit)


# one integrand for each ier; the limit-10 case ends with ier 1 past
# last = limit/2 + 2, where dqpsrt orders only the first limit + 3 - last
# errors
IER_CASES = [
    (lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, 50, 0),
    (lambda x: 1.0 / x, 1.0, math.inf, 3, 1),
    (lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, 10, 1),
    (lambda x: 0.5 * (3.7 * x), 0.5, math.inf, 50, 2),
    (lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, 200, 3),
    (lambda x: x, 0.5, math.inf, 50, 4),
    (lambda x: 1.0 / (x * x * x), 0.0, 1.0, 50, 5),
    (lambda x: x / (1.0 + x), 0.0, math.inf, 200, 5),
]


def test_each_ier_equals_quad(monkeypatch):
    lasts = []

    def recording(limit, last, *args):
        lasts.append((limit, last))
        return qpsrt(limit, last, *args)
    qpsrt = quadpack._qpsrt
    monkeypatch.setattr(quadpack, "_qpsrt", recording)
    with np.errstate(all="ignore"):
        iers = [assert_bit_equal(f, a, b, limit) for f, a, b, limit, _ in IER_CASES]
    assert iers == [want for *_, want in IER_CASES]
    assert any(last > limit // 2 + 2 for limit, last in lasts)


def test_each_ier_in_one_batch_per_limit():
    for limit in sorted({limit for _, _, _, limit, _ in IER_CASES}):
        cases = [(f, a, b, want) for f, a, b, lim, want in IER_CASES if lim == limit]
        with np.errstate(all="ignore"):
            rows = quadpack.quad_many(by_owner([f for f, *_ in cases]),
                                      [(a, b) for _, a, b, _ in cases], limit)
            for (f, a, b, want), (v, e, ier) in zip(cases, rows):
                assert ier == want, (a, b, limit)
                assert (v, e, ier != 0) == oracle(f, a, b, limit), (a, b, limit)
