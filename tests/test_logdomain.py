import math

import pytest
from hypothesis import given, strategies as st

from gsbench.errors import PreconditionError
from gsbench.fdb import Jet, compose_jet
from gsbench.logdomain import LOG_ZERO, LogReal, log_sum_exp, signed_log_sum

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-12)


def test_zero_and_one():
    assert LogReal.zero().is_zero()
    assert LogReal.one().to_float() == 1.0
    assert LogReal.from_float(0.0).is_zero()
    assert LogReal.zero().log_abs == LOG_ZERO


@given(nonzero)
def test_float_round_trip(x):
    # exp(log(x)) round-trips to a few ulps of log|x|, not exactly
    assert LogReal.from_float(x).to_float() == pytest.approx(x, rel=1e-12)


@given(nonzero, nonzero)
def test_mul_matches_floats(a, b):
    got = (LogReal.from_float(a) * LogReal.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12)


@given(nonzero, nonzero)
def test_add_matches_floats(a, b):
    got = (LogReal.from_float(a) + LogReal.from_float(b)).to_float()
    expect = a + b
    # the exp(log(x)) round-trip costs a few ulps of each operand, so under
    # cancellation the error scales with the inputs, not the result
    scale = max(abs(a), abs(b))
    assert got == pytest.approx(expect, abs=scale * 1e-9)


def test_exact_cancellation():
    assert (LogReal.from_float(3.5) + LogReal.from_float(-3.5)).is_zero()


def test_huge_product_no_overflow():
    a = LogReal.from_log(1, 500.0)
    b = a.pow_int(10)
    assert b.log_abs == 5000.0
    assert b.sign == 1


def test_far_exponent_addition_keeps_dominant():
    big = LogReal.from_log(1, 1000.0)
    small = LogReal.from_log(-1, 100.0)
    s = big + small
    assert s.sign == 1
    assert s.log_abs == pytest.approx(1000.0)


def test_pow_int_sign_rule():
    neg = LogReal.from_float(-2.0)
    assert neg.pow_int(3).to_float() == pytest.approx(-8.0)
    assert neg.pow_int(4).to_float() == pytest.approx(16.0)


def test_log_sum_exp_empty_and_known():
    assert log_sum_exp([]) == LOG_ZERO
    got = log_sum_exp([math.log(1.0), math.log(3.0)])
    assert got == pytest.approx(math.log(4.0), rel=1e-15)


@given(st.lists(nonzero, min_size=1, max_size=20))
def test_signed_log_sum_matches_fsum(xs):
    got = signed_log_sum([LogReal.from_float(x) for x in xs]).to_float()
    expect = math.fsum(xs)
    scale = max(abs(x) for x in xs)
    assert got == pytest.approx(expect, abs=scale * 1e-12)


def test_signed_log_sum_order_independent():
    terms = [LogReal.from_float(v) for v in (1.0, -0.3, 0.7, -1.4, 2.2)]
    a = signed_log_sum(terms)
    b = signed_log_sum(list(reversed(terms)))
    assert a == b  # bitwise: two-pass accumulation is order-insensitive


# a log of +inf is a magnitude past the float range, as log jets hold it
OVER, UNDER = LogReal(1, math.inf), LogReal(-1, math.inf)


def test_overflowed_terms_of_one_sign_sum_to_that_sign_at_inf():
    assert signed_log_sum([OVER]) == OVER
    assert signed_log_sum([UNDER, LogReal(1, 3.0), UNDER, LogReal.zero()]) == UNDER
    assert OVER + OVER == OVER and UNDER + LogReal(1, 1e300) == UNDER


def test_overflowed_terms_of_opposite_signs_have_no_sum():
    with pytest.raises(PreconditionError, match="opposite signs"):
        signed_log_sum([OVER, LogReal(1, 2.0), UNDER])
    with pytest.raises(PreconditionError, match="opposite signs"):
        OVER + UNDER


def test_compose_jet_carries_an_overflowed_log_jet_entry():
    # h = (1, +inf, 1) at psi = (0, 2, -1): (h o psi)' = h' psi' and
    # (h o psi)'' = h'' psi'^2 + h' psi'' = 4 - inf
    h = Jet.from_log_row(0.0, [1, 1, 1], [0.0, math.inf, 0.0])
    psi = Jet.from_floats(0.0, [0.0, 2.0, -1.0])
    assert compose_jet(h, psi, 2).values == (LogReal.one(), OVER, UNDER)
    # h'' = -inf: 4 h'' - h' is -inf - inf, h'' + h' past a float has no sign
    h = Jet.from_log_row(0.0, [1, 1, -1], [0.0, math.inf, math.inf])
    assert compose_jet(h, psi, 2).values[2] == UNDER
    with pytest.raises(PreconditionError, match="opposite signs"):
        compose_jet(h, Jet.from_floats(0.0, [0.0, 1.0, 1.0]), 2)
