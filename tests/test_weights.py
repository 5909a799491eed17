import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsbench.errors import BracketError, PreconditionError, RangeError
from gsbench.grids import GridSpec
from gsbench.weights import (H_BOUND, ConjugateEvaluator, WeightFunction,
                             check_weight_conditions, conjugate_shift_bound,
                             factorial_domination, find_log_scaling_constant,
                             first_true, parse_weight, scaled_weight,
                             verify_log_scaling_constant)

GRID = GridSpec("log", 1e-2, 1e6, 400)


# -- weight evaluation ------------------------------------------------------

def test_gevrey_values():
    w = WeightFunction.gevrey(2)
    assert w(4.0) == pytest.approx(2.0)
    assert w(-4.0) == pytest.approx(2.0)  # even extension
    assert w(0.0) == 0.0


def test_logpow_vanishes_below_one():
    w = WeightFunction.logpow(2)
    assert w(0.5) == 0.0
    assert w(1.0) == 0.0
    assert w(math.e) == pytest.approx(1.0)


def test_tabulated_interpolates_in_log_t():
    w = WeightFunction.tabulated([1.0, 100.0], [0.0, 2.0])
    assert w(10.0) == pytest.approx(1.0)  # midpoint in log t
    with pytest.raises(RangeError):
        w(1e5)


def hexes(vals) -> list:
    """Bit-level view: equal hex strings are equal floats, NaN equals NaN and
    -0.0 differs from 0.0."""
    return [float(v).hex() for v in vals]


POINT_T = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.0000000000000002,
                            math.e, -2.0, 1e-300, math.inf, math.nan])
           | st.floats(-1e6, 1e6))
VALUE_WEIGHTS = [WeightFunction.gevrey(2), WeightFunction.gevrey(2.25),
                 WeightFunction.gevrey(0.7), WeightFunction.logpow(2),
                 WeightFunction.logpow(2.25), WeightFunction.logpow(1.5),
                 scaled_weight(WeightFunction.logpow(2), 1.5),
                 WeightFunction.custom(lambda t: math.sqrt(t) + 1.0)]


@settings(max_examples=80, deadline=None)
@given(st.lists(POINT_T, max_size=40), st.sampled_from(VALUE_WEIGHTS))
def test_values_match_pointwise_calls(ts, w):
    assert hexes(w.values(ts)) == hexes([w(t) for t in ts])
    assert hexes(w.values(np.array(ts))) == hexes([w(t) for t in ts])


@pytest.mark.parametrize("w", VALUE_WEIGHTS[:6], ids=lambda w: w.label)
def test_values_match_pointwise_on_a_large_grid(w):
    # t^(1/2.25) on this grid is where a vectorized power rounded differently
    xs = GridSpec("log", 1e-3, 1e3, 20000).symmetric_points()
    assert hexes(w.values(xs)) == hexes([w(float(x)) for x in xs])


def test_tabulated_values_match_pointwise_and_raise_alike():
    w = WeightFunction.tabulated([1e-3, 1.0, 10.0, 1e6], [0.0, 1.0, 1.5, 4.0])
    ts = [1e-3, -1e-3, 0.5, -1.0, 3.0, 10.0, -7e5, 1e6]
    assert hexes(w.values(ts)) == hexes([w(t) for t in ts])
    for bad in ([0.0, 1.0], [1.0, 2e6], [-1e-4]):
        with pytest.raises(RangeError):
            [w(t) for t in bad]
        with pytest.raises(RangeError):
            w.values(bad)


def test_tabulated_rejects_decreasing():
    with pytest.raises(PreconditionError):
        WeightFunction.tabulated([1.0, 2.0], [1.0, 0.5])


def test_parse_weight_specs():
    assert parse_weight("gevrey:d=2").d == 2
    assert parse_weight("logpow:s=2").s == 2
    with pytest.raises(PreconditionError):
        parse_weight("gevrey:q=2")
    with pytest.raises(PreconditionError):
        parse_weight("mystery")


def test_scaled_weight_gevrey_closed_form():
    w = scaled_weight(WeightFunction.gevrey(2), 1.5)
    assert w.kind == "gevrey"
    assert w.d == pytest.approx(3.0)


def test_scaled_weight_generic():
    w = scaled_weight(WeightFunction.logpow(2), 2.0)
    base = WeightFunction.logpow(2)
    assert w(100.0) == pytest.approx(base(10.0))


# -- Young conjugate --------------------------------------------------------

def test_closed_form_plateau_and_value():
    c = ConjugateEvaluator(WeightFunction.gevrey(2))
    assert c(0.0) == -1.0
    assert c(0.5) == -1.0  # sd = 1 boundary
    # sd = e: value is sd(log sd - 1) = 0
    assert c(math.e / 2.0) == pytest.approx(0.0, abs=1e-12)
    assert c(3.0) == pytest.approx(6.0 * (math.log(6.0) - 1.0))


@pytest.mark.parametrize("d", [1.5, 2.0, 3.0])
def test_numeric_sup_matches_closed_form(d):
    w = WeightFunction.gevrey(d)
    cf = ConjugateEvaluator(w)
    ns = ConjugateEvaluator(w, method="numeric-sup")
    for s in np.logspace(math.log10(1.0 / d), 2, 40):
        s = float(s)
        assert ns(s) == pytest.approx(cf(s), rel=1e-9, abs=1e-9)


def test_numeric_sup_monotone_in_s():
    c = ConjugateEvaluator(WeightFunction.logpow(2))
    vals = [c(float(s)) for s in np.linspace(0.5, 20, 30)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_closed_form_rejected_for_non_gevrey():
    with pytest.raises(PreconditionError):
        ConjugateEvaluator(WeightFunction.logpow(2), method="closed-form")


def test_negative_s_rejected():
    c = ConjugateEvaluator(WeightFunction.gevrey(2))
    with pytest.raises(PreconditionError):
        c(-1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.1, max_value=50.0))
def test_conjugate_convex_in_s(s1, s2):
    c = ConjugateEvaluator(WeightFunction.gevrey(2))
    mid = 0.5 * (s1 + s2)
    assert c(mid) <= 0.5 * (c(s1) + c(s2)) + 1e-9


# -- minimal-witness search -------------------------------------------------

def _first_true_checked(threshold, lo, hi):
    """first_true on n >= threshold, checked against a linear scan; every
    probe must lie in [lo, hi]."""
    probes = []

    def holds(n):
        probes.append(n)
        return n >= threshold

    got = first_true(holds, lo, hi)
    assert got == next((n for n in range(lo, hi + 1) if n >= threshold), None)
    assert all(lo <= n <= hi for n in probes)
    return got


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=3000), st.data())
def test_first_true_matches_linear_scan(lo, span, data):
    hi = lo + span
    # hi + 1 leaves no witness in [lo, hi]
    threshold = data.draw(st.integers(min_value=lo, max_value=hi + 1))
    _first_true_checked(threshold, lo, hi)


@pytest.mark.parametrize("threshold", sorted(
    {2 ** k + e for k in range(1, 13) for e in (-1, 0, 1)}))
def test_first_true_at_powers_of_two(threshold):
    assert _first_true_checked(threshold, 1, 5000) == threshold


def test_first_true_past_the_last_power_of_two():
    # (2^19, 10^6] is reached only by the probe clamped to hi
    assert _first_true_checked(700_001, 1, H_BOUND) == 700_001
    assert _first_true_checked(H_BOUND, 1, H_BOUND) == H_BOUND


def test_first_true_bounds():
    assert _first_true_checked(5, 5, 5) == 5
    assert _first_true_checked(6, 5, 5) is None
    assert _first_true_checked(1, 7, 100) == 7
    assert _first_true_checked(101, 7, 100) is None


# -- condition report -------------------------------------------------------

def test_gevrey_conditions_all_hold():
    rep = check_weight_conditions(WeightFunction.gevrey(2), GRID)
    assert all(r.verdict for r in rep.records())
    assert rep.doubling.witness == {"H": 4}


def test_gevrey_beta_integral_value():
    rep = check_weight_conditions(WeightFunction.gevrey(2), GRID)
    # int_0^inf sqrt(t)/(1+t^2) dt = pi / sqrt(2)
    assert rep.beta.witness["integral"] == pytest.approx(math.pi / math.sqrt(2), rel=1e-8)


def test_logpow_beta_integral_value():
    rep = check_weight_conditions(WeightFunction.logpow(2), GRID)
    # int_1^inf (log t)^2/(1+t^2) dt = pi^3 / 16
    assert rep.beta.witness["integral"] == pytest.approx(math.pi ** 3 / 16.0, rel=1e-8)


def test_report_serializes():
    rep = check_weight_conditions(WeightFunction.gevrey(2), GRID)
    d = rep.to_dict()
    assert {c["condition"] for c in d["conditions"]} == {
        "alpha", "beta", "gamma", "delta", "epsilon", "doubling"}


# -- scaling constant and shift inequality ----------------------------------

def test_log_scaling_constants():
    assert find_log_scaling_constant(WeightFunction.gevrey(2), GRID) == 2
    assert find_log_scaling_constant(WeightFunction.gevrey(4), GRID) == 2
    verify_log_scaling_constant(WeightFunction.gevrey(2), 2, GRID)
    with pytest.raises(PreconditionError):
        verify_log_scaling_constant(WeightFunction.gevrey(2), 1, GRID)


def test_shift_bound_holds_gevrey():
    c = ConjugateEvaluator(WeightFunction.gevrey(2))
    rep = conjugate_shift_bound(c, lam=1.0, N=2, L=2, jmax=100)
    assert rep.verdict
    assert len(rep.rows) == 101


def test_shift_bound_rows_reverify():
    c = ConjugateEvaluator(WeightFunction.gevrey(2))
    rep = conjugate_shift_bound(c, lam=2.0, N=1, L=2, jmax=50)
    for row in rep.rows:
        assert row["margin"] == pytest.approx(row["rhs"] - row["lhs"], abs=1e-12)


def test_factorial_domination_finite_witness():
    c = ConjugateEvaluator(WeightFunction.gevrey(2))
    res = factorial_domination(c, A=2.0, lam=1.0, jmax=200)
    # A^j j! <= C e^{phi*(j)} requires finite C for d >= 1 scales
    assert math.isfinite(res.log_C)
    assert 0 < res.argmax_j < 200
    # the witness really dominates on the scanned range
    for j in (0, 5, 50, 200):
        lhs = j * math.log(2.0) + math.lgamma(j + 1)
        assert lhs <= res.log_C + c(j) + 1e-9
