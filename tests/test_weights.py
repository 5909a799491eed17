import math
import types
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsbench.errors import PreconditionError
from gsbench import weights
from gsbench.grids import DEFAULT_T_GRID, GridSpec
from gsbench.specs import parse_weight, table_weight
from gsbench.reports import ChainReport
from gsbench.weights import (GOLDEN_REL_TOL, H_BOUND, L_BOUND, ConjugateEvaluator,
                             WeightFunction, check_weight_conditions,
                             find_log_scaling_constant, first_true,
                             label_real,
                             verify_log_scaling_constant)

from fnweight import FnWeight

GRID = GridSpec("log", 1e-2, 1e6, 400)


# -- weight evaluation ------------------------------------------------------

def test_gevrey_values():
    w = WeightFunction.gevrey(2)
    assert w(4.0) == pytest.approx(2.0)
    assert w(-4.0) == pytest.approx(2.0)  # even extension
    assert w(0.0) == 0.0


def test_labels_name_the_parameter_exactly():
    from gsbench.sequences import WeightSequence
    assert WeightFunction.gevrey(2.0).label == "gevrey:d=2"
    assert WeightFunction.gevrey(3.5).label == "gevrey:d=3.5"
    assert WeightFunction.logpow(1.0000001).label == "logpow:s=1.0000001"
    assert WeightFunction.gevrey(2.2 * 1.5).label == "gevrey:d=3.3000000000000003"
    assert WeightSequence.gevrey(1 / 3).label == "gevreyseq:d=0.3333333333333333"
    assert label_real(1.0000001) == "1.0000001" and label_real(1.5) == "1.5"
    for v in (0.1, 1e-7, 123456.0, 1234567.0, 2.0 ** -40, 1e300):
        assert float(WeightFunction.gevrey(v).label.split("=")[1]) == v


def test_logpow_vanishes_below_one():
    w = WeightFunction.logpow(2)
    assert w(0.5) == 0.0
    assert w(1.0) == 0.0
    assert w(math.e) == pytest.approx(1.0)


def test_tabulated_interpolates_in_log_t():
    w = WeightFunction.tabulated([1.0, 100.0], [0.0, 2.0])
    assert w(10.0) == pytest.approx(1.0)  # midpoint in log t
    # past the table: the first value below it, the last segment above it
    assert w(0.0) == w(0.5) == 0.0
    assert w(1e5) == pytest.approx(5.0, rel=1e-15)


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
                 FnWeight(lambda t: WeightFunction.logpow(2)(t ** (1.0 / 1.5))),
                 FnWeight(lambda t: math.sqrt(t) + 1.0)]


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


def test_tabulated_values_match_pointwise_beyond_the_knots():
    w = WeightFunction.tabulated([1e-3, 1.0, 10.0, 1e6], [0.0, 1.0, 1.5, 4.0])
    ts = [1e-3, -1e-3, 0.5, -1.0, 3.0, 10.0, -7e5, 1e6,
          0.0, -0.0, 1e-4, -1e-300, 2e6, -1e12, 1e300]
    assert hexes(w.values(ts)) == hexes([w(t) for t in ts])
    slope = 2.5 / math.log(1e5)  # the last segment, per unit of log t
    assert [w(t) for t in (0.0, 1e-4, -1e-300)] == [0.0, 0.0, 0.0]
    for t in (2e6, 1e12, 1e300):
        assert w(t) == pytest.approx(4.0 + slope * math.log(t / 1e6), rel=1e-14)
    # phi(x) = omega(e^x) stays convex across both ends of the table
    xs = np.linspace(math.log(1e-6), math.log(1e9), 301)
    ph = np.array([w.phi(x) for x in xs])
    assert np.all(ph[1:-1] <= 0.5 * (ph[:-2] + ph[2:]) + 1e-12)


def test_tabulated_rejects_decreasing():
    with pytest.raises(PreconditionError):
        WeightFunction.tabulated([1.0, 2.0], [1.0, 0.5])


def test_tabulated_rejects_coincident_log_knots():
    # 1e300 and the next float up share one log t: the slope between them
    # would divide by zero
    t1 = math.nextafter(1e300, math.inf)
    assert math.log(t1) == math.log(1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ts in ([1.0, 1e300, t1], [2.0, 1.0]):
            with pytest.raises(PreconditionError, match="strictly increasing in log t") as exc:
                WeightFunction.tabulated(ts, [0.0, 1.0, 2.0][:len(ts)])
            assert f"t = {ts[-2]!r} is followed by t = {ts[-1]!r}" in str(exc.value)


def test_parse_weight_specs():
    assert parse_weight("gevrey:d=2").d == 2
    assert parse_weight("logpow:s=2").s == 2
    with pytest.raises(PreconditionError):
        parse_weight("gevrey:q=2")
    with pytest.raises(PreconditionError):
        parse_weight("mystery")


def test_scaled_weight_gevrey_closed_form():
    # gevrey:d=2 at t^(1/1.5) is gevrey:d=3: the conjugate of the scaled
    # weight, phi_omega*(1.5 s), is the closed form of d = 3, and so is the
    # golden section on the scaled weight itself
    c2 = ConjugateEvaluator(WeightFunction.gevrey(2))
    c3 = ConjugateEvaluator(WeightFunction.gevrey(3))
    sigma = FnWeight(lambda t: WeightFunction.gevrey(2)(t ** (1.0 / 1.5)))
    ns = ConjugateEvaluator(sigma)
    for s in np.linspace(0.0, 20.0, 41).tolist():
        assert c2(1.5 * s) == pytest.approx(c3(s), rel=1e-14, abs=1e-14)
        assert ns(s) == pytest.approx(c3(s), rel=1e-9, abs=1e-12)


def test_scaled_weight_generic():
    base = WeightFunction.logpow(2)
    sigma = FnWeight(lambda t: base(t ** 0.5))
    assert sigma(100.0) == pytest.approx(base(10.0))
    c_base, c_sigma = ConjugateEvaluator(base), ConjugateEvaluator(sigma)
    for s in (0.5, 1.0, 4.0, 10.0):
        assert c_base(2.0 * s) == pytest.approx(c_sigma(s), rel=1e-9)


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
    c = ConjugateEvaluator(WeightFunction.logpow(2), method="numeric-sup")
    vals = [c(float(s)) for s in np.linspace(0.5, 20, 30)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_closed_form_rejected_for_non_gevrey():
    # the built-in kinds have closed forms, other weights do not; a table's
    # conjugate is exact, so it has no golden-section method
    w = FnWeight(lambda t: t)
    with pytest.raises(PreconditionError, match=w.kind):
        ConjugateEvaluator(w, method="closed-form")
    assert ConjugateEvaluator(w).method == "numeric-sup"
    w = WeightFunction.tabulated([1.0, 10.0, 100.0], [0.0, 1.0, 4.0])
    assert ConjugateEvaluator(w).method == "closed-form"
    assert ConjugateEvaluator(w, method="closed-form")(1.0) == pytest.approx(
        math.log(10.0) - 1.0, rel=1e-15)  # at u = log 10
    with pytest.raises(PreconditionError, match="--method"):
        ConjugateEvaluator(w, method="numeric-sup")


# phi(u) = omega(e^u) has slopes 0, 10, 0.5, 89.5 on [0, 1], ..., [3, 4]:
# not convex, so a golden section on s u - phi(u) at s = 8 stops near u = 1
# (value 8) and misses the sup 13.5 at u = 3
NON_CONVEX_TABLE = ([1.0, math.e, math.e ** 2, math.e ** 3, math.e ** 4],
                    [0.0, 0.0, 10.0, 10.5, 100.0])


def test_conjugate_of_non_convex_table_is_exact():
    w = WeightFunction.tabulated(*NON_CONVEX_TABLE)
    c = ConjugateEvaluator(w)
    assert c(8.0) == pytest.approx(13.5, rel=1e-15)
    assert c(0.0) == 0.0 and c(89.5) == pytest.approx(4 * 89.5 - 100.0, rel=1e-15)
    with pytest.raises(PreconditionError, match=r"is \+inf: s exceeds the tail slope b = 89.5"):
        c(90.0)
    # the weight itself stays usable: the (delta) audit reports the kinks
    rep = check_weight_conditions(w, GRID)
    assert not rep.delta.verdict and rep.delta.detail["violations"] > 0


def test_convex_tables_keep_their_conjugate():
    # the exact conjugate agrees with the golden section on the same omega,
    # from s = 0 up to just below the tail slope b.  A kink that lies below
    # t = 1 does not matter on u >= 0; omega = 0.3 log t at t = 10^(k/4) has
    # float slopes that fall by an ulp here and there
    line = [10.0 ** (k / 4) for k in range(17)]
    for ts, vals in ((LOG2_KNOTS, [math.log1p(t) ** 2 for t in LOG2_KNOTS]),
                     (line, [0.3 * math.log(t) for t in line]),
                     (LOG2_KNOTS, [math.sqrt(t) for t in LOG2_KNOTS]),
                     ([1.0, 10.0, 100.0], [0.0, 1.0, 4.0]),
                     ([1e-3, 1.0, 10.0, 1e6], [0.0, 1.0, 1.5, 4.0]),
                     ([1e-3, 0.5, 1.0, 10.0], [0.0, 1.0, 1.1, 4.0]),
                     ([1.0, 100.0], [0.0, 2.0])):
        w = WeightFunction.tabulated(ts, vals)
        c, oracle = ConjugateEvaluator(w), ConjugateEvaluator(FnWeight(w))
        b = float(w.tail_slope)
        for s in np.linspace(0.0, 0.999 * b, 25).tolist():
            assert c(s) == pytest.approx(oracle(s), rel=1e-12, abs=1e-12), (ts, s)
        with pytest.raises(PreconditionError, match=r"is \+inf: s exceeds the tail slope"):
            c(1.001 * b)


def _phi_of_table(xs, vals, us):
    """phi(u) = omega(e^u) at each u of us for the table (log t_k, omega_k),
    read from the knots: np.interp between them, the first value below, the
    last segment continued above."""
    b = (vals[-1] - vals[-2]) / (xs[-1] - xs[-2])
    return np.where(us <= xs[-1], np.interp(us, xs, vals),
                    vals[-1] + b * (us - xs[-1]))


_SLOPES = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0))


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-3.0, max_value=2.0),
       st.lists(st.tuples(st.floats(min_value=0.05, max_value=2.0), _SLOPES),
                min_size=1, max_size=8),
       st.floats(min_value=0.0, max_value=3.0), st.booleans(), st.data())
def test_table_conjugate_is_the_max_over_its_breakpoints(x0, segs, v0, convex, data):
    # knots on both sides of t = 1, flat segments and flat tails; with
    # convex, the slopes ascend and phi is convex
    if convex:
        segs = list(zip([dx for dx, _ in segs], sorted(b for _, b in segs)))
    xs, vals = [x0], [v0]
    for dx, b in segs:
        xs.append(xs[-1] + dx)
        vals.append(vals[-1] + b * dx)
    w = WeightFunction.tabulated(np.exp(xs), vals)
    xs = list(w._log_ts)  # the knots as the weight reads them
    b = float(w.tail_slope)
    c = ConjugateEvaluator(w)
    # brute force: breakpoints and a dense grid of u >= 0
    top = max(xs[-1], 0.0)
    us = np.concatenate(([0.0], [x for x in xs if x > 0.0],
                         np.linspace(0.0, top + 2.0, 20001)))
    phis = _phi_of_table(xs, vals, us)
    nb = 1 + sum(x > 0.0 for x in xs)  # the breakpoints lead us
    # omega up to the last knot is np.interp in log t, and phi* the numpy
    # max over the breakpoints, both bit for bit
    lx, vs = np.array(xs), np.array(vals)
    for t in [0.0, *np.exp([*xs, xs[0] - 1.0, *us[nb::1000]]).tolist()]:
        lt = math.log(t) if t else -math.inf
        if lt <= xs[-1]:
            assert w(t).hex() == float(np.interp(lt, lx, vs)).hex(), t
    # the golden section stops at a bracket 1e-12 max(1, hi) wide around
    # its maximizer, hi < 4 max(1, top), on an objective of slope below b
    golden_tol = 2.0 * GOLDEN_REL_TOL * b * max(1.0, top)
    frac = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                              min_size=1, max_size=6))
    for s in (f * b for f in frac):
        assert c(s).hex() == float(np.max(s * us[:nb] - phis[:nb])).hex()
        assert c(s) == pytest.approx(float(np.max(s * us - phis)),
                                     rel=1e-12, abs=1e-12)
        if convex and s < 0.999 * b:  # the golden section needs a bracket
            oracle = ConjugateEvaluator(FnWeight(w))(s)
            assert c(s) == pytest.approx(oracle, rel=1e-12, abs=golden_tol)
    with pytest.raises(PreconditionError,
                       match=rf"is \+inf: s exceeds the tail slope b = {label_real(b)}"):
        c(b + data.draw(st.floats(min_value=1e-9, max_value=5.0)))


@pytest.mark.parametrize("q", [1.75, 2.0, 2.25, 2.5])
def test_logpow_closed_form_matches_numeric_sup(q):
    w = WeightFunction.logpow(q)
    cf = ConjugateEvaluator(w)
    ns = ConjugateEvaluator(w, method="numeric-sup")
    assert cf.method == "closed-form"
    for s in np.linspace(0.0, 80.0, 161):
        s = float(s)
        assert cf(s) == pytest.approx(ns(s), rel=1e-12, abs=1e-12)


# log(1 + t)^2 at 61 knots, t = 1e-3 .. 1e12; past the last knot it grows
# like b log t with b = 54.7, so phi*(s) is finite for s < b only
LOG2_KNOTS = [10.0 ** (k / 4) for k in range(-12, 49)]
LOG2_TABLE = WeightFunction.tabulated(LOG2_KNOTS,
                                      [math.log1p(t) ** 2 for t in LOG2_KNOTS])


def test_table_logs_are_the_checked_ones_and_equal_np_log():
    # table_weight checks strict increase on math.log of each knot, and the
    # evaluator keeps those same values; on the tables of these tests they
    # equal np.log bit for bit, as the evaluator computed them before
    line = [10.0 ** (k / 4) for k in range(17)]
    for ts in (LOG2_KNOTS, NON_CONVEX_TABLE[0], line, [1.0, 100.0],
               [1e-3, 1.0, 10.0, 1e6], [1e-3, 0.5, 1.0, 10.0],
               [1.0, 10.0, 100.0]):
        w = table_weight(ts, range(len(ts)))
        assert (np.array(w._log_ts).view(np.int64)
                == np.log(np.array(ts)).view(np.int64)).all(), ts


def test_scaled_conjugate_matches_golden_section_on_sigma():
    # sigma(t) = omega(t^(1/a)) has phi_sigma(u) = phi_omega(u / a), so
    # phi_sigma*(s) = phi_omega*(a s), the conjugate sufficient_condition_check
    # reads; the oracle runs the golden section on sigma itself
    weights = [WeightFunction.gevrey(1.5), WeightFunction.gevrey(2),
               WeightFunction.gevrey(3), WeightFunction.logpow(2),
               WeightFunction.logpow(2.5), LOG2_TABLE]
    for w in weights:
        c_omega = ConjugateEvaluator(w)
        for a in (0.5, 1.5, 3.0):
            sigma = FnWeight(lambda t, w=w, a=a: w(t ** (1.0 / a)))
            c_sigma = ConjugateEvaluator(sigma)
            assert c_sigma.method == "numeric-sup"
            for s in np.linspace(0.0, 15.0, 31).tolist():
                assert c_omega(a * s) == pytest.approx(
                    c_sigma(s), rel=1e-9, abs=1e-12), (w.label, a, s)


def test_logpow_closed_form_past_the_overflow_of_phi():
    # logpow:s=1.5 at 80: the maximizer t* = (80/1.5)^2 = 2844 lies past
    # log(float max) = 709.78, where phi(t) = omega(e^t) overflows
    assert ConjugateEvaluator(WeightFunction.logpow(1.5))(80.0) \
        == pytest.approx(2048000.0 / 27.0, rel=1e-14)
    ns = ConjugateEvaluator(WeightFunction.logpow(1.5), method="numeric-sup")
    for s in (40.0, 80.0):  # t* = 711 and 2844
        with pytest.raises(PreconditionError,
                           match=r"lies past t=709.783, where omega\(e\^t\) overflows a float"):
            ns(s)
    assert ns(20.0) == pytest.approx(0.5 * (20.0 / 1.5) ** 3, rel=1e-12)  # t* = 178


def test_logpow_closed_form_overflow_is_a_range_error():
    with pytest.raises(PreconditionError,
                       match=r"phi\*\(80\) of logpow:s=1.001 overflows a float"):
        ConjugateEvaluator(WeightFunction.logpow(1.001))(80.0)


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


def table_epsilon_integral(y: float) -> float:
    """int_1^inf omega(y t)/t^2 dt = y int_y^inf omega(u)/u^2 du for
    LOG2_TABLE in closed form: omega(u) = c + b log u on each piece, and
    G(u) = (c + b log u + b)/u is minus an antiderivative of (c + b log u)/u^2."""
    ts, vs = LOG2_KNOTS, [math.log1p(t) ** 2 for t in LOG2_KNOTS]
    ls = [math.log(t) for t in ts]
    slopes = [(v1 - v0) / (l1 - l0) for v0, v1, l0, l1 in zip(vs, vs[1:], ls, ls[1:])]
    pieces = [(0.0, ts[0], vs[0], 0.0)] + [
        (ts[k], ts[k + 1] if k + 1 < len(ts) else math.inf,
         vs[k] - b * ls[k], b)
        for k, b in enumerate(slopes + slopes[-1:])]
    G = lambda c, b, u: (c + b * math.log(u) + b) / u if u < math.inf else 0.0
    return y * math.fsum(G(c, b, max(lo, y)) - G(c, b, hi)
                         for lo, hi, c, b in pieces if hi > y)


def test_table_integrals_match_their_closed_forms():
    # the audit splits both integrals at the knots, where the table has a kink
    import mpmath
    rep = check_weight_conditions(LOG2_TABLE, GRID)
    assert all(r.verdict for r in rep.records())
    assert rep.beta.detail["abs_error"] < 1e-12
    want = mpmath.quad(lambda t: LOG2_TABLE(float(t)) / (1 + t * t),
                       [0.0, *LOG2_KNOTS, mpmath.inf])
    assert rep.beta.witness["integral"] == pytest.approx(float(want), rel=1e-12)
    # epsilon below the last knot, and past it, where only the tail is left
    for grid in (GRID, GridSpec("log", 1e13, 1e15, 10)):
        ys = GridSpec("log", max(grid.lo, 1e-2), grid.hi, 30).points()
        want = max(table_epsilon_integral(y) / (LOG2_TABLE(y) + 1.0) for y in ys)
        rep = check_weight_conditions(LOG2_TABLE, grid)
        assert rep.epsilon.detail["max_ratio"] == pytest.approx(want, rel=1e-10)


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


def array_log_scaling_ratios(w, grid):
    """omega(e t)/(1 + omega(t)) at t = 0 and every grid point, by the array
    expression find_log_scaling_constant once used."""
    ts = np.concatenate([[0.0], grid.points()])
    return (w.values(math.e * ts) / (1.0 + w.values(ts))).tolist()


def array_verify_log_scaling_constant(w, L, grid):
    """verify_log_scaling_constant as it once walked an array of t."""
    for t in np.concatenate([[0.0], grid.points()]):
        if w(math.e * t) > L * (1.0 + w(t)) + 1e-9:
            raise PreconditionError(
                f"--L: L={L} invalid: omega(e*t)={w(math.e * t):g} > "
                f"L(1+omega(t))={L * (1.0 + w(t)):g} at t={t:g}")


SCALING_WEIGHTS = [WeightFunction.gevrey(d) for d in (0.5, 1.0, 2.0, 3.7)] + [
    WeightFunction.logpow(s) for s in (1.5, 2.0, 3.0)] + [
    WeightFunction.tabulated([1e-3, 1.0, 10.0, 1e6], [0.0, 1.0, 1.5, 4.0]),
    WeightFunction.tabulated([1.0, 10.0, 100.0], [0.0, 1.0, 4.0])]


@pytest.mark.parametrize("w", SCALING_WEIGHTS, ids=lambda w: w.label)
@pytest.mark.parametrize("grid", [None, GRID, GridSpec("lin", 0.5, 300.0, 997)],
                         ids=["default", "log", "lin"])
def test_scalar_log_scaling_constant_equals_the_array_expression(w, grid,
                                                                 monkeypatch):
    # the max ratio reaches math.ceil bit for bit as the arrays gave it
    seen = []
    spy = types.SimpleNamespace(**vars(math))
    spy.ceil = lambda x: seen.append(x) or math.ceil(x)
    monkeypatch.setattr(weights, "math", spy)
    ratios = array_log_scaling_ratios(w, grid or DEFAULT_T_GRID)
    try:
        L = find_log_scaling_constant(w, grid)
    except PreconditionError as exc:
        assert str(exc).startswith(f"no L <= {L_BOUND} scales the weight")
        L = L_BOUND
    assert [x.hex() for x in seen] == [(max(ratios) - 1e-12).hex()]
    monkeypatch.undo()
    for k in range(1, L + 2):
        outcomes = []
        for verify in (verify_log_scaling_constant,
                       array_verify_log_scaling_constant):
            try:
                verify(w, k, grid or DEFAULT_T_GRID)
                outcomes.append(None)
            except PreconditionError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# -- test-local oracles: the conjugate shift inequality and factorial
# domination, row by row over the conjugate (no command runs them) ---------

def conjugate_shift_bound(c: ConjugateEvaluator, lam: float, N: int, L: int,
                          jmax: int, tol: float = 1e-9) -> ChainReport:
    """Row-by-row check of the conjugate shift inequality

        mu phi*(j/mu) + N j <= lam phi*(j/lam) + lam sum_{k=1}^N L^k

    with mu = L^N lam, after verifying that L scales the weight."""
    verify_log_scaling_constant(c.weight, L)
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
