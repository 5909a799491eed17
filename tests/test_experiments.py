import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsbench import experiments
from gsbench.errors import (CapabilityError, PreconditionError, RegimeError,
                            SearchExhaustedError)
from gsbench.experiments import (NECESSARY_BLOCK, bounded_derivative_chain,
                                 cauchy_derivative_bound, compactness_blowup,
                                 composed_seminorm_bound,
                                 equicontinuity_constant, necessary_growth,
                                 negative_chain, nuclearity_sum,
                                 sufficient_condition_check)
from gsbench.functions import (Gaussian, Polynomial, Pow1px2, Sqrt1px2,
                               parse_function)
from gsbench.grids import GridSpec
from gsbench.reports import ChainReport
from gsbench.weights import WeightFunction

W2 = WeightFunction.gevrey(2)
CUBE = Polynomial([0, 0, 0, 1])
SQUARE = Polynomial([0, 0, 1])


# -- compactness blow-up ----------------------------------------------------

def test_compactness_crossing_at_2_pow_20():
    psi = Polynomial([0, 2, 0, 1])  # psi'(0) = 2
    rep = compactness_blowup(psi, 0.0, 1, W2, nmax=25)
    assert rep.verdict
    assert rep.first_crossing_index == 20  # 2^20 = 1048576 > 1e6


def test_compactness_shortcut_agrees_exactly():
    rep = compactness_blowup(Polynomial([1, 3, -1, 2]), 0.0, 2, W2, nmax=15)
    for row in rep.rows:
        assert row["log_full_fdb"] == pytest.approx(row["log_shortcut"],
                                                    rel=1e-10)


def test_compactness_full_support_at_nmax_60():
    # every derivative of (1+x^2)^1.5 at x0 = 1 is nonzero, so the full
    # expansion at n = 60 has p(60) ~ 9.7e5 partitions; one Bell table of
    # order 60 serves all rows
    rep = compactness_blowup(Pow1px2(1.5), 1.0, 1, W2, 60)
    assert len(rep.rows) == 60
    assert all(row["verdict"] for row in rep.rows)
    assert rep.verdict


def test_compactness_rejects_flat_slope():
    with pytest.raises(PreconditionError):
        compactness_blowup(Polynomial([0, 1]), 0.0, 1, W2, nmax=5)


# -- negative chain ---------------------------------------------------------

@pytest.fixture(scope="module")
def neg_report():
    return negative_chain(2, 1, 3.5, 60)


def test_negative_chain_all_rows_hold(neg_report):
    assert neg_report.verdict
    assert len(neg_report.rows) == 60
    assert all(r["verdict"] for r in neg_report.rows)


def test_negative_chain_stationarity(neg_report):
    for r in neg_report.rows:
        assert r["stationarity_lhs"] == pytest.approx(
            r["stationarity_rhs"], rel=1e-9)
        assert r["numeric_conjugate"] == pytest.approx(
            r["stationarity_rhs"], rel=1e-9)


def test_negative_chain_closed_form_x_j(neg_report):
    # x_j = (k j d / lambda)^d with d=2, k=1
    r = neg_report.rows[0]
    assert r["x_j"] == pytest.approx((2.0 * r["j"] / r["lambda"]) ** 2)


def test_negative_chain_lower_bound_diverges(neg_report):
    assert neg_report.first_crossing_index is not None
    r = neg_report.rows[-1]
    assert r["log_lower_bound"] == r["j"] - 2 * r["lambda"] * neg_report.params["L"]


def test_negative_chain_regime_error():
    with pytest.raises(RegimeError):
        negative_chain(2, 1, 4.0, 10)  # d' = (k+1)d boundary
    with pytest.raises(RegimeError):
        negative_chain(2, 1, 1.5, 10)  # d' < d


# -- bounded-derivative chain -----------------------------------------------

def test_bounded_chain_cube():
    rep = bounded_derivative_chain(2, CUBE, 12)
    assert rep.verdict
    assert rep.first_crossing_index is not None
    for r in rep.rows:
        assert r["x_bracket_lo"] <= r["x_m"] < r["x_bracket_hi"]
        # witness really has a steep slope: |psi'(y)| = 3 y^2 >= 2^(2m)
        assert 3.0 * r["y_m"] ** 2 >= 2.0 ** (2 * r["m"])


def test_bounded_chain_flat_function_exhausts():
    with pytest.raises(SearchExhaustedError):
        bounded_derivative_chain(2, Polynomial([0, 1]), 8, y_cap=1e6)


def restart_bounded_chain(d, psi, mmax, threshold=1e6, y_cap=1e12):
    """Oracle: the bounded-derivative chain with the witness search restarted
    at y = 1e-3 for every m (the probe test is memoized per y)."""
    passes = {}

    def slope_value(y):
        if y not in passes:
            passes[y] = (abs(psi.jet(y, 1).entry_float(1)), psi.value(y))
        return passes[y]

    report = ChainReport(
        experiment="bounded-derivative",
        params={"d": d, "psi": psi.label, "mmax": mmax, "threshold": threshold},
        columns=["m", "y_m", "x_m", "j_m", "x_bracket_lo", "x_bracket_hi",
                 "log_term", "verdict"])
    first_cross = None
    for m in range(1, mmax + 1):
        target = 2.0 ** (m * d)
        y_m = None
        lo = 1e-3
        while lo < y_cap:
            hi = lo * 10.0
            for y in np.geomspace(lo, hi, 200):
                slope, value = slope_value(float(y))
                if slope >= target and value > 0:
                    y_m = float(y)
                    break
            if y_m is not None:
                break
            lo = hi
        if y_m is None:
            raise SearchExhaustedError(
                f"no y with |psi'(y)| >= 2^(md)={target:g} below {y_cap:g}")
        x_m = psi.value(y_m)
        j_m = int(m * x_m ** (1.0 / d) / d)
        b_lo = (j_m * d / m) ** d
        b_hi = ((j_m + 1) * d / m) ** d
        log_term = j_m * d * (m * math.log(2.0) - math.log(m) - 1.0)
        if first_cross is None and log_term > math.log(threshold):
            first_cross = m
        report.add_row({"m": m, "y_m": y_m, "x_m": x_m, "j_m": j_m,
                        "x_bracket_lo": b_lo, "x_bracket_hi": b_hi,
                        "log_term": log_term, "verdict": b_lo <= x_m < b_hi})
    report.verdict = report.all_hold() and first_cross is not None
    report.first_crossing_index = first_cross
    return report


def _outcome(run):
    """The report, or the error; where the oracle's float arithmetic
    overflows, the chain raises a usage error naming --d instead."""
    try:
        return run().to_dict()
    except SearchExhaustedError as exc:
        return repr(exc)
    except OverflowError:
        return "overflow"
    except PreconditionError as exc:
        assert str(exc).startswith("--d:") and "overflows" in str(exc)
        return "overflow"


SMALL_RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=3)


@settings(max_examples=25, deadline=None)
@given(st.lists(SMALL_RATIONALS, min_size=2, max_size=5),
       st.floats(min_value=0.0, max_value=4.0, exclude_min=True),
       st.integers(1, 12), st.sampled_from([1e2, 1e4]))
@example([0, -3, 0, 1], 2.0, 12, 1e4)
@example([1, -7, 3, 0, Fraction(1, 2)], 1.5, 12, 1e4)
@example([0, 0, 0, 1], 4.0, 12, 1e4)
@example([-1000, 0, 0, 1], 2.0, 6, 1e4)  # y_1 = ... = y_4: psi turns positive late
def test_bounded_resumed_search_matches_restart_oracle(coeffs, d, mmax, y_cap):
    psi = Polynomial(coeffs)
    assert _outcome(lambda: bounded_derivative_chain(d, psi, mmax, y_cap=y_cap)) \
        == _outcome(lambda: restart_bounded_chain(d, psi, mmax, y_cap=y_cap))


# -- sufficiency ------------------------------------------------------------

def test_sufficient_square_not_growing():
    rep = sufficient_condition_check(SQUARE, W2, 1.5, [1, 2, 4],
                                     GridSpec("lin", 0.05, 6.0, 120), 15)
    assert rep.verdict
    assert rep.p == pytest.approx(0.5)
    # C0 = max |x| / (1+x^2)^1.5 attained at |x| = 1/sqrt(2)
    assert rep.C0 == pytest.approx(1.0 / (math.sqrt(2.0) * 1.5 ** 1.5),
                                   abs=1e-3)


def test_sufficient_cm_stable_under_doubling_jmax():
    g = GridSpec("lin", 0.05, 6.0, 120)
    a = sufficient_condition_check(SQUARE, W2, 1.5, [2], g, 15)
    b = sufficient_condition_check(SQUARE, W2, 1.5, [2], g, 30)
    assert b.per_m[2]["log_C_m"] == pytest.approx(a.per_m[2]["log_C_m"],
                                                  abs=1e-9)


# -- composed seminorm ------------------------------------------------------

def test_composed_seminorm_internal_stability_flag():
    rep = composed_seminorm_bound(Gaussian(), SQUARE, WeightFunction.gevrey(3),
                                  2, GridSpec("lin", 0.05, 5.0, 100), 16, 16,
                                  jq_cap=16, check_stability=True)
    assert rep.stable
    assert math.isfinite(rep.value_log)
    assert rep.witness is not None


# -- necessary growth -------------------------------------------------------

def test_necessary_growth_square():
    res = necessary_growth(SQUARE, W2, W2, GridSpec("log", 1e-3, 1e3, 20000))
    assert res.C == pytest.approx(0.5, abs=1e-6)
    assert abs(abs(res.argmax_x) - 1.0) <= 1e-3
    assert not res.grows_with_radius


def naive_necessary_growth(psi, w_sigma, w_omega, grid):
    """Oracle: the per-point loop over the grid; a NaN ratio never compares
    greater, so it never wins either maximum."""
    best, best_x, inner_best = -math.inf, 0.0, -math.inf
    half = grid.hi / 2.0
    for x in grid.symmetric_points():
        ratio = w_sigma(float(x)) / (1.0 + w_omega(psi.value(float(x))))
        if ratio > best:
            best, best_x = ratio, float(x)
        if abs(x) <= half and ratio > inner_best:
            inner_best = ratio
    return best, best_x, best > inner_best + 1e-9


NAN_BAND = WeightFunction.custom(lambda t: math.nan if 0.5 < t < 2.0 else t,
                                 label="nan-band")
INF_TAIL = WeightFunction.custom(lambda t: math.inf if t > 3.0 else t ** 0.5,
                                 label="inf-tail")
ALL_NAN = WeightFunction.custom(lambda t: math.nan, label="all-nan")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([SQUARE, CUBE, Polynomial([1, -2, 0, 1]), Gaussian(),
                        parse_function("expsqr"), Sqrt1px2()]),
       st.sampled_from([W2, WeightFunction.gevrey(1), WeightFunction.gevrey(2.25),
                        WeightFunction.logpow(1.5), NAN_BAND, INF_TAIL, ALL_NAN]),
       st.sampled_from([W2, WeightFunction.logpow(2), INF_TAIL]),
       st.sampled_from(["lin", "log"]), st.floats(1e-3, 5.0),
       st.floats(1.0, 1e3), st.integers(2, 60),
       st.sampled_from([1, 2, 5, NECESSARY_BLOCK]))
def test_necessary_growth_matches_pointwise_loop(psi, w_sigma, w_omega, kind,
                                                 lo, span, n, block):
    grid = GridSpec(kind, lo, lo + span, n)
    with mock.patch.object(experiments, "NECESSARY_BLOCK", block):
        res = necessary_growth(psi, w_sigma, w_omega, grid)
    best, best_x, grows = naive_necessary_growth(psi, w_sigma, w_omega, grid)
    assert [res.C.hex(), res.argmax_x.hex()] == [best.hex(), best_x.hex()]
    assert res.grows_with_radius is grows


def test_necessary_growth_skips_nan_ratios():
    grid = GridSpec("lin", 0.25, 6.0, 24)  # step 0.25
    ident = Polynomial([0, 1])
    # sigma is NaN on 0.5 < |x| < 2; omega(x) = inf past |x| = 3 sends the
    # ratio to 0 there, and with sigma = omega = INF_TAIL to inf/inf = NaN
    for w_sigma in (NAN_BAND, INF_TAIL):
        res = necessary_growth(ident, w_sigma, INF_TAIL, grid)
        assert (res.C, res.argmax_x) == naive_necessary_growth(
            ident, w_sigma, INF_TAIL, grid)[:2]
        assert math.isfinite(res.C) and res.argmax_x == -3.0
    res = necessary_growth(SQUARE, ALL_NAN, W2, grid)
    assert (res.C, res.argmax_x, res.grows_with_radius) == (-math.inf, 0.0, False)


def test_necessary_growth_detects_unbounded_ratio():
    # sigma much stronger than omega(psi): ratio grows with the radius
    res = necessary_growth(Polynomial([0, 1]), WeightFunction.gevrey(1),
                           WeightFunction.gevrey(3),
                           GridSpec("log", 1e-2, 1e4, 2000))
    assert res.grows_with_radius


# -- nuclearity -------------------------------------------------------------

def test_nuclearity_geometric_ratio():
    rep = nuclearity_sum(W2, 1, 2, 50)
    assert rep.verdict
    for r in rep.rows:
        assert r["log_ratio"] == pytest.approx(-r["j"] * math.log(4.0),
                                               rel=1e-12)
    assert rep.rows[-1]["partial_sum"] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_nuclearity_partial_sums_monotone_and_capped():
    rep = nuclearity_sum(W2, 2, 2, 40)
    sums = [r["partial_sum"] for r in rep.rows]
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] <= math.exp(4.0) / (math.e - 1.0) + 1e-10


def test_nuclearity_rejects_bad_L():
    with pytest.raises(PreconditionError):
        nuclearity_sum(W2, 1, 1, 10)  # L=1 does not scale gevrey d=2


# -- equicontinuity ---------------------------------------------------------

def test_equicontinuity_spot_checks():
    xs = [2.0 ** j for j in range(1, 9)]
    lams = [float(j) for j in range(1, 9)]
    res = equicontinuity_constant(xs, lams, W2, n=1, K=2, f=Gaussian())
    assert not res.lambda_warning
    assert all(r["verdict"] for r in res.spot_rows)
    assert math.isfinite(res.log_C_n)


def test_equicontinuity_warning_when_lambda_small():
    res = equicontinuity_constant([1.0, 2.0], [1.0, 1.0], W2, n=1, K=2)
    assert res.lambda_warning  # lambda_j <= m = 2 everywhere


def test_equicontinuity_bad_lengths():
    with pytest.raises(PreconditionError):
        equicontinuity_constant([1.0], [1.0, 2.0], W2, 1, 2)


# -- Cauchy bound -----------------------------------------------------------

def test_cauchy_bound_sqrt():
    res = cauchy_derivative_bound(Sqrt1px2(), 0.5,
                                  GridSpec("log", 1.0, 20.0, 100), 10)
    assert math.isfinite(res.B)
    assert res.max_excess_vs_prediction <= 0.0  # within the radius prediction


def test_cauchy_requires_analyticity_metadata():
    with pytest.raises(CapabilityError):
        cauchy_derivative_bound(Gaussian(), 0.5,
                                GridSpec("log", 1.0, 10.0, 50), 5)


def test_cauchy_delta_range():
    with pytest.raises(PreconditionError):
        cauchy_derivative_bound(Sqrt1px2(), 1.5,
                                GridSpec("log", 1.0, 10.0, 50), 5)
