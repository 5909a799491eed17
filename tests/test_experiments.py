import math

import pytest

from gsbench.errors import (CapabilityError, PreconditionError, RegimeError,
                            SearchExhaustedError)
from gsbench.experiments import (bounded_derivative_chain,
                                 cauchy_derivative_bound, compactness_blowup,
                                 composed_seminorm_bound,
                                 equicontinuity_constant, necessary_growth,
                                 negative_chain, nuclearity_sum,
                                 sufficient_condition_check)
from gsbench.functions import (Gaussian, Polynomial, Pow1px2, Sqrt1px2,
                               parse_function)
from gsbench.grids import GridSpec
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
