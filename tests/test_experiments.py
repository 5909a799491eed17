import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsbench import experiments, fdb
from gsbench.errors import PreconditionError
from gsbench.experiments import (NECESSARY_BLOCK, bounded_derivative_chain,
                                 cauchy_derivative_bound, compactness_blowup,
                                 composed_jet_log_table, composed_seminorm_bound,
                                 equicontinuity_constant, necessary_growth,
                                 negative_chain, nuclearity_sum,
                                 sufficient_condition_check)
from gsbench.functions import (Gaussian, Polynomial, Pow1px2, Sqrt1px2,
                               mirrored_half, parse_function, weighted_log_sup)
from gsbench.fdb import Jet, faa_di_bruno, single_jet_compose
from gsbench.grids import GridSpec
from gsbench.logdomain import LOG_ZERO, LogReal
from gsbench.reports import ChainReport
from gsbench.weights import ConjugateEvaluator, WeightFunction

from fnweight import FnWeight

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
    # expansion at n = 60 has p(60) ~ 9.7e5 partitions; B(n, n)'s Bell
    # recurrence has one live term per order, so the column needs no table
    rep = compactness_blowup(Pow1px2(1.5), 1.0, 1, W2, 60)
    assert len(rep.rows) == 60
    assert all(row["verdict"] for row in rep.rows)
    assert rep.verdict


def per_n_compactness(psi, x0, p, w, nmax, threshold=1e6):
    """Oracle for ``compactness_blowup``: one outer log jet per n, b_n at
    order n and 0 elsewhere, composed by ``faa_di_bruno`` and by the
    ``single_jet_compose`` shortcut.  Returns (rows, verdict, first
    crossing)."""
    psi_jet = psi.jet(x0, nmax).to_log()
    psi1 = psi_jet.values[1]
    conj = ConjugateEvaluator(w)
    base = psi_jet.values[0].to_float()
    rows, first_cross = [], None
    for n in range(1, nmax + 1):
        bn = LogReal.from_log(1, p * conj(n / p))
        h_vals = [LogReal.zero()] * (nmax + 1)
        h_vals[n] = bn
        h_jet = Jet(base, tuple(h_vals), "log")
        full = faa_di_bruno(h_jet, psi_jet, n)
        short = single_jet_compose(h_jet, psi_jet, n)
        agree = (full.sign == short.sign
                 and abs(full.log_abs - short.log_abs)
                 <= 1e-10 * max(1.0, abs(short.log_abs)))
        power = n * psi1.log_abs
        if first_cross is None and power > math.log(threshold):
            first_cross = n
        rows.append({"n": n, "log_b_n": bn.log_abs,
                     "log_full_fdb": full.log_abs,
                     "log_shortcut": short.log_abs,
                     "log_deriv_power": power, "verdict": agree})
    return rows, all(r["verdict"] for r in rows) and first_cross is not None, \
        first_cross


COMPACTNESS_CASES = (
    [(Pow1px2(a), 1.0 + 0.1 * k, 1, WeightFunction.gevrey(d), 30)
     for k, (a, d) in enumerate(zip((1.5, 1.25, 1.75, 2.5),
                                    (2.0, 2.5, 3.0, 1.5)))]
    + [(parse_function(f"poly:0,{c},0,1"), 0.0, 1, W2, 25)
       for c in ("2", "3", "5/2", "4")]
    + [(parse_function("poly:1,3,-1,2"), 0.0, 2, W2, 15),
       (Pow1px2(1.5), 1.0, 1, W2, 60),
       (Pow1px2(1.5), -1.3, 3, W2, 40)])


@pytest.mark.parametrize("case", COMPACTNESS_CASES,
                         ids=lambda c: f"{c[0].label}@{c[1]:g},p={c[2]},n={c[4]}")
def test_compactness_rows_equal_per_n_oracle(case):
    # the full column is the Bell table's diagonal plus log b_n: bit-equal
    # to one composition per n, because a sum of one term is that term
    rep = compactness_blowup(*case)
    rows, verdict, first = per_n_compactness(*case)
    assert rep.rows == rows
    assert all(type(a) is type(b) for r, o in zip(rep.rows, rows)
               for a, b in zip(r.values(), o.values()))
    assert (rep.verdict, rep.first_crossing_index) == (verdict, first)


def test_compactness_rejects_flat_slope():
    with pytest.raises(PreconditionError):
        compactness_blowup(Polynomial([0, 1]), 0.0, 1, W2, nmax=5)


def _compactness_psi():
    """The families of compactness' psi: pow1px2 with a in [-3, 3],
    sqrt1px2, gaussian, expsqr and integer polynomials of degree <= 4, with
    either sign of psi'."""
    ints = st.integers(-5, 5)
    return st.one_of(
        st.floats(-3.0, 3.0, allow_subnormal=False).map(Pow1px2),
        st.sampled_from([Sqrt1px2(), Gaussian(), parse_function("expsqr")]),
        st.lists(ints, min_size=2, max_size=5).map(Polynomial))


@settings(max_examples=200, deadline=None)
@given(_compactness_psi(), st.floats(-30.0, 30.0), st.integers(1, 3),
       st.integers(1, 60))
@example(Pow1px2(1.5), 1.0, 1, 60)
@example(Polynomial([0, -2, 0, 1]), 0.0, 1, 25)  # psi' = -2: signs alternate
@example(Pow1px2(-2.5), -1.5, 2, 40)
def test_compactness_full_column_is_the_bell_table_diagonal(psi, x0, p, nmax):
    # the Bell recurrence stays the oracle: log_full_fdb is log b_n plus the
    # log of B(n, n) off fdb.bell_rows, bit for bit, and each row's verdict
    # reads that entry's sign
    jet = psi.jet(x0, nmax).to_log()
    bell = fdb.bell_rows(jet, nmax)
    try:
        rep = compactness_blowup(psi, x0, p, W2, nmax)
    except PreconditionError as exc:
        assert str(exc).startswith("--x0: |psi'(x0)| = ")
        assert jet.values[1].sign == 0 or jet.values[1].log_abs <= 0.0
        return
    assert len(rep.rows) == nmax
    for n, row in enumerate(rep.rows, 1):
        full = row["log_b_n"] + bell[n][n].log_abs
        assert row["log_full_fdb"].hex() == full.hex()
        short = row["log_shortcut"]
        assert row["verdict"] == (
            bell[n][n].sign == jet.values[1].sign ** n
            and abs(full - short) <= 1e-10 * max(1.0, abs(short)))


def test_compactness_builds_no_bell_table(monkeypatch):
    # at nmax = 5000 a Bell table would hold 2.5e7 entries; the column is
    # read off B(n, n)'s one-term recurrence instead
    def no_table(*args):
        raise AssertionError("compactness built a Bell table")

    monkeypatch.setattr(fdb, "bell_rows", no_table)
    rep = compactness_blowup(parse_function("poly:0,2,0,1"), 0.0, 1,
                             WeightFunction.gevrey(2.0), 5000)
    assert len(rep.rows) == 5000 and all(r["verdict"] for r in rep.rows)
    assert rep.verdict and rep.first_crossing_index == 20


@pytest.mark.parametrize("psi, x0", [(Pow1px2(1.5), 1.0),
                                     (parse_function("poly:0,2,0,1"), 0.0)],
                         ids=["pow1px2", "poly"])
def test_compactness_reads_psi_to_order_1(psi, x0, monkeypatch):
    # only psi'(x0) enters a row, so no higher order of psi's jet is asked for
    orders, jet = [], type(psi).jet

    def spy(self, x, J):
        orders.append(J)
        return jet(self, x, J)

    monkeypatch.setattr(type(psi), "jet", spy)
    rep = compactness_blowup(psi, x0, 1, W2, 60)
    assert len(rep.rows) == 60 and rep.verdict
    assert orders and max(orders) <= 1


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
    with pytest.raises(PreconditionError, match=r"--dprime: need d <= d' < \(k\+1\)d"):
        negative_chain(2, 1, 4.0, 10)  # d' = (k+1)d boundary
    with pytest.raises(PreconditionError, match=r"--dprime: need d <= d' < \(k\+1\)d"):
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
    with pytest.raises(PreconditionError, match=r"--psi: no y with \|psi'\(y\)\| >= "
                       r"2\^\(md\)=4 below 1e\+06"):
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
            for y in GridSpec("log", lo, hi, 200).points():
                slope, value = slope_value(y)
                if slope >= target and value > 0:
                    y_m = y
                    break
            if y_m is not None:
                break
            lo = hi
        if y_m is None:
            raise PreconditionError(
                f"--psi: no y with |psi'(y)| >= 2^(md)={target:g} below "
                f"{y_cap:g} has psi(y) > 0")
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
    """The report, or the error of an exhausted witness search; where the
    oracle's float arithmetic overflows, the chain raises a usage error
    naming --d instead."""
    try:
        return run().to_dict()
    except OverflowError:
        return "overflow"
    except PreconditionError as exc:
        if str(exc).startswith("--psi: no y with"):
            return repr(exc)
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


@pytest.mark.parametrize("w", [W2, WeightFunction.logpow(2.5)], ids=lambda w: w.label)
def test_sufficient_matches_golden_section_on_sigma(w):
    # oracle: psi = x^2 has |psi'| = 2|x|, |psi''| = 2 and no higher orders,
    # and phi_sigma* comes from the golden section on sigma(t) = omega(t^(1/a))
    a, grid = 1.5, GridSpec("lin", 0.05, 3.0, 40)
    c_sigma = ConjugateEvaluator(FnWeight(lambda t: w(t ** (1.0 / a))))
    rep = sufficient_condition_check(SQUARE, w, a, [1, 2, 4], grid, 10)
    for m, rec in rep.per_m.items():
        want = max(math.log(2.0 * abs(x) if j == 1 else 2.0) - m * c_sigma(j / m)
                   - (a - 1.0) * math.log1p(x * x)
                   for x in grid.symmetric_points().tolist() for j in (1, 2)
                   if x or j == 2)
        assert rec["log_C_m"] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_c0_term_takes_an_overflowing_power_in_logs():
    # (1 + 16)^300 overflows a float; 1e300 / 17^300 ~ 1e-69 does not
    with pytest.raises(OverflowError):
        (1.0 + 16.0) ** 300.0
    got = experiments._c0_term(-1e300, 16.0, 300.0)
    assert got == math.exp(math.log(1e300) - 300.0 * math.log1p(16.0))
    assert got == pytest.approx(float(Fraction(1e300) / 17 ** 300), rel=1e-12)
    assert experiments._c0_term(0.0, 16.0, 300.0) == 0.0


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
def test_sufficient_rejects_nonpositive_a(a):
    with pytest.raises(PreconditionError, match="--a"):
        sufficient_condition_check(SQUARE, W2, a, [1], GridSpec("lin", 0.1, 2.0, 5), 5)


def test_sufficient_cm_stable_under_doubling_jmax():
    g = GridSpec("lin", 0.05, 6.0, 120)
    a = sufficient_condition_check(SQUARE, W2, 1.5, [2], g, 15)
    b = sufficient_condition_check(SQUARE, W2, 1.5, [2], g, 30)
    assert b.per_m[2]["log_C_m"] == pytest.approx(a.per_m[2]["log_C_m"],
                                                  abs=1e-9)


def two_scan_sufficient(psi, w, a, m_list, grid, jmax):
    """Oracle: sufficient_condition_check's per_m as it scanned each m's
    table twice, to jmax and to jmax // 2, whatever the witness."""
    conj_omega = ConjugateEvaluator(w)
    conj = lambda s: conj_omega(a * s)
    xs = mirrored_half(grid.symmetric_points(), psi.parity)
    tables = psi.log_jet_table(xs, jmax)[1]
    tables[:, 0] = LOG_ZERO
    lp = [-(a - 1.0) * math.log1p(abs(v)) for v in psi.values(xs).tolist()]
    per_m = {}
    for m in m_list:
        best, at = weighted_log_sup(tables, conj, m, extra=lp)
        best_half, _ = weighted_log_sup(tables[:, :jmax // 2 + 1], conj, m,
                                        extra=lp)
        witness = None if at is None else {"j": at[1], "x": float(xs[at[0]])}
        per_m[m] = (best.hex(), witness, best > best_half + 1e-6)
    return per_m


def _per_m(rep):
    return {m: (rec["log_C_m"].hex(), rec["witness"], rec["growing"])
            for m, rec in rep.per_m.items()}


# gevrey d < 1 and high-order psi put the witness above jmax // 2
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([SQUARE, CUBE, Polynomial([1, -3, 0, 2, 0, 0, 1]),
                        Polynomial([0, 0, 0, 0, 5]), Polynomial([0]), Gaussian(),
                        parse_function("expsqr"), Sqrt1px2()]),
       st.sampled_from([W2, WeightFunction.gevrey(0.5), WeightFunction.gevrey(1.25),
                        WeightFunction.logpow(2)]),
       st.sampled_from([0.75, 1.0, 1.5, 2.5]),
       st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
       st.sampled_from(["lin", "log"]), st.floats(0.05, 2.0), st.floats(0.5, 6.0),
       st.integers(2, 40), st.integers(1, 12))
@example(Gaussian(), WeightFunction.gevrey(0.5), 1.5, [1, 2, 4], "lin", 0.05,
         2.95, 30, 7)  # witness j = 7 > 3 at every m, growing
@example(Polynomial([1, -3, 0, 2, 0, 0, 1]), WeightFunction.gevrey(0.5), 1.5,
         [1, 2, 4], "lin", 0.05, 2.95, 30, 7)  # j = 2, 5 and 6
@example(parse_function("expsqr"), WeightFunction.logpow(2), 1.5, [2], "lin",
         0.05, 2.95, 30, 4)  # j = 3 = jmax // 2 + 1, growing
@example(Polynomial([0]), W2, 1.5, [1], "lin", 0.05, 1.0, 4, 3)  # no witness
def test_sufficient_equals_the_two_scan_oracle(psi, w, a, m_list, kind, lo,
                                               span, n, jmax):
    grid = GridSpec(kind, lo, lo + span, n)
    rep = sufficient_condition_check(psi, w, a, m_list, grid, jmax)
    assert _per_m(rep) == two_scan_sufficient(psi, w, a, m_list, grid, jmax)


# the bench's scan.sufficient variants: witness j = 1 at every m
BENCH_SUFFICIENT = [(WeightFunction.gevrey(d), m_list,
                     GridSpec("lin", 0.05, 6.0 + 0.25 * k, 120))
                    for k, (d, m_list) in enumerate(zip(
                        (2.0, 2.25, 2.5, 1.75),
                        ((1, 2, 4), (1, 2, 3), (1, 3, 4), (2, 3, 4))))]


@pytest.mark.parametrize("w, m_list, grid", BENCH_SUFFICIENT,
                         ids=lambda c: getattr(c, "label", None))
def test_bench_sufficient_scans_once_per_m(w, m_list, grid, monkeypatch):
    calls = []

    def spy(table, *args, **kw):
        calls.append(np.shape(table))
        return weighted_log_sup(table, *args, **kw)

    monkeypatch.setattr(experiments, "weighted_log_sup", spy)
    rep = sufficient_condition_check(SQUARE, w, 1.5, list(m_list), grid, 15)
    assert calls == [(121, 16)] * len(m_list)
    assert [rec["witness"]["j"] for rec in rep.per_m.values()] == [1] * len(m_list)
    monkeypatch.undo()
    assert _per_m(rep) == two_scan_sufficient(SQUARE, w, 1.5, m_list, grid, 15)


# -- composed seminorm ------------------------------------------------------

def test_composed_seminorm_degenerate_has_no_stability_verdict():
    # f = 0: every term is log 0, so there is no witness; stable is always
    # None, as the composed sup checks no box
    g = GridSpec("lin", 0.05, 5.0, 40)
    xs = g.symmetric_points()
    zero = Polynomial([0])
    rep = composed_seminorm_bound(zero, SQUARE, WeightFunction.gevrey(3), 2,
                                  g, 8, 8, jet_table=composed_jet_log_table(
                                      zero, SQUARE, xs, 8), xs=xs)
    assert rep.witness is None and rep.stable is None
    assert rep.value_log == -math.inf


def test_composed_supplied_table_is_scanned_at_any_order_it_holds(monkeypatch):
    # no box, so no jet cap: at J = 170 a box would pass the order-200 jets
    # of f and psi (ceil(1.25 J) = 213), but a supplied table is read as it
    # is, and nothing is composed
    monkeypatch.setattr(experiments, "composed_jet_log_table", None)
    g = GridSpec("lin", 0.5, 2.0, 4)
    t = np.zeros((9, 171))  # one row per point of the 9 symmetric points
    rep = composed_seminorm_bound(Gaussian(), Sqrt1px2(), WeightFunction.gevrey(3),
                                  2, g, 170, 0, jet_table=t, xs=g.symmetric_points())
    assert rep.witness is not None and rep.stable is None


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


NAN_BAND = FnWeight(lambda t: math.nan if 0.5 < t < 2.0 else t, label="nan-band")
INF_TAIL = FnWeight(lambda t: math.inf if t > 3.0 else t ** 0.5, label="inf-tail")
ALL_NAN = FnWeight(lambda t: math.nan, label="all-nan")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([SQUARE, CUBE, Polynomial([1, -2, 0, 1]), Gaussian(),
                        parse_function("expsqr"), Sqrt1px2()]),
       st.sampled_from([W2, WeightFunction.gevrey(1), WeightFunction.gevrey(2.25),
                        WeightFunction.logpow(1.5), NAN_BAND, INF_TAIL, ALL_NAN]),
       st.sampled_from([W2, WeightFunction.logpow(2), INF_TAIL]),
       st.sampled_from(["lin", "log"]), st.floats(1e-3, 5.0),
       st.floats(1.0, 1e3), st.integers(2, 60),
       st.sampled_from([1, 2, 5, NECESSARY_BLOCK]))
@example(CUBE, W2, W2, "lin", 0.0, 2.0, 5, 2)  # a grid from 0 holds 0 once
def test_necessary_growth_matches_pointwise_loop(psi, w_sigma, w_omega, kind,
                                                 lo, span, n, block):
    grid = GridSpec(kind, lo, lo + span, n)
    with mock.patch.object(experiments, "NECESSARY_BLOCK", block):
        res = necessary_growth(psi, w_sigma, w_omega, grid)
    best, best_x, grows = naive_necessary_growth(psi, w_sigma, w_omega, grid)
    assert [res.C.hex(), res.argmax_x.hex()] == [best.hex(), best_x.hex()]
    assert res.grows_with_radius is grows


@pytest.mark.parametrize("psi, w_sigma, w_omega, grid", [
    *((SQUARE, WeightFunction.gevrey(d), WeightFunction.gevrey(d),
       GridSpec("log", 1e-3, 1e3 * (1 + 0.25 * k), 20000))
      for k, d in enumerate((2, 2.5, 3, 1.5))),
    (Polynomial([1, 2, 1]), W2, W2, GridSpec("lin", 0.05, 40.0, 6001)),
    (Polynomial([1, -2, 0, 1]), WeightFunction.logpow(2), W2,
     GridSpec("log", 1e-2, 50.0, 5000)),
    (CUBE, WeightFunction.gevrey(1.5), WeightFunction.logpow(1.5),
     GridSpec("lin", 0.0, 9.0, 4097)),
], ids=["scan0", "scan1", "scan2", "scan3", "lin-shifted-square",
        "log-cubic-logpow", "lin-odd-cube"])
def test_necessary_growth_equals_per_point_sigma(psi, w_sigma, w_omega, grid):
    # the bench's four necessary grids and three without mirror symmetry,
    # against the loop that evaluates sigma at every point
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
    res = equicontinuity_constant([1.0, 2.0], [1.0, 1.0], W2, n=1, K=2,
                                  f=Gaussian())
    assert res.lambda_warning  # lambda_j <= m = 2 everywhere


def test_equicontinuity_bad_lengths():
    with pytest.raises(PreconditionError):
        equicontinuity_constant([1.0], [1.0, 2.0], W2, 1, 2, Gaussian())


def loop_log_c_n(x_seq, lambda_seq, w, m):
    """Oracle: (log C_n, argmax_j) by a strict-greater loop over j, so the
    first of tied maxima wins."""
    best, best_j = None, None
    for j, (x_j, lam_j) in enumerate(zip(x_seq, lambda_seq), start=1):
        v = (-lam_j + m) * w(x_j) + m
        if best is None or v > best:
            best, best_j = v, j
    return best, best_j


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 4.0, 1e3]),
                          st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 8.0, 1e308])),
                min_size=1, max_size=6),
       st.sampled_from([W2, WeightFunction.gevrey(1), WeightFunction.logpow(2)]),
       st.integers(1, 3), st.integers(1, 3))
@example([(2.0, 1.0), (2.0, 1.0), (4.0, 3.0)], W2, 1, 2)  # a tie at j = 1, 2
@example([(1e3, 1e308), (4.0, 1e308)], W2, 1, 2)  # every v = -inf
def test_equicontinuity_constant_is_the_loops_first_max(pairs, w, n, K):
    xs, lams = [x for x, _ in pairs], [lam for _, lam in pairs]
    res = equicontinuity_constant(xs, lams, w, n, K, Gaussian(),
                                  GridSpec("lin", 0.5, 2.0, 4))
    best, best_j = loop_log_c_n(xs, lams, w, n * K)
    assert (res.log_C_n.hex(), res.argmax_j) == (best.hex(), best_j)


def test_equicontinuity_c_n_is_inf_only_past_the_float_range():
    # omega(219650) = 468.67..., so log C_n = 1.5 omega + 2 = 705.0:
    # e^705 = 1.509e306 is a float
    res = equicontinuity_constant([219650.0], [0.5], W2, 1, 2, Gaussian())
    assert res.log_C_n == pytest.approx(705.0, abs=0.01)
    assert res.C_n == math.exp(res.log_C_n) == pytest.approx(1.509e306, rel=1e-3)
    res = equicontinuity_constant([1e6], [0.0], W2, 100, 2, Gaussian(),
                                  GridSpec("lin", 0.05, 2.0, 10))
    assert res.log_C_n > 709.8 and res.C_n == math.inf


# -- Cauchy bound -----------------------------------------------------------

def test_cauchy_bound_sqrt():
    res = cauchy_derivative_bound(Sqrt1px2(), 0.5,
                                  GridSpec("log", 1.0, 20.0, 100), 10)
    assert math.isfinite(res.B)
    assert res.max_excess_vs_prediction <= 0.0  # within the radius prediction


def double_loop_cauchy(psi, delta, grid, jmax):
    """Oracle for ``cauchy_derivative_bound``: one scalar pass over every
    (x, j) of the jet table.  Returns (log_B, witness, excess)."""
    xs = [float(x) for x in grid.symmetric_points() if abs(x) >= 1.0]
    best, witness, excess = -math.inf, None, -math.inf
    for x, logs in zip(xs, psi.log_jet_table(xs, jmax)[1].tolist()):
        for j in range(jmax + 1):
            if logs[j] == LOG_ZERO:
                continue
            lb = (logs[j] - math.lgamma(j + 1)) / (j + 1)
            if lb > best:
                best, witness = lb, {"j": j, "x": x}
            r_x = delta * abs(x)
            pred = (math.lgamma(j + 1) + math.log1p(abs(x) + r_x)
                    - j * math.log(r_x))
            excess = max(excess, logs[j] - pred)
    return best, witness, excess


CAUCHY_CASES = (
    [(Sqrt1px2(), d, GridSpec("log", 1.0, 20.0 + k, 200), 10)
     for k, d in enumerate((0.5, 0.4, 0.6, 0.3))]
    + [(SQUARE, 0.5, GridSpec("lin", 0.5, 30.0, 300), 12),
       (Pow1px2(2.25), 0.5, GridSpec("log", 1.0, 1e3, 500), 40)])


class NanJets(Sqrt1px2):
    """sqrt(1+x^2) with a NaN in every fifth log-jet entry: NaN is never
    the max, in the scalar comparisons or the array max.  Its rows at x and
    -x differ, so it declares no parity and every row is read."""

    parity = None

    def log_jet_table(self, xs, J):
        sign, logs = super().log_jet_table(xs, J)
        logs.flat[::5] = math.nan
        return sign, logs


CAUCHY_CASES += [(NanJets(), 0.5, GridSpec("log", 1.0, 20.0, 50), 10)]


@pytest.mark.parametrize("case", CAUCHY_CASES,
                         ids=lambda c: f"{c[0].label}-{c[2].spec_string()}")
def test_cauchy_equals_double_loop_oracle(case):
    res = cauchy_derivative_bound(*case)
    best, witness, excess = double_loop_cauchy(*case)
    assert (res.log_B, res.witness, res.max_excess_vs_prediction) \
        == (best, witness, excess)
    assert type(res.log_B) is type(res.max_excess_vs_prediction) is float
    assert res.B == math.exp(best)


def test_cauchy_requires_analyticity_metadata():
    with pytest.raises(PreconditionError, match="--psi: gaussian carries no analyticity"):
        cauchy_derivative_bound(Gaussian(), 0.5,
                                GridSpec("log", 1.0, 10.0, 50), 5)


def test_cauchy_delta_range():
    with pytest.raises(PreconditionError):
        cauchy_derivative_bound(Sqrt1px2(), 1.5,
                                GridSpec("log", 1.0, 10.0, 50), 5)
