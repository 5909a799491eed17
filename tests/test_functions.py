import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsbench import functions
from gsbench.errors import (CapabilityError, DegenerateInputError,
                            PreconditionError)
from gsbench.functions import (SUP_BLOCK_TERMS, Gaussian, GevreyBump, ExpSqr,
                               MonomialBump, Polynomial, Pow1px2, Sqrt1px2,
                               estimate_growth_exponent,
                               jet_log_abs, parse_function,
                               seminorm_p_lambda, seminorm_pi, stable_sup,
                               weighted_log_sup)
from gsbench.grids import GridSpec
from gsbench.logdomain import LOG_ZERO
from gsbench.weights import ConjugateEvaluator, WeightFunction


def fd_derivative(f, x, order, h):
    """Central finite differences, orders 1..4."""
    v = lambda u: f.value(u)
    if order == 1:
        return (v(x + h) - v(x - h)) / (2 * h)
    if order == 2:
        return (v(x + h) - 2 * v(x) + v(x - h)) / h ** 2
    if order == 3:
        return (v(x + 2 * h) - 2 * v(x + h) + 2 * v(x - h) - v(x - 2 * h)) / (2 * h ** 3)
    return (v(x + 2 * h) - 4 * v(x + h) + 6 * v(x) - 4 * v(x - h) + v(x - 2 * h)) / h ** 4


FAMILIES = [Gaussian(), ExpSqr(), Sqrt1px2(), Pow1px2(1.5), Pow1px2(-0.5),
            Polynomial([1, -2, 0, 3]), GevreyBump(1.0, 3.0)]


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.label)
@pytest.mark.parametrize("x", [0.3, 1.7])
def test_jets_match_finite_differences(f, x):
    jet = f.jet(x, 4)
    assert jet.entry_float(0) == pytest.approx(f.value(x), rel=1e-12)
    for order in (1, 2, 3, 4):
        h = 1e-3 if order <= 2 else 5e-3
        want = fd_derivative(f, x, order, h)
        got = jet.entry_float(order)
        scale = max(1.0, abs(f.value(x)), abs(got))
        assert got == pytest.approx(want, abs=5e-4 * scale)


def test_gaussian_exact_at_zero():
    jet = Gaussian().jet(0, 8)
    assert jet.kind == "exact"
    # f^(2m)(0) = (-1)^m (2m)!/m!
    assert jet.values[0] == 1
    assert jet.values[2] == -2
    assert jet.values[4] == 12
    assert jet.values[6] == -120
    assert jet.values[1] == jet.values[3] == 0


def test_expsqr_exact_at_zero():
    jet = ExpSqr().jet(0, 6)
    assert jet.values[2] == 2
    assert jet.values[4] == 12
    assert jet.values[6] == 120


def hexes(vals) -> list:
    """Bit-level view: equal hex strings are equal floats, NaN equals NaN and
    -0.0 differs from 0.0."""
    return [float(v).hex() for v in vals]


SMALL_RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=9)
VALUE_X = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e200, math.inf,
                            -math.inf, math.nan])
           | st.floats(-1e3, 1e3))


@settings(max_examples=80, deadline=None)
@given(st.lists(SMALL_RATIONAL, min_size=1, max_size=7),
       st.lists(VALUE_X, max_size=30))
def test_polynomial_values_match_value(coeffs, xs):
    p = Polynomial(coeffs)
    want = []
    for x in xs:  # the Horner loop with one float(c) per coefficient per call
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * x + float(c)
        want.append(acc)
    assert hexes(p.value(x) for x in xs) == hexes(want)
    assert hexes(p.values(xs)) == hexes(want)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.label)
def test_values_match_value(f):
    xs = [-30.0, -2.5, -1.0, 0.0, 0.3, 1.7, 2.999, 27.0]
    assert hexes(f.values(xs)) == hexes(f.value(x) for x in xs)


def test_polynomial_jet_exact():
    p = Polynomial([0, 0, 1])  # x^2
    jet = p.jet(Fraction(3), 4)
    assert list(jet.values) == [9, 6, 2, 0, 0]
    assert p.degree == 2
    assert Polynomial([0, 1]).degree == 1


def test_sqrt1px2_low_orders_closed_form():
    f = Sqrt1px2()
    x = 0.75
    r = math.hypot(1.0, x)
    jet = f.jet(x, 2)
    assert jet.entry_float(1) == pytest.approx(x / r, rel=1e-12)
    assert jet.entry_float(2) == pytest.approx(1.0 / r ** 3, rel=1e-10)


def test_monomial_bump_prescribed_jet():
    b = MonomialBump(3, Fraction(5), r=1.0)
    jet = b.jet(0, 6)
    assert jet.values[3] == 5
    assert all(jet.values[i] == 0 for i in (0, 1, 2, 4, 5, 6))
    assert b.value(2.0) == 0.0  # outside support
    with pytest.raises(CapabilityError):
        b.jet(0.5, 3)


def test_gevrey_bump_support():
    b = GevreyBump(1.0, 1.0)
    assert b.value(1.0) == 0.0
    assert b.value(0.0) == pytest.approx(math.exp(-1.0))
    jet = b.jet(1.5, 5)
    assert all(jet.values[i].is_zero() for i in range(6))


def test_bump_order_cap():
    with pytest.raises(CapabilityError):
        GevreyBump().jet(0.0, 60)


def test_parse_function_specs():
    assert parse_function("gaussian").label == "gaussian"
    assert parse_function("poly:1,2").degree == 1
    assert parse_function("pow1px2:a=1.5").a == 1.5
    assert parse_function("monbump:n=2,a=3").n == 2
    with pytest.raises(PreconditionError):
        parse_function("wavelet")


def test_labels_name_the_parameters_exactly():
    # a :g label would read pow1px2:a=1 and gbump:g=1,r=2 here
    assert Pow1px2(1.0000001).label == "pow1px2:a=1.0000001"
    assert GevreyBump(1.0000001, 2.0000001).label == "gbump:g=1.0000001,r=2.0000001"
    for f in (Pow1px2(1.0000001), GevreyBump(0.1 + 0.2, 1e-7),
              MonomialBump(2, Fraction(1, 3), 1.0000001, 0.1 + 0.2)):
        assert vars(parse_function(f.label)) == vars(f)
    # the labels the benchmark prints keep their bytes
    for spec in ("pow1px2:a=1.5", "pow1px2:a=1.25", "pow1px2:a=1.75",
                 "pow1px2:a=2.5", "gbump:g=1,r=1", "monbump:n=2,a=3,r=1,g=1"):
        assert parse_function(spec).label == spec
    assert GevreyBump().label == "gbump:g=1,r=1"


def test_jet_log_abs_exact_and_log():
    exact = Gaussian().jet(0, 4)
    logs = jet_log_abs(exact)
    assert logs[0] == 0.0
    assert logs[1] == LOG_ZERO
    assert logs[2] == pytest.approx(math.log(2.0))
    logj = Gaussian().jet(1.0, 4)
    assert jet_log_abs(logj)[0] == pytest.approx(-1.0)


# -- weighted-sup kernel ----------------------------------------------------

def naive_weighted_log_sup(logs, conj, lam, xs=None, K=0, jk_cap=None,
                           extra=None):
    """Oracle: the plain (x, j, k) triple loop; the first strict max wins."""
    best, witness = LOG_ZERO, None
    for xi, row in enumerate(logs):
        lx = LOG_ZERO if K == 0 or xs[xi] == 0 else math.log(abs(xs[xi]))
        for j, lj in enumerate(row):
            if lj == LOG_ZERO:
                continue
            for k in range(K + 1):
                if jk_cap is not None and j + k > jk_cap:
                    break
                if k and lx == LOG_ZERO:
                    continue
                v = lj - lam * conj((j + k) / lam)
                if k:
                    v += k * lx
                if extra is not None:
                    v += extra[xi]
                if v > best:
                    best, witness = v, (xi, j, k)
    return best, witness


# a few repeated values, so equal terms and tied maxima are common; +-inf
# extras meet log 0 entries and must not hide the rest of their row
log_entry = st.sampled_from([LOG_ZERO, LOG_ZERO, -2.5, 0.0, 1.0, 3.75,
                             math.inf]) | st.floats(-20.0, 20.0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weighted_sup_kernel_matches_triple_loop(data):
    # small blocks put block boundaries, and ties across them, into short
    # grids; a budget below one row still takes a row per block
    block = data.draw(st.sampled_from([1, 8, 40, SUP_BLOCK_TERMS]), label="block")
    with mock.patch.object(functions, "SUP_BLOCK_TERMS", block):
        check_kernel_against_triple_loop(data)


def check_kernel_against_triple_loop(data):
    J = data.draw(st.integers(0, 6), label="J")
    K = data.draw(st.integers(0, 4), label="K")
    n = data.draw(st.integers(1, 6), label="n_x")
    row = st.lists(log_entry, min_size=J + 1, max_size=J + 1)
    logs = data.draw(st.lists(row, min_size=n, max_size=n), label="logs")
    xs = data.draw(st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, -3.0])
                            | st.floats(-9.0, 9.0),
                            min_size=n, max_size=n), label="xs")
    if data.draw(st.booleans(), label="x=0 row"):
        xs[data.draw(st.integers(0, n - 1))] = 0.0
    if data.draw(st.booleans(), label="repeat a row"):  # exact tie, later x
        i = data.draw(st.integers(0, n - 1))
        logs.append(list(logs[i]))
        xs.append(xs[i])
    extra = data.draw(st.none() | st.lists(
        st.sampled_from([0.0, -1.0, 2.0, math.inf, -math.inf])
        | st.floats(-5.0, 5.0),
        min_size=len(xs), max_size=len(xs)), label="extra")
    jk_cap = data.draw(st.none() | st.integers(0, J + K), label="jk_cap")
    lam = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3]), label="lam")
    if data.draw(st.booleans(), label="gevrey conjugate"):
        d = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]), label="d")
        conj = ConjugateEvaluator(WeightFunction.gevrey(d))
    else:  # any table, not even monotone: the kernel assumes no shape
        table = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0])
                                   | st.floats(-10.0, 10.0),
                                   min_size=J + K + 1, max_size=J + K + 1),
                          label="phi*(s/lam)")
        conj = lambda t: table[round(t * lam)]

    want = naive_weighted_log_sup(logs, conj, lam, xs, K, jk_cap, extra)
    got = weighted_log_sup(logs, conj, lam, xs, K, jk_cap, extra)
    assert got == want
    value, witness = got
    assert type(value) is float
    assert witness is None or all(type(i) is int for i in witness)


def test_weighted_sup_kernel_many_blocks():
    # 3 full blocks and a partial one, every j, k and x = 0 in play
    rng = np.random.default_rng(7)
    J, K = 5, 3
    rows = SUP_BLOCK_TERMS // ((J + 1) * (K + 1))
    n = 3 * rows + 40
    logs = rng.uniform(-20.0, 5.0, (n, J + 1))
    logs[rng.random((n, J + 1)) < 0.1] = LOG_ZERO
    xs = rng.uniform(-9.0, 9.0, n)
    xs[[0, rows, n - 1]] = 0.0
    extra = rng.uniform(-3.0, 3.0, n)
    conj = ConjugateEvaluator(WeightFunction.gevrey(1.5))
    for args in ((None, 0, None, None), (xs, K, None, extra),
                 (xs, K, J + 1, extra.tolist())):
        assert (weighted_log_sup(logs, conj, 1.5, *args)
                == naive_weighted_log_sup(logs.tolist(), conj, 1.5, *args))


def test_weighted_sup_kernel_tie_across_blocks_keeps_first():
    conj = ConjugateEvaluator(WeightFunction.gevrey(2))
    rows = SUP_BLOCK_TERMS // 3  # J = 2, K = 0
    logs = np.full((2 * rows + 1, 3), -5.0)
    # an exact tie in the last row of block 0 and the first of block 1
    logs[rows - 1, 2] = logs[rows, 2] = 9.0
    assert weighted_log_sup(logs, conj, 1.0)[1] == (rows - 1, 2, 0)
    # the tie moves to the last block: block 1 still wins
    logs[rows - 1, 2] = -5.0
    logs[2 * rows, 2] = 9.0
    assert weighted_log_sup(logs, conj, 1.0)[1] == (rows, 2, 0)
    # a strictly larger term in a later block replaces the earlier best
    logs[2 * rows, 1] = 9.5
    assert weighted_log_sup(logs, conj, 1.0)[1] == (2 * rows, 1, 0)


def test_weighted_sup_kernel_tie_keeps_first():
    # gevrey d=2: phi*(s) = -1 for s <= 1/2, so small s tie
    conj = ConjugateEvaluator(WeightFunction.gevrey(2))
    logs = [[LOG_ZERO, 1.0], [1.0, 1.0]]
    assert weighted_log_sup(logs, conj, 1.0) == (1.0 + 1.0, (1, 0, 0))
    assert weighted_log_sup(logs, conj, 4.0) == (1.0 + 4.0, (0, 1, 0))
    assert weighted_log_sup([[LOG_ZERO]], conj, 1.0) == (LOG_ZERO, None)


# -- seminorms --------------------------------------------------------------

GRID = GridSpec("lin", 0.05, 6.0, 120)
W2 = WeightFunction.gevrey(2)


def test_p_lambda_witness_reevaluates():
    rep = seminorm_p_lambda(Gaussian(), 1.0, W2, GRID, J=12, K=12)
    w = rep.witness
    conj = ConjugateEvaluator(W2)
    jet = Gaussian().jet(w["x"], w["j"])
    direct = (w["k"] * (math.log(abs(w["x"])) if w["x"] else LOG_ZERO)
              if w["k"] else 0.0)
    direct += jet_log_abs(jet)[w["j"]] - 1.0 * conj((w["j"] + w["k"]) / 1.0)
    assert rep.value_log == pytest.approx(direct, rel=1e-12)
    assert rep.stable


def test_pi_seminorm_gaussian_stable():
    rep = seminorm_pi(Gaussian(), 1.0, 1.0, W2, GRID, J=12)
    assert rep.stable
    assert not rep.degenerate
    assert math.isfinite(rep.value_log)


def test_seminorm_degenerate_for_zero_function():
    zero = Polynomial([0])
    rep = seminorm_p_lambda(zero, 1.0, W2, GRID, J=4, K=4)
    assert rep.degenerate
    assert rep.value_log == LOG_ZERO


def test_stable_sup_rescans_with_every_size_raised():
    tables, scans = [], []

    def table(xs, J):
        tables.append((len(xs), J))
        return np.zeros((len(xs), J + 1))

    def scan(logs, xs, *sizes):
        scans.append((logs.shape, len(xs), sizes))
        return 1.0 + 1e-7 * (len(scans) - 1), (3, 2, 1)

    grid = GridSpec("lin", 0.5, 2.0, 4)
    sym = grid.symmetric_points()
    ext, pad = grid.extended_symmetric_points()
    best, witness, stable = stable_sup(table, scan, grid, (10, 3, 7), "q")
    assert (best, stable) == (1.0, True)
    assert witness == {"j": 2, "q": 1, "x": float(sym[3])}
    # one table, over the extended grid with ceil(1.25 n) per size; its
    # middle rows and orders <= 10 at the sizes, then all of it raised
    assert tables == [(len(ext), 13)]
    assert scans == [((len(sym), 11), len(sym), (3, 7)),
                     ((len(ext), 14), len(ext), (4, 9))]
    tables.clear()
    scans.clear()
    # handed rows, it scans them as they are
    assert stable_sup(table, scan, grid, (10,), xs=sym)[1:] == (
        {"j": 2, "x": float(sym[3])}, None)
    assert tables == [(len(sym), 10)] and len(scans) == 1


def test_stable_sup_of_a_degenerate_sup_is_not_rescanned():
    # every term log 0: no witness and no stability verdict, in all three
    # estimators alike
    calls = []

    def scan(logs, xs):
        calls.append(logs.shape[1] - 1)
        return LOG_ZERO, None

    assert stable_sup(lambda xs, J: np.zeros((len(xs), J + 1)), scan, GRID,
                      (4,)) == (LOG_ZERO, None, None)
    assert calls == [4]
    zero = Polynomial([0])
    for rep in (seminorm_p_lambda(zero, 1.0, W2, GRID, J=4, K=4),
                seminorm_pi(zero, 1.0, 1.0, W2, GRID, J=4)):
        assert rep.degenerate and rep.stable is None


def old_scaled_grid(g):
    """The 1.25x box the stability check scanned before it kept the grid's
    points: the same point count past hi, but the step recomputed from the
    new hi, so few of the grid's points stay on it bit for bit."""
    if g.kind == "lin":
        step = (g.hi - g.lo) / (g.n - 1)
        n = g.n + max(1, round(g.hi * 0.25 / step))
        return GridSpec("lin", g.lo, g.lo + (n - 1) * step, n)
    step = (math.log(g.hi) - math.log(g.lo)) / (g.n - 1)
    n = g.n + max(1, round(math.log(1.25) / step))
    return GridSpec("log", g.lo, g.lo * math.exp((n - 1) * step), n)


def two_scan_stable_sup(table, scan, grid, sizes, power=None):
    """Oracle: the table and sup on the grid, then a fresh table and sup on
    old_scaled_grid at every size raised 1.25x rounded up."""
    def sup(g, sizes):
        xs = g.symmetric_points()
        return xs, *scan(table(xs, sizes[0]), xs, *sizes[1:])

    xs, best, at = sup(grid, sizes)
    if at is None:
        return best, None, None
    witness = {"j": at[1], **({power: at[2]} if power else {}), "x": float(xs[at[0]])}
    b2 = sup(old_scaled_grid(grid), [math.ceil(n * 1.25) for n in sizes])[1]
    return best, witness, abs(b2 - best) < 1e-6 * max(1.0, abs(best))


def seminorm_cases():
    """(f, family, lam, weight, grid) of the bench's seminorm variants, then
    the README's seminorm example."""
    for k in range(4):
        d, lam = (2.0, 2.25, 2.5, 1.75)[k], (1.0, 1.25, 1.5, 0.75)[k]
        grid = GridSpec("lin", 0.05, 8.0 + 0.25 * k, 160)
        for f in (Gaussian(), ExpSqr(), Sqrt1px2()):
            for w in (WeightFunction.gevrey(d), WeightFunction.logpow(d)):
                yield from ((f, fam, lam, w, grid) for fam in ("p", "pi"))
    yield Gaussian(), "p", 2.0, W2, GridSpec.parse("lin:0.05,8,160")


def test_one_table_sup_equals_the_two_scan_oracle():
    # value, witness and stable flag alike, on every case
    for f, family, lam, w, grid in seminorm_cases():
        conj = ConjugateEvaluator(w)
        table = lambda xs, J: f.log_jet_table(xs, J)[1]
        if family == "p":
            rep = seminorm_p_lambda(f, lam, w, grid, 20, 20)
            want = two_scan_stable_sup(
                table, lambda logs, xs, K: weighted_log_sup(logs, conj, lam, xs, K),
                grid, (20, 20), "k")
        else:
            rep = seminorm_pi(f, lam, lam, w, grid, 20)
            want = two_scan_stable_sup(
                table, lambda logs, xs: weighted_log_sup(
                    logs, conj, lam, extra=lam * w.values(xs)), grid, (20,))
        assert (rep.value_log.hex(), rep.witness, rep.stable) == (
            want[0].hex(), *want[1:]), (f.label, family, w.label, grid)


@pytest.mark.parametrize("family", ["p", "pi"])
def test_stable_seminorm_builds_one_jet_table(family, monkeypatch):
    sizes, real = [], Gaussian.log_jet_table

    def spy(self, xs, J):
        sizes.append((len(xs), J))
        return real(self, xs, J)

    monkeypatch.setattr(Gaussian, "log_jet_table", spy)
    if family == "p":
        rep = seminorm_p_lambda(Gaussian(), 1.0, W2, GRID, J=12, K=12)
    else:
        rep = seminorm_pi(Gaussian(), 1.0, 1.0, W2, GRID, J=12)
    # one table, over the box's rows x <= 0: gaussian is even
    assert sizes == [(len(GRID.extended_symmetric_points()[0]) // 2 + 1, 15)]
    assert rep.stable


def test_pow1px2_rejects_subnormal_exponent():
    tiny = sys.float_info.min
    for a in (5e-324, -5e-324, 1e-310, tiny / 2):
        with pytest.raises(PreconditionError, match="subnormal"):
            Pow1px2(a)
    with pytest.raises(PreconditionError, match="subnormal"):
        parse_function("pow1px2:a=5e-324")
    assert Pow1px2(tiny).a == tiny and Pow1px2(-tiny).a == -tiny
    assert Pow1px2(0.0).log_jet_table([2.0], 2)[1].tolist() == [
        [0.0, LOG_ZERO, LOG_ZERO]]


def test_seminorm_monotone_in_lambda():
    # e^{-lam phi*((j+k)/lam)} grows with lam, so p_lam does too
    r1 = seminorm_p_lambda(Gaussian(), 1.0, W2, GRID, J=10, K=10)
    r2 = seminorm_p_lambda(Gaussian(), 2.0, W2, GRID, J=10, K=10)
    assert r2.value_log >= r1.value_log - 1e-12


# -- growth index -----------------------------------------------------------

def test_index_estimator_gaussian():
    est = estimate_growth_exponent(Gaussian().jet(0.0, 80))
    assert 0.45 <= est.s_hat <= 0.55


def test_index_estimator_needs_enough_orders():
    with pytest.raises(DegenerateInputError):
        # orders 2, 4 and 6 only: the odd orders at 0 are exact zeros
        estimate_growth_exponent(Gaussian().jet(0.0, 7))
