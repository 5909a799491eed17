"""Row pruning in the weighted-sup kernel: the same bytes as the full scan.

``weighted_log_sup`` bounds every row from above (``_row_bounds``) before its
block scan, scans the row with the largest bound first, and then only the
rows whose bound is not below the max reached.  Here:

* the pruned kernel against a copy of the unpruned block scan, bit for bit
  on the value's hex and the witness, over drawn tables with +-inf and NaN
  entries, x = 0 rows, extras, index caps and exact ties;
* every row's exact max against its bound, on drawn and on extreme rows;
* the rows scanned for the bench's p seminorms, pinned;
* the bench's seminorm variants against the unpruned kernel.

``necessary_growth`` bounds each block of grid points from above before any
of its points is made (``_ratio_bounds``) and evaluates only the blocks
whose bound reaches the running max.  Here:

* the pruned scan against the per-point loop ``naive_necessary_growth``, bit
  for bit on C and argmax_x in hex and on the flag, over drawn weights
  (gevrey, logpow, tables, a callable), polynomials with roots and interior
  minima, lin and log grids and block sizes;
* every computed ratio against its block's bound;
* the scan against any valid bound, tight ones and exact ties included;
* the points evaluated on the bench's four ``scan.necessary`` variants, pinned,
  and on an omega that overflows at a finite t, bounded per block.

Both read their units through one driver, ``pruned_max``, checked here
against a linear scan over drawn units, bounds, chunk sizes and refusals.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsbench import experiments, functions
from gsbench.errors import PreconditionError
from gsbench.experiments import NECESSARY_BLOCK, _ratio_bounds, necessary_growth
from gsbench.functions import (SUP_BLOCK_TERMS, Gaussian, Polynomial, _row_bounds,
                               pruned_max, seminorm_p_lambda, seminorm_pi,
                               weighted_log_sup)
from gsbench.grids import GridSpec
from gsbench.logdomain import LOG_ZERO
from gsbench.weights import ConjugateEvaluator, WeightFunction

from fnweight import FnWeight
from test_experiments import naive_necessary_growth
from test_functions import seminorm_cases


def unpruned_weighted_log_sup(logs, conj, lam, xs=None, K=0, jk_cap=None,
                              extra=None):
    """Reference: the kernel's block scan over every row, with no bound."""
    table = np.asarray(logs, dtype=float)
    J = table.shape[1] - 1
    cap = J + K if jk_cap is None else min(jk_cap, J + K)
    c = np.full(J + K + 1, math.inf)
    for s in range(cap + 1):
        c[s] = lam * conj(s / lam)
    ks = np.arange(1, K + 1)
    c_jk = c[np.add.outer(np.arange(J + 1), np.arange(K + 1))]
    rows = max(1, SUP_BLOCK_TERMS // c_jk.size)
    best, witness = LOG_ZERO, None
    with np.errstate(invalid="ignore"):
        for lo in range(0, len(table), rows):
            v = table[lo:lo + rows, :, None] - c_jk
            if K:
                lx = [math.log(abs(x)) if x else LOG_ZERO
                      for x in np.asarray(xs[lo:lo + len(v)], dtype=float).tolist()]
                v[:, :, 1:] += np.multiply.outer(lx, ks)[:, None, :]
            if extra is not None:
                v += np.asarray(extra[lo:lo + len(v)], dtype=float)[:, None, None]
            v[np.isnan(v)] = LOG_ZERO
            i = int(v.argmax())
            if v.flat[i] > best:
                best = float(v.flat[i])
                xi, jk = divmod(i, (J + 1) * (K + 1))
                witness = (lo + xi, jk // (K + 1), jk % (K + 1))
    return best, witness


log_entry = (st.sampled_from([LOG_ZERO, LOG_ZERO, -2.5, 0.0, 1.0, 3.75,
                              math.inf, math.nan])
             | st.floats(-30.0, 30.0))


def draw_case(data):
    """(logs, conj, lam, xs, K, jk_cap, extra) with K >= 1."""
    J = data.draw(st.integers(0, 6), label="J")
    K = data.draw(st.integers(1, 5), label="K")
    n = data.draw(st.integers(2, 12), label="n_x")
    logs = data.draw(st.lists(st.lists(log_entry, min_size=J + 1, max_size=J + 1),
                              min_size=n, max_size=n), label="logs")
    xs = data.draw(st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, -3.0, 1e-300])
                            | st.floats(-9.0, 9.0), min_size=n, max_size=n),
                   label="xs")
    if data.draw(st.booleans(), label="x=0 row"):
        xs[data.draw(st.integers(0, n - 1))] = 0.0
    # exact ties: a copy of a row, at x or at -x, placed anywhere; the copy
    # of a low row ties inside the rows pruned, of the top row among those kept
    for _ in range(data.draw(st.integers(0, 3), label="copies")):
        i = data.draw(st.integers(0, len(logs) - 1))
        at = data.draw(st.integers(0, len(logs)))
        logs.insert(at, list(logs[i]))
        xs.insert(at, data.draw(st.sampled_from([1.0, -1.0])) * xs[i])
    extra = data.draw(st.none() | st.lists(
        st.sampled_from([0.0, -1.0, 2.0, math.inf, -math.inf])
        | st.floats(-5.0, 5.0), min_size=len(xs), max_size=len(xs)),
        label="extra")
    jk_cap = data.draw(st.none() | st.integers(0, J + K), label="jk_cap")
    lam = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3]), label="lam")
    if data.draw(st.booleans(), label="gevrey conjugate"):
        d = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]), label="d")
        conj = ConjugateEvaluator(WeightFunction.gevrey(d))
    else:  # any table, not even monotone
        table = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0])
                                   | st.floats(-10.0, 10.0),
                                   min_size=J + K + 1, max_size=J + K + 1),
                          label="phi*(s/lam)")
        conj = lambda t: table[round(t * lam)]
    return logs, conj, lam, xs, K, jk_cap, extra


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pruned_kernel_equals_the_unpruned_scan(data):
    # small blocks, so that the rows span several and pruning engages
    block = data.draw(st.sampled_from([1, 8, 40, 200]), label="block")
    logs, conj, lam, xs, K, jk_cap, extra = draw_case(data)
    with mock.patch.object(functions, "SUP_BLOCK_TERMS", block):
        got = weighted_log_sup(logs, conj, lam, xs, K, jk_cap, extra)
        want = unpruned_weighted_log_sup(logs, conj, lam, xs, K, jk_cap, extra)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
    assert type(got[0]) is float
    assert got[1] is None or all(type(i) is int for i in got[1])


def bounds_and_row_maxima(logs, conj, lam, xs, K, jk_cap, extra):
    table = np.asarray(logs, dtype=float)
    J = table.shape[1] - 1
    cap = J + K if jk_cap is None else min(jk_cap, J + K)
    c = np.array([lam * conj(s / lam) if s <= cap else math.inf
                  for s in range(J + K + 1)])
    lx = np.array([math.log(abs(x)) if x else LOG_ZERO for x in xs])
    e = None if extra is None else np.asarray(extra, dtype=float)
    bound = _row_bounds(table, c, lx, e, K)
    maxima = [unpruned_weighted_log_sup(
        [row], conj, lam, [xs[i]], K, jk_cap,
        None if extra is None else [extra[i]])[0] for i, row in enumerate(logs)]
    return bound, maxima


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_row_max_is_within_its_bound(data):
    case = draw_case(data)
    bound, maxima = bounds_and_row_maxima(*case)
    assert not np.isnan(bound).any()
    for b, m in zip(bound.tolist(), maxima):
        assert m <= b


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bound_holds_where_the_parts_are_large_and_cancel(data):
    # terms near a part's magnitude times 2^-53: log|f| and phi* of order
    # 1e12 that cancel to O(1), |x| up to 1e300, powers up to 40
    J = data.draw(st.integers(0, 20), label="J")
    K = data.draw(st.integers(1, 20), label="K")
    big = data.draw(st.sampled_from([1e3, 1e8, 1e12, 1e15]), label="scale")
    n = data.draw(st.integers(1, 6), label="n_x")
    c_table = data.draw(st.lists(st.floats(-big, big), min_size=J + K + 1,
                                 max_size=J + K + 1), label="c")
    logs = [[c_table[j] + data.draw(st.floats(-3.0, 3.0)) for j in range(J + 1)]
            for _ in range(n)]
    xs = data.draw(st.lists(st.sampled_from([1e-300, 1e-8, 0.999, 1.001, 1e8, 1e300])
                            | st.floats(-1e300, 1e300).filter(bool),
                            min_size=n, max_size=n), label="xs")
    extra = data.draw(st.none() | st.lists(st.floats(-big, big),
                                           min_size=n, max_size=n), label="extra")
    bound, maxima = bounds_and_row_maxima(
        logs, lambda t: c_table[round(t)], 1.0, xs, K, None, extra)
    for b, m in zip(bound.tolist(), maxima):
        assert m <= b


def test_bound_keeps_rows_with_nan_or_unbounded_parts():
    conj = ConjugateEvaluator(WeightFunction.gevrey(2))
    logs = [[0.0, math.nan], [math.inf, 0.0], [0.0, 0.0], [LOG_ZERO, LOG_ZERO]]
    bound, maxima = bounds_and_row_maxima(logs, conj, 1.0, [1.0, 2.0, 3.0, 4.0],
                                          2, None, [0.0, 0.0, math.inf, 0.0])
    assert bound.tolist()[:3] == [math.inf] * 3
    assert bound[3] == LOG_ZERO == maxima[3]


def spy_scans(monkeypatch):
    """Record the rows handed to the bound and to each block scan."""
    seen = {"bounded": [], "scanned": []}
    bounds, scan = functions._row_bounds, functions._block_sup

    def spy_bounds(table, *args):
        seen["bounded"].append(len(table))
        return bounds(table, *args)

    def spy_scan(table, *args):
        seen["scanned"].append(len(table))
        return scan(table, *args)

    monkeypatch.setattr(functions, "_row_bounds", spy_bounds)
    monkeypatch.setattr(functions, "_block_sup", spy_scan)
    return seen


def test_bench_p_seminorms_scan_one_row_of_grid_and_box(monkeypatch):
    # the grid's 161 rows x <= 0 and the box's 201 at J = K = 20: the row of
    # the largest bound is read, and no other row's bound reaches its max
    for f, family, lam, w, grid in seminorm_cases():
        if family != "p":
            continue
        seen = spy_scans(monkeypatch)
        seminorm_p_lambda(f, lam, w, grid, 20, 20)
        assert seen == {"bounded": [161, 201], "scanned": [1, 1]}, \
            (f.label, w.label, grid)


def test_one_block_and_k_zero_scans_skip_the_bound(monkeypatch):
    # pi has no power k; a composed table of a few rows fits one block
    seen = spy_scans(monkeypatch)
    f, _, lam, w, grid = next(seminorm_cases())
    seminorm_pi(f, lam, lam, w, grid, 20)
    rows = SUP_BLOCK_TERMS // (21 * 21)
    logs = np.zeros((rows, 21))
    weighted_log_sup(logs, ConjugateEvaluator(w), 1.0, np.ones(rows), 20)
    assert seen == {"bounded": [], "scanned": [161, 201, rows]}


@pytest.mark.parametrize("case", list(seminorm_cases()),
                         ids=lambda c: f"{c[0].label}-{c[1]}-{c[3].label}-{c[4].hi:g}")
def test_bench_seminorms_equal_the_unpruned_kernel(case, monkeypatch):
    f, family, lam, w, grid = case
    run = ((lambda: seminorm_p_lambda(f, lam, w, grid, 20, 20)) if family == "p"
           else (lambda: seminorm_pi(f, lam, lam, w, grid, 20)))
    got = run()
    monkeypatch.setattr(functions, "weighted_log_sup", unpruned_weighted_log_sup)
    want = run()
    assert (got.value_log.hex(), got.witness, got.stable) == (
        want.value_log.hex(), want.witness, want.stable)


# -- necessary_growth: blocks pruned by their bound ---------------------------

# psi with roots (simple, double, at 0), interior minima and maxima, where
# Horner cancels: (x^2 - 1/2)^2, (x - 1)^2, and a minimum 2^-30 above 0
NECESSARY_PSIS = [Polynomial(c) for c in (
    [0, 0, 1], [0, 1, 1], [1, -2, 1], [-1, 0, 1], [0, -3, 0, 1],
    [0.25, 0, -1, 0, 1], [1 + 2 ** -30, -2, 1], [3], [1e150, 0, 1], [0, 1])]


@st.composite
def necessary_weight(draw):
    kind = draw(st.sampled_from(["gevrey", "logpow", "table", "fn"]))
    if kind == "gevrey":
        return WeightFunction.gevrey(draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 7.0])))
    if kind == "logpow":
        return WeightFunction.logpow(draw(st.sampled_from([1.5, 2.0, 3.0])))
    if kind == "fn":
        return FnWeight(lambda t: t ** 0.5, label="sqrt")
    # nondecreasing columns: constant, flat stretches, negative starts
    ts = draw(st.lists(st.sampled_from([1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 10.0, 1e3]),
                       min_size=2, max_size=5, unique=True))
    # (the loop divides in Python: no knot at omega = -1, where 1 + omega = 0)
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.1, 3.3]),
                          min_size=len(ts) - 1, max_size=len(ts) - 1))
    v = [draw(st.sampled_from([-2.9, -0.5, 0.0, 1.0]))]
    for step in steps:
        v.append(v[-1] + step)
    return WeightFunction.tabulated(sorted(ts), v)


@st.composite
def necessary_case(draw):
    psi = draw(st.sampled_from(NECESSARY_PSIS + [Gaussian()])
               | st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5).map(Polynomial))
    kind = draw(st.sampled_from(["lin", "log"]))
    lo = 0.0 if kind == "lin" and draw(st.booleans()) else draw(st.floats(1e-3, 2.0))
    grid = GridSpec(kind, lo, lo + draw(st.floats(0.5, 50.0)), draw(st.integers(2, 400)))
    return psi, draw(necessary_weight()), draw(necessary_weight()), grid


def same_as_the_loop(res, psi, w_sigma, w_omega, grid):
    best, best_x, grows = naive_necessary_growth(psi, w_sigma, w_omega, grid)
    return (res.C.hex(), res.argmax_x.hex(), res.grows_with_radius) == (
        best.hex(), best_x.hex(), grows)


@settings(max_examples=300, deadline=None)
@given(necessary_case(), st.sampled_from([1, 2, 5, 16, 63, NECESSARY_BLOCK, 65, 200]))
def test_pruned_necessary_equals_the_pointwise_loop(case, block):
    with mock.patch.object(experiments, "NECESSARY_BLOCK", block):
        res = necessary_growth(*case)
    assert same_as_the_loop(res, *case)


def block_ratios_and_bounds(psi, w_sigma, w_omega, grid, block):
    """Per block as necessary_growth makes them: its computed ratios (NaN
    where the ratio is NaN) and its bound."""
    count, points = grid.symmetric_points_at()
    count = count // 2 + 1 if psi.parity is not None else count
    blocks = [np.arange(a, min(a + block, count)) for a in range(0, count, block)]
    bound = _ratio_bounds(psi, w_sigma, w_omega, points(np.array([b[0] for b in blocks])),
                          points(np.array([b[-1] for b in blocks])))
    with np.errstate(all="ignore"):
        ratios = [w_sigma.values(points(b)) / (1.0 + w_omega.values(psi.values(points(b))))
                  for b in blocks]
    return ratios, bound.tolist()


@settings(max_examples=300, deadline=None)
@given(necessary_case(), st.sampled_from([2, 5, 16, NECESSARY_BLOCK]))
def test_every_necessary_ratio_is_within_its_bound(case, block):
    ratios, bounds = block_ratios_and_bounds(*case, block)
    for r, b in zip(ratios, bounds):
        assert not (r > b).any(), (r.max(), b)


def test_necessary_bound_covers_a_table_knot_and_cancellation():
    # this table's interpolation one ulp below its knot K rounds 8.9e-16
    # above the knot's value, which the flat segment past K keeps; and
    # (x^2 - 1/2)^2 and (x - 1)^2 + 2^-30 cancel in Horner near their minima
    K = 2.5788460943075933
    step = WeightFunction.tabulated([0.8344180580863158, K, 10 * K],
                                    [0.0, 6.5240161921520485, 6.5240161921520485])
    flat = WeightFunction.tabulated([1.0, 2.0], [0.0, 0.0])
    x = math.nextafter(K, 0.0)
    assert step(x) > step(K)
    cases = [(Polynomial([0, 1]), step, flat, GridSpec("lin", x, x + 1.0, 3)),
             (Polynomial([0, 1]), step, flat, GridSpec("log", x, 2 * K, 300)),
             (NECESSARY_PSIS[5], WeightFunction.gevrey(2), WeightFunction.gevrey(2),
              GridSpec("lin", 0.0, 1.5, 3001)),
             (NECESSARY_PSIS[6], step, WeightFunction.gevrey(2),
              GridSpec("lin", 0.0, 1.0 + 2 ** -20, 4097))]
    for case in cases:
        for block in (2, 3, 16, NECESSARY_BLOCK):
            ratios, bounds = block_ratios_and_bounds(*case, block)
            for r, b in zip(ratios, bounds):
                assert not (r > b).any()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_necessary_scan_is_exact_under_any_valid_bound(data):
    # bounds from the exact block maxima plus drawn slack, 0 among it, or
    # +inf: a block whose bound ties the running max must still be read,
    # for it may hold an earlier tie; constant tables make every ratio tie
    const = lambda v: WeightFunction.tabulated([1.0, 2.0], [v, v])
    psi, w_sigma, w_omega, grid = data.draw(necessary_case() | st.tuples(
        st.sampled_from(NECESSARY_PSIS), st.sampled_from([const(1.0), const(0.0)]),
        st.sampled_from([const(0.0), const(3.0), WeightFunction.gevrey(2)]),
        st.builds(GridSpec, st.just("lin"), st.just(0.0), st.floats(1.0, 5.0),
                  st.integers(2, 60))))
    block = data.draw(st.sampled_from([1, 2, 5, 16]))
    ratios, _ = block_ratios_and_bounds(psi, w_sigma, w_omega, grid, block)
    exact = [float(np.where(np.isnan(r), -math.inf, r).max()) for r in ratios]
    slack = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, math.inf]),
                               min_size=len(exact), max_size=len(exact)))
    tight = lambda *args: np.array([e + s for e, s in zip(exact, slack)])
    with mock.patch.object(experiments, "NECESSARY_BLOCK", block), \
            mock.patch.object(experiments, "_ratio_bounds", tight):
        res = necessary_growth(psi, w_sigma, w_omega, grid)
    assert same_as_the_loop(res, psi, w_sigma, w_omega, grid)


def test_bench_necessary_variants_evaluate_few_points(monkeypatch):
    # the bench's scan.necessary: 20,001 points x <= 0 per variant; pinned,
    # the points whose sigma and omega(psi) are evaluated, the blocks' two
    # bound evaluations, and the grid's libm pows (points and block ends)
    seen = {"sigma": 0, "omega": 0, "envelope": 0, "pow": 0}
    weight_values, envelope = experiments.weight_values, WeightFunction.envelope
    points_at = GridSpec.points_at

    def spy_values(w, ts, flag, *args):
        seen[flag[2:]] += len(ts)
        return weight_values(w, ts, flag, *args)

    def spy_envelope(self, ts, upper):
        seen["envelope"] += len(ts)
        return envelope(self, ts, upper)

    def spy_points(self, i):
        seen["pow"] += len(i)
        return points_at(self, i)

    monkeypatch.setattr(experiments, "weight_values", spy_values)
    monkeypatch.setattr(WeightFunction, "envelope", spy_envelope)
    monkeypatch.setattr(GridSpec, "points_at", spy_points)
    got = []
    for k, d in enumerate((2.0, 2.25, 2.5, 1.75)):
        w = WeightFunction.gevrey(d)
        necessary_growth(Polynomial([0, 0, 1]), w, w,
                         GridSpec("log", 1e-3, 1e3 * (1 + 0.25 * k), 20000))
        got.append(dict(seen))
        seen.update(dict.fromkeys(seen, 0))
    kept = [1216, 1280, 1344, 1152]  # 19, 20, 21 and 18 blocks of 64
    assert got == [{"sigma": n, "omega": n, "envelope": 2 * 313, "pow": n + 2 * 313 + 2}
                   for n in kept]
    for g in got:  # at most a quarter of the 20,001 points
        assert max(g["sigma"] + g["envelope"] // 2, g["pow"]) <= 20001 // 4


def test_omega_that_overflows_at_a_finite_t_is_bounded_per_block(monkeypatch):
    # omega = t^2 overflows past t ~ 1.3e154, so omega at the largest float
    # says nothing; |psi| = x^2 <= 1e6 on this grid, and each block's upper
    # enclosure keeps omega far below 2^1023: 8 blocks of 64 are read, not
    # all 20,001 points
    case = (Polynomial([0, 0, 1]), WeightFunction.gevrey(2), WeightFunction.gevrey(0.5),
            GridSpec("log", 1e-3, 1e3, 20000))
    seen = {"sigma": 0, "omega": 0}
    weight_values = experiments.weight_values

    def spy_values(w, ts, flag, *args):
        seen[flag[2:]] += len(ts)
        return weight_values(w, ts, flag, *args)

    monkeypatch.setattr(experiments, "weight_values", spy_values)
    res = necessary_growth(*case)
    assert seen == {"sigma": 512, "omega": 512}
    assert same_as_the_loop(res, *case)


def test_envelope_of_an_infinite_value_is_infinite():
    # psi = x^2 past 1e154 makes omega(psi) = inf: its lower envelope is +inf,
    # not inf - inf (warnings are errors here)
    ts = np.array([0.0, 4.0, math.inf])
    for w in (WeightFunction.gevrey(2), WeightFunction.logpow(2)):
        for upper in (True, False):
            assert w.envelope(ts, upper)[-1] == math.inf


# -- pruned_max: the one bound-then-read driver --------------------------------

entry_value = (st.sampled_from([-math.inf, -1.0, 0.0, 0.0, 2.0, 2.0])
               | st.floats(-4.0, 4.0))


@st.composite
def driver_case(draw):
    """Units of (value, inner) entries, bounds from each unit's exact max
    plus drawn slack (0 makes ties with the floor), a chunk size, and the
    units whose read raises, each of unknown bound as the callers give it."""
    n = draw(st.integers(1, 12), label="units")
    units = draw(st.lists(st.lists(st.tuples(entry_value, st.booleans()),
                                   min_size=1, max_size=4),
                          min_size=n, max_size=n), label="entries")
    slack = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, math.inf, math.nan]),
                          min_size=n, max_size=n), label="slack")
    # about half the cases raise nowhere, so most compare the scan's result
    raising = draw(st.sets(st.integers(0, n - 1), max_size=3)
                   | st.just(set()), label="raising")
    bound = [math.inf if u in raising else max(v for v, _ in entries) + s
             for u, (entries, s) in enumerate(zip(units, slack))]
    return units, np.array(bound), draw(st.integers(1, n), label="chunk"), raising


def linear_scan(units):
    """(max, first (unit, entry) position of it, max of the inner entries)."""
    best, at, floor = -math.inf, None, -math.inf
    for u, entries in enumerate(units):
        for i, (v, inner) in enumerate(entries):
            if v > best:
                best, at = v, (u, i)
            if inner:
                floor = max(floor, v)
    return best, at, floor


def linear_scan_at(units, take):
    """linear_scan over the units ``take`` only, positions in whole units."""
    best, at, floor = linear_scan([units[u] for u in take])
    return best, None if at is None else (take[at[0]], at[1]), floor


@settings(max_examples=400, deadline=None)
@given(driver_case())
def test_pruned_max_equals_a_linear_scan(case):
    units, bound, chunk, raising = case
    reads = []

    def read(take):
        take = take.tolist()
        assert take == sorted(set(take)) and len(take) <= chunk
        reads.append(take)
        if raising & set(take):  # names the chunk, as a float refusal does
            raise PreconditionError(str(take))
        return linear_scan_at(units, take)

    if raising:
        with pytest.raises(PreconditionError) as err:
            pruned_max(bound, read, chunk)
        assert str(err.value) == str([min(raising)])
        return
    value, at, floor = pruned_max(bound, read, chunk)
    assert (value, at, floor) == linear_scan(units)
    assert type(value) is float
    read_units = [u for take in reads for u in take]
    assert len(read_units) == len(set(read_units))  # no unit read twice

