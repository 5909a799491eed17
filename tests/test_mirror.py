"""Mirrored grids read once: the half path against the full rows.

A family that declares a parity (0 even, 1 odd) promises that its jet table
has equal log rows at x and -x, bit for bit, with the signs that parity
gives.  The sups, composed tables and growth checks then build and scan only
the rows x <= 0 of a mirrored grid.  Here:

* every declared parity is checked bit for bit on drawn points and orders;
* the composed table over the half, mirrored, equals the full composition;
* the seminorm, composed, ``sufficient`` and ``necessary`` results equal
  those of the full-row scan (value in hex, witness, ``stable``), on the
  bench's variants and the README's example;
* functions with no parity still build every row.
"""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsbench import experiments
from gsbench.errors import PreconditionError
from gsbench.experiments import (composed_jet_log_table, composed_parity,
                                 composed_seminorm_bound, composed_taylor_table,
                                 necessary_growth, sufficient_condition_check)
from gsbench.fdb import log_compose_table
from gsbench.functions import (ExpSqr, Gaussian, GevreyBump, ModelFunction,
                               MonomialBump, Polynomial, Pow1px2, Sqrt1px2,
                               mirrored_half, seminorm_p_lambda, seminorm_pi,
                               weighted_log_sup)
from gsbench.grids import GridSpec
from gsbench.weights import ConjugateEvaluator, WeightFunction

from test_functions import seminorm_cases

SQUARE = Polynomial([0, 0, 1])
MIXED = Polynomial([1, 1, 1])
D_ALT = (2.0, 2.25, 2.5, 1.75)
M_LISTS = ((1, 2, 4), (1, 2, 3), (1, 3, 4), (2, 3, 4))  # the bench's m lists


def unmirrored(f):
    """f with no declared parity: every row is built and scanned."""
    twin = copy.copy(f)
    twin.parity = None
    return twin


def spy_rows(monkeypatch, owner, name, at=1):
    """Patch owner.name to record, per call, the length of its argument at
    position ``at``: the rows it was handed."""
    rows, real = [], getattr(owner, name)

    def spy(*args):
        rows.append(len(args[at]))
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return rows


# -- the declarations -------------------------------------------------------

def test_parity_declarations():
    for f in (Gaussian(), ExpSqr(), Sqrt1px2(), Pow1px2(1.5), Pow1px2(-0.5)):
        assert f.parity == 0, f.label
    assert [Polynomial(c).parity for c in (
        [0], [3], [0, 0, 1], [1, 0, -2, 0, 5], [0, 1], [0, 2, 0, -1],
        [1, 1, 1], [0, 1, 1], [1, 0, 0, 1])] == [0, 0, 0, 0, 1, 1, None, None, None]
    # trailing zero coefficients are dropped before the parity is read
    assert Polynomial([0, 1, 0, 0]).parity == 1
    for f in (GevreyBump(), MonomialBump(2, 1), ModelFunction()):
        assert f.parity is None
    odd, even = Polynomial([0, 1, 0, 1]), SQUARE
    assert [composed_parity(f, psi) for f, psi in (
        (odd, even), (MIXED, even), (odd, odd), (even, odd), (MIXED, odd),
        (even, MIXED), (Gaussian(), GevreyBump()))] == [0, 0, 1, 0, None, None, None]


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def parity_functions(draw):
    kind = draw(st.sampled_from(["gaussian", "expsqr", "sqrt1px2", "pow1px2",
                                 "even", "odd", "mixed"]))
    if kind == "pow1px2":
        return Pow1px2(draw(st.floats(-3, 3, allow_subnormal=False)))
    if kind in ("gaussian", "expsqr", "sqrt1px2"):
        return {"gaussian": Gaussian, "expsqr": ExpSqr, "sqrt1px2": Sqrt1px2}[kind]()
    cs = draw(st.lists(coeff, min_size=1, max_size=9))
    if kind != "mixed":  # keep the powers of one parity only
        cs = [c if i % 2 == (kind == "odd") else 0 for i, c in enumerate(cs)]
    return Polynomial(cs)


@settings(max_examples=150, deadline=None)
@given(parity_functions(), st.lists(st.floats(-9, 9), min_size=1, max_size=6),
       st.integers(0, 60))
def test_declared_parity_holds_bit_for_bit(f, xs, J):
    # log rows equal at +-x; signs (-1)^(j + parity) apart
    if f.parity is None:  # mixed powers: no promise, so nothing to hold
        assert isinstance(f, Polynomial) and len({
            i % 2 for i, c in enumerate(f.coeffs) if c}) == 2
        return
    xs = np.array(xs)
    sign, log = f.log_jet_table(np.concatenate([xs, -xs]), J)
    n = len(xs)
    assert log[n:].tobytes() == log[:n].tobytes(), f.label
    flip = (-1.0) ** (np.arange(J + 1) + f.parity)
    assert np.array_equal(sign[n:], sign[:n] * flip), f.label


# -- the composed table -----------------------------------------------------

COMPOSED = [
    (Gaussian(), Sqrt1px2(), GridSpec("lin", 0.1, 2.0, 10), 24),
    (Gaussian(), Sqrt1px2(), GridSpec("lin", 0.16, 2.3, 10), 24),
    (Gaussian(), Pow1px2(1.5), GridSpec("lin", 0.5, 1.5, 2), 30),
    (Gaussian(), Pow1px2(2.5), GridSpec("lin", 0.65, 1.8, 2), 30),
    (Gaussian(), SQUARE, GridSpec("lin", 0.05, 5.0, 100), 24),
    (Gaussian(), SQUARE, GridSpec("log", 0.01, 8.0, 80), 12),
    (ExpSqr(), Polynomial([0, 1, 0, 1]), GridSpec("lin", 0.0, 1.5, 16), 20),
    (Polynomial([0, 1, 0, 2]), Polynomial([0, -1, 0, 0, 0, 1]),
     GridSpec("lin", 0.25, 3.0, 12), 18),
    (Polynomial([0, 3, 0, 0, 0, -1]), Polynomial([0, 0.5, 0, 1]),
     GridSpec("log", 0.1, 4.0, 9), 16),
]


@pytest.mark.parametrize("f, psi, grid, J", COMPOSED,
                         ids=[f"{f.label}-{p.label}-{g.spec_string()}"
                              for f, p, g, _ in COMPOSED])
def test_half_composed_table_is_the_full_composition(f, psi, grid, J, monkeypatch):
    xs = grid.symmetric_points()
    if f.ode is None:  # the Bell kernel, on f's jets over psi(xs)
        full = log_compose_table(*f.log_jet_table(psi.values(xs), J),
                                 *psi.log_jet_table(xs, J), J)[1]
        rows = spy_rows(monkeypatch, experiments, "log_compose_table", 0)
    else:  # the Taylor recurrence of f's ode
        full = composed_taylor_table(f, psi, xs, J)[1]
        rows = spy_rows(monkeypatch, experiments, "composed_taylor_table", 2)
    got = composed_jet_log_table(f, psi, xs, J)
    assert rows == [len(xs) // 2 + 1]  # only the rows x <= 0 are composed
    assert got.tobytes() == full.tobytes()


# -- the half path against the full-row oracle ------------------------------

def full_row_stable_sup(table, scan, grid, sizes, power=None, xs=None):
    """Oracle: stable_sup as it read every row of the grid and of its box."""
    if xs is None:
        ext, pad = grid.extended_symmetric_points()
        whole = table(ext, math.ceil(sizes[0] * 1.25))
        xs, logs = ext[pad:-pad], whole[pad:-pad, :sizes[0] + 1]
    else:
        whole, logs = None, table(xs, sizes[0])
    best, at = scan(logs, xs, *sizes[1:])
    if at is None:
        return best, None, None
    witness = {"j": at[1], **({power: at[2]} if power else {}), "x": float(xs[at[0]])}
    if whole is None:
        return best, witness, None
    b2, _ = scan(whole, ext, *(math.ceil(n * 1.25) for n in sizes[1:]))
    return best, witness, abs(b2 - best) < 1e-6 * max(1.0, abs(best))


def test_seminorms_equal_the_full_row_scan():
    for f, family, lam, w, grid in seminorm_cases():
        conj = ConjugateEvaluator(w)
        table = lambda xs, J: f.log_jet_table(xs, J)[1]
        if family == "p":
            rep = seminorm_p_lambda(f, lam, w, grid, 20, 20)
            want = full_row_stable_sup(
                table, lambda logs, xs, K: weighted_log_sup(logs, conj, lam, xs, K),
                grid, (20, 20), "k")
        else:
            rep = seminorm_pi(f, lam, lam, w, grid, 20)
            want = full_row_stable_sup(
                table, lambda logs, xs: weighted_log_sup(
                    logs, conj, lam, extra=lam * w.values(xs)), grid, (20,))
        assert (rep.value_log.hex(), rep.witness, rep.stable) == (
            want[0].hex(), *want[1:]), (f.label, family, w.label, grid)


def composed_cases():
    """The bench's composed groups, variant by variant, then an odd one:
    (f, psi, sigma, ms, grid, J)."""
    pow_a = (1.5, 1.25, 1.75, 2.5)
    for k in range(4):
        sigma = WeightFunction.gevrey((3.0, 2.5, 3.5, 4.0)[k])
        yield (Gaussian(), Sqrt1px2(), sigma, M_LISTS[k],
               GridSpec("lin", 0.1 + 0.02 * k, 2.0 + 0.1 * k, 10), 24)
        yield (Gaussian(), Pow1px2(pow_a[k]), sigma, M_LISTS[k],
               GridSpec("lin", 0.5 + 0.05 * k, 1.5 + 0.1 * k, 2), 30)
        yield (Gaussian(), SQUARE, sigma, M_LISTS[k],
               GridSpec("lin", 0.05, 5.0 + 0.25 * k, 100), 24)
    # odd f o odd psi: an odd composition
    yield (Polynomial([0, 1, 0, 2]), Polynomial([0, -1, 0, 0, 0, 1]),
           WeightFunction.gevrey(3), (1, 2), GridSpec("lin", 0.25, 3.0, 12), 12)


def test_composed_sups_equal_the_full_row_scan():
    # on a supplied table, as the bench passes it
    for f, psi, sigma, ms, grid, J in composed_cases():
        conj = ConjugateEvaluator(sigma)
        xs = grid.symmetric_points()
        table = composed_jet_log_table(f, psi, xs, J)
        for m in ms:
            scan = lambda logs, pts, Q, cap: weighted_log_sup(logs, conj, m, pts, Q, cap)
            rep = composed_seminorm_bound(f, psi, sigma, m, grid, J, J, jq_cap=J,
                                          jet_table=table, xs=xs)
            want = full_row_stable_sup(lambda pts, n: table[:, :n + 1], scan,
                                       grid, (J, J, J), "q", xs)
            assert (rep.value_log.hex(), rep.witness, rep.stable) == (
                want[0].hex(), *want[1:]), (f.label, psi.label, grid, m)


GROWTH_PSIS = [SQUARE, Polynomial([0, 0, 0, 1]), Polynomial([0, 1, 0, -3]),
               Polynomial([2, 0, -1, 0, 1]), Sqrt1px2()]


def test_sufficient_equals_the_full_row_scan():
    cases = [(SQUARE, WeightFunction.gevrey(D_ALT[k]), 1.5, list(M_LISTS[k]),
              GridSpec("lin", 0.05, 6.0 + 0.25 * k, 120), 15) for k in range(4)]
    cases += [(psi, WeightFunction.gevrey(2), a, [1, 2], GridSpec("lin", 0.0, 6.0, 61), 12)
              for psi in GROWTH_PSIS for a in (1.0, 1.5)]
    for psi, *rest in cases:
        got = sufficient_condition_check(psi, *rest)
        want = sufficient_condition_check(unmirrored(psi), *rest)
        assert got.C0.hex() == want.C0.hex()
        assert got.per_m.keys() == want.per_m.keys()
        for m, rec in want.per_m.items():
            assert got.per_m[m]["log_C_m"].hex() == rec["log_C_m"].hex()
            assert (got.per_m[m]["witness"], got.per_m[m]["growing"]) == (
                rec["witness"], rec["growing"]), (psi.label, m)


def test_necessary_equals_the_full_row_scan():
    cases = [(SQUARE, WeightFunction.gevrey(D_ALT[k]),
              GridSpec("log", 1e-3, 1e3 * (1 + 0.25 * k), 20000)) for k in range(4)]
    cases += [(psi, w, GridSpec("lin", 0.0, 9.0, 301))
              for psi in GROWTH_PSIS
              for w in (WeightFunction.gevrey(2), WeightFunction.logpow(1.5))]
    for psi, w, grid in cases:
        got = necessary_growth(psi, w, w, grid)
        want = necessary_growth(unmirrored(psi), w, w, grid)
        assert (got.C.hex(), got.argmax_x.hex(), got.grows_with_radius) == (
            want.C.hex(), want.argmax_x.hex(), want.grows_with_radius), psi.label


# -- no parity: every row -----------------------------------------------------

GRID = GridSpec("lin", 0.1, 0.9, 5)


@pytest.mark.parametrize("f", [MIXED, GevreyBump()], ids=lambda f: f.label)
def test_seminorms_of_no_parity_build_every_row(f, monkeypatch):
    rows = spy_rows(monkeypatch, type(f), "log_jet_table")
    w = WeightFunction.gevrey(2)
    seminorm_p_lambda(f, 1.0, w, GRID, 6, 6)
    seminorm_pi(f, 1.0, 1.0, w, GRID, 6)
    assert rows == [len(GRID.extended_symmetric_points()[0])] * 2


@pytest.mark.parametrize("psi", [MIXED, GevreyBump()], ids=lambda f: f.label)
def test_composed_of_no_parity_build_every_row(psi, monkeypatch):
    rows = spy_rows(monkeypatch, experiments, "composed_taylor_table", 2)
    xs = GRID.symmetric_points()
    t = composed_jet_log_table(Gaussian(), psi, xs, 6)
    composed_seminorm_bound(Gaussian(), psi, WeightFunction.gevrey(3), 2, GRID,
                            6, 6, jet_table=t, xs=xs)
    assert rows == [len(xs)]


def test_growth_checks_of_no_parity_read_every_row(monkeypatch):
    tables = spy_rows(monkeypatch, Polynomial, "log_jet_table")
    values = spy_rows(monkeypatch, Polynomial, "values")
    w = WeightFunction.gevrey(2)
    n = len(GRID.symmetric_points())
    sufficient_condition_check(MIXED, w, 1.5, [1], GRID, 6)
    assert (tables, values) == ([n], [n])
    values.clear()
    necessary_growth(MIXED, w, w, GRID)
    assert sum(values) == n
    # and the even square reads the rows x <= 0 only
    tables.clear(), values.clear()
    sufficient_condition_check(SQUARE, w, 1.5, [1], GRID, 6)
    necessary_growth(SQUARE, w, w, GRID)
    assert (tables, values) == ([n // 2 + 1], [n // 2 + 1] * 2)


# -- the mirror check and the supplied table's rows --------------------------

def test_mirrored_half_takes_exact_mirrors_only():
    xs = GRID.symmetric_points()
    assert mirrored_half(xs, 0).tobytes() == xs[:len(xs) // 2 + 1].tobytes()
    assert mirrored_half(xs, 1).tobytes() == xs[:len(xs) // 2 + 1].tobytes()
    nudged = xs.copy()
    nudged[-1] = math.nextafter(nudged[-1], math.inf)
    middle = xs.copy()
    middle[len(xs) // 2] = 0.5  # twins about the middle, but no 0 there
    for pts in (nudged, middle, xs[1:], xs[:-1], xs + 1.0, np.array([0.0]),
                np.array([])):
        assert len(mirrored_half(pts, 0)) == len(pts)
    assert len(mirrored_half(xs, None)) == len(xs)
    # a supplied mirror that fails the check is read whole
    assert len(mirrored_half(list(xs) + [9.0, 9.5], 0)) == len(xs) + 2


def test_composed_supplied_table_of_another_row_count_is_refused():
    grid = GridSpec("lin", 0.1, 3.9, 39)  # 79 symmetric points
    xs = grid.symmetric_points()
    table = composed_jet_log_table(Gaussian(), SQUARE, xs, 8)
    args = (Gaussian(), SQUARE, WeightFunction.gevrey(3), 2, grid, 8, 8)
    for rows in (table[:30], table[:-1], np.concatenate([table, table])):
        with pytest.raises(PreconditionError,
                           match=f"jet_table has {len(rows)} rows for 79 points"):
            composed_seminorm_bound(*args, jet_table=rows, xs=xs)
