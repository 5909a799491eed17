import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mpmath as mp
import numpy as np

from gsbench import experiments, fdb
from gsbench.errors import PreconditionError
from gsbench.fdb import (Jet, compose_jet, enumerate_partitions, faa_di_bruno,
                         identity_lah, identity_table, identity_two_power,
                         log_compose_table, partition_count, single_jet_compose)
from gsbench.functions import ExpSqr, Gaussian, Polynomial, Pow1px2, Sqrt1px2
from gsbench.grids import GridSpec
from gsbench.logdomain import LOG_ZERO
from gsbench.weights import WeightFunction

# -- independent oracle: polynomial composition -----------------------------

def poly_compose(h_coeffs, psi_coeffs):
    """Coefficients of h(psi(x)) by exact convolution."""
    out = [Fraction(0)]
    power = [Fraction(1)]  # psi^k
    for k, hk in enumerate(h_coeffs):
        if k:
            new = [Fraction(0)] * (len(power) + len(psi_coeffs) - 1)
            for i, a in enumerate(power):
                if a:
                    for jj, b in enumerate(psi_coeffs):
                        new[i + jj] += a * b
            power = new
        if len(out) < len(power):
            out += [Fraction(0)] * (len(power) - len(out))
        for i, a in enumerate(power):
            out[i] += hk * a
    return out


def poly_jet(coeffs, x0, J):
    vals = []
    for j in range(J + 1):
        acc = Fraction(0)
        for i in range(j, len(coeffs)):
            acc += coeffs[i] * (math.factorial(i) // math.factorial(i - j)) * x0 ** (i - j)
        vals.append(acc)
    return Jet.from_rationals(x0, vals)


def poly_eval(coeffs, x0):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


# -- independent oracle: Faa di Bruno as a sum over partitions --------------

def partition_fdb(h_vals, psi_vals, j):
    """(h o psi)^(j) in exact rationals as the sum over multi-indices
    (k_1, ..., k_j) of j!/(k_1! ... k_j!) h^(k) prod_l (psi^(l)/l!)^(k_l).
    Also returns the sum of the terms' absolute values."""
    if j == 0:
        return h_vals[0], abs(h_vals[0])
    total = mass = Fraction(0)
    for mi in enumerate_partitions(j):
        term = mi.multinomial() * h_vals[mi.k]
        for l, kl in enumerate(mi.k_vec, start=1):
            if kl and term:
                term *= (psi_vals[l] / math.factorial(l)) ** kl
        total += term
        mass += abs(term)
    return total, mass


rational = st.builds(Fraction,
                     st.integers(min_value=-9, max_value=9),
                     st.integers(min_value=1, max_value=9))
coeff_list = st.lists(rational, min_size=1, max_size=6)
nonzero_rational = st.builds(Fraction,
                             st.integers(1, 9) | st.integers(-9, -1),
                             st.integers(1, 9))


@st.composite
def jet_entries(draw, size):
    """Signed rationals under a drawn zero pattern: full support, at most
    three nonzero orders, or an arbitrary mask."""
    vals = draw(st.lists(nonzero_rational, min_size=size, max_size=size))
    pattern = draw(st.sampled_from(["full", "sparse", "mask"]))
    if pattern == "full":
        return vals
    if pattern == "sparse":
        keep = draw(st.sets(st.integers(0, size - 1), max_size=3))
    else:
        mask = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        keep = {i for i, b in enumerate(mask) if b}
    return [v if i in keep else Fraction(0) for i, v in enumerate(vals)]


# -- partition machinery ----------------------------------------------------

def test_partition_count_against_known_values():
    # OEIS A000041
    known = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 10: 42, 20: 627, 30: 5604}
    for j, p in known.items():
        assert partition_count(j) == p


@pytest.mark.parametrize("j", [1, 2, 3, 5, 8, 12, 20])
def test_enumeration_count_matches_pentagonal_oracle(j):
    assert len(enumerate_partitions(j)) == partition_count(j)


def test_multi_index_invariant():
    for mi in enumerate_partitions(7):
        assert sum((l + 1) * kl for l, kl in enumerate(mi.k_vec)) == 7
        assert 1 <= mi.k <= 7


def test_enumeration_deterministic():
    a = [mi.k_vec for mi in enumerate_partitions(9)]
    b = [mi.k_vec for mi in enumerate_partitions(9)]
    assert a == b == sorted(a)


def test_bad_multi_index_rejected():
    from gsbench.fdb import PartitionMultiIndex
    with pytest.raises(PreconditionError):
        PartitionMultiIndex(3, (1, 0, 1))  # 1*1 + 3*1 = 4 != 3


# -- Faa di Bruno vs the polynomial oracle ----------------------------------

@settings(max_examples=60, deadline=None)
@given(coeff_list, coeff_list,
       st.integers(min_value=1, max_value=12), rational)
def test_fdb_equals_polynomial_composition(h_c, psi_c, j, x0):
    comp = poly_compose(h_c, psi_c)
    expect = poly_jet(comp, x0, j).values
    h_jet = poly_jet(h_c, poly_eval(psi_c, x0), j)
    psi_jet = poly_jet(psi_c, x0, j)
    assert faa_di_bruno(h_jet, psi_jet, j) == expect[j]
    assert compose_jet(h_jet, psi_jet, j).values == expect


def test_fdb_log_path_agrees_with_exact():
    h_c = [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(2)]
    psi_c = [Fraction(0), Fraction(1), Fraction(-1, 2)]
    for j in range(1, 9):
        h_jet = poly_jet(h_c, poly_eval(psi_c, Fraction(1, 2)), j)
        psi_jet = poly_jet(psi_c, Fraction(1, 2), j)
        exact = faa_di_bruno(h_jet, psi_jet, j)
        logv = faa_di_bruno(h_jet.to_log(), psi_jet.to_log(), j)
        assert logv.to_float() == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


# Log-path tolerance, relative to the sum of the absolute values of the
# partition terms: every Bell entry and the final sum are max-shifted fsums,
# so the error is a few ulps per recurrence level times |log| of the terms.
LOG_PATH_TOL = 1e-11


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bell_matches_partition_oracle(data):
    J = data.draw(st.integers(1, 25), label="J")
    h_vals = data.draw(jet_entries(J + 1), label="h")
    psi_vals = data.draw(jet_entries(J + 1), label="psi")
    j = data.draw(st.integers(1, J), label="j")
    h_jet = Jet.from_rationals(psi_vals[0], h_vals)
    psi_jet = Jet.from_rationals(0, psi_vals)
    exact = compose_jet(h_jet, psi_jet, J)
    logv = compose_jet(h_jet.to_log(), psi_jet.to_log(), J)
    for n in sorted({j, J}):
        want, mass = partition_fdb(h_vals, psi_vals, n)
        assert exact.values[n] == want
        assert faa_di_bruno(h_jet, psi_jet, n) == want
        err = abs(Fraction(logv.values[n].to_float()) - want)
        assert err <= LOG_PATH_TOL * mass, (n, float(err), float(mass))


def test_composition_never_enumerates_partitions(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("partition enumeration on the composition path")

    monkeypatch.setattr(fdb, "enumerate_partitions", forbidden)
    monkeypatch.setattr(fdb.PartitionMultiIndex, "__post_init__", forbidden)
    psi_jet = Sqrt1px2().jet(1.3, 30)
    h_jet = Gaussian().jet(psi_jet.entry_float(0), 30)
    assert psi_jet.kind == h_jet.kind == "log"
    full = compose_jet(h_jet, psi_jet, 30)
    top = faa_di_bruno(h_jet, psi_jet, 30)
    assert (top.sign, top.log_abs) == (full.values[30].sign,
                                       full.values[30].log_abs)


def test_order_zero_returns_h_value():
    h = Jet.from_rationals(0, [Fraction(7), Fraction(1)])
    psi = Jet.from_rationals(0, [Fraction(0), Fraction(1)])
    assert faa_di_bruno(h, psi, 0) == 7


def test_mixed_kinds_rejected():
    h = Jet.from_rationals(0, [Fraction(1), Fraction(1)])
    psi = Jet.from_floats(0.0, [0.0, 1.0])
    with pytest.raises(PreconditionError):
        faa_di_bruno(h, psi, 1)


# -- the batched log-domain kernel ------------------------------------------

def pointwise_log_compose(f_sign, f_log, psi_sign, psi_log, J):
    """Oracle for ``log_compose_table``: the Bell recurrence one grid point at
    a time on (sign, log|.|) pairs, each entry a max-shifted ``math.fsum`` of
    its terms.  Returns (sign, log|(f o psi)^(n)|) as two lists of rows."""
    def total(terms):
        if len(terms) < 2:
            return terms[0] if terms else None
        m = max(la for _, la in terms)
        s = math.fsum(sg * math.exp(la - m) for sg, la in terms)
        return None if s == 0.0 else (1 if s > 0 else -1, m + math.log(abs(s)))

    signs, logs = [], []
    for fs, fl, ps, pl in zip(f_sign, f_log, psi_sign, psi_log):
        h = [(int(s), float(v)) if s else None for s, v in zip(fs, fl)]
        psi = [(int(s), float(v)) if s else None for s, v in zip(ps, pl)]
        support = [i for i in range(1, J + 1) if psi[i]]
        bell = [[(1, 0.0)]]
        for n in range(1, J + 1):
            row = [None] * (n + 1)
            for k in range(1, n + 1):
                terms = []
                for i in support:
                    b = bell[n - i][k - 1] if k - 1 <= n - i else None
                    if b:
                        c = math.log(math.comb(n - 1, i - 1)) + psi[i][1]
                        terms.append((psi[i][0] * b[0], c + b[1]))
                row[k] = total(terms)
            bell.append(row)
        out = [total([(h[k][0] * b[0], h[k][1] + b[1])
                      for k, b in enumerate(bell[n]) if b and h[k]])
               for n in range(J + 1)]
        signs.append([v[0] if v else 0 for v in out])
        logs.append([v[1] if v else -math.inf for v in out])
    return signs, logs


def composed_tables(f, psi, xs, J):
    xs = np.asarray(xs, dtype=float)
    return (*f.log_jet_table(psi.values(xs), J), *psi.log_jet_table(xs, J))


def assert_close_logs(got_sign, got_log, want_sign, want_log, tol):
    """Equal signs (so equal zero patterns) and log drift <= tol relative."""
    got_sign, got_log = np.asarray(got_sign), np.asarray(got_log)
    want_sign, want_log = np.asarray(want_sign), np.asarray(want_log)
    assert np.array_equal(got_sign, want_sign)
    assert np.array_equal(got_log == -math.inf, want_log == -math.inf)
    live = want_log > -math.inf
    drift = np.abs(got_log[live] - want_log[live]) / np.maximum(
        1.0, np.abs(want_log[live]))
    assert drift.max(initial=0.0) <= tol, drift.max()


# the gaussian over x^2 (sparse inner jet), sqrt(1+x^2) and (1+x^2)^a (full
# support) on the grids the composed seminorm sups use, x = 0 included
KERNEL_CASES = {
    "square": (Polynomial([0, 0, 1]), GridSpec("lin", 0.05, 5.25, 100), 24),
    "sqrt1px2": (Sqrt1px2(), GridSpec("lin", 0.12, 2.1, 10), 24),
    "pow1px2": (Pow1px2(1.25), GridSpec("lin", 0.55, 1.6, 2), 30),
}


# -- exact-bit oracle: the kernel with the summed axis last ----------------
# The kernel sums each entry's terms along the first axis; these sum them
# along the last one, each TwoSum level a strided gather, in the same tree
# over the same zero-padded terms.  Rows are independent, so the two agree
# bit for bit.

def rows_last_two_sum(v):
    n = v.shape[-1]
    width = 1 << (n - 1).bit_length()
    if width > n:
        v = np.concatenate([v, np.zeros(v.shape[:-1] + (width - n,))], axis=-1)
    err = None
    while v.shape[-1] > 1:
        a, b = v[..., 0::2], v[..., 1::2]
        v = a + b
        z = v - a
        e = (a - (v - z)) + (b - z)
        err = e if err is None else err[..., 0::2] + err[..., 1::2] + e
    return v[..., 0] if err is None else v[..., 0] + err[..., 0]


def rows_last_log_sum(sign, log):
    m = log.max(axis=-1)
    m = np.where(m == LOG_ZERO, 0.0, m)
    total = rows_last_two_sum(sign * np.exp(log - m[..., None]))
    with np.errstate(divide="ignore"):
        return np.sign(total), m + np.log(np.abs(total))


def rows_last_log_bell_table(psi_sign, psi_log, J):
    """(sign, log|B(n, k)|), each (rows, J+1, J+1), from (rows, J+1) jets."""
    rows = len(psi_log)
    sign = np.zeros((rows, J + 1, J + 1), dtype=np.int8)
    log = np.full((rows, J + 1, J + 1), LOG_ZERO)
    sign[:, 0, 0], log[:, 0, 0] = 1, 0.0
    support = [i for i in range(1, J + 1) if np.any(psi_sign[:, i])]
    k = np.arange(J)[:, None]
    for n in range(1, J + 1):
        idx = [i for i in support if i <= n]
        if not idx:
            continue
        i, r = np.array(idx), n - np.array(idx)
        c = [math.log(math.comb(n - 1, j - 1)) for j in idx] + psi_log[:, i]
        sign[:, n, 1:n + 1], log[:, n, 1:n + 1] = rows_last_log_sum(
            sign[:, r, k[:n]] * psi_sign[:, None, i],
            log[:, r, k[:n]] + c[:, None, :])
    return sign, log


def rows_last_log_compose_table(f_sign, f_log, psi_sign, psi_log, J):
    f_sign, f_log, psi_sign, psi_log = (
        np.asarray(a, dtype=float) for a in (f_sign, f_log, psi_sign, psi_log))
    sign, log = np.empty((2, len(f_log), J + 1))
    rows = max(1, fdb.TERM_BLOCK // (J + 1) ** 2)
    for lo in range(0, len(f_log), rows):
        b_sign, b_log = rows_last_log_bell_table(
            psi_sign[lo:lo + rows], psi_log[lo:lo + rows], J)
        fs, fl = f_sign[lo:lo + rows], f_log[lo:lo + rows]
        for n in range(J + 1):
            sign[lo:lo + rows, n], log[lo:lo + rows, n] = rows_last_log_sum(
                b_sign[:, n, :n + 1] * fs[:, :n + 1],
                b_log[:, n, :n + 1] + fl[:, :n + 1])
    return sign, log


def assert_same_bits(got, want):
    """Equal arrays, dtype, shape and every byte, signed zeros included."""
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# logs of 1, 1 + 2^-52, of terms below an ulp of 1 and of 0: their signed
# sums cancel down to the last bits, where a tree of another shape rounds
# otherwise in about one sum in fifty
NEAR_CANCELLING_LOGS = [0.0, math.log1p(2.0 ** -52), -36.7, -37.5, -73.7,
                        -math.inf]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 17, 25, 31, 32, 33, 40, 64])
def test_log_sum_bits_match_rows_last_tree(n):
    rng = np.random.default_rng(n)  # 2000 independent sums of n terms each
    log = rng.choice(NEAR_CANCELLING_LOGS, (n, 2000))
    sign = np.where(log > -math.inf, rng.choice([-1.0, 1.0], log.shape), 0.0)
    # float signs may be -0.0 on a zero term, as the contraction's are
    signed_zeros = np.where(sign, sign, rng.choice([0.0, -0.0], log.shape))
    for signs in (sign.astype(np.int8), signed_zeros):
        with np.errstate(divide="ignore"):
            got = fdb._log_sum(signs, log)
        assert_same_bits(got, rows_last_log_sum(signs.T.astype(float), log.T))


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_bits_match_rows_last_oracle(name):
    psi, grid, J = KERNEL_CASES[name]
    tables = composed_tables(Gaussian(), psi, grid.symmetric_points(), J)
    assert_same_bits(log_compose_table(*tables, J),
                     rows_last_log_compose_table(*tables, J))


# magnitudes 1, 2, 3 and 1/2 with either sign: equal terms of opposite sign
# cancel exactly, and sums of them round
log_magnitude = st.sampled_from([0.0, math.log(2.0), math.log(3.0), -math.log(2.0)])


@st.composite
def signed_jet_table(draw, rows, J):
    # a zero may be signed -0.0, as log_jet_table's odd orders are at x = 0
    signs = draw(st.lists(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                                   min_size=J + 1, max_size=J + 1),
                          min_size=rows, max_size=rows))
    logs = [[draw(log_magnitude) if s else -math.inf for s in row] for row in signs]
    return np.array(signs, dtype=float), np.array(logs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_bits_match_rows_last_oracle_on_cancelling_jets(data):
    J = data.draw(st.integers(0, 12), label="J")
    rows = data.draw(st.integers(1, 4), label="rows")
    f = data.draw(signed_jet_table(rows, J), label="f")
    psi = data.draw(signed_jet_table(rows, J), label="psi")
    assert_same_bits(log_compose_table(*f, *psi, J),
                     rows_last_log_compose_table(*f, *psi, J))


@pytest.mark.parametrize("psi, x0", [(Pow1px2(1.5), 1.0), (Sqrt1px2(), 2.0)])
def test_bell_table_bits_match_rows_last_oracle(psi, x0):
    # the one-row table of experiments.compactness_blowup, nmax = 30
    jet = psi.jet(x0, 30).to_log()
    sign = np.array([[v.sign for v in jet.values]], dtype=float)
    log = np.array([[v.log_abs for v in jet.values]])
    got = fdb.log_bell_table(sign.T, log.T, 30)
    want = rows_last_log_bell_table(sign, log, 30)
    assert_same_bits([a.transpose(2, 0, 1) for a in got], want)


def test_kernel_memory_stays_within_its_block_bound():
    # a block's Bell table takes 9 bytes an entry (a float64 log and an int8
    # sign); 16 bytes an entry leave room for SUM_TERMS terms per sum, not
    # for the terms of every order batched together (~2 MB more here)
    psi, grid, J = KERNEL_CASES["square"]  # 201 points: two blocks
    tables = composed_tables(Gaussian(), psi, grid.symmetric_points(), J)
    log_compose_table(*tables, J)
    tracemalloc.start()
    try:
        log_compose_table(*tables, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * fdb.TERM_BLOCK, peak


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_matches_pointwise_oracle(name):
    psi, grid, J = KERNEL_CASES[name]
    tables = composed_tables(Gaussian(), psi, grid.symmetric_points(), J)
    sign, log = log_compose_table(*tables, J)
    assert_close_logs(sign, log, *pointwise_log_compose(*tables, J), 1e-10)


# at x = 0, exp(-x^4) has nonzero orders 4i only; exp(-(1+x^2)) all even ones
@pytest.mark.parametrize("name, period", [("square", 4), ("sqrt1px2", 2)])
def test_kernel_zero_orders_at_zero_are_exact(name, period):
    psi, grid, J = KERNEL_CASES[name]
    xs = grid.symmetric_points()
    sign, log = log_compose_table(*composed_tables(Gaussian(), psi, xs, J), J)
    at0 = int(np.flatnonzero(xs == 0.0)[0])
    live = np.arange(J + 1) % period == 0
    assert (sign[at0, ~live] == 0).all() and (log[at0, ~live] == -math.inf).all()
    assert (sign[at0, live] != 0).all()


@pytest.mark.parametrize("block", [1, 3, 7])
def test_kernel_blocks_do_not_change_results(block, monkeypatch):
    psi, grid, J = KERNEL_CASES["sqrt1px2"]  # 21 points
    tables = composed_tables(Gaussian(), psi, grid.symmetric_points(), J)
    whole = log_compose_table(*tables, J)
    monkeypatch.setattr(fdb, "TERM_BLOCK", block * (J + 1) ** 2)
    assert_same_bits(log_compose_table(*tables, J), whole)  # rows independent


@pytest.mark.parametrize("orders", ["one", "few", "all"])
def test_order_batches_do_not_change_results(orders, monkeypatch):
    # the 201 points of "square" go in two blocks, the 21 of "sqrt1px2" in one
    for name in ("square", "sqrt1px2"):
        psi, grid, J = KERNEL_CASES[name]
        tables = composed_tables(Gaussian(), psi, grid.symmetric_points(), J)
        want = rows_last_log_compose_table(*tables, J)
        rows = min(len(tables[0]), fdb.TERM_BLOCK // (J + 1) ** 2)
        budget = {"one": 1, "few": 3 * 32 * rows, "all": 1 << 62}[orders]
        monkeypatch.setattr(fdb, "SUM_TERMS", budget)
        batches = list(fdb._order_batches(J, rows))
        assert [lo for lo, _ in batches[1:]] == [hi for _, hi in batches[:-1]]
        assert (batches[0][0], batches[-1][1]) == (0, J + 1)
        if orders == "few":
            assert 2 < len(batches) < J + 1
        else:
            assert len(batches) == {"one": J + 1, "all": 1}[orders]
        assert_same_bits(log_compose_table(*tables, J), want)


def test_orders_below_k_never_read_f_at_k():
    # orders 16..24 of the 21-point table share one sum: f^(24) with the log
    # +inf (overflowed) and a negative sign must leave orders 16..23 alone
    psi, grid, J = KERNEL_CASES["sqrt1px2"]
    tables = composed_tables(Gaussian(), psi, grid.symmetric_points(), J)
    want = log_compose_table(*tables, J)
    f_sign, f_log = tables[0].copy(), tables[1].copy()
    f_sign[:, J], f_log[:, J] = -1.0, math.inf
    with np.errstate(invalid="ignore"):  # order J itself is inf - inf
        got = log_compose_table(f_sign, f_log, *tables[2:], J)
    assert_same_bits([a[:, :J] for a in got], [a[:, :J] for a in want])


def test_kernel_one_point_is_compose_jet():
    psi_jet = Sqrt1px2().jet(0.7, 20)
    h_jet = Gaussian().jet(psi_jet.entry_float(0), 20)
    row = lambda jet: ([[v.sign for v in jet.values]],
                       [[v.log_abs for v in jet.values]])
    sign, log = log_compose_table(*row(h_jet), *row(psi_jet), 20)
    want = compose_jet(h_jet, psi_jet, 20).values
    assert [(int(s), l) for s, l in zip(sign[0], log[0])] == [
        (v.sign, v.log_abs) for v in want]


def test_kernel_order_zero_is_outer_value():
    tables = composed_tables(Gaussian(), Sqrt1px2(), [-1.5, 0.0, 2.0], 0)
    sign, log = log_compose_table(*tables, 0)
    assert sign.shape == log.shape == (3, 1)
    assert np.array_equal(sign, tables[0]) and np.array_equal(log, tables[1])


def test_kernel_exact_cancellation_is_zero():
    # h' = 1, h'' = -1, psi' = psi'' = 1: (h o psi)'' = -1 + 1 = 0 exactly
    sign, log = log_compose_table([[1, 1, -1]], [[0.0, 0.0, 0.0]],
                                  [[1, 1, 1]], [[0.0, 0.0, 0.0]], 2)
    assert list(sign[0]) == [1, 1, 0] and log[0, 2] == -math.inf


@settings(max_examples=40, deadline=None)
@given(coeff_list, coeff_list, st.integers(1, 12),
       st.lists(rational, min_size=1, max_size=4))
def test_kernel_matches_exact_composition(h_c, psi_c, J, xs):
    """Signed rational polynomials at rational points, where the terms of
    a derivative cancel: the error is bounded relative to the sum of the
    absolute values of the partition terms."""
    h_rows = [poly_jet(h_c, poly_eval(psi_c, x0), J).values for x0 in xs]
    psi_rows = [poly_jet(psi_c, x0, J).values for x0 in xs]

    def table(rows):
        return ([[(v > 0) - (v < 0) for v in row] for row in rows],
                [[math.log(abs(v)) if v else -math.inf for v in row]
                 for row in rows])

    sign, log = log_compose_table(*table(h_rows), *table(psi_rows), J)
    for p, (h_vals, psi_vals) in enumerate(zip(h_rows, psi_rows)):
        for n in range(J + 1):
            want, mass = partition_fdb(h_vals, psi_vals, n)
            got = sign[p, n] * math.exp(log[p, n]) if sign[p, n] else 0.0
            assert abs(Fraction(got) - want) <= LOG_PATH_TOL * mass


# -- truth oracle: compositions with a closed form --------------------------
# exp(-+(1 + x^2)) = e^-+1 exp(-+x^2), so gaussian o sqrt1px2 is e^-1 gaussian
# and expsqr o sqrt1px2 is e expsqr, at every order and every x.  The kernel
# loses what the sum's conditioning costs: kappa = sum |partition terms| /
# |value|, which the kernel itself gives run on |signs|.  It also amplifies
# the input jets' own error, so an entry's tolerance is
# TRUTH_C kappa (eps + acc), acc the worst relative error of that point's two
# input rows against their exact arguments.  Entries where it reaches 1 have
# no digit to check and are counted.

TRUTH_C = 4  # the largest error seen is 1.6 kappa (eps + acc)


def mp_jet(f, x, J):
    """f^(0..J)(x) for the current mp precision by f's own recurrence:
    Hermite for exp(s x^2), (1+x^2) f' = x f for sqrt(1+x^2)."""
    if isinstance(f, Sqrt1px2):
        q = 1 + x * x
        F = [mp.sqrt(q), x / mp.sqrt(q)]
        for n in range(1, J):
            F.append(((1 - 2 * n) * x * F[n] + n * (2 - n) * F[n - 1]) / q)
    else:
        F = [mp.exp(f.s * x * x)]
        F.append(2 * f.s * x * F[0])
        for n in range(1, J):
            F.append(2 * f.s * (x * F[n] + n * F[n - 1]))
    return F[:J + 1]


def mp_rel_error(sign, log, want):
    """|value / want - 1| of the entry (sign, log|value|); 0 for an exact
    zero of a zero, inf when the signs differ."""
    if not want:
        return mp.mpf(0) if sign == 0 else mp.inf
    if sign != mp.sign(want):
        return mp.inf
    return abs(mp.expm1(mp.mpf(log) - mp.log(abs(want))))


@pytest.mark.parametrize("grid, J, share", [
    ("lin:0.1,2,10", 24, 0.0), ("lin:0.12,2.1,10", 24, 0.0),
    ("lin:0.5,8,16", 30, 0.1), ("lin:0.05,3,60", 40, 0.1)])
def test_kernel_matches_closed_form_compositions(grid, J, share):
    """At most that share of the nonzero entries is skipped: on the
    ``dense.sqrt`` grids at J = 24, none."""
    psi, xs = Sqrt1px2(), GridSpec.parse(grid).symmetric_points()
    eps = np.finfo(float).eps
    for f, shift in ((Gaussian(), -1), (ExpSqr(), 1)):
        tables = composed_tables(f, psi, xs, J)
        sign, log = log_compose_table(*tables, J)
        mass = log_compose_table(np.abs(tables[0]), tables[1],
                                 np.abs(tables[2]), tables[3], J)[1]
        checked = skipped = 0
        with mp.workdps(60):
            for p, x in enumerate(map(mp.mpf, xs)):
                truth = [mp.e ** shift * v for v in mp_jet(f, x, J)]
                inputs = [(*tables[:2], mp_jet(f, mp.sqrt(1 + x * x), J)),
                          (*tables[2:], mp_jet(psi, x, J))]
                acc = max(mp_rel_error(s, l, w) for sign_t, log_t, row in inputs
                          for s, l, w in zip(sign_t[p], log_t[p], row))
                for n, want in enumerate(truth):
                    if not want:  # odd orders at x = 0
                        assert sign[p, n] == 0 and log[p, n] == -math.inf
                        continue
                    kappa = mp.exp(mass[p, n] - mp.log(abs(want)))
                    tol = TRUTH_C * kappa * (eps + acc)
                    if tol >= 1:
                        skipped += 1
                        continue
                    checked += 1
                    err = mp_rel_error(sign[p, n], log[p, n], want)
                    assert err <= tol, (f.label, float(xs[p]), n, float(err), float(tol))
        assert skipped <= share * (checked + skipped)


def test_composed_table_runs_the_kernel_once_per_table(monkeypatch):
    # gaussian's kernel is its Taylor recurrence, and the Bell kernel never runs
    calls, real = [], experiments.composed_taylor_table

    def spy(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(experiments, "composed_taylor_table", spy)
    monkeypatch.setattr(experiments, "log_compose_table", None)
    f, psi, grid = Gaussian(), Polynomial([0, 0, 1]), GridSpec("lin", 0.05, 5.0, 100)
    xs = grid.symmetric_points()
    table = experiments.composed_jet_log_table(f, psi, xs, 16)
    rep = experiments.composed_seminorm_bound(
        f, psi, WeightFunction.gevrey(3), 2, grid, 16, 16, jet_table=table, xs=xs)
    # one table, over the grid's rows x <= 0 (x^2 is even); the sup reads it
    assert calls == [101]
    assert rep.witness is not None


# -- single-jet shortcut ----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), rational, coeff_list)
def test_single_jet_matches_full_fdb(n, a, psi_c):
    psi_jet = poly_jet(psi_c, Fraction(0), n)
    vals = [Fraction(0)] * (n + 1)
    vals[n] = a
    h_jet = Jet.from_rationals(poly_eval(psi_c, Fraction(0)), vals)
    assert single_jet_compose(h_jet, psi_jet, n) == faa_di_bruno(h_jet, psi_jet, n)


def test_single_jet_rejects_nonconcentrated():
    h = Jet.from_rationals(0, [Fraction(1), Fraction(0), Fraction(1)])
    psi = Jet.from_rationals(0, [Fraction(0), Fraction(1), Fraction(0)])
    with pytest.raises(PreconditionError):
        single_jet_compose(h, psi, 2)


def test_compose_jet_chain_rule_order_one():
    h_c = [Fraction(0), Fraction(3), Fraction(1)]
    psi_c = [Fraction(2), Fraction(-1)]
    comp = poly_compose(h_c, psi_c)
    got = compose_jet(poly_jet(h_c, poly_eval(psi_c, Fraction(1)), 3),
                      poly_jet(psi_c, Fraction(1), 3), 3)
    assert list(got.values) == list(poly_jet(comp, Fraction(1), 3).values)


# -- summation identities ---------------------------------------------------

@pytest.mark.parametrize("j", range(1, 26))
def test_two_power_identity(j):
    assert identity_two_power(j) == 2 ** (j - 1)


@pytest.mark.parametrize("j", range(1, 26))
def test_lah_identity(j):
    identity_lah(j)  # raises on mismatch


def walk_identity_sums(j):
    """(two_power, lah) of order j by one recursive walk over its
    multi-indices (the oracle for ``identity_table``).  The walk picks part
    sizes in decreasing order, each with its multiplicity k_l >= 1, and
    carries k = sum k_l and k_1!...k_j! down, so no multi-index is built."""
    fact = [math.factorial(i) for i in range(j + 1)]
    two_power = lah = 0

    def walk(remaining, largest, k, denom):
        nonlocal two_power, lah
        if remaining == 0:
            two_power += fact[k] // denom
            lah += fact[j] // denom
            return
        for part in range(min(largest, remaining), 0, -1):
            for kl in range(1, remaining // part + 1):
                walk(remaining - kl * part, part - 1, k + kl, denom * fact[kl])

    walk(j, j, 0, 1)
    return two_power, lah


@pytest.mark.parametrize("j", [1, 2, 7, 16, 25, 30])
def test_identity_sums_match_two_separate_walks(j):
    two_power = sum(math.factorial(mi.k) // math.prod(
        math.factorial(kl) for kl in mi.k_vec if kl)
        for mi in enumerate_partitions(j))
    lah = sum(mi.multinomial() for mi in enumerate_partitions(j))
    lah_closed = sum(math.comb(j - 1, k - 1) * math.factorial(j)
                     // math.factorial(k) for k in range(1, j + 1))
    assert (identity_table(j)[-1] == walk_identity_sums(j) == (two_power, lah)
            == (2 ** (j - 1), lah_closed))
    assert (identity_two_power(j), identity_lah(j)) == (two_power, lah)


def test_identity_table_rows_equal_walk_for_every_jmax():
    walks = [walk_identity_sums(j) for j in range(1, 31)]
    for jmax in range(1, 31):
        assert identity_table(jmax) == walks[:jmax]


def test_identity_range_guard():
    with pytest.raises(PreconditionError):
        identity_two_power(0)
    with pytest.raises(PreconditionError):
        identity_lah(31)
