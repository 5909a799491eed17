import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gsbench import fdb
from gsbench.errors import PreconditionError
from gsbench.fdb import (Jet, compose_jet, enumerate_partitions, faa_di_bruno,
                         identity_lah, identity_two_power,
                         iter_partition_multi_indices, partition_count,
                         single_jet_compose)
from gsbench.functions import Gaussian, Sqrt1px2

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
    for mi in iter_partition_multi_indices(j):
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
    for mi in iter_partition_multi_indices(7):
        assert sum((l + 1) * kl for l, kl in enumerate(mi.k_vec)) == 7
        assert 1 <= mi.k <= 7


def test_enumeration_deterministic():
    a = [mi.k_vec for mi in iter_partition_multi_indices(9)]
    b = [mi.k_vec for mi in iter_partition_multi_indices(9)]
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

    monkeypatch.setattr(fdb, "iter_partition_multi_indices", forbidden)
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


def test_identity_range_guard():
    with pytest.raises(PreconditionError):
        identity_two_power(0)
    with pytest.raises(PreconditionError):
        identity_lah(31)
