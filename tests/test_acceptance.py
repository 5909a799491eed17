"""Acceptance suite: twelve oracle-backed criteria at fixed tolerances.

Each test prints one PASS line on success (pytest -v shows FAILED otherwise)
and asserts its runtime budget.
"""
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from gsbench.experiments import negative_chain, nuclearity_sum, necessary_growth, \
    composed_seminorm_bound, composed_jet_log_table, bounded_derivative_chain
from gsbench.fdb import Jet, faa_di_bruno, identity_lah, identity_two_power
from gsbench.functions import Gaussian, Polynomial, estimate_growth_exponent
from gsbench.grids import GridSpec
from gsbench.sequences import WeightSequence, check_sequence_conditions, \
    doubling_from_sequence
from gsbench.weights import (ConjugateEvaluator, WeightFunction,
                             conjugate_shift_bound, find_log_scaling_constant)

from test_fdb import poly_compose, poly_eval, poly_jet


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_fdb_polynomial_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    for _ in range(200):
        deg_h, deg_p = rng.randint(1, 5), rng.randint(1, 5)
        h_c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for _ in range(deg_h + 1)]
        psi_c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(deg_p + 1)]
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        j = rng.randint(1, 12)
        expect = poly_jet(poly_compose(h_c, psi_c), x0, j).values[j]
        got = faa_di_bruno(poly_jet(h_c, poly_eval(psi_c, x0), j),
                           poly_jet(psi_c, x0, j), j)
        assert got == expect  # exact big-rational equality
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(1, f"200 random jet pairs exact vs polynomial oracle in {dt:.2f}s")


def test_criterion_02_summation_identities():
    t0 = time.perf_counter()
    for j in range(1, 26):
        assert identity_two_power(j) == 2 ** (j - 1)
        identity_lah(j)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(2, f"two-power and Lah identities exact for j<=25 in {dt:.2f}s")


def test_criterion_03_conjugate_closed_form():
    t0 = time.perf_counter()
    for d in (1.5, 2.0, 3.0):
        w = WeightFunction.gevrey(d)
        cf = ConjugateEvaluator(w)
        ns = ConjugateEvaluator(w, method="numeric-sup")
        for s in np.logspace(math.log10(1.0 / d), 2.0, 200):
            s = float(s)
            want = s * d * math.log(s * d / math.e) if s * d > 1.0 else -1.0
            assert abs(cf(s) - want) <= 1e-12 * max(1.0, abs(want))
            assert abs(ns(s) - want) <= 1e-9 * max(1.0, abs(want))
        for s in np.linspace(0.0, 1.0 / d, 25):
            assert cf(float(s)) == -1.0  # plateau exact
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(3, f"numeric-sup matches sd*log(sd/e) to 1e-9 rel in {dt:.2f}s")


def test_criterion_04_conjugate_shift_inequality():
    t0 = time.perf_counter()
    cases = []
    g2 = WeightFunction.gevrey(2)
    cases.append((ConjugateEvaluator(g2), 2))
    lp = WeightFunction.logpow(2)
    cases.append((ConjugateEvaluator(lp), find_log_scaling_constant(lp)))
    for conj, L in cases:
        for lam in (1.0, 2.0, 5.0):
            for N in (1, 2, 3):
                rep = conjugate_shift_bound(conj, lam, N, L, 500, tol=1e-9)
                assert rep.verdict, (conj.weight.label, lam, N)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(4, f"shift inequality j<=500 for gevrey(L=2) and logpow in {dt:.1f}s")


def test_criterion_05_negative_chain():
    t0 = time.perf_counter()
    rep = negative_chain(2.0, 1.0, 3.5, 400)
    assert len(rep.rows) == 400
    for r in rep.rows:
        assert abs(r["stationarity_lhs"] - r["stationarity_rhs"]) \
            <= 1e-9 * max(1.0, abs(r["stationarity_rhs"]))
        assert r["verdict"]
    assert rep.verdict
    assert rep.first_crossing_index is not None
    cross = next(r for r in rep.rows if r["j"] == rep.first_crossing_index)
    assert cross["log_lower_bound"] > math.log(1e6)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(5, f"400-row chain holds, lower bound crosses 1e6 in {dt:.1f}s")


def test_criterion_06_bounded_derivative_chain():
    t0 = time.perf_counter()
    rep = bounded_derivative_chain(2.0, Polynomial([0, 0, 0, 1]), 12)
    assert rep.verdict
    for r in rep.rows:
        assert r["x_bracket_lo"] <= r["x_m"] < r["x_bracket_hi"]
    assert any(r["log_term"] > math.log(1e6) for r in rep.rows)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(6, f"bracketing holds m<=12, term exceeds 1e6 in {dt:.2f}s")


def test_criterion_07_composed_seminorm_stability():
    t0 = time.perf_counter()
    f, psi = Gaussian(), Polynomial([0, 0, 1])
    sigma = WeightFunction.gevrey(3)
    g5 = GridSpec("lin", 0.05, 5.0, 100)
    g6 = GridSpec("lin", 0.05, 6.0, 120)
    xs5, xs6 = g5.symmetric_points(), g6.symmetric_points()
    t24 = composed_jet_log_table(f, psi, xs5, 24)
    t30 = composed_jet_log_table(f, psi, xs6, 30)
    for m in (1, 2, 4):
        a = composed_seminorm_bound(f, psi, sigma, m, g5, 24, 24,
                                    jq_cap=24, jet_table=t24, xs=xs5)
        b = composed_seminorm_bound(f, psi, sigma, m, g6, 30, 30,
                                    jq_cap=30, jet_table=t30, xs=xs6)
        rel = abs(a.value_log - b.value_log) / max(1.0, abs(a.value_log))
        assert rel < 1e-6, (m, a.value_log, b.value_log)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(7, f"sup stable under cap 24->30 and radius 5->6 in {dt:.1f}s")


def test_criterion_08_nuclearity_sums():
    t0 = time.perf_counter()
    rep = nuclearity_sum(WeightFunction.gevrey(2), 1, 2, 50)
    for r in rep.rows:
        want = -r["j"] * math.log(4.0)
        assert abs(r["log_ratio"] - want) <= 1e-12 * abs(want)
    assert abs(rep.rows[-1]["partial_sum"] - 1.0 / 3.0) <= 1e-10
    bound = math.exp(2.0) / (math.e - 1.0)
    assert all(r["partial_sum"] <= bound + 1e-10 for r in rep.rows)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(8, f"ratios 4^-j to 1e-12, sum->1/3, cap respected in {dt:.2f}s")


def test_criterion_09_necessary_growth_constant():
    t0 = time.perf_counter()
    res = necessary_growth(Polynomial([0, 0, 1]), WeightFunction.gevrey(2),
                           WeightFunction.gevrey(2),
                           GridSpec("log", 1e-3, 1e3, 20000))
    assert abs(res.C - 0.5) <= 1e-6
    assert abs(abs(res.argmax_x) - 1.0) <= 1e-3
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(9, f"C=0.5 within 1e-6 at |x|=1 within 1e-3 in {dt:.2f}s")


def test_criterion_10_sequence_conditions():
    t0 = time.perf_counter()
    M = WeightSequence.gevrey(2)
    rep = check_sequence_conditions(M, P=200, J=2000)
    assert abs(rep.gamma1["sup"] - math.pi ** 2 / 6.0) <= 1e-4
    assert rep.gamma1["tail_bound"] is not None
    # quotient ratio is exact in log domain: log m_2j - log m_j = 2 log 2
    assert abs(rep.petzsche["per_Q"][2] - 4.0) <= 1e-12 * 4.0
    assert doubling_from_sequence(M) == 4
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(10, f"gamma1 sup pi^2/6, Petzsche(2)=4, doubling H=4 in {dt:.2f}s")


def test_criterion_11_growth_index_estimator():
    t0 = time.perf_counter()
    est = estimate_growth_exponent(Gaussian().jet(0, 80))
    assert 0.45 <= est.s_hat <= 0.55
    # exp(-x^4) series at 0: f^(4m)(0) = (-1)^m (4m)!/m!
    vals = [Fraction(0)] * 81
    for m in range(21):
        vals[4 * m] = Fraction((-1) ** m * math.factorial(4 * m),
                               math.factorial(m))
    est4 = estimate_growth_exponent(Jet.from_rationals(0, vals))
    assert 0.70 <= est4.s_hat <= 0.80
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(11, f"s_hat {est.s_hat:.3f} and {est4.s_hat:.3f} in bands in {dt:.2f}s")


def test_criterion_12_cli_determinism(tmp_path):
    cmd = ["experiment", "negative", "--d", "2", "--k", "1",
           "--dprime", "3.5", "--jmax", "400"]
    outs = []
    for name in ("a", "b"):
        csv_path = tmp_path / f"chain_{name}.csv"
        r = subprocess.run([sys.executable, "-m", "gsbench", *cmd,
                            "--out", str(csv_path), "--format", "both"],
                           capture_output=True)
        assert r.returncode == 0
        outs.append((r.stdout, (tmp_path / f"chain_{name}.json").read_bytes()))
    assert outs[0][0] == outs[1][0]  # stdout summaries byte-identical
    assert outs[0][1] == outs[1][1]  # written JSON byte-identical
    report(12, "two runs of the 400-row chain give byte-identical JSON")
