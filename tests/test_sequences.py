import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gsbench.errors import PreconditionError, TruncationError
from gsbench.sequences import (AssociatedWeight, WeightSequence,
                               associated_weight, check_sequence_conditions,
                               doubling_from_sequence, parse_sequence,
                               sandwich_check)


def brute_force_assoc(M, t, pmax=300):
    if t == 0:
        return 0.0, 0
    lt = math.log(t)
    best, best_p = 0.0, 0
    for p in range(1, pmax + 1):
        v = p * lt - M.log_M(p)
        if v > best:
            best, best_p = v, p
    return best, best_p


def doubling_bisection_assoc(M, t, pmax):
    """Oracle for the log-convex argmax: double hi while log m_hi <= log t,
    bisect for the largest p with log m_p <= log t, then step down past
    quotients equal to log t."""
    lt = math.log(t)
    if M.log_m(1) > lt:
        return 0.0, 0
    lo, hi = 1, 2
    while hi <= pmax and M.log_m(hi) <= lt:
        lo, hi = hi, hi * 2
    hi = min(hi, pmax)
    if hi == pmax and M.log_m(hi) <= lt:
        raise TruncationError(
            f"associated-weight argmax hit pmax={pmax} at t={t:g}; increase pmax")
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if M.log_m(mid) <= lt:
            lo = mid
        else:
            hi = mid - 1
    while lo > 0 and M.log_m(lo) == lt:
        lo -= 1
    return max(0.0, lo * lt - M.log_M(lo)), lo


def _assoc_outcome(run):
    try:
        return run()
    except TruncationError as exc:
        return str(exc)


# -- sequence basics --------------------------------------------------------

def test_gevrey_quotients_exact_in_log_domain():
    M = WeightSequence.gevrey(2)
    for p in range(1, 50):
        assert M.log_m(p) == 2.0 * math.log(p)  # bitwise: generated this way


def test_log_M_is_cumulative_sum_of_quotients():
    M = WeightSequence.gevrey(1.5)
    acc = 0.0
    for p in range(1, 30):
        acc += M.log_m(p)
        assert M.log_M(p) == pytest.approx(acc, rel=1e-15)
    assert M.log_M(0) == 0.0


def test_gevrey_d1_is_factorial():
    M = WeightSequence.gevrey(1)
    assert M.log_M(10) == pytest.approx(math.lgamma(11), rel=1e-12)


def test_from_log_values_detects_convexity():
    convex = WeightSequence.from_log_values([0.0, 0.0, 1.0, 3.0])
    assert convex.log_convex
    bumpy = WeightSequence.from_log_values([0.0, 2.0, 3.0, 3.5])
    assert not bumpy.log_convex


def test_from_log_values_requires_normalized_start():
    with pytest.raises(PreconditionError):
        WeightSequence.from_log_values([1.0, 2.0])


def test_parse_sequence():
    assert parse_sequence("gevreyseq:d=2").label == "gevreyseq:d=2"
    with pytest.raises(PreconditionError):
        parse_sequence("gevreyseq:q=2")


# -- associated weight ------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e5))
def test_assoc_bisection_matches_brute_force(t):
    # argmax is ~sqrt(t) for this sequence, safely inside the oracle's scan
    M = WeightSequence.gevrey(2)
    got, p_got = associated_weight(M, t, pmax=4000)
    want, p_want = brute_force_assoc(M, t, pmax=1000)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert p_got == p_want


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=1e-3, max_value=1e12),
       st.sampled_from([50, 4000, 500000]))
def test_assoc_bisect_matches_doubling_bisection_gevrey(d, t, pmax):
    M = WeightSequence.gevrey(d)
    assert _assoc_outcome(lambda: AssociatedWeight(M, pmax).eval_with_argmax(t)) \
        == _assoc_outcome(lambda: doubling_bisection_assoc(M, t, pmax))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=80,
                unique=True).map(sorted),
       st.data())
def test_assoc_bisect_matches_doubling_bisection_tables(ts, data):
    # quotients log m_p = log ts[p-1], strictly increasing; a t drawn from
    # the ts gives log t == log m_p exactly, a tie
    qs = [math.log(x) for x in ts]
    assume(all(a < b for a, b in zip(qs, qs[1:])))
    M = WeightSequence(lambda p: qs[p - 1])
    pmax = data.draw(st.integers(1, len(qs)))
    t = data.draw(st.sampled_from(ts) | st.floats(min_value=1e-4, max_value=1e4))
    assert _assoc_outcome(lambda: AssociatedWeight(M, pmax).eval_with_argmax(t)) \
        == _assoc_outcome(lambda: doubling_bisection_assoc(M, t, pmax))
    # the same quotients summed into a tabulated log M_p
    T = WeightSequence.from_log_values(np.concatenate([[0.0], np.cumsum(qs)]))
    assume(T.log_convex)
    assert _assoc_outcome(lambda: AssociatedWeight(T, pmax).eval_with_argmax(t)) \
        == _assoc_outcome(lambda: doubling_bisection_assoc(T, t, pmax))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=1e-3, max_value=1e9), st.integers(1, 5000),
       st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e9),
                          st.integers(1, 5000)), min_size=1, max_size=8))
def test_assoc_warm_cache_matches_doubling_bisection(d, warm_t, warm_pmax,
                                                     queries):
    # one sequence, so every query meets the quotient cache the earlier
    # calls left behind, up to warm_pmax + 1 entries for any query's pmax
    M = WeightSequence.gevrey(d)
    _assoc_outcome(lambda: AssociatedWeight(M, warm_pmax).eval_with_argmax(warm_t))
    for t, pmax in queries:
        assert _assoc_outcome(lambda: AssociatedWeight(M, pmax).eval_with_argmax(t)) \
            == _assoc_outcome(lambda: doubling_bisection_assoc(
                WeightSequence.gevrey(d), t, pmax))


@pytest.mark.parametrize("source", [
    lambda: WeightSequence.gevrey(2),
    lambda: WeightSequence.from_log_values(
        [math.lgamma(p + 1) * 2 for p in range(2001)])])
def test_assoc_cache_longer_than_pmax(source):
    M = source()
    AssociatedWeight(M, 2000).eval_with_argmax(1e6)  # argmax 1000
    assert len(M._quot) > 51
    # gevrey d = 2: log m_p = log p^2, so t = 2401 ties p = 49, 2500 hits pmax
    for t in (1e6, 2500.0, 2401.0, 100.0, 0.5):
        assert _assoc_outcome(lambda: AssociatedWeight(M, 50).eval_with_argmax(t)) \
            == _assoc_outcome(lambda: doubling_bisection_assoc(source(), t, 50))
    with pytest.raises(TruncationError):
        AssociatedWeight(M, 50).eval_with_argmax(1e6)


def test_assoc_truncation_leaves_cache_short():
    # log m_pmax = 0.5 log 500000 < log 1e12: the probe raises before the
    # quotient cache is extended towards pmax
    M = WeightSequence.gevrey(0.5)
    with pytest.raises(TruncationError):
        AssociatedWeight(M, 500000).eval_with_argmax(1e12)
    assert len(M._quot) == 1
    assert AssociatedWeight(M, 500000).eval_with_argmax(1e2) \
        == brute_force_assoc(WeightSequence.gevrey(0.5), 1e2, pmax=20000)
    assert len(M._quot) < 20000


def test_assoc_table_shorter_than_pmax():
    # the table cannot give log m_pmax, so there is no probe: an argmax
    # inside the table is found, one past its end raises from the table
    M = WeightSequence.from_log_values([math.lgamma(p + 1) * 2 for p in range(21)])
    for t in (0.5, 3.0, 50.0, 350.0):
        assert AssociatedWeight(M, 4000).eval_with_argmax(t) \
            == brute_force_assoc(M, t, pmax=20)
    with pytest.raises(TruncationError, match="tabulated sequence ends at p=20"):
        AssociatedWeight(M, 4000).eval_with_argmax(1e3)


def test_assoc_at_zero_and_one():
    M = WeightSequence.gevrey(2)
    assert associated_weight(M, 0.0) == (0.0, 0)
    assert associated_weight(M, 1.0) == (0.0, 0)


def test_assoc_nondecreasing():
    aw = AssociatedWeight(WeightSequence.gevrey(2))
    ts = [0.5, 1.0, 2.0, 10.0, 1e3, 1e6]
    vals = [aw(t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_assoc_truncation_guard():
    M = WeightSequence.gevrey(2)
    with pytest.raises(TruncationError):
        associated_weight(M, 1e30, pmax=50)


def test_assoc_non_convex_linear_scan_path():
    # non-convex table forces the linear scan; compare against brute force
    M = WeightSequence.from_log_values([0.0, 2.0, 3.0, 3.5, 6.0, 9.0, 13.0])
    aw = AssociatedWeight(M, pmax=6)
    for t in (1.5, 3.0, 8.0):
        want, p_want = brute_force_assoc(M, t, pmax=5)
        got, p_got = aw.eval_with_argmax(t)
        assert got == pytest.approx(want)
        assert p_got == p_want


# -- closed-form conjugate of the associated weight --------------------------

def _interpolated(log_Ms, s):
    p = int(s)
    return log_Ms[p] if s == p else (p + 1 - s) * log_Ms[p] + (s - p) * log_Ms[p + 1]


@pytest.mark.parametrize("d", [1.5, 2.0, 3.0])
def test_assoc_conjugate_matches_numeric_sup_gevrey(d):
    aw = AssociatedWeight(WeightSequence.gevrey(d), pmax=500000)
    for k in (1, 2, 3, 5):
        for p in range(301):
            assert aw.conjugate(p / k) == pytest.approx(
                aw.numeric_conjugate(p / k), rel=1e-12, abs=1e-12)


def test_assoc_conjugate_matches_numeric_sup_table():
    # log-convex table with log m_p = 0.1 p + 0.25; the numeric sup's bracket
    # stops short of log m_200 = 20.25, so the oracle reaches s = 199, whose
    # maximizers fill [log m_199, log m_200]
    log_Ms = [0.05 * p * p + 0.3 * p for p in range(201)]
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms))
    for s in np.linspace(0.0, 199.0, 399):
        s = float(s)
        assert aw.conjugate(s) == pytest.approx(aw.numeric_conjugate(s),
                                                rel=1e-12, abs=1e-12)
        assert aw.conjugate(s) == pytest.approx(_interpolated(log_Ms, s),
                                                rel=1e-14, abs=1e-14)


def test_assoc_numeric_conjugate_brackets_up_to_the_last_quotient():
    # pmax = 200 at the table's end: s = 117 has its maximizer
    # log m_118 = 12.05 inside the table, where the doubling bracket once
    # reached t = 32 and raised
    log_Ms = [0.05 * p * p + 0.3 * p for p in range(201)]
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms), pmax=200)
    assert aw.numeric_conjugate(117.0) == pytest.approx(719.55, rel=1e-12)
    for s in np.arange(1, 797) * 0.25:  # 0.25 .. 199
        assert aw.numeric_conjugate(float(s)) == pytest.approx(
            aw.conjugate(float(s)), rel=1e-9, abs=1e-9)
    # past s = 199 the objective still rises at log m_200: truncated
    for s in (199.25, 199.75, 200.0):
        with pytest.raises(TruncationError, match="pmax=200"):
            aw.numeric_conjugate(s)


def test_assoc_conjugate_below_unit_first_quotient_keeps_numeric_sup():
    # log m_p = -0.5 + 0.1 (p - 1): log-convex, but phi_M(0) = 1.5 at p = 5, 6,
    # so the cut at u = 0 binds for s <= 6 and phi_M* = -1.5 there, not the
    # interpolation (-0.1 at s = 0.2)
    log_Ms = [0.0]
    for p in range(1, 61):
        log_Ms.append(log_Ms[-1] - 0.5 + 0.1 * (p - 1))
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms))
    assert aw.source.log_convex
    for s in (0.0, 0.2, 1.0, 3.5, 8.5, 12.25):
        assert aw.conjugate(s) == aw.numeric_conjugate(s)
    assert aw.conjugate(0.2) == pytest.approx(-1.5, abs=1e-12)
    assert _interpolated(log_Ms, 0.2) == pytest.approx(-0.1)
    assert aw.conjugate(8.5) == pytest.approx(_interpolated(log_Ms, 8.5), abs=1e-12)


def test_assoc_conjugate_non_log_convex_keeps_numeric_sup():
    # lower convex hull of log M runs (0, 0) -> (3, 3.5): phi_M*(2.5) = 35/12,
    # while interpolating log M itself would give 3.25
    aw = AssociatedWeight(
        WeightSequence.from_log_values([0.0, 2.0, 3.0, 3.5, 6.0, 9.0, 13.0]), pmax=6)
    for s in (0.0, 0.5, 1.0, 2.5, 3.0):
        assert aw.conjugate(s) == aw.numeric_conjugate(s)
    assert aw.conjugate(2.5) == pytest.approx(35.0 / 12.0, abs=1e-12)


def test_assoc_numeric_conjugate_non_log_convex_brackets_past_the_last_quotient():
    # hull of log M runs (0, 0) -> (1, 1) -> (3, 5.5); phi_M picks p = 3 only
    # past the chord slope 2.25 into it, above the last quotient log m_3 = 0.5,
    # so s <= 1 keeps its maximizers (u = 1 at s = 0.5) inside the bracket
    aw = AssociatedWeight(WeightSequence.from_log_values([0.0, 1.0, 5.0, 5.5]),
                          pmax=3)
    assert not aw.source.log_convex
    assert aw.numeric_conjugate(0.5) == pytest.approx(0.5, abs=1e-9)
    assert aw.conjugate(1.0) == pytest.approx(1.0, abs=1e-9)
    # s in (1, 3] has its maximizer at the chord slope 2.25 or past it
    for s in (2.0, 3.5):
        with pytest.raises(TruncationError, match="pmax=3"):
            aw.numeric_conjugate(s)


def test_assoc_conjugate_past_the_table_or_pmax_raises():
    log_Ms = [0.05 * p * p + 0.3 * p for p in range(201)]
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms))
    assert aw.conjugate(200.0) == pytest.approx(log_Ms[200])
    for conj in (aw.conjugate, aw.numeric_conjugate):
        with pytest.raises(TruncationError, match="tabulated sequence ends at p=200"):
            conj(200.5)
    aw = AssociatedWeight(WeightSequence.gevrey(2), pmax=50)
    assert aw.conjugate(50.0) == pytest.approx(2.0 * math.lgamma(51.0))
    with pytest.raises(TruncationError, match="pmax=50"):
        aw.conjugate(50.5)
    with pytest.raises(PreconditionError):
        aw.conjugate(-1.0)


# -- condition report -------------------------------------------------------

def test_gevrey2_conditions():
    M = WeightSequence.gevrey(2)
    rep = check_sequence_conditions(M, P=100, J=1000)
    assert rep.m0["verdict"] and rep.m1["verdict"] and rep.m2["verdict"]
    assert rep.gamma1["verdict"]
    assert rep.gamma1["attained_at"] == 1
    assert rep.m3prime["verdict"]
    assert rep.petzsche["Q"] == 2


def test_gamma1_value_matches_basel_sum():
    # m_p = p^2 so the sup is at p=1: sum_j 1/j^2 = pi^2/6
    rep = check_sequence_conditions(WeightSequence.gevrey(2), P=200, J=2000)
    assert rep.gamma1["sup"] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-4)


def test_factorial_sequence_fails_gamma1():
    # m_p = p gives the harmonic tail
    rep = check_sequence_conditions(WeightSequence.gevrey(1), P=100, J=1000)
    assert not rep.gamma1["verdict"]
    assert rep.gamma1["sup"] == math.inf


def test_petzsche_quotients_exact():
    rep = check_sequence_conditions(WeightSequence.gevrey(2), P=100, J=1000)
    assert rep.petzsche["per_Q"][2] == pytest.approx(4.0, rel=1e-12)
    assert rep.petzsche["per_Q"][3] == pytest.approx(9.0, rel=1e-12)


def test_condition_preconditions():
    M = WeightSequence.gevrey(2)
    with pytest.raises(PreconditionError):
        check_sequence_conditions(M, P=10)
    with pytest.raises(PreconditionError):
        check_sequence_conditions(M, P=100, J=200)


# -- sandwich inequalities and doubling -------------------------------------

def test_sandwich_seq_le_conj():
    M = WeightSequence.gevrey(2)
    res = sandwich_check(M, "seq<=conj", h=0.5, pmax=120)
    assert res.stable
    assert res.k >= 1
    assert math.isfinite(res.log_constant)


def test_sandwich_conj_le_seq():
    M = WeightSequence.gevrey(2)
    res = sandwich_check(M, "conj<=seq", k=2, pmax=120)
    assert res.stable
    assert 0.0 < res.h < 1.0


@pytest.mark.parametrize("direction, kw", [
    ("seq<=conj", {"h": 0.5}), ("seq<=conj", {"h": 0.45}),
    ("seq<=conj", {"h": 0.55}), ("seq<=conj", {"h": 0.6}),
    ("conj<=seq", {"k": 2}), ("conj<=seq", {"k": 3}),
], ids=["h=0.5", "h=0.45", "h=0.55", "h=0.6", "k=2", "k=3"])
def test_sandwich_closed_form_equals_numeric_sup(direction, kw, monkeypatch):
    closed = sandwich_check(parse_sequence("gevreyseq:d=2"), direction, **kw)
    monkeypatch.setattr(AssociatedWeight, "conjugate",
                        lambda self, s: self.numeric_conjugate(s))
    numeric = sandwich_check(parse_sequence("gevreyseq:d=2"), direction, **kw)
    assert closed == numeric


def test_sandwich_bad_inputs():
    M = WeightSequence.gevrey(2)
    with pytest.raises(PreconditionError):
        sandwich_check(M, "seq<=conj", h=2.0)
    with pytest.raises(PreconditionError):
        sandwich_check(M, "sideways")


def test_doubling_constant_gevrey2():
    assert doubling_from_sequence(WeightSequence.gevrey(2)) == 4
