import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gsbench.errors import PreconditionError, TruncationError
from gsbench.sequences import (AssociatedWeight, WeightSequence, _tail_bound,
                               associated_weight, check_sequence_conditions,
                               doubling_from_sequence, parse_sequence,
                               sandwich_check)


def log_convex(M):
    """A generator, log-convex by construction, or a table whose second
    differences of log M_p are all >= 0 exactly: a table that is its own
    lower convex hull."""
    if M.max_p == math.inf:
        return True
    ys = [Fraction(M.log_M(p)) for p in range(M.max_p + 1)]
    return all(c - b >= b - a for a, b, c in zip(ys, ys[1:], ys[2:]))


def brute_force_assoc(M, t, pmax=300):
    """The linear scan: M(t) and its smallest maximizer over p <= pmax,
    read from the raw sequence."""
    if t == 0:
        return 0.0, 0
    lt = math.log(t)
    best, best_p = 0.0, 0
    for p in range(1, pmax + 1):
        v = p * lt - M.log_M(p)
        if v > best:
            best, best_p = v, p
    return best, best_p


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_sup(g, end):
    """max of a concave g on [0, end] by doubling a bracket from 1 (capped at
    end) and golden-section refinement to width 1e-12 max(1, b); None when
    g still rises at end.  This was the associated weight's conjugate
    before the hull interpolation replaced it."""
    hi = min(1.0, end)
    while hi < end and g(hi) >= g(hi / 2.0):
        hi = min(2.0 * hi, end)
    a, b = 0.0, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while (b - a) > 1e-12 * max(1.0, b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    if b == end:  # ties move b down, so the objective rises up to end
        return None
    return max(g(0.5 * (a + b)), g(0.0))


def numeric_conjugate(aw):
    """Golden-section oracle for aw.conjugate on the raw sequence, one value
    per s cached: sup over 0 <= u < end of s u - M(e^u).  With P = pmax, or
    the table's last index when that comes first, M(e^u) has its argmax
    below P for u below every chord slope (log M_P - log M_q) / (P - q),
    q < P; the largest of them, less 1e-12 relative, is end.  M is the
    bisection for a log-convex sequence and the linear scan
    ``brute_force_assoc`` otherwise.  Raises TruncationError naming the cap
    when the maximizer lies at end or past it."""
    M = aw.source
    P = min(aw.pmax, M.max_p)
    if log_convex(M):
        end, phi = M.log_m(P), lambda u: aw(math.exp(u))
    else:
        end = max((M.log_M(P) - M.log_M(q)) / (P - q) for q in range(P))
        phi = lambda u: brute_force_assoc(M, math.exp(u), P)[0]
    end -= 1e-12 * max(1.0, abs(end))
    cap = f"pmax={P}" if P == aw.pmax else f"tabulated sequence ends at p={P}"
    cache = {}

    def conj(s):
        if s not in cache:
            cache[s] = golden_section_sup(lambda u: s * u - phi(u), end)
        if cache[s] is None:
            raise TruncationError(
                f"the maximizer for s={s:g} lies past u={end:g}, the end of {cap}")
        return cache[s]
    return conj


def doubling_bisection_assoc(M, t, pmax):
    """Oracle for the log-convex argmax: double hi while log m_hi <= log t,
    bisect for the largest p with log m_p <= log t, then step down past
    quotients equal to log t.  A table ending at pmax has no term past it,
    so there log m_pmax == log t is a tie, not a truncation."""
    lt = math.log(t)
    if M.log_m(1) > lt:
        return 0.0, 0
    lo, hi = 1, 2
    while hi <= pmax and M.log_m(hi) <= lt:
        lo, hi = hi, hi * 2
    hi = min(hi, pmax)
    if hi == pmax and (M.log_m(hi) < lt if M.max_p <= pmax
                       else M.log_m(hi) <= lt):
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


def exact_assoc(M, t, pmax):
    """Exact oracle of the associated weight: the terms p log t - log M_p as
    Fractions of the floats, scanned over every p <= P = min(pmax, M.max_p),
    with no hull.  (M(t), the smallest exact maximizer p*), M(t) in floats as
    the evaluator rounds it, or "truncated" where term(P) is the max and
    either P is p* or pmax cuts a longer source."""
    t = abs(t)
    if t == 0.0:
        return 0.0, 0
    lt = math.log(t)
    P = min(pmax, M.max_p)
    terms = [p * Fraction(lt) - Fraction(M.log_M(p)) for p in range(P + 1)]
    best = max(terms)
    p = terms.index(best)
    if terms[P] == best and (p == P or M.max_p > pmax):
        return "truncated"
    return max(0.0, p * lt - M.log_M(p)), p


def _exact_outcome(run):
    try:
        return run()
    except TruncationError:
        return "truncated"


def t_with_log(s):
    """A float t with math.log(t) == s exactly, among exp(s) and the four
    floats on each side of it, or None."""
    if not -700.0 < s < 700.0:
        return None
    t = math.exp(s)
    near = [t]
    for toward in (math.inf, 0.0):
        x = t
        for _ in range(4):
            x = math.nextafter(x, toward)
            near.append(x)
    return next((x for x in near if math.log(x) == s), None)


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
    # the exact hull keeps every point of a log-convex table, collinear ones
    # included in its values, and drops a bump
    convex = WeightSequence.from_log_values([0.0, 0.0, 1.0, 3.0])
    assert convex.convex_minorant(3)[0] == [0, 1, 2, 3]
    line = WeightSequence.from_log_values([0.0, 1.0, 2.0, 3.0])
    vertices, hull = line.convex_minorant(3)
    assert vertices == [0, 3]
    assert [hull.log_M(p) for p in range(4)] == [0.0, 1.0, 2.0, 3.0]
    bumpy = WeightSequence.from_log_values([0.0, 2.0, 3.0, 3.5])
    assert bumpy.convex_minorant(3)[0] == [0, 3]
    assert (log_convex(convex), log_convex(line), log_convex(bumpy)) \
        == (True, True, False)


_FLOATS = (st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, -0.0, 1e-13, -5e-324]), st.lists(_FLOATS, max_size=30))
@example(0.0, [1.0, 5e-324, 0.0, 0.0])
@example(0.0, [1.7976931348623157e308, -1e292])
def test_from_log_values_keeps_the_values(log_M0, rest):
    # log M_p as given, bit for bit, subnormals and -0.0 included; log M_0
    # is the 0.0 the grammar normalises to, and a quotient is a difference.
    # A table with a difference past the float range is refused instead
    vals = [0.0, *rest]
    steps = [b - a for a, b in zip(vals, vals[1:])]
    if not all(map(math.isfinite, steps)):
        with pytest.raises(PreconditionError, match="overflows a float"):
            WeightSequence.from_log_values([log_M0, *rest])
        return
    M = WeightSequence.from_log_values([log_M0, *rest])
    assert [M.log_M(p).hex() for p in range(len(rest) + 1)] \
        == [0.0.hex(), *(v.hex() for v in rest)]
    assert [M.log_m(p).hex() for p in range(1, len(vals))] == [q.hex() for q in steps]


def test_from_log_values_requires_normalized_start():
    with pytest.raises(PreconditionError):
        WeightSequence.from_log_values([1.0, 2.0])


def test_table_whose_step_overflows_a_float_is_rejected():
    # log m_2 = 1e308 - (-1e308) is past the float range: the table is
    # refused where it is made, naming p, before a hull reads the step
    with pytest.raises(PreconditionError, match="at p=2 overflows a float"):
        WeightSequence.from_log_values([0.0, -1e308, 1e308])
    M = WeightSequence.from_log_values([0.0, 1e308, 1.5e308])
    assert M.log_m(2) == 0.5e308


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
    # the same quotients summed into a tabulated log M_p, whose hull slopes
    # are exact: the exact scan decides ties there, not the rounded quotients
    T = WeightSequence.from_log_values(np.concatenate([[0.0], np.cumsum(qs)]))
    assert _exact_outcome(lambda: AssociatedWeight(T, pmax).eval_with_argmax(t)) \
        == exact_assoc(T, t, pmax)


# log M_p drawn with repeats, ±0.0 and subnormals among them
_TIE_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, 1.0, 2.0,
                                -1.0, 3.0])
               | st.floats(min_value=-50.0, max_value=50.0, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(_TIE_VALUES, min_size=1, max_size=24), st.integers(-3, 3),
       st.booleans(), st.integers(0, 23),
       st.sampled_from([0.0, -0.0, 5e-324, 1.0, math.e, -2.0, 1e300])
       | st.floats(min_value=1e-300, max_value=1e300))
@example([0.0, 0.0, -5.5], 0, True, 0, 1.0)  # log t just above the slope -11/6
@example([0.0, -5e-324], 0, True, 0, 1.0)  # a slope -2.5e-324 that rounds to log 1
@example([1.0, -5e-324, -5e-324], 0, True, 0, 1.0)
def test_assoc_matches_the_exact_scan_on_tables(rest, extra, tie, pick, t):
    # M(t) and its smallest maximizer on a table, against the exact scan of
    # every term, with pmax near the table's end P.  With tie, t is one
    # whose log t is a slope of the hull over p <= pmax rounded to a float:
    # an exact slope ties, and a slope that rounds to log t lies on one side
    # of it, which decides p* and the truncation
    log_Ms = [0.0, *rest]
    M = WeightSequence.from_log_values(log_Ms)
    pmax = max(0, M.max_p + extra)
    head = log_Ms[:pmax + 1]
    V = envelope_vertices(head)
    ys = [Fraction(y) for y in head]
    ties = [t for t in (t_with_log(float((ys[b] - ys[a]) / (b - a)))
                        for a, b in zip(V, V[1:])) if t is not None]
    if tie and ties:
        t = ties[pick % len(ties)]
    assert _exact_outcome(lambda: AssociatedWeight(M, pmax).eval_with_argmax(t)) \
        == exact_assoc(M, t, pmax)


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


def test_assoc_table_ending_in_a_tie():
    # log M = [0, -1, -1]: log m_2 = 0 = log 1, so p = 1 and p = 2 tie at
    # t = 1 and the table attains M(1) = 1 at p = 1; phi_M(u) = 2u + 1, so
    # phi_M* = -1 on [0, 2]
    for pmax in (2, 5):
        aw = AssociatedWeight(WeightSequence.from_log_values([0, -1, -1]), pmax)
        assert aw.eval_with_argmax(1.0) == (1.0, 1) \
            == brute_force_assoc(aw.source, 1.0, pmax=2)
        assert [aw.conjugate(s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)] == [-1.0] * 5
        # log m_2 < log t: the argmax lies past the table
        with pytest.raises(TruncationError,
                           match="pmax=2" if pmax == 2 else "ends at p=2"):
            aw.eval_with_argmax(1.5)


def test_assoc_run_of_slopes_that_round_to_log_t():
    # the hull of [0, 1, -5e-324, -5e-324] has slopes -2.5e-324 and 0, which
    # both round to log 1 = 0: the bisection stops at p = 0, but the sup
    # 5e-324 is first attained at the vertex p = 2
    M = WeightSequence.from_log_values([0.0, 1.0, -5e-324, -5e-324])
    aw = AssociatedWeight(M, 3)
    assert aw.hull._quot[1:3] == [0.0, 0.0]
    assert aw.eval_with_argmax(1.0) == (5e-324, 2) == brute_force_assoc(M, 1.0, pmax=3)
    assert aw.conjugate(0.0) == -5e-324


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=30),
       st.sampled_from([0, 5]))
def test_assoc_tie_at_the_table_end_matches_linear_scan(head, extra):
    # integer log M_p ending at their minimum: the hull's last quotient is
    # exactly 0 = log 1, a tie that the table's last index attains
    log_Ms = [0, *head, min(0, *head)]
    M = WeightSequence.from_log_values(log_Ms)
    P = M.max_p
    aw = AssociatedWeight(M, P + extra)
    got, p_got = aw.eval_with_argmax(1.0)
    want, p_want = brute_force_assoc(M, 1.0, pmax=P)
    assert p_got == p_want
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert aw.conjugate(0.0) == pytest.approx(min(log_Ms), rel=1e-12, abs=1e-12)


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
    # a non-log-convex table: the hull's bisection against the linear scan
    # on the raw table
    M = WeightSequence.from_log_values([0.0, 2.0, 3.0, 3.5, 6.0, 9.0, 13.0])
    aw = AssociatedWeight(M, pmax=6)
    assert not log_convex(M) and aw.source is M
    for t in (1.5, 3.0, 8.0):
        want, p_want = brute_force_assoc(M, t, pmax=5)
        got, p_got = aw.eval_with_argmax(t)
        assert got == pytest.approx(want)
        assert p_got == p_want


def _raw_tables(first=st.floats(min_value=-5.0, max_value=50.0), max_size=39):
    """log M_0 = 0 followed by arbitrary log M_1..log M_P, P <= max_size + 1."""
    rest = st.lists(st.floats(min_value=-5.0, max_value=50.0), max_size=max_size)
    return st.tuples(first, rest).map(lambda fr: [0.0, fr[0], *fr[1]])


def envelope_vertices(log_Ms):
    """The lower convex hull's vertices by brute force on exact Fractions:
    the ends, and each point strictly below every chord across it."""
    ys = [Fraction(y) for y in log_Ms]
    P = len(ys) - 1
    return [j for j in range(P + 1) if j in (0, P) or all(
        ys[j] * (b - a) < ys[a] * (b - j) + ys[b] * (j - a)
        for a in range(j) for b in range(j + 1, P + 1))]


@settings(max_examples=150, deadline=None)
@given(_raw_tables(first=_FLOATS, max_size=20)
       | st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0]),
                  min_size=1, max_size=12).map(lambda r: [0.0, *r]))
@example([0.0, 1.0, 5e-324, 0.0, 0.0])
@example([0.0, 1.0, -5e-324, -5e-324])
def test_convex_minorant_vertices_are_the_exact_envelope(log_Ms):
    # vertices from the exact envelope keep their values bit for bit; the
    # points between and the slopes are the exact segment, correctly rounded
    M = WeightSequence.from_log_values(log_Ms)
    P = M.max_p
    vertices, hull = M.convex_minorant(P)
    assert vertices == envelope_vertices(log_Ms)
    ys = [Fraction(M.log_M(p)) for p in range(P + 1)]
    for a, b in zip(vertices, vertices[1:]):
        assert hull.log_M(a).hex() == M.log_M(a).hex()
        for p in range(a + 1, b + 1):
            assert hull.log_m(p) == float((ys[b] - ys[a]) / (b - a))
            assert hull.log_M(p) == float(ys[a] + (ys[b] - ys[a]) * (p - a) / (b - a))
    assert hull.log_M(P).hex() == M.log_M(P).hex()


@settings(max_examples=100, deadline=None)
@given(_raw_tables(), st.floats(min_value=1e-3, max_value=1e6), st.data())
def test_assoc_hull_matches_linear_scan_on_raw_tables(log_Ms, t, data):
    M = WeightSequence.from_log_values(log_Ms)
    pmax = data.draw(st.integers(1, len(log_Ms) - 1))
    want, p_want = brute_force_assoc(M, t, pmax=pmax)
    term = lambda p: max(0.0, p * math.log(t) - log_Ms[p])
    try:
        got, p_got = AssociatedWeight(M, pmax).eval_with_argmax(t)
    except TruncationError:
        # log t is at least the hull's last slope: pmax attains the sup
        assert term(pmax) == pytest.approx(want, rel=1e-12, abs=1e-12)
        return
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # the smallest maximizer, up to a tie within rounding
    assert p_got == p_want or term(p_got) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_convex_minorant_is_the_lower_hull():
    M = WeightSequence.from_log_values([0.0, 2.0, 3.0, 3.5, 6.0, 9.0, 13.0])
    vertices, hull = M.convex_minorant(6)
    assert vertices == [0, 3, 4, 5, 6]
    assert hull.max_p == 6
    assert [hull.log_m(p) for p in range(1, 7)] == [7 / 6] * 3 + [2.5, 3.0, 4.0]
    for p, want in enumerate([0.0, 7 / 6, 7 / 3, 3.5, 6.0, 9.0, 13.0]):
        assert hull.log_M(p) == pytest.approx(want, rel=1e-15, abs=1e-15)
    assert [hull.log_M(p) for p in vertices] == [0.0, 3.5, 6.0, 9.0, 13.0]
    assert M.convex_minorant(2)[1].max_p == 2
    with pytest.raises(TruncationError, match="tabulated sequence ends at p=2"):
        M.convex_minorant(2)[1].log_M(3)


def test_max_p_is_an_attribute():
    assert WeightSequence.gevrey(2).max_p == math.inf
    assert WeightSequence.from_log_values([0.0, 1.0, 3.0]).max_p == 2


# -- exact conjugate of the associated weight --------------------------------

def _interpolated(log_Ms, s):
    p = int(s)
    return log_Ms[p] if s == p else (p + 1 - s) * log_Ms[p] + (s - p) * log_Ms[p + 1]


@pytest.mark.parametrize("d", [1.5, 2.0, 3.0])
def test_assoc_conjugate_matches_numeric_sup_gevrey(d):
    aw = AssociatedWeight(WeightSequence.gevrey(d), pmax=500000)
    oracle = numeric_conjugate(aw)
    for k in (1, 2, 3, 5):
        for p in range(301):
            assert aw.conjugate(p / k) == pytest.approx(
                oracle(p / k), rel=1e-12, abs=1e-12)


def test_assoc_conjugate_matches_numeric_sup_table():
    # log-convex table with log m_p = 0.1 p + 0.25; the numeric sup's bracket
    # stops short of log m_200 = 20.25, so the oracle reaches s = 199, whose
    # maximizers fill [log m_199, log m_200]
    log_Ms = [0.05 * p * p + 0.3 * p for p in range(201)]
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms))
    oracle = numeric_conjugate(aw)
    for s in np.linspace(0.0, 199.0, 399):
        s = float(s)
        assert aw.conjugate(s) == pytest.approx(oracle(s), rel=1e-12, abs=1e-12)
        assert aw.conjugate(s) == pytest.approx(_interpolated(log_Ms, s),
                                                rel=1e-14, abs=1e-14)


def test_assoc_numeric_conjugate_brackets_up_to_the_last_quotient():
    # pmax = 200 at the table's end: s = 117 has its maximizer
    # log m_118 = 12.05 inside the table, where a doubling bracket without
    # the cap at the last quotient reached t = 32 and raised
    log_Ms = [0.05 * p * p + 0.3 * p for p in range(201)]
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms), pmax=200)
    oracle = numeric_conjugate(aw)
    assert oracle(117.0) == pytest.approx(719.55, rel=1e-12)
    for s in np.arange(1, 797) * 0.25:  # 0.25 .. 199
        assert oracle(float(s)) == pytest.approx(
            aw.conjugate(float(s)), rel=1e-9, abs=1e-9)
    # past s = 199 the objective still rises at log m_200: the oracle stops,
    # while the hull's last segment still answers
    for s in (199.25, 199.75, 200.0):
        with pytest.raises(TruncationError, match="pmax=200"):
            oracle(s)
        assert aw.conjugate(s) == pytest.approx(_interpolated(log_Ms, s),
                                                rel=1e-14, abs=1e-14)


def test_assoc_conjugate_below_unit_first_quotient_matches_numeric_sup():
    # log m_p = -0.5 + 0.1 (p - 1): log-convex, but phi_M(0) = 1.5 at p = 5, 6,
    # so the cut at u = 0 binds for s <= 6 and phi_M* = -1.5 there, not the
    # interpolation (-0.1 at s = 0.2)
    log_Ms = [0.0]
    for p in range(1, 61):
        log_Ms.append(log_Ms[-1] - 0.5 + 0.1 * (p - 1))
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms))
    assert log_convex(aw.source)
    oracle = numeric_conjugate(aw)
    for s in (0.0, 0.2, 1.0, 3.5, 8.5, 12.25):
        assert aw.conjugate(s) == pytest.approx(oracle(s), rel=1e-12, abs=1e-12)
    assert aw.conjugate(0.2) == pytest.approx(-1.5, abs=1e-12)
    assert _interpolated(log_Ms, 0.2) == pytest.approx(-0.1)
    assert aw.conjugate(8.5) == pytest.approx(_interpolated(log_Ms, 8.5), abs=1e-12)


def test_assoc_conjugate_non_log_convex_matches_numeric_sup():
    # lower convex hull of log M runs (0, 0) -> (3, 3.5): phi_M*(2.5) = 35/12,
    # while interpolating log M itself would give 3.25
    aw = AssociatedWeight(
        WeightSequence.from_log_values([0.0, 2.0, 3.0, 3.5, 6.0, 9.0, 13.0]), pmax=6)
    oracle = numeric_conjugate(aw)
    for s in (0.0, 0.5, 1.0, 2.5, 3.0):
        assert aw.conjugate(s) == pytest.approx(oracle(s), rel=1e-12, abs=1e-12)
    assert aw.conjugate(2.5) == pytest.approx(35.0 / 12.0, abs=1e-12)


def test_assoc_numeric_conjugate_non_log_convex_brackets_past_the_last_quotient():
    # hull of log M runs (0, 0) -> (1, 1) -> (3, 5.5); phi_M picks p = 3 only
    # past the chord slope 2.25 into it, above the last quotient log m_3 = 0.5,
    # so s <= 1 keeps its maximizers (u = 1 at s = 0.5) inside the bracket
    aw = AssociatedWeight(WeightSequence.from_log_values([0.0, 1.0, 5.0, 5.5]),
                          pmax=3)
    assert not log_convex(aw.source)
    oracle = numeric_conjugate(aw)
    assert oracle(0.5) == pytest.approx(0.5, abs=1e-9)
    assert aw.conjugate(0.5) == pytest.approx(0.5, abs=1e-12)
    assert aw.conjugate(1.0) == pytest.approx(1.0, abs=1e-12)
    # s in (1, 3] has its maximizer at the chord slope 2.25 or past it: the
    # oracle stops there, the hull's last segment answers up to s = 3
    with pytest.raises(TruncationError, match="pmax=3"):
        oracle(2.0)
    assert aw.conjugate(2.0) == pytest.approx(3.25, abs=1e-12)
    with pytest.raises(TruncationError, match="pmax=3"):
        aw.conjugate(3.5)


# the conjugate's arguments: the table's end, P or P + 5, as pmax, and s as
# fractions of P
_PMAX_EXTRA = st.sampled_from([0, 5])
_S_FRACTIONS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(_raw_tables(), _PMAX_EXTRA, _S_FRACTIONS)
@example([0.0, 1.0, 5e-324, 0.0, 0.0], 0, [0.0])
def test_assoc_conjugate_matches_numeric_sup_on_raw_tables(log_Ms, extra, fracs):
    M = WeightSequence.from_log_values(log_Ms)
    assume(not log_convex(M))
    _conjugate_matches_oracle(M, extra, fracs)


@settings(max_examples=60, deadline=None)
@given(_raw_tables(first=st.floats(min_value=-5.0, max_value=-1e-3)), _PMAX_EXTRA,
       _S_FRACTIONS)
def test_assoc_conjugate_matches_numeric_sup_below_unit_first_quotient(log_Ms, extra,
                                                                       fracs):
    _conjugate_matches_oracle(WeightSequence.from_log_values(log_Ms), extra, fracs)


@pytest.mark.parametrize("pmax, cap", [(3, "pmax=3"), (8, "ends at p=3")])
def test_assoc_conjugate_hull_slope_underflow(pmax, cap):
    # log M = [0, 1, 0, -5e-324]: the hull's one segment (0, 0) -> (3, -5e-324)
    # has a slope that underflows to -0.0, but log M_3 < log M_0, so M(1) has
    # its argmax past p = 3
    M = WeightSequence.from_log_values([0.0, 1.0, 0.0, -5e-324])
    vertices, hull = M.convex_minorant(3)
    assert vertices == [0, 3] and hull.log_m(3) == 0.0
    assert M.log_M(3) == -5e-324
    with pytest.raises(TruncationError, match=cap):
        AssociatedWeight(M, pmax).conjugate(0.5)


def _conjugate_matches_oracle(M, extra, fracs):
    P = M.max_p
    pmax = P + extra
    aw = AssociatedWeight(M, pmax)
    if all(M.log_M(P) < M.log_M(q) for q in range(P)):
        # every hull quotient up to P is negative: M(1) = phi_M(0), whose
        # argmax bounds the cut, has its argmax past P (a last quotient of
        # 0 is a tie that the table attains)
        with pytest.raises(TruncationError,
                           match=f"pmax={P}" if pmax == P else f"ends at p={P}"):
            aw.conjugate(0.0)
        return
    oracle = numeric_conjugate(aw)
    for s in (f * P for f in fracs):
        got = aw.conjugate(s)
        try:
            want = oracle(s)
        except TruncationError:  # the maximizer is on the hull's last segment
            continue
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_assoc_conjugate_past_the_table_or_pmax_raises():
    log_Ms = [0.05 * p * p + 0.3 * p for p in range(201)]
    aw = AssociatedWeight(WeightSequence.from_log_values(log_Ms))
    assert aw.conjugate(200.0) == pytest.approx(log_Ms[200])
    for conj in (aw.conjugate, numeric_conjugate(aw)):
        with pytest.raises(TruncationError, match="tabulated sequence ends at p=200"):
            conj(200.5)
    aw = AssociatedWeight(WeightSequence.gevrey(2), pmax=50)
    assert aw.conjugate(50.0) == pytest.approx(2.0 * math.lgamma(51.0))
    with pytest.raises(TruncationError, match="pmax=50"):
        aw.conjugate(50.5)
    with pytest.raises(PreconditionError):
        aw.conjugate(-1.0)


def test_assoc_conjugate_cut_needs_p_past_pmax():
    # log m_p = -1 for every p: phi_M(0) = sup_p p has no maximizer <= pmax
    aw = AssociatedWeight(WeightSequence(lambda p: -1.0), pmax=30)
    with pytest.raises(TruncationError, match="pmax=30"):
        aw.conjugate(1.0)


# -- condition report -------------------------------------------------------

def test_gevrey2_conditions():
    M = WeightSequence.gevrey(2)
    rep = check_sequence_conditions(M, P=100)
    assert rep.m0["verdict"] and rep.m1["verdict"] and rep.m2["verdict"]
    assert rep.gamma1["verdict"]
    assert rep.gamma1["attained_at"] == 1
    assert rep.m3prime["verdict"]
    assert rep.petzsche["Q"] == 2


def test_gamma1_value_matches_basel_sum():
    # m_p = p^2 so the sup is at p=1: sum_j 1/j^2 = pi^2/6
    rep = check_sequence_conditions(WeightSequence.gevrey(2), P=200)
    assert rep.gamma1["sup"] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-4)


def array_gamma1(M, P, J):
    """(sup, attained_at) of (gamma_1) with the suffix sums np.cumsum once
    gave them."""
    inv_m = [math.exp(-M.log_m(p)) for p in range(1, J + 1)]
    tail = _tail_bound(M, J)
    suffix = np.cumsum(inv_m[::-1])[::-1]
    best, best_p = -math.inf, 1
    for p in range(1, P + 1):
        v = math.exp(M.log_m(p)) / p * (suffix[p - 1] + tail)
        if v > best:
            best, best_p = v, p
    return float(best), best_p


@pytest.mark.parametrize("M", [
    *(WeightSequence.gevrey(d) for d in (1.5, 2, 2.5, 3, 7.25)),
    WeightSequence.from_log_values([1.3 * p * math.log(p + 1.0) + 0.01 * p * p
                                    for p in range(0, 3001)])],
    ids=lambda M: M.label)
def test_gamma1_suffix_sums_equal_np_cumsum(M):
    rep = check_sequence_conditions(M, P=200)
    sup, at = array_gamma1(M, 200, 2000)
    assert (rep.gamma1["sup"].hex(), rep.gamma1["attained_at"]) == (sup.hex(), at)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e10), min_size=1, max_size=500))
def test_accumulated_suffix_sums_are_np_cumsum_bits(xs):
    # np.cumsum is a left fold, one rounding per term, as accumulate is
    ours = list(accumulate(reversed(xs)))[::-1]
    assert np.array(ours).tobytes() == np.cumsum(xs[::-1])[::-1].tobytes()


def test_factorial_sequence_fails_gamma1():
    # m_p = p gives the harmonic tail
    rep = check_sequence_conditions(WeightSequence.gevrey(1), P=100)
    assert not rep.gamma1["verdict"]
    assert rep.gamma1["sup"] == math.inf


def test_petzsche_quotients_exact():
    rep = check_sequence_conditions(WeightSequence.gevrey(2), P=100)
    assert rep.petzsche["per_Q"][2] == pytest.approx(4.0, rel=1e-12)
    assert rep.petzsche["per_Q"][3] == pytest.approx(9.0, rel=1e-12)


def test_condition_preconditions():
    M = WeightSequence.gevrey(2)
    with pytest.raises(PreconditionError):
        check_sequence_conditions(M, P=10)


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
                        lambda self, s: numeric_conjugate(self)(s))
    numeric = sandwich_check(parse_sequence("gevreyseq:d=2"), direction, **kw)
    assert closed == numeric


def test_sandwich_constant_is_inf_past_the_float_range():
    # log C = 1778.78 is past log(float max) = 709.78: C reads +inf, not e^700
    res = sandwich_check(WeightSequence.gevrey(40), "seq<=conj", h=1e-60)
    assert (res.k, res.argmax_p) == (34, 221)
    assert res.log_constant == pytest.approx(1778.7847, abs=1e-4)
    assert res.constant == math.inf
    # inside the float range C is math.exp(log C) bit for bit
    for res in (sandwich_check(WeightSequence.gevrey(2), "seq<=conj", h=0.5),
                sandwich_check(WeightSequence.gevrey(2), "conj<=seq", k=2)):
        assert res.constant == math.exp(res.log_constant) < math.inf


def test_sandwich_bad_inputs():
    M = WeightSequence.gevrey(2)
    with pytest.raises(PreconditionError):
        sandwich_check(M, "seq<=conj", h=2.0)
    with pytest.raises(PreconditionError):
        sandwich_check(M, "sideways")


def test_doubling_constant_gevrey2():
    assert doubling_from_sequence(WeightSequence.gevrey(2)) == 4


def test_doubling_is_none_when_the_table_ends_inside_the_t_grid():
    # log M_p = p^2 / 100, p <= 500: at t = 1e6 the associated weight's
    # maximizer, near 50 ln t ~ 690, lies past the table's end
    M = WeightSequence.from_log_values([p * p / 100 for p in range(501)])
    with pytest.raises(TruncationError):
        AssociatedWeight(M)(1e6)
    assert doubling_from_sequence(M) is None
