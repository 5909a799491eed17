"""Weight sequences M_p, their conditions, and the associated weight.

Everything is carried as log M_p.  The builtin Gevrey-type sequence
M_p = (p!)^d is generated from its quotients log m_p = d log p by cumulative
summation, so the quotient identity m_p = p^d is exact in log domain.  A
table keeps its log M_p as given, and its quotients are their differences.

The associated weight M(t) = sup_p log(t^p / M_p) depends only on the lower
convex hull of the points (p, log M_p) (Komatsu 1973, section 3): M(t)
bisects the hull's slopes for log t and its conjugate interpolates the hull.
A generator is log-convex by construction, so it is its own hull, and its
float quotients are its slopes.  A table's hull is decided exactly, on the
integer ratios of its floats: its vertices keep the table's values bit for
bit, and M(t) compares log t with its slopes as exact Fractions.
Everything is scalar, so this module imports no numpy.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import PreconditionError, SearchExhaustedError, TruncationError
from .grids import GridSpec
from .reports import Result
from . import specs
from .specs import SequenceSpec, gevrey_sequence, table_sequence
from .weights import H_BOUND, first_true

SANDWICH_ASSOC_PMAX = 500000  # associated-weight p cap in sandwich_check
DOUBLING_ASSOC_PMAX = 20000   # associated-weight p cap in doubling_from_sequence


class WeightSequence:
    """Log-domain generator of M_p with quotients m_p = M_p / M_{p-1}.
    ``max_p`` is the last index a table holds (math.inf for a generator)."""

    def __init__(self, log_quotient, label: str = "sequence"):
        # log_quotient(p) = log m_p for p >= 1
        self._log_quotient = log_quotient
        self._cum = [0.0]  # log M_0 = 0
        self._quot = [None]  # log m_p at index p; there is no m_0
        self.label = label
        self.max_p = math.inf

    def _extend(self, p: int) -> None:
        while len(self._cum) <= p:
            q = self._log_quotient(len(self._cum))
            self._quot.append(q)
            self._cum.append(self._cum[-1] + q)

    def log_M(self, p: int) -> float:
        if p < 0:
            raise PreconditionError("index must be nonnegative")
        self._extend(p)
        return self._cum[p]

    def log_m(self, p: int) -> float:
        if p < 1:
            raise PreconditionError("quotients start at p = 1")
        return self._quot[p] if p < len(self._quot) else self._log_quotient(p)

    def convex_minorant(self, P: int) -> tuple:
        """The lower convex hull of the points (p, log M_p), p <= P: its
        vertices, and the table that interpolates them.  Andrew's monotone
        chain (Inf. Proc. Letters 9(5), 1979) decides each turn exactly on
        the floats' integer ratios over one power-of-two denominator, and
        drops collinear points.  Each vertex keeps log M_p bit for bit; the
        values between and the quotients, the segments' slopes, are exact
        ratios rounded once, so the slopes rise from one segment to the next."""
        ys = [self.log_M(p) for p in range(P + 1)]
        ratios = [y.as_integer_ratio() for y in ys]  # (n, 2^e)
        D = max(d for _, d in ratios)
        Y = [n * (D // d) for n, d in ratios]  # log M_p = Y[p] / D exactly
        hull = [0]
        for c in range(1, P + 1):
            # pop b while slope(a, b) >= slope(b, c), cross-multiplied
            while len(hull) > 1 and ((Y[hull[-1]] - Y[hull[-2]]) * (c - hull[-1])
                                     >= (Y[c] - Y[hull[-1]]) * (hull[-1] - hull[-2])):
                hull.pop()
            hull.append(c)
        vals, quot = [0.0], [None]
        for a, b in zip(hull, hull[1:]):
            den = (b - a) * D
            quot += [(Y[b] - Y[a]) / den] * (b - a)
            vals += [*((Y[a] * (b - p) + Y[b] * (p - a)) / den
                       for p in range(a + 1, b)), ys[b]]
        return hull, _table(vals, self.label, quot)

    @staticmethod
    def from_spec(spec: SequenceSpec) -> "WeightSequence":
        if spec.d is not None:
            d = spec.d
            return WeightSequence(lambda p: d * math.log(p), label=spec.label)
        return _table(spec.log_Ms, spec.label)

    @staticmethod
    def gevrey(d: float) -> "WeightSequence":
        return WeightSequence.from_spec(gevrey_sequence(d))

    @staticmethod
    def from_log_values(log_Ms, label: str = "table") -> "WeightSequence":
        return WeightSequence.from_spec(table_sequence(log_Ms, label))


def _table(log_Ms, label: str, quot: list = None) -> WeightSequence:
    """log M_p = log_Ms[p] as given (log M_0 = 0.0) and log m_p = quot[p], by
    default the differences, for p <= P = len(log_Ms) - 1; TruncationError past P."""
    P = len(log_Ms) - 1

    def past_the_end(p: int) -> float:
        raise TruncationError(f"tabulated sequence ends at p={P}")

    seq = WeightSequence(past_the_end, label)
    seq._cum = [0.0, *log_Ms[1:]]
    seq._quot = quot or [None, *(b - a for a, b in zip(seq._cum, seq._cum[1:]))]
    seq.max_p = P
    return seq


def parse_sequence(spec: str) -> WeightSequence:
    """The sequence a spec names: gevreyseq:d=2 | table:file.csv"""
    return WeightSequence.from_spec(specs.parse_sequence(spec))


# ---------------------------------------------------------------------------
# Associated weight M(t) = sup_p log(t^p / M_p)
# ---------------------------------------------------------------------------

@dataclass
class AssociatedWeight:
    """M(t) = sup_{0 <= p <= pmax} log(t^p / M_p) and its Young conjugate, both
    read from ``hull``: a generator itself, a table's convex minorant over
    p <= P (pmax, or the table's last index if smaller).  The sup is the same
    over the hull; its smallest maximizer is a hull vertex, a source point."""
    source: WeightSequence
    pmax: int = 4000
    hull: WeightSequence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        src = self.source
        P = min(self.pmax, src.max_p)
        if src.max_p == math.inf:
            # every p <= pmax is a vertex, and the slopes into them are the
            # quotients, cached as far as a call has needed them
            self.hull, self._vertices, self._slopes = src, range(P + 1), src._quot
            self._last = src.log_m(P) if P else -math.inf
        else:
            # the exact slopes of the hull's segments, the vertex values' Fractions
            self._vertices, self.hull = V, hull = src.convex_minorant(P)
            ys = [Fraction(hull._cum[p]) for p in V]
            self._slopes = [None, *((y1 - y0) / (p1 - p0) for p0, p1, y0, y1
                                    in zip(V, V[1:], ys, ys[1:]))]
            self._last = self._slopes[-1] if P else -math.inf
        self._q0 = None  # argmax of M(1), set by conjugate; a cached_property slows reads

    def eval_with_argmax(self, t: float) -> tuple:
        """(M(t), p*): the term p log t - log M_p rises along a hull segment
        whose slope is below log t, so the smallest maximizer p* is the vertex
        after the slopes below log t, and the last vertex P when log t passes
        every slope.  There the sup may lie past P, so that raises
        TruncationError; at log t equal to the last slope, P ties the vertex
        before it, which attains the sup unless pmax cuts a longer source."""
        t = abs(float(t))
        if t == 0.0:
            # the sup formula gives 0 via the p=0 term; see module notes
            return 0.0, 0
        lt = math.log(t)
        V, slopes = self._vertices, self._slopes
        if lt > self._last or lt == self._last and self.source.max_p > self.pmax:
            raise TruncationError(
                f"tabulated sequence ends at p={V[-1]}" if V[-1] < self.pmax else
                f"associated-weight argmax hit pmax={self.pmax} at t={t:g}; "
                "increase pmax")
        while len(slopes) < len(V) and (len(slopes) == 1 or slopes[-1] < lt):
            self.source._extend(len(slopes))  # a generator's slopes, up to lt
        p = V[bisect.bisect_left(slopes, lt, 1, min(len(slopes), len(V))) - 1]
        return max(0.0, p * lt - self.hull._cum[p]), p

    def __call__(self, t: float) -> float:
        return self.eval_with_argmax(t)[0]

    def conjugate(self, s: float) -> float:
        """Young conjugate phi_M*(s) of phi_M(u) = M(e^u), u >= 0.

        phi_M is the Legendre transform of the hull p -> log M_p, so phi_M*
        interpolates it, (1 - theta) log M_p + theta log M_(p+1) with
        p = floor(s), theta = s - p, maximizer u = log m_(p+1) (Komatsu 1973,
        section 3).  The cut at u = 0 binds for s <= q0, where phi_M* =
        -phi_M(0) = log M_q0, so the hull is read at max(s, q0).  It raises
        TruncationError past pmax or a table's end, or where M(1) raises."""
        if not s >= 0:  # also rejects NaN
            raise PreconditionError(f"conjugate argument must be >= 0, got {s}")
        if self._q0 is None:
            self._q0 = self.eval_with_argmax(1.0)[1]
        if s < self._q0:
            s = self._q0
        if s > self.pmax:
            raise TruncationError(
                f"associated-weight conjugate at s={s:g} needs p > pmax={self.pmax}")
        hull = self.hull
        p = int(s)
        theta = s - p
        if not theta:
            return hull.log_M(p)
        return (1.0 - theta) * hull.log_M(p) + theta * hull.log_M(p + 1)


def associated_weight(M: WeightSequence, t: float, pmax: int = 4000) -> tuple:
    """(M(t), argmax p*) with the sup taken over integer p in [0, pmax]."""
    return AssociatedWeight(M, pmax=pmax).eval_with_argmax(t)


# ---------------------------------------------------------------------------
# Condition report
# ---------------------------------------------------------------------------

@dataclass
class SequenceConditionReport(Result):
    sequence: str
    P: int
    J: int
    m0: dict = field(default_factory=dict)
    m1: dict = field(default_factory=dict)
    m2: dict = field(default_factory=dict)
    gamma1: dict = field(default_factory=dict)
    m3prime: dict = field(default_factory=dict)
    petzsche: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(c.get("verdict", True) for c in (
            self.m0, self.m1, self.m2, self.gamma1, self.m3prime,
            self.petzsche))


def _tail_bound(M: WeightSequence, J: int) -> Optional[float]:
    """Integral-style bound for sum_{j>J} 1/m_j assuming m_j ~ c j^alpha near J.

    Returns None (inconclusive) when the local power fit is <= 1, i.e. the
    tail does not converge at that rate."""
    span = max(10, J // 10)
    a = M.log_m(J) - M.log_m(J - span)
    b = math.log(J) - math.log(J - span)
    alpha = a / b
    if alpha <= 1.0 + 1e-9:
        return None
    try:  # integral of c^-1 j^-alpha from J: J / (m_J (alpha - 1)); in logs past exp's range
        return J / ((alpha - 1.0) * math.exp(M.log_m(J)))
    except OverflowError:
        return math.exp(math.log(J / (alpha - 1.0)) - M.log_m(J))


def check_sequence_conditions(M: WeightSequence, P: int) -> SequenceConditionReport:
    """Audit (M0)-(M2), (gamma_1), (M3)' and the Petzsche quotient criterion
    on indices p <= P, with tails past J = 10 P estimated by an integral bound."""
    if P < 50:
        raise PreconditionError("P must be >= 50")
    J = 10 * P
    rep = SequenceConditionReport(sequence=M.label, P=P, J=J)
    q = [None, *(M.log_m(p) for p in range(1, J + 1))]  # log m_p at index p

    # (M0): maximal c with (c(p+1))^p <= M_p over tested p
    logc = min((M.log_M(p) / p) - math.log(p + 1) for p in range(1, P + 1))
    rep.m0 = {"c": math.exp(logc), "verdict": math.isfinite(logc)}

    # (M1): log-convexity violations, quotients that fall by over 1e-12;
    # (gamma_1) needs none up to J
    falls = [p for p in range(2, J + 1) if q[p] < q[p - 1] - 1e-12]
    viol = bisect.bisect_right(falls, P)
    rep.m1 = {"violations": viol, "verdict": viol == 0}

    # (M2): minimal integer H whose required prefactor trend does not grow
    splits = [min(M.log_M(i) + M.log_M(p - i) for i in range(p + 1))
              for p in range(P + 1)]
    rep.m2 = {"verdict": False, "A": None, "H": None}
    for H in range(1, 1 << 12):
        r = [M.log_M(p) - p * math.log(H) - splits[p] for p in range(P + 1)]
        peak = max(r)
        tail_peak = max(r[int(0.9 * P):])
        if tail_peak < peak - 1e-12 or peak <= 1e-9:
            rep.m2 = {"verdict": True, "A": math.exp(max(peak, 0.0)), "H": H}
            break

    inv_m = [math.exp(-x) for x in q[1:]]  # 1/m_1..1/m_J
    tail = _tail_bound(M, J)

    # (gamma_1): sup_p (m_p / p) * sum_{j >= p} 1/m_j
    if tail is None or falls:
        rep.gamma1 = {"verdict": False, "sup": math.inf, "P": P, "J": J, "tail_bound": None,
                      "note": "non-log-convex: inconclusive" if falls
                      else "tail does not converge at a power rate > 1"}
    else:
        suffix = list(accumulate(reversed(inv_m)))[::-1]  # suffix[p-1] = sum_{j=p}^J 1/m_j
        vs = [math.exp(q[p]) / p * (suffix[p - 1] + tail) for p in range(1, P + 1)]
        best = max(vs)
        rep.gamma1 = {"verdict": True, "sup": best, "attained_at": vs.index(best) + 1,
                      "P": P, "J": J, "tail_bound": tail}

    # (M3)': sum_p M_{p-1}/M_p
    rep.m3prime = {"partial_sum": math.fsum(inv_m), "tail_bound": tail,
                   "verdict": tail is not None}

    # Petzsche: liminf_{j} m_{Qj}/m_j > 1 for some integer Q
    per_Q = {Q: min(math.exp(q[Q * j] - q[j]) for j in range(max(1, P // 2), P + 1))
             for Q in range(2, 9)}
    Q = next((Q for Q, low in per_Q.items() if low > 1.0 + 1e-9), None)
    rep.petzsche = {"per_Q": per_Q, "Q": Q, "best_liminf": max(per_Q.values()),
                    "verdict": Q is not None}
    return rep


# ---------------------------------------------------------------------------
# Sandwich inequalities between M_p and the associated weight's conjugate
# ---------------------------------------------------------------------------

@dataclass
class SandwichResult:
    direction: str
    h: float
    k: int
    log_constant: float
    constant: float
    argmax_p: int
    stable: bool


def _tail_not_growing(r: list) -> bool:
    peak = max(r)
    return max(r[int(0.9 * len(r)):]) < peak - 1e-9 or peak == r[0]


def sandwich_check(M: WeightSequence, direction: str, h: float = None,
                   k: int = None, pmax: int = 300) -> SandwichResult:
    """Witness constants for the two sandwich inequalities linking M_p to the
    conjugate of the associated weight:

      seq<=conj:  exp(k phi_M*(p/k)) <= C h^p M_p   (given h in (0,1), find k, C)
      conj<=seq:  h^p M_p <= D exp(k phi_M*(p/k))   (given k, find h, D)

    "Found" means the log ratio's running max is attained away from the top of
    the tested range, i.e. the finite scan shows a stabilized constant."""
    conj = AssociatedWeight(M, pmax=SANDWICH_ASSOC_PMAX).conjugate

    if direction == "seq<=conj":
        if h is None or not 0.0 < h < 1.0:
            raise PreconditionError("direction seq<=conj requires h in (0,1)")
        logh = math.log(h)
        for kk in range(1, 65):
            r = [kk * conj(p / kk) - p * logh - M.log_M(p) for p in range(pmax + 1)]
            if _tail_not_growing(r):
                i = r.index(max(r))
                return SandwichResult("seq<=conj", h, kk, r[i],
                                      math.exp(min(r[i], 700.0)), i, True)
        raise SearchExhaustedError("no k <= 64 stabilizes the ratio")

    if direction == "conj<=seq":
        if k is None or k < 1:
            raise PreconditionError("direction conj<=seq requires integer k >= 1")
        hh = 0.5
        for _ in range(60):
            logh = math.log(hh)
            r = [p * logh + M.log_M(p) - k * conj(p / k) for p in range(pmax + 1)]
            if _tail_not_growing(r):
                i = r.index(max(r))
                return SandwichResult("conj<=seq", hh, k, r[i],
                                      math.exp(min(r[i], 700.0)), i, True)
            hh /= 2.0
        raise SearchExhaustedError("halving h did not stabilize the ratio")

    raise PreconditionError(f"unknown direction {direction!r}")


def doubling_from_sequence(M: WeightSequence) -> Optional[int]:
    """Minimal integer H <= H_BOUND with 2 M(t) <= M(H t) + H at t = 0 and on
    log:1e-2,1e6,400, or None."""
    aw = AssociatedWeight(M, pmax=DOUBLING_ASSOC_PMAX)
    ts = [0.0, *GridSpec("log", 1e-2, 1e6, 400).points()]

    def holds(H: int) -> bool:  # monotone in H
        return all(2.0 * vals[i] <= aw(H * ts[i]) + H + 1e-9
                   for i in range(len(ts)))

    try:
        vals = [aw(t) for t in ts]
        return first_true(holds, 1, H_BOUND)
    except TruncationError:
        return None
