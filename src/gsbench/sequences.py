"""Weight sequences M_p, their conditions, and the associated weight.

Everything is carried as log M_p.  The builtin Gevrey-type sequence
M_p = (p!)^d is generated from its quotients log m_p = d log p by cumulative
summation, so the quotient identity m_p = p^d is exact in log domain.

The associated weight M(t) = sup_p log(t^p / M_p) depends only on the lower
convex hull of the points (p, log M_p) (Komatsu 1973, section 3): M(t)
bisects the hull's quotients and its conjugate interpolates the hull.
Everything is scalar, so this module imports no numpy.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
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

    def __init__(self, log_quotient, label: str = "sequence",
                 log_convex: bool = True):
        # log_quotient(p) = log m_p for p >= 1
        self._log_quotient = log_quotient
        self._cum = [0.0]  # log M_0 = 0
        self._quot = [None]  # log m_p at index p; there is no m_0
        self.label = label
        self.log_convex = log_convex
        self.max_p = math.inf
        self.last_rise = None  # set by convex_minorant

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

    def convex_minorant(self, P: int) -> "WeightSequence":
        """The lower convex hull of the points (p, log M_p), p <= P, as a table
        whose quotients are the hull's slopes: equal along a segment and
        increasing from one segment to the next.  ``last_rise`` is (P - a,
        log M_P - log M_a) of the source over the last segment [a, P]."""
        slope = lambda a, b: (self.log_M(b) - self.log_M(a)) / (b - a)
        hull = [0]
        for c in range(1, P + 1):
            while len(hull) > 1 and slope(hull[-2], hull[-1]) >= slope(hull[-1], c):
                hull.pop()
            hull.append(c)
        seq = _table([None] + [slope(a, b) for a, b in zip(hull, hull[1:])
                               for _ in range(a, b)], self.label)
        if P:
            seq.last_rise = (P - hull[-2], self.log_M(P) - self.log_M(hull[-2]))
        return seq

    @staticmethod
    def from_spec(spec: SequenceSpec) -> "WeightSequence":
        if spec.d is not None:
            d = spec.d
            return WeightSequence(lambda p: d * math.log(p), label=spec.label)
        log_Ms = spec.log_Ms
        return _table([None] + [b - a for a, b in zip(log_Ms, log_Ms[1:])], spec.label)

    @staticmethod
    def gevrey(d: float) -> "WeightSequence":
        return WeightSequence.from_spec(gevrey_sequence(d))

    @staticmethod
    def from_log_values(log_Ms, label: str = "table") -> "WeightSequence":
        return WeightSequence.from_spec(table_sequence(log_Ms, label))


def _table(quot: list, label: str) -> WeightSequence:
    """The sequence with quotients log m_p = quot[p], p <= P = len(quot) - 1:
    TruncationError past P; log-convex when no quotient falls by over 1e-12."""
    P = len(quot) - 1

    def quotient(p: int) -> float:
        if p > P:
            raise TruncationError(f"tabulated sequence ends at p={P}")
        return quot[p]

    seq = WeightSequence(quotient, label, all(
        b >= a - 1e-12 for a, b in zip(quot[1:], quot[2:])))
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
    read from ``hull``: the source if log-convex, else its convex minorant over
    p <= P (pmax, or a table's last index if smaller).  The sup is the same
    over the hull; its smallest maximizer is a hull vertex, a source point."""
    source: WeightSequence
    pmax: int = 4000
    hull: WeightSequence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        src = self.source
        self.hull = src if src.log_convex else src.convex_minorant(
            min(self.pmax, src.max_p))
        self._q0 = None  # argmax of M(1), set by conjugate; a cached_property slows reads

    def eval_with_argmax(self, t: float) -> tuple:
        t = abs(float(t))
        if t == 0.0:
            # the sup formula gives 0 via the p=0 term; see module notes
            return 0.0, 0
        lt = math.log(t)
        # terms p*lt - log M_p increase while log m_p < lt, then decrease:
        # extend the cached quotients past lt (or to pmax), then bisect
        # them for the largest p with log m_p < lt (the smallest maximizer)
        seq, quot, pmax = self.hull, self.hull._quot, self.pmax
        top = min(len(quot) - 1, pmax)
        if top == 0 or quot[top] <= lt:
            # probe the last index P before extending.  A source table that
            # ends at P <= pmax has no term past P: log m_P == lt is a tie
            # that P - 1 attains, and only log m_P < lt is truncated.  Past
            # pmax the terms may still tie or grow, so log m_pmax <= lt is.
            # A hull decides on its last rise: its slope can underflow to -0.
            P = min(self.source.max_p, pmax)
            n, rise = seq.last_rise or (1, seq.log_m(P) if P else -math.inf)
            if rise < n * lt or (rise == n * lt and self.source.max_p > pmax):
                raise TruncationError(
                    f"tabulated sequence ends at p={P}" if P < pmax else
                    f"associated-weight argmax hit pmax={pmax} at t={t:g}; "
                    "increase pmax")
            while (len(quot) == 1 or quot[-1] <= lt) and len(quot) <= P:
                seq._extend(len(quot))
            top = min(len(quot) - 1, pmax)  # log m_top > lt, or a tie at end
        best_p = bisect.bisect_left(quot, lt, 1, top) - 1
        return max(0.0, best_p * lt - seq._cum[best_p]), best_p

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
    # integral of c^-1 j^-alpha from J: J / (m_J (alpha - 1))
    return J / ((alpha - 1.0) * math.exp(M.log_m(J)))


def check_sequence_conditions(M: WeightSequence, P: int) -> SequenceConditionReport:
    """Audit (M0)-(M2), (gamma_1), (M3)' and the Petzsche quotient criterion
    on indices p <= P, with tails past J = 10 P estimated by an integral bound."""
    if P < 50:
        raise PreconditionError("P must be >= 50")
    J = 10 * P
    rep = SequenceConditionReport(sequence=M.label, P=P, J=J)

    # (M0): maximal c with (c(p+1))^p <= M_p over tested p
    logc = min((M.log_M(p) / p) - math.log(p + 1) for p in range(1, P + 1))
    rep.m0 = {"c": math.exp(logc), "verdict": math.isfinite(logc)}

    # (M1): log-convexity violations
    viol = sum(1 for p in range(2, P + 1)
               if M.log_m(p) < M.log_m(p - 1) - 1e-12)
    rep.m1 = {"violations": viol, "verdict": viol == 0 and abs(M.log_M(0)) < 1e-12}

    # (M2): minimal integer H whose required prefactor trend does not grow
    def min_split(p: int) -> float:
        return min(M.log_M(q) + M.log_M(p - q) for q in range(p + 1))

    splits = [min_split(p) for p in range(P + 1)]
    m2 = {"verdict": False, "A": None, "H": None}
    for H in range(1, 1 << 12):
        r = [M.log_M(p) - p * math.log(H) - splits[p] for p in range(P + 1)]
        peak = max(r)
        tail_peak = max(r[int(0.9 * P):])
        if tail_peak < peak - 1e-12 or peak <= 1e-9:
            m2 = {"verdict": True, "A": math.exp(max(peak, 0.0)), "H": H}
            break
    rep.m2 = m2

    inv_m = [math.exp(-M.log_m(p)) for p in range(1, J + 1)]  # 1/m_1..1/m_J
    tail = _tail_bound(M, J)

    # (gamma_1): sup_p (m_p / p) * sum_{j >= p} 1/m_j
    if tail is None or not M.log_convex:
        rep.gamma1 = {"verdict": False, "sup": math.inf, "P": P, "J": J,
                      "tail_bound": None,
                      "note": "tail does not converge at a power rate > 1"
                      if M.log_convex else "non-log-convex: inconclusive"}
    else:
        suffix = list(accumulate(reversed(inv_m)))[::-1]  # suffix[p-1] = sum_{j=p}^J 1/m_j
        best, best_p = -math.inf, 1
        for p in range(1, P + 1):
            v = math.exp(M.log_m(p)) / p * (suffix[p - 1] + tail)
            if v > best:
                best, best_p = v, p
        rep.gamma1 = {"verdict": True, "sup": best, "attained_at": best_p,
                      "P": P, "J": J, "tail_bound": tail}

    # (M3)': sum_p M_{p-1}/M_p
    partial = math.fsum(inv_m)
    rep.m3prime = {"partial_sum": partial, "tail_bound": tail,
                   "verdict": tail is not None}

    # Petzsche: liminf_{j} m_{Qj}/m_j > 1 for some integer Q
    pz = {"per_Q": {}, "Q": None, "best_liminf": -math.inf}
    for Q in range(2, 9):
        lows = [math.exp(M.log_m(Q * j) - M.log_m(j))
                for j in range(max(1, P // 2), P + 1)]
        liminf = min(lows)
        pz["per_Q"][Q] = liminf
        if liminf > pz["best_liminf"]:
            pz["best_liminf"] = liminf
        if pz["Q"] is None and liminf > 1.0 + 1e-9:
            pz["Q"] = Q
    pz["verdict"] = pz["Q"] is not None
    rep.petzsche = pz
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
    n = len(r)
    tail_peak = max(r[int(0.9 * n):])
    return tail_peak < peak - 1e-9 or peak == r[0]


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
        best = None
        for kk in range(1, 65):
            r = [kk * conj(p / kk) - p * logh - M.log_M(p) for p in range(pmax + 1)]
            if _tail_not_growing(r):
                i = r.index(max(r))
                best = SandwichResult("seq<=conj", h, kk, r[i], math.exp(min(r[i], 700.0)),
                                      i, True)
                break
        if best is None:
            raise SearchExhaustedError("no k <= 64 stabilizes the ratio")
        return best

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
    vals = [aw(t) for t in ts]

    def holds(H: int) -> bool:  # monotone in H
        return all(2.0 * vals[i] <= aw(H * ts[i]) + H + 1e-9
                   for i in range(len(ts)))

    try:
        return first_true(holds, 1, H_BOUND)
    except TruncationError:
        return None
