"""Weight sequences M_p, their conditions, and the associated weight.

Everything is carried as log M_p.  The builtin Gevrey-type sequence
M_p = (p!)^d is generated from its quotients log m_p = d log p by cumulative
summation, so the quotient identity m_p = p^d is exact in log domain.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PreconditionError, SearchExhaustedError, TruncationError
from .grids import GridSpec
from .reports import Result
from .weights import (H_BOUND, ConjugateEvaluator, WeightFunction,
                      first_true, parse_real, read_table)

SANDWICH_ASSOC_PMAX = 500000  # associated-weight p cap in sandwich_check
DOUBLING_ASSOC_PMAX = 20000   # associated-weight p cap in doubling_from_sequence


class WeightSequence:
    """Log-domain generator of M_p with quotients m_p = M_p / M_{p-1}."""

    def __init__(self, log_quotient, label: str = "sequence",
                 log_convex: bool = True):
        # log_quotient(p) = log m_p for p >= 1
        self._log_quotient = log_quotient
        self._cum = [0.0]  # log M_0 = 0
        self._quot = [None]  # log m_p at index p; there is no m_0
        self.label = label
        self.log_convex = log_convex

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

    @staticmethod
    def gevrey(d: float) -> "WeightSequence":
        if d <= 0:
            raise PreconditionError("gevrey sequence requires d > 0")
        seq = WeightSequence(lambda p: d * math.log(p),
                             label=f"gevreyseq:d={d:g}")
        seq.d = d
        return seq

    @staticmethod
    def from_log_values(log_Ms, label: str = "table") -> "WeightSequence":
        log_Ms = [float(v) for v in log_Ms]
        if not log_Ms or abs(log_Ms[0]) > 1e-12:
            raise PreconditionError("table must start with log M_0 = 0")

        def quot(p: int) -> float:
            if p >= len(log_Ms):
                raise TruncationError(f"tabulated sequence ends at p={len(log_Ms) - 1}")
            return log_Ms[p] - log_Ms[p - 1]

        diffs = [log_Ms[i] - log_Ms[i - 1] for i in range(1, len(log_Ms))]
        convex = all(diffs[i] >= diffs[i - 1] - 1e-12 for i in range(1, len(diffs)))
        seq = WeightSequence(quot, label=label, log_convex=convex)
        seq.max_p = len(log_Ms) - 1
        return seq

    @staticmethod
    def from_csv(path: str) -> "WeightSequence":
        rows = sorted(read_table(path, ("p",)))
        if [p for p, _ in rows] != list(range(len(rows))):
            raise PreconditionError("sequence table must cover p = 0..P contiguously")
        return WeightSequence.from_log_values([v for _, v in rows])


def parse_sequence(spec: str) -> WeightSequence:
    """Sequence mini-language: gevreyseq:d=2 | table:file.csv"""
    head, _, rest = spec.partition(":")
    if head == "gevreyseq":
        key, _, val = rest.partition("=")
        if key != "d":
            raise PreconditionError(f"gevreyseq spec needs d=<real>, got {spec!r}")
        return WeightSequence.gevrey(parse_real(val, spec))
    if head == "table":
        return WeightSequence.from_csv(rest)
    raise PreconditionError(f"unknown sequence spec {spec!r}")


# ---------------------------------------------------------------------------
# Associated weight M(t) = sup_p log(t^p / M_p)
# ---------------------------------------------------------------------------

@dataclass
class AssociatedWeight:
    source: WeightSequence
    pmax: int = 4000

    def eval_with_argmax(self, t: float) -> tuple:
        t = abs(float(t))
        if t == 0.0:
            # the sup formula gives 0 via the p=0 term; see module notes
            return 0.0, 0
        lt = math.log(t)
        if self.source.log_convex:
            # terms p*lt - log M_p increase while log m_p < lt, then decrease:
            # extend the cached quotients past lt (or to pmax), then bisect
            # them for the largest p with log m_p < lt (the smallest maximizer)
            src, quot = self.source, self.source._quot
            while (len(quot) == 1 or quot[-1] <= lt) and len(quot) <= self.pmax:
                src._extend(len(quot))
            top = len(quot) - 1  # log m_top > lt, or top >= pmax
            if top >= self.pmax:
                top = self.pmax
                if src.log_m(top) <= lt:
                    raise TruncationError(
                        f"associated-weight argmax hit pmax={self.pmax} at "
                        f"t={t:g}; increase pmax")
            best_p = bisect.bisect_left(quot, lt, 1, top) - 1
            return max(0.0, best_p * lt - src._cum[best_p]), best_p
        best, best_p = 0.0, 0  # p = 0 term is always 0
        for p in range(1, self.pmax + 1):
            v = p * lt - self.source.log_M(p)
            if v > best:
                best, best_p = v, p
        if best_p == self.pmax:
            raise TruncationError(
                f"associated-weight argmax hit pmax={self.pmax} at t={t:g}; "
                "increase pmax")
        return best, best_p

    def __call__(self, t: float) -> float:
        return self.eval_with_argmax(t)[0]

    def as_weight_function(self) -> WeightFunction:
        return WeightFunction.custom(self.__call__,
                                     label=f"assoc({self.source.label})")


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


def check_sequence_conditions(M: WeightSequence, P: int = 200,
                              J: int = None) -> SequenceConditionReport:
    """Audit (M0)-(M2), (gamma_1), (M3)' and the Petzsche quotient criterion
    on indices p <= P, with tails past J estimated by an integral bound."""
    if P < 50:
        raise PreconditionError("P must be >= 50")
    if J is None:
        J = 10 * P
    if J < 10 * P:
        raise PreconditionError("J must be >= 10 P")
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
        suffix = np.cumsum(inv_m[::-1])[::-1]  # suffix[p-1] = sum_{j=p}^J 1/m_j
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
    aw = AssociatedWeight(M, pmax=SANDWICH_ASSOC_PMAX)
    conj = ConjugateEvaluator(aw.as_weight_function())

    if direction == "seq<=conj":
        if h is None or not 0.0 < h < 1.0:
            raise PreconditionError("direction seq<=conj requires h in (0,1)")
        logh = math.log(h)
        best = None
        for kk in range(1, 65):
            r = [kk * conj(p / kk) - p * logh - M.log_M(p) for p in range(pmax + 1)]
            if _tail_not_growing(r):
                i = int(np.argmax(r))
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
                i = int(np.argmax(r))
                return SandwichResult("conj<=seq", hh, k, r[i],
                                      math.exp(min(r[i], 700.0)), i, True)
            hh /= 2.0
        raise SearchExhaustedError("halving h did not stabilize the ratio")

    raise PreconditionError(f"unknown direction {direction!r}")


def doubling_from_sequence(M: WeightSequence, grid: GridSpec = None) -> Optional[int]:
    """Minimal integer H <= H_BOUND with 2 M(t) <= M(H t) + H on the grid, or None."""
    if grid is None:
        grid = GridSpec("log", 1e-2, 1e6, 400)
    aw = AssociatedWeight(M, pmax=DOUBLING_ASSOC_PMAX)
    ts = np.concatenate([[0.0], grid.points()])
    vals = [aw(t) for t in ts]

    def holds(H: int) -> bool:  # monotone in H
        return all(2.0 * vals[i] <= aw(H * ts[i]) + H + 1e-9
                   for i in range(len(ts)))

    try:
        return first_true(holds, 1, H_BOUND)
    except TruncationError:
        return None
