"""Weight functions, their defining conditions, and Young conjugates.

A weight is a continuous increasing gauge omega on [0, inf) extended to the
real line by omega(x) = omega(|x|).  The Young conjugate of
phi(t) = omega(e^t) is

    phi*(s) = sup { s t - omega(e^t) : t >= 0 },

computed exactly for the built-in kinds; a table's phi is piecewise linear,
so its phi* is a max over the breakpoints (Rockafellar 1970, section 19).
The golden section is the oracle of gevrey and logpow.  The associated weight
of any weight sequence has its own exact conjugate, ``AssociatedWeight.
conjugate`` in ``sequences``: the interpolated convex hull of log M_p.
A table's omega is np.interp's formula written out, so its values are
numpy's bit for bit.  numpy is imported only where an array is built, so
every closed-form conjugate and the log-scaling constant run on the
standard library.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Callable, Optional

from .errors import PreconditionError
from .grids import DEFAULT_T_GRID, GridSpec
from .reports import Result
from .specs import gevrey_weight, label_real, logpow_weight, table_weight

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_REL_TOL = 1e-12  # golden-section stops at this width relative to max(1, b)
BRACKET_T_CAP = 1e8     # numeric phi* gives up bracketing past this t
K_BOUND = 1000          # largest (alpha) constant K accepted
C_BOUND = 1000          # largest (epsilon) constant C accepted
H_BOUND = 10 ** 6       # largest doubling constant H searched
L_BOUND = 64            # largest log-scaling constant L searched
ENVELOPE_MARGIN = 2.0 ** -40  # WeightFunction.envelope's widening


def first_true(holds: Callable[[int], bool], lo: int, hi: int) -> Optional[int]:
    """Smallest integer n in [lo, hi] with holds(n), for a predicate that is
    false then true on [lo, hi] (lo >= 1); None when holds(hi) is false.
    Probes lo, 2 lo, 4 lo, ... (the last probe clamped to hi), then bisects
    the gap between the last failing probe and the first holding one."""
    below, n = lo - 1, lo  # holds(below) is false, or below == lo - 1
    while not holds(n):
        if n >= hi:
            return None
        below, n = n, min(2 * n, hi)
    while n - below > 1:
        mid = (below + n) // 2
        if holds(mid):
            n = mid
        else:
            below = mid
    return n


class WeightFunction:
    """Evaluator for a weight omega(t), made by a checked builder of ``specs``.

    Kinds:
      gevrey(d):  omega(t) = t^(1/d), d > 0
      logpow(s):  omega(t) = (log t)^s for t > 1, else 0; s > 1
      tabulated:  monotone piecewise-linear in (log t, omega); the first value
                  below the first knot, the last segment continued past the
                  last, so phi(u) = omega(e^u) is piecewise linear
    """

    def __init__(self, kind: str, label: str, d: float = None, s: float = None,
                 knots: tuple = (), log_knots: tuple = (), values: tuple = ()):
        self.kind, self.label, self.d, self.s = kind, label, d, s
        self.knots = knots  # the t of each table row, where omega has a kink
        if kind == "tabulated":
            # the logs table_weight checked for strict increase, not recomputed
            self._log_ts, self._vals = xs, vs = log_knots, values
            # d omega / d log t of the last segment, continued past the table
            self.tail_slope = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
            # phi is linear on u >= 0 between u = 0, where it is omega(1),
            # and each log t_k > 0, where it is omega_k
            k = bisect.bisect_right(xs, 0.0)
            self._breaks = ((0.0, *xs[k:]), (self(1.0), *vs[k:]))

    # omega(x) = omega(|x|)
    def __call__(self, t: float) -> float:
        t = abs(float(t))
        if self.kind == "gevrey":
            return t ** (1.0 / self.d)
        if self.kind == "logpow":
            if t <= 1.0:
                return 0.0
            return math.log(t) ** self.s
        # tabulated: the first value below the first knot, and between knots
        # np.interp's formula, so the values are its own
        lt = math.log(t) if t else -math.inf
        xs, vs = self._log_ts, self._vals
        if not lt <= xs[-1]:
            slope = self.tail_slope
            return vs[-1] + slope * (lt - xs[-1]) if slope else vs[-1]
        j = bisect.bisect_right(xs, lt) - 1
        if j < 0 or xs[j] == lt:
            return vs[max(j, 0)]
        return (vs[j + 1] - vs[j]) / (xs[j + 1] - xs[j]) * (lt - xs[j]) + vs[j]

    def values(self, ts):
        """omega at every t of ts, equal bit for bit to [w(t) for t in ts].
        Powers and logs stay per element in libm (math, pow and **): numpy's
        vector power and log may differ from them in the last bit."""
        import numpy as np
        ts = np.abs(np.asarray(ts, dtype=float))
        if self.kind == "gevrey":  # pow mapped over the array's floats, no list
            return np.fromiter(map(pow, memoryview(ts), repeat(1.0 / self.d)), float, ts.size)
        ts = ts.tolist()
        if self.kind == "logpow":
            s, log = self.s, math.log
            return np.array([0.0 if t <= 1.0 else log(t) ** s for t in ts])
        return np.array([self(t) for t in ts], dtype=float)

    def envelope(self, ts, upper: bool):
        """Per t of ts, a bound (``functions.pruned_max``'s rule) on every computed w(t'),
        from above over |t'| <= |t| or from below over |t'| >= |t|; None for a kind not
        known to be nondecreasing.  |t| moves out by ENVELOPE_MARGIN, past libm log's
        rounding (745 2^-52 at most, normal t); the value by the margin times a table's
        span (7 ulps of it cover its interpolation), or for libm's pow (2^-50 relative
        or 2^-1074 off) as a factor, which keeps +inf, and by 2^-1070."""
        import numpy as np
        if self.kind not in ("gevrey", "logpow", "tabulated"):
            return None
        sign = 1.0 if upper else -1.0
        v = self.values(np.abs(ts) * (1.0 + sign * ENVELOPE_MARGIN))
        if self.kind == "tabulated":
            return v + sign * ENVELOPE_MARGIN * (self._vals[-1] - self._vals[0])
        return v * (1.0 + sign * ENVELOPE_MARGIN) + sign * 2.0 ** -1070

    def phi(self, t: float) -> float:
        """phi(t) = omega(e^t); overflow of e^t or of omega reported as +inf."""
        try:
            return self(math.exp(t))
        except OverflowError:
            return math.inf

    # -- constructors: the checked builders of specs ------------------------

    gevrey = staticmethod(gevrey_weight)
    logpow = staticmethod(logpow_weight)
    tabulated = staticmethod(table_weight)


def weight_values(w: WeightFunction, ts, flag: str, scale: float = 1.0,
                  scale_flag: str = None):
    """scale * w.values(ts), refused with a PreconditionError where a value
    overflows a float: naming ``flag`` where omega does, and ``scale_flag``
    where scale * omega does at a finite omega."""
    import numpy as np
    try:
        vals = w.values(ts)
        with np.errstate(over="ignore"):
            out = scale * vals
        if not np.isinf(out[np.isfinite(vals)]).any():
            return out
        flag, what = scale_flag, f"{scale:g} x {w.label}"
    except OverflowError:
        what = w.label
    raise PreconditionError(f"{flag}: {what} overflows a float at |t| <= "
                            f"{float(np.abs(ts).max()):g}")


# conjugate methods of each weight kind, default first; other kinds: numeric-sup
METHODS = {"gevrey": ("closed-form", "numeric-sup"),
           "logpow": ("closed-form", "numeric-sup"),
           "tabulated": ("closed-form",)}


class ConjugateEvaluator:
    """Young conjugate phi*(s) with a per-s cache.

    method "closed-form":
        gevrey(d):  phi*(s) = s d log(s d / e)   if s d >= 1
                    phi*(s) = -1                 if s d <= 1 (maximizer t = 0)
        logpow(q):  phi(t) = t^q, so phi*(s) = (q - 1) (s / q)^(q / (q - 1))
        tabulated:  the max of s u - phi(u) over phi's breakpoints u >= 0 for
                    s <= b, the tail slope; refused (phi* = +inf) past b
    method "numeric-sup" maximizes t -> s t - omega(e^t), concave when phi
    is convex, by geometric bracketing plus golden-section refinement.
    """

    def __init__(self, weight: WeightFunction, method: str = None):
        methods = METHODS.get(weight.kind, ("numeric-sup",))
        method = method or methods[0]
        if method not in methods:
            raise PreconditionError(
                f"--method: {method} is not available for {weight.kind} "
                f"weights, only {' and '.join(methods)}")
        self.weight = weight
        self.method = method
        self._cache: dict = {}

    def __call__(self, s: float) -> float:
        if not s >= 0:  # also rejects NaN
            raise PreconditionError(f"conjugate argument must be >= 0, got {s}")
        v = self._cache.get(s)
        if v is None:
            if self.method == "closed-form":
                v = self._closed_form(s)
            else:
                v = self._numeric_sup(s)
            self._cache[s] = v
        return v

    def _closed_form(self, s: float) -> float:
        w = self.weight
        if w.kind == "tabulated":
            if s > w.tail_slope:  # s u - phi(u) grows without bound
                raise PreconditionError(
                    f"phi*({label_real(s)}) of {w.label} is +inf: s exceeds "
                    f"the tail slope b = {label_real(w.tail_slope)}")
            return max(s * u - phi for u, phi in zip(*w._breaks))
        if w.kind == "logpow":  # the maximizer t = (s/q)^(1/(q-1)) is interior
            try:
                return (w.s - 1.0) * (s / w.s) ** (w.s / (w.s - 1.0))
            except OverflowError:
                raise PreconditionError(f"phi*({s:g}) of {w.label} overflows a float") from None
        sd = s * w.d
        if sd <= 1.0:
            return -1.0
        return sd * (math.log(sd) - 1.0)

    def _numeric_sup(self, s: float) -> float:
        g = lambda t: s * t - self.weight.phi(t)  # -inf where phi overflows
        # expand until the objective has turned down
        hi = 1.0
        while g(hi) >= g(hi / 2.0):
            hi *= 2.0
            if hi > BRACKET_T_CAP:
                raise PreconditionError(
                    f"no bracket for s={s:g} below t={BRACKET_T_CAP:g}; "
                    "weight appears to violate condition (gamma)")
        a, b = 0.0, hi
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = g(c), g(d)
        while (b - a) > GOLDEN_REL_TOL * max(1.0, b):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = g(d)
        if g(b) == -math.inf:  # the turn lies past the overflow of phi
            raise PreconditionError(
                f"the maximizer for s={s:g} lies past t={a:g}, where "
                "omega(e^t) overflows a float")
        t_star = 0.5 * (a + b)
        return max(g(t_star), g(0.0))


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

@dataclass
class ConditionRecord:
    condition: str
    verdict: bool
    witness: Optional[dict] = None
    detail: dict = field(default_factory=dict)


@dataclass
class WeightConditionReport(Result):
    weight: str
    grid: str
    alpha: ConditionRecord
    beta: ConditionRecord
    gamma: ConditionRecord
    delta: ConditionRecord
    epsilon: ConditionRecord
    doubling: ConditionRecord

    def records(self) -> list:
        return [self.alpha, self.beta, self.gamma, self.delta,
                self.epsilon, self.doubling]

    @property
    def verdict(self) -> bool:
        return all(r.verdict for r in self.records())

    def to_dict(self) -> dict:
        return {"weight": self.weight, "grid": self.grid,
                "conditions": [asdict(r) for r in self.records()]}


def _integral(rows: list) -> tuple:
    """(value, abs_error, ok) of a nonnegative integrand from the QUADPACK
    (value, abs_error, ier) rows of its pieces: not ok when one reports
    ier != 0 (e.g. a divergent integral) or a piece is negative."""
    total, err, ok = 0.0, 0.0, True
    for v, e, ier in rows:
        total, err, ok = total + v, err + e, ok and ier == 0 and v >= 0.0
    return total, err, ok


def check_weight_conditions(w: WeightFunction, grid: GridSpec = None) -> WeightConditionReport:
    """Numerically audit Definition-level conditions (alpha)-(epsilon) plus the
    doubling inequality 2 omega(t) <= omega(H t) + H.

    Witness constants are the smallest integers that satisfy the inequality at
    every grid point; failures are recorded in the report, never raised.  A
    weight that overflows a float on the way cannot be audited in floats:
    that raises PreconditionError naming --weight.
    """
    if grid is None:
        grid = DEFAULT_T_GRID
    if not grid.hi > 1.0:  # delta samples t on [0, log hi], epsilon y on [1e-2, hi]
        raise PreconditionError(f"--grid: the weight audit samples t past 1, so "
                                f"grid {grid.spec_string()} needs hi > 1")
    try:
        return _audit_weight(w, grid)
    except OverflowError:
        raise PreconditionError(
            f"--weight: omega of {w.label} overflows a float on the audit of "
            f"grid {grid.spec_string()}") from None


def _audit_weight(w: WeightFunction, grid: GridSpec) -> WeightConditionReport:
    import numpy as np
    ts = np.array([0.0, *grid.points()])
    om = w.values(ts)

    # (alpha): omega(2t) <= K (omega(t) + 1)
    om2 = w.values(2.0 * ts)
    k_req = math.ceil(np.max(om2 / (om + 1.0)) - 1e-12)
    alpha = ConditionRecord(
        "alpha", k_req <= K_BOUND,
        witness={"K": int(k_req)} if k_req <= K_BOUND else None,
        detail={"max_ratio": float(np.max(om2 / (om + 1.0)))})

    # (beta): integral of omega(t)/(1+t^2), split at t = 1 and at a table's
    # knots.  Past a table's last cut T, dqagie's map of [T, inf) returns ~0
    # for a tail ~ omega(T)/T; t = T/v gives (1/T) int_0^1 omega(T/v) /
    # (1 + (v/T)^2) dv instead, an integrand the size of omega.  (epsilon)'s
    # int_1^inf omega(y t)/t^2 dt is split at a table's kinks t = t_k / y up to
    # T = t_K / y, past which omega(y t) = c + b log t and the integral is
    # (omega(y T) + b)/T.  One QUADPACK integral per gap, all in one batch
    ys = GridSpec("log", max(grid.lo, 1e-2), grid.hi, 30).points()
    cuts = sorted({1.0, *w.knots})
    top = cuts[-1]
    beta_pts = [[0.0, *cuts], [0.0, 1.0]] if w.knots else [[0.0, 1.0, np.inf]]
    eps_tops = [max(1.0, w.knots[-1] / y) if w.knots else np.inf for y in ys]
    splits = beta_pts + [[1.0, *(t / y for t in w.knots if 1.0 < t / y < ty), ty]
                         for y, ty in zip(ys, eps_tops)]
    nb, gaps = len(beta_pts), [len(pts) - 1 for pts in splits]
    # per piece: 0 beta, 1 a table's tail, 2 epsilon; and the y of omega(y t)
    kind = np.repeat([0, 1, 2], [gaps[0], sum(gaps[1:nb]), sum(gaps[nb:])])
    scale = np.repeat([1.0] * nb + ys, gaps)

    def integrand(t, i):
        # each value is its piece's scalar formula, bit for bit: the tail's
        # (v/T)**2 stays a per-element pow, which x*x does not always equal
        k, tt = kind[i], t * t
        tail = k == 1
        den = np.where(k == 2, tt, 1.0 + tt)
        den[tail] = [1.0 + (v / top) ** 2 for v in t[tail].tolist()]
        return w.values(np.where(tail, top / t, scale[i] * t)) / den
    from . import quadpack  # lazy: only weight-check integrates
    rows = iter(quadpack.quad_many(
        integrand, [(a, b) for pts in splits for a, b in zip(pts, pts[1:])], limit=200))
    folds = [_integral([next(rows) for _ in pts[1:]]) for pts in splits]
    beta_val, beta_err, beta_ok = folds[0]
    if w.knots:
        v2, e2, ok2 = folds[1]
        beta_val, beta_err, beta_ok = beta_val + v2 / top, beta_err + e2 / top, beta_ok and ok2
    beta = ConditionRecord("beta", beta_ok and math.isfinite(beta_val)
                           and beta_err < 1e-8 * max(1.0, beta_val),
                           witness={"integral": float(beta_val)},
                           detail={"abs_error": float(beta_err)})

    # (gamma): log(1+t^2) = o(omega(t)) -- ratio trend only
    tail = [t for t in ts.tolist() if t >= 10.0]
    samples = [(t, w(t) / math.log1p(t * t)) for t in tail[:: max(1, len(tail) // 12)]]
    ratios = [r for _, r in samples]
    gamma = ConditionRecord("gamma", bool(ratios and ratios[-1] > ratios[0]),
                            detail={"ratio_samples": samples,
                                    "note": "little-o not certifiable from finite samples"})

    # (delta): midpoint convexity of phi(t) = omega(e^t) on a t-grid
    tgrid = GridSpec("lin", 0.0, math.log(grid.hi), 400).points()
    ph = np.array([w.phi(t) for t in tgrid])
    mid = np.array([w.phi(0.5 * (tgrid[i] + tgrid[i + 2])) for i in range(len(tgrid) - 2)])
    viol = int(np.sum(mid > 0.5 * (ph[:-2] + ph[2:]) + 1e-9 * (1.0 + np.abs(ph[:-2]) + np.abs(ph[2:]))))
    delta = ConditionRecord("delta", viol == 0, detail={"violations": viol})

    # (epsilon): int_1^inf omega(y t)/t^2 dt <= C omega(y) + C, integrated above
    c_req, clean = 0.0, True
    for y, ty, (val, _, ok) in zip(ys, eps_tops, folds[nb:]):
        if w.knots:
            val += (w(y * ty) + w.tail_slope) / ty
        c_req = max(c_req, val / (w(y) + 1.0))
        clean = clean and ok
    c_int = math.ceil(c_req - 1e-12)
    eps_ok = clean and c_int <= C_BOUND
    epsilon = ConditionRecord("epsilon", eps_ok,
                              witness={"C": int(c_int)} if eps_ok else None,
                              detail={"max_ratio": float(c_req)})

    # doubling: 2 omega(t) <= omega(H t) + H; monotone in H.  The largest t
    # is tried alone first: a failing H mostly fails there
    t_max, om_max = ts[-1], om[-1]
    h_witness = first_true(
        lambda H: 2.0 * om_max <= w(H * t_max) + H + 1e-12
        and bool(np.all(2.0 * om <= w.values(H * ts) + H + 1e-12)),
        1, H_BOUND)
    doubling = ConditionRecord(
        "doubling", h_witness is not None,
        witness={"H": int(h_witness)} if h_witness is not None else None,
        detail={"search_bound": H_BOUND})

    return WeightConditionReport(weight=w.label, grid=grid.spec_string(),
                                 alpha=alpha, beta=beta, gamma=gamma,
                                 delta=delta, epsilon=epsilon, doubling=doubling)


# ---------------------------------------------------------------------------
# Log-scaling constant
# ---------------------------------------------------------------------------

def find_log_scaling_constant(w: WeightFunction, grid: GridSpec = None) -> int:
    """Smallest integer L with omega(e t) <= L (1 + omega(t)) on the grid."""
    if grid is None:
        grid = DEFAULT_T_GRID
    ratios = [w(math.e * t) / (1.0 + w(t)) for t in [0.0, *grid.points()]]
    L = math.ceil(max(ratios) - 1e-12)
    if L > L_BOUND:
        raise PreconditionError(f"no L <= {L_BOUND} scales the weight (max ratio {max(ratios):g})")
    return max(1, L)


def verify_log_scaling_constant(w: WeightFunction, L: int,
                                grid: GridSpec = None) -> None:
    """Raise with a witness t if omega(e t) <= L (1 + omega(t)) fails."""
    if grid is None:
        grid = DEFAULT_T_GRID
    for t in [0.0, *grid.points()]:
        if w(math.e * t) > L * (1.0 + w(t)) + 1e-9:
            raise PreconditionError(
                f"--L: L={L} invalid: omega(e*t)={w(math.e * t):g} > "
                f"L(1+omega(t))={L * (1.0 + w(t)):g} at t={t:g}")
