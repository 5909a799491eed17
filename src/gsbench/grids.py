"""Grid specifications for sampling sweeps.

Grammar used by the CLI and config files:

    log:<lo>,<hi>,<n>   n points log-spaced on [lo, hi], lo > 0
    lin:<lo>,<hi>,<n>   n points linearly spaced on [lo, hi]

Points are floats from np.linspace's formula, i (hi - lo)/(n - 1) + lo, hi
last: a lin grid equals np.linspace bit for bit.  A log grid raises 10 to
that formula on math.log10 of its ends with libm's pow, not numpy's SIMD
power, so its points do not depend on the CPU.  ``points`` makes them one
Python float at a time, with no numpy; the mirrored grids take the formula
over a numpy int array (the same product, then sum, per point) and one
libm pow per point of a log grid.  The box of a stability
check extends a grid past hi by the same formula at i >= n, so the grid's
points stay the first n of the extension bit for bit.  Points must strictly
increase: a grid whose span is too narrow for its n in floats is refused
where its points are made.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .errors import PreconditionError


@dataclass(frozen=True)
class GridSpec:
    kind: str  # "log" | "lin"
    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("log", "lin"):
            raise PreconditionError(f"unknown grid kind {self.kind!r}")
        if self.n < 2:
            raise PreconditionError("grid needs at least 2 points")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise PreconditionError("grid endpoints must be finite")
        if self.kind == "log" and self.lo <= 0:
            raise PreconditionError("log grid requires lo > 0")
        if self.hi <= self.lo:
            raise PreconditionError("grid requires hi > lo")
        if not math.isfinite(self.hi - self.lo):
            raise PreconditionError("grid span hi - lo overflows a float")
        try:
            self._axis()  # computes a log grid's top point 10^log10(hi)
        except OverflowError:
            raise PreconditionError(f"grid {self.spec_string()}: its top point "
                                    "10^log10(hi) overflows a float; lower its hi") from None

    def _axis(self) -> tuple:
        """(at, top): at(i) = i * step + lo, the grid's formula (module notes)
        for an int i or an int array, on the log10 axis for a log grid, and
        top the last point, hi or 10^log10(hi)."""
        log = self.kind == "log"
        lo, hi = (math.log10(self.lo), math.log10(self.hi)) if log else (self.lo, self.hi)
        step = (hi - lo) / (self.n - 1)
        return (lambda i: i * step + lo), 10.0 ** hi if log else hi

    def points(self) -> list:
        """The grid's points as Python floats, with no numpy."""
        at, top = self._axis()
        if self.kind == "log":
            at = lambda i, e=at: 10.0 ** e(i)
        pts = [*map(at, range(self.n - 1)), top]
        if not all(a < b for a, b in zip(pts, pts[1:])):
            self._refuse_repeats()
        return pts

    def _refuse_repeats(self):
        raise PreconditionError(
            f"grid {self.kind}:{self.lo!r},{self.hi!r},{self.n}: its points do not "
            "strictly increase in floats; widen the grid or lower its n")

    def symmetric_points(self):
        """Grid mirrored through 0, with 0 included once, as an array: lo >= 0."""
        return self._mirrored()

    def extended_symmetric_points(self) -> tuple:
        """(xs, pad): the stability checks' box, the symmetric points extended
        past +-hi by pad points of the grid's formula, so xs[pad:-pad] is
        symmetric_points() bit for bit; pad >= 1 grows hi about BOX_GROWTH-fold."""
        lin = self.kind == "lin"
        step = (self.hi - self.lo if lin else math.log(self.hi) - math.log(self.lo)) / (self.n - 1)
        # a log grid's ends can share one natural log, but not one log10:
        # log:8.959179882484833,8.959179882484834,2 has two points and step 0
        grow = self.hi * (BOX_GROWTH - 1) if lin else math.log(BOX_GROWTH)
        pad = max(1, round(grow / step)) if step else 1
        return self._mirrored(pad), pad

    def _mirrored(self, pad: int = 0):
        """The grid's points and pad more of its formula, mirrored through 0,
        with 0 once.  The grid's own points are checked before any past hi is
        made."""
        if self.lo < 0:
            raise PreconditionError(
                f"grid {self.spec_string()} is mirrored through 0, so it needs lo >= 0")
        import numpy as np
        p = self.points_at(np.arange(self.n))
        if not (p[1:] > p[:-1]).all():
            self._refuse_repeats()
        try:
            p = np.append(p, self.points_at(np.arange(self.n, self.n + pad)))
        except OverflowError:  # a log grid's 10 ** x past hi
            p = [math.inf]
        if not math.isfinite(p[-1]):  # only a point past hi can be
            raise PreconditionError(f"grid {self.spec_string()} extended "
                                    f"{BOX_GROWTH:g}x overflows a float; lower its hi")
        if self.lo == 0:  # the first point is 0 itself
            p = p[1:]
        return np.concatenate([-p[::-1], [0.0], p])

    def points_at(self, i):
        """points()[i] for the int array i, bit for bit, and the formula past
        hi where i >= n: one libm pow per point of a log grid."""
        import numpy as np
        at, top = self._axis()
        last = i == self.n - 1  # top, not the formula's point
        with np.errstate(over="ignore"):  # a lin point past hi: _mirrored checks
            p = at(np.where(last, 0, i))
        if self.kind == "log":
            p = np.fromiter(map(pow, repeat(10.0), memoryview(p)), float, len(p))
        p[last] = top
        return p

    def symmetric_points_at(self) -> tuple:
        """(count, at): len(symmetric_points()) and at(k), its points at the
        int array k, bit for bit.  A log grid whose increase is certified makes
        only those: exponents above -300 that step by more than POW_MARGIN give
        increasing points, libm's pow rounding (2^-50 relative) included as in
        ``functions.pruned_max``'s rule, and the last formula point is below top."""
        import numpy as np
        n = self.n  # a log grid's lo > 0: 0 is only the middle point
        e = self._axis()[0](np.arange(n - 1))
        end = self.points_at(np.array([n - 2, n - 1]))
        if self.kind == "lin" or not (e[0] > -300 and (np.diff(e) > POW_MARGIN).all()
                                      and end[0] < end[1]):
            xs = self.symmetric_points()
            return len(xs), xs.__getitem__
        return 2 * n + 1, lambda k: np.copysign(np.where(
            k == n, 0.0, self.points_at(np.maximum(np.abs(k - n) - 1, 0))), k - n)

    def spec_string(self) -> str:
        return f"{self.kind}:{self.lo:g},{self.hi:g},{self.n}"

    @staticmethod
    def parse(spec: str) -> "GridSpec":
        try:
            kind, rest = spec.split(":", 1)
            lo, hi, n = rest.split(",")
            return GridSpec(kind, float(lo), float(hi), int(n))
        except ValueError as exc:
            raise PreconditionError(f"bad grid spec {spec!r}") from exc


DEFAULT_T_GRID = GridSpec("log", 1e-2, 1e8, 2000)  # t of the weight audits
DEFAULT_X_GRID = GridSpec("lin", 0.05, 8.0, 160)   # x of the seminorm boxes, mirrored
BOX_GROWTH = 1.25  # a stability box's size over its grid's, in hi and every order
POW_MARGIN = 2.0 ** -48  # exponent step certifying a log grid's increase
