"""Grid specifications for sampling sweeps.

Grammar used by the CLI and config files:

    log:<lo>,<hi>,<n>   n points log-spaced on [lo, hi], lo > 0
    lin:<lo>,<hi>,<n>   n points linearly spaced on [lo, hi]

Points are floats from np.linspace's formula, i (hi - lo)/(n - 1) + lo, hi
last: a lin grid equals np.linspace bit for bit.  A log grid raises 10 to
that formula on math.log10 of its ends with libm's pow, not numpy's SIMD
power, so its points do not depend on the CPU.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .errors import PreconditionError


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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
            self._iter()  # computes a log grid's top point 10^log10(hi) eagerly
        except OverflowError:
            raise PreconditionError(f"grid {self.spec_string()}: its top point "
                                    "10^log10(hi) overflows a float; lower its hi") from None

    def _iter(self):
        """The points one at a time (see the module notes)."""
        log, div = self.kind == "log", self.n - 1
        lo, hi = (math.log10(self.lo), math.log10(self.hi)) if log else (self.lo, self.hi)
        step = (hi - lo) / div
        if log:
            return chain((10.0 ** (i * step + lo) for i in range(div)), (10.0 ** hi,))
        if not step:  # a subnormal span: np.linspace scales i/div instead
            return chain((i / div * (hi - lo) + lo for i in range(div)), (hi,))
        return chain((i * step + lo for i in range(div)), (hi,))

    def points(self) -> list:
        return list(self._iter())

    def symmetric_points(self):
        """Grid mirrored through 0, with 0 included once, as an array: lo >= 0."""
        if self.lo < 0:
            raise PreconditionError(
                f"grid {self.spec_string()} is mirrored through 0, so it needs lo >= 0")
        import numpy as np
        p = np.fromiter(self._iter(), float, self.n)
        if self.lo == 0:  # the first point is 0 itself
            p = p[1:]
        return np.concatenate([-p[::-1], [0.0], p])

    def scaled(self, factor: float) -> "GridSpec":
        """The grid with the same lo and more points at about the original
        step, so hi grows about ``factor``-fold.  The step is recomputed from
        the new hi, so the original points need not stay on it bit for bit."""
        if factor <= 1.0:
            raise PreconditionError("scale factor must exceed 1")
        if self.kind == "lin":
            step = (self.hi - self.lo) / (self.n - 1)
            extra = max(1, round(self.hi * (factor - 1.0) / step))
        else:
            step = (math.log(self.hi) - math.log(self.lo)) / (self.n - 1)
            extra = max(1, round(math.log(factor) / step))
        n = self.n + extra
        if self.kind == "lin":
            hi = self.lo + (n - 1) * step
        else:
            hi = self.lo * _exp((n - 1) * step)
            if not math.isfinite(hi):  # exp overflowed; lo < 1 may undo it
                hi = _exp(math.log(self.lo) + (n - 1) * step)
        if not math.isfinite(hi):
            raise PreconditionError(
                f"grid {self.spec_string()} extended {factor:g}x overflows "
                "a float; lower its hi")
        return GridSpec(self.kind, self.lo, hi, n)

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
