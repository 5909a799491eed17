"""Grid specifications for sampling sweeps.

Grammar used by the CLI and config files:

    log:<lo>,<hi>,<n>   n points log-spaced on [lo, hi], lo > 0
    lin:<lo>,<hi>,<n>   n points linearly spaced on [lo, hi]
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

    def points(self):
        import numpy as np  # at call time: parsing a grid loads no numpy
        if self.kind == "log":
            return np.logspace(np.log10(self.lo), np.log10(self.hi), self.n)
        return np.linspace(self.lo, self.hi, self.n)

    def symmetric_points(self):
        """Grid mirrored through 0 (with 0 included)."""
        import numpy as np
        p = self.points()
        return np.concatenate([-p[::-1], [0.0], p])

    def scaled(self, factor: float) -> "GridSpec":
        """Extend hi by ``factor`` while keeping the point spacing, so the
        original points stay on the enlarged grid (stability comparisons do
        not see witnesses move between grid cells)."""
        import numpy as np
        if factor <= 1.0:
            raise PreconditionError("scale factor must exceed 1")
        if self.kind == "lin":
            step = (self.hi - self.lo) / (self.n - 1)
            extra = max(1, round(self.hi * (factor - 1.0) / step))
        else:
            step = (np.log(self.hi) - np.log(self.lo)) / (self.n - 1)
            extra = max(1, round(np.log(factor) / step))
        n = self.n + extra
        if self.kind == "lin":
            hi = self.lo + (n - 1) * step
        else:
            with np.errstate(over="ignore"):
                hi = float(self.lo * np.exp((n - 1) * step))
                if not math.isfinite(hi):  # exp overflowed; lo < 1 may undo it
                    hi = float(np.exp(np.log(self.lo) + (n - 1) * step))
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


DEFAULT_T_GRID = GridSpec("log", 1e-2, 1e8, 2000)
