"""Signed log-domain arithmetic.

Growth-scale quantities in this package (conjugate exponentials, A^j j!,
inequality-chain factors) overflow doubles long before the index ranges of
interest, so they are carried as a sign plus the natural log of the absolute
value.  Products and integer powers are exact in this representation; signed
sums factor out the largest magnitude and add the rest in linear space by
``math.fsum``, which is also where cancellation can occur.  A log of +inf is
a magnitude past the float range: such terms of one sign sum to it, and of
opposite signs have no sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import PreconditionError

LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class LogReal:
    """A real number stored as ``sign * exp(log_abs)``."""

    sign: int
    log_abs: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if self.sign == 0 and self.log_abs != LOG_ZERO:
            object.__setattr__(self, "log_abs", LOG_ZERO)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogReal":
        return LogReal(0, LOG_ZERO)

    @staticmethod
    def one() -> "LogReal":
        return LogReal(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "LogReal":
        x = float(x)
        if x == 0.0:
            return LogReal.zero()
        return LogReal(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(sign: int, log_abs: float) -> "LogReal":
        if sign == 0 or log_abs == LOG_ZERO:
            return LogReal.zero()
        return LogReal(sign, log_abs)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.sign == 0

    def __bool__(self) -> bool:
        return self.sign != 0

    def to_float(self) -> float:
        """Linear-space value; overflows to +-inf silently."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "LogReal") -> "LogReal":
        if self.sign == 0 or other.sign == 0:
            return LogReal.zero()
        return LogReal(self.sign * other.sign, self.log_abs + other.log_abs)

    def pow_int(self, n: int) -> "LogReal":
        if n < 0:
            raise ValueError("negative powers not supported")
        if n == 0:
            return LogReal.one()
        if self.sign == 0:
            return LogReal.zero()
        sign = 1 if (self.sign > 0 or n % 2 == 0) else -1
        return LogReal(sign, n * self.log_abs)

    def __add__(self, other: "LogReal") -> "LogReal":
        return signed_log_sum([self, other])


def log_sum_exp(logs: Iterable[float]) -> float:
    """Two-pass max-shifted sum of nonnegative log-domain terms."""
    logs = list(logs)
    if not logs:
        return LOG_ZERO
    m = max(logs)
    if m == LOG_ZERO or math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in logs))


def signed_log_sum(terms: Iterable[LogReal]) -> LogReal:
    """Deterministic two-pass signed sum.

    The max log magnitude is factored out and the mantissas are accumulated
    with compensated summation, so sign cancellation between terms of
    comparable size is handled in linear space.  Terms at log +inf of one
    sign sum to that sign at +inf; of opposite signs they raise
    ``PreconditionError``.
    """
    terms = [t for t in terms if t.sign != 0]
    if not terms:
        return LogReal.zero()
    m = max(t.log_abs for t in terms)
    if m == math.inf:
        signs = {t.sign for t in terms if t.log_abs == math.inf}
        if len(signs) > 1:
            raise PreconditionError("terms past the float range of opposite "
                                    "signs have no sum")
        return LogReal(signs.pop(), math.inf)
    total = math.fsum(t.sign * math.exp(t.log_abs - m) for t in terms)
    if total == 0.0:
        return LogReal.zero()
    return LogReal(1 if total > 0 else -1, m + math.log(abs(total)))
