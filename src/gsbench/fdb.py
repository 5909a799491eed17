"""Faa di Bruno composition of jets by the partial Bell-polynomial recurrence.

For h(psi(x)) at a point x0, with h's jet taken at psi(x0),

    (h o psi)^(n) = sum_k h^(k) B(n, k),

where the partial Bell polynomials B(n, k) of psi'(x0), psi''(x0), ... obey

    B(0, 0) = 1,   B(n, k) = sum_i C(n-1, i-1) psi^(i) B(n-i, k-1)

(Comtet, *Advanced Combinatorics*, 1974, section 3.3).  A table of B(n, k)
for 0 <= k <= n <= J costs O(J^3) terms; orders i with psi^(i) = 0 are
skipped, so an inner jet with a bounded number of nonzero derivatives (a
polynomial such as x^2) costs O(J^2).  The table depends on psi alone and is
shared by every outer jet h and every order n.

One recurrence serves both jet kinds (``bell_rows``, ``compose_jet``): it
multiplies and sums whatever entries the jets hold.  Exact rationals sum by
``sum``; signed log magnitudes (``LogReal``) by ``signed_log_sum``, one
max-shifted ``math.fsum`` per entry with libm's exp and log, so their bits
do not depend on numpy or the SIMD level, and nothing here imports numpy.
The diagonal B(n, n) = psi'^n has one live term per order, so compactness
reads it with no table (``chains``).

Jets compose here one pair at a time, for the ``fdb`` command and as the
tests' oracle; log jets' sums of mixed-sign terms lose digits with J (3.9e-8
in log on gaussian o sqrt1px2 at J = 24).  Composed tables on a grid run
each outer family's program of series steps instead
(``functions.composed_taylor_table``).

Composition never enumerates partitions: ``enumerate_partitions`` lists one
order's multi-indices (k_1, ..., k_j), sum(l k_l) = j, for the partition
count and the tests' partition-sum oracle.  ``identity_table`` reads the
summation identities for j <= jmax off the coefficients of jmax! e^(y x/(1-x)),
whose rows the exp rule r U_r = y sum_i i U_(r-i) fills by running sums; each
division by r is exact, since every coefficient is an integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import PreconditionError
from .logdomain import LogReal, signed_log_sum

JetValue = Union[Fraction, LogReal]


@dataclass(frozen=True)
class PartitionMultiIndex:
    """(k_1, ..., k_j) with sum(l k_l) = j; k = sum(k_l)."""

    j: int
    k_vec: tuple

    @property
    def k(self) -> int:
        return sum(self.k_vec)

    def __post_init__(self) -> None:
        if sum((l + 1) * kl for l, kl in enumerate(self.k_vec)) != self.j:
            raise PreconditionError("multi-index does not sum to j")

    def multinomial(self) -> int:
        """j! / (k_1! ... k_j!) as an exact integer."""
        m = math.factorial(self.j)
        for kl in self.k_vec:
            if kl:
                m //= math.factorial(kl)
        return m


def enumerate_partitions(j: int) -> list:
    """All multi-indices for order j in lexicographic k_vec order, none for
    j = 0 by convention; their count is the partition number p(j)."""
    if j < 0:
        raise PreconditionError("order must be nonnegative")

    def rec(remaining: int, largest: int, counts: dict):
        if remaining == 0:
            yield tuple(counts.get(l, 0) for l in range(1, j + 1))
            return
        for part in range(min(largest, remaining), 0, -1):
            counts[part] = counts.get(part, 0) + 1
            yield from rec(remaining - part, part, counts)
            counts[part] -= 1
            if counts[part] == 0:
                del counts[part]

    return [PartitionMultiIndex(j, v) for v in sorted(rec(j, j, {}))] if j else []


def partition_count(j: int) -> int:
    """p(j) by Euler's pentagonal-number recurrence (independent oracle)."""
    p = [1] + [0] * j
    for n in range(1, j + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p[j]


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Finite derivative array f^(0..J) at a base point.

    kind "exact" stores Fractions; kind "log" stores LogReal entries.  The
    representation is uniform across entries.
    """

    base_point: Union[float, Fraction]
    values: tuple
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "log"):
            raise PreconditionError(f"unknown jet kind {self.kind!r}")
        want = Fraction if self.kind == "exact" else LogReal
        if not all(isinstance(v, want) for v in self.values):
            raise PreconditionError(f"jet entries must all be {want.__name__}")

    @property
    def order(self) -> int:
        return len(self.values) - 1

    @staticmethod
    def from_rationals(base_point, values) -> "Jet":
        return Jet(Fraction(base_point), tuple(Fraction(v) for v in values), "exact")

    @staticmethod
    def from_floats(base_point: float, values: Sequence[float]) -> "Jet":
        return Jet(float(base_point),
                   tuple(LogReal.from_float(v) for v in values), "log")

    @staticmethod
    def from_log_row(base_point: float, signs, logs) -> "Jet":
        """Log jet from one row of a (sign, log|value|) jet table."""
        return Jet(float(base_point), tuple(
            LogReal.from_log(int(s), float(v)) for s, v in zip(signs, logs)),
            "log")

    def to_log(self) -> "Jet":
        if self.kind == "log":
            return self
        return Jet(float(self.base_point),
                   tuple(LogReal.from_float(float(v)) for v in self.values), "log")

    def entry_float(self, i: int) -> float:
        v = self.values[i]
        return float(v) if self.kind == "exact" else v.to_float()

    def entry_is_zero(self, i: int) -> bool:
        return not self.values[i]


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _check_orders(h_jet: Jet, psi_jet: Jet, j: int) -> None:
    if h_jet.order < j or psi_jet.order < j:
        raise PreconditionError(
            f"--order: order mismatch: need order >= {j}, got h:{h_jet.order} "
            f"psi:{psi_jet.order}")
    if h_jet.kind != psi_jet.kind:
        raise PreconditionError("mixed jet representations are not summed")


def _arithmetic(kind: str) -> tuple:
    """(zero, one, a coefficient C as an entry, the sum of a list of entries)
    for one jet kind: an integer C and ``sum`` on Fractions, LogReal(1, log C)
    and the max-shifted ``math.fsum`` of ``signed_log_sum`` on LogReals."""
    if kind == "exact":
        return Fraction(0), Fraction(1), int, lambda terms: sum(terms, Fraction(0))
    return (LogReal.zero(), LogReal.one(), lambda c: LogReal(1, math.log(c)),
            signed_log_sum)


def bell_rows(psi_jet: Jet, J: int) -> list:
    """Rows [B(n, 0), ..., B(n, n)], n = 0..J, of the partial Bell
    polynomials of psi_jet's orders 1..J, in its kind's entries.  B(n, k)
    that no k parts from psi's nonzero orders can reach are left zero."""
    psi = psi_jet.values
    zero, one, coef, total = _arithmetic(psi_jet.kind)
    support = [i for i in range(1, J + 1) if psi[i]]
    rows = [[one]]
    for n in range(1, J + 1):
        # C(n-1, i-1) psi^(i) for each nonzero order i <= n, ascending
        parts = [(i, coef(math.comb(n - 1, i - 1)) * psi[i])
                 for i in support if i <= n]
        row = [zero] * (n + 1)
        # B(n, k) = 0 unless k parts from the support can sum to n
        k_lo, k_hi = ((-(-n // support[-1]), n // support[0]) if support
                      else (1, 0))
        for k in range(k_lo, k_hi + 1):
            row[k] = total([c * rows[n - i][k - 1] for i, c in parts
                            if i <= n - k + 1 and rows[n - i][k - 1]])
        rows.append(row)
    return rows


def compose_jet(h_jet: Jet, psi_jet: Jet, J: int) -> Jet:
    """Jet of h o psi at psi_jet's base point, orders 0..J, for h's jet at
    psi's value: order n sums h^(k) B(n, k) over the ``bell_rows`` of psi."""
    _check_orders(h_jet, psi_jet, J)
    total = _arithmetic(h_jet.kind)[3]
    return Jet(psi_jet.base_point, tuple(
        total([a * b for a, b in zip(h_jet.values, row) if a and b])
        for row in bell_rows(psi_jet, J)), h_jet.kind)


def faa_di_bruno(h_jet: Jet, psi_jet: Jet, j: int) -> JetValue:
    """(h o psi)^(j) at psi_jet's base point, in the jets' representation:
    ``compose_jet``'s order j."""
    return compose_jet(h_jet, psi_jet, j).values[j]


def single_jet_compose(h_jet: Jet, psi_jet: Jet, n: int) -> JetValue:
    """Shortcut for a jet concentrated at one order:

        (h o psi)^(n) = h^(n)(psi(x0)) * (psi'(x0))^n

    valid when h^(k)(psi(x0)) = 0 for every k != n."""
    _check_orders(h_jet, psi_jet, n)
    offending = [k for k in range(h_jet.order + 1)
                 if k != n and not h_jet.entry_is_zero(k)]
    if offending:
        raise PreconditionError(
            f"h jet must vanish except at order {n}; nonzero at {offending}")
    hn = h_jet.values[n]
    p1 = psi_jet.values[1]
    if h_jet.kind == "exact":
        return hn * p1 ** n
    return hn * p1.pow_int(n)


# ---------------------------------------------------------------------------
# Summation identities
# ---------------------------------------------------------------------------

def identity_table(jmax: int) -> list:
    """[(two_power, lah) for j = 1..jmax] from one exact integer table:
    sum k!/(k_1!...k_j!) = 2^(j-1), and sum j!/(k_1!...k_j!) equals the
    Lah-number sum sum_k C(j-1, k-1) j!/k!, over the multi-indices of order j.

    U[r][k] = sum jmax!/(k_1!...k_jmax!) over the multi-indices of weight
    r = sum l k_l with k = sum k_l parts: jmax! [x^r y^k] exp(y x/(1 - x)).
    The exp rule of Taylor arithmetic gives r U_r = y S_r for row r as a
    polynomial in y, S_r = sum_(i=1..r) i U_(r-i) = S_(r-1) + P_(r-1), P the
    running sum of the rows: O(J^2) additions.  U[r][k] = S_r[k-1] / r is
    exact, as it equals jmax! C(r-1, k-1)/k! with k <= jmax; a remainder
    raises."""
    if not 1 <= jmax <= 30:
        raise PreconditionError("--jmax: identity checked for 1 <= j <= 30")
    fact = [math.factorial(i) for i in range(jmax + 1)]
    s, p, rows = [0] * (jmax + 1), [fact[jmax]] + [0] * jmax, []
    for j in range(1, jmax + 1):
        s = [a + b for a, b in zip(s, p)]
        quot, rem = zip(*(divmod(c, j) for c in s[:-1]))
        if any(rem):
            raise AssertionError(f"identity table row {j} is not integral")
        u = [0, *quot]
        p = [a + b for a, b in zip(p, u)]
        two_power = sum(c * f for c, f in zip(u, fact)) // fact[jmax]
        if two_power != 2 ** (j - 1):
            raise AssertionError(f"two-power identity failed at j={j}: "
                                 f"{two_power} != {2 ** (j - 1)}")
        lah = sum(u) * fact[j] // fact[jmax]
        rhs = sum(math.comb(j - 1, k - 1) * fact[j] // fact[k]
                  for k in range(1, j + 1))
        if lah != rhs:
            raise AssertionError(
                f"Lah identity failed at j={j}: {lah} != {rhs}")
        rows.append((two_power, lah))
    return rows


def identity_two_power(j: int) -> int:
    """sum over multi-indices of k!/(k_1!...k_j!) = 2^(j-1), checked."""
    return identity_table(j)[-1][0]


def identity_lah(j: int) -> int:
    """sum over multi-indices of j!/(k_1!...k_j!), checked against Lah."""
    return identity_table(j)[-1][1]
