"""Faa di Bruno composition of jets by the partial Bell-polynomial recurrence.

For h(psi(x)) at a point x0, with h's jet taken at psi(x0),

    (h o psi)^(n) = sum_k h^(k) B(n, k),

where the partial Bell polynomials B(n, k) of psi'(x0), psi''(x0), ... obey

    B(0, 0) = 1,   B(n, k) = sum_i C(n-1, i-1) psi^(i) B(n-i, k-1)

(Comtet, *Advanced Combinatorics*, 1974, section 3.3).  A table of B(n, k)
for 0 <= k <= n <= J costs O(J^3) terms; orders i with psi^(i) = 0 are
skipped, so an inner jet with a bounded number of nonzero derivatives (a
polynomial such as x^2) costs O(J^2).  The table depends on psi alone and is
shared by every outer jet h and every order n.  One recurrence serves both
jet kinds: exact rationals, and signed log magnitudes where every entry is a
max-shifted ``math.fsum`` of its terms, as in ``signed_log_sum``.

Partition multi-indices (k_1, ..., k_j) with sum(l k_l) = j remain here for
the summation identities and the partition count; the partition-sum form of
Faa di Bruno is the independent oracle in the tests.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence, Union

from .errors import PreconditionError
from .logdomain import LogReal

JetValue = Union[Fraction, LogReal]

_LIST_CAP = 80  # partition counts explode beyond this; stream instead


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


def iter_partition_multi_indices(j: int) -> Iterator[PartitionMultiIndex]:
    """Stream the multi-indices for order j in lexicographic k_vec order."""
    if j <= 0:
        return

    def rec(remaining: int, largest: int, counts: dict):
        if remaining == 0:
            k_vec = tuple(counts.get(l, 0) for l in range(1, j + 1))
            yield k_vec
            return
        for part in range(min(largest, remaining), 0, -1):
            counts[part] = counts.get(part, 0) + 1
            yield from rec(remaining - part, part, counts)
            counts[part] -= 1
            if counts[part] == 0:
                del counts[part]

    vecs = sorted(rec(j, j, {}))
    for v in vecs:
        yield PartitionMultiIndex(j, v)


def enumerate_partitions(j: int) -> list:
    """All multi-indices for order j; count equals the partition number p(j)."""
    if j == 0:
        return []  # empty by convention
    if j < 0:
        raise PreconditionError("order must be nonnegative")
    if j > _LIST_CAP:
        raise PreconditionError(
            f"j={j} exceeds the materialization cap {_LIST_CAP}; "
            "use iter_partition_multi_indices")
    return list(iter_partition_multi_indices(j))


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
        v = self.values[i]
        return v == 0 if self.kind == "exact" else v.is_zero()


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

class _Ring(NamedTuple):
    """What the Bell recurrence needs of a jet kind; ``None`` is a zero."""

    one: object
    lift: Callable    # jet entry -> ring value, or None
    lower: Callable   # ring value or None -> jet entry
    weight: Callable  # positive int -> ring value
    mul: Callable
    total: Callable   # list of ring values -> their sum, or None


def _log_total(terms):
    """Max-shifted compensated signed sum, as in ``signed_log_sum``."""
    if len(terms) < 2:
        return terms[0] if terms else None
    m = max(t[1] for t in terms)
    s = math.fsum(sign * math.exp(la - m) for sign, la in terms)
    if s == 0.0:
        return None
    return (1 if s > 0 else -1, m + math.log(abs(s)))


_RINGS = {
    "exact": _Ring(one=Fraction(1),
                   lift=lambda v: v or None,
                   lower=lambda v: v or Fraction(0),
                   weight=int, mul=operator.mul,
                   total=lambda terms: sum(terms) or None),
    "log": _Ring(one=(1, 0.0),  # (sign, log|v|)
                 lift=lambda v: (v.sign, v.log_abs) if v.sign else None,
                 lower=lambda v: LogReal(*v) if v else LogReal.zero(),
                 weight=lambda c: (1, math.log(c)),
                 mul=lambda a, b: (a[0] * b[0], a[1] + b[1]),
                 total=_log_total),
}


class BellTable:
    """Partial Bell polynomials B(n, k), 0 <= k <= n <= order, of one inner
    jet, in that jet's representation."""

    def __init__(self, psi_jet: Jet, order: int):
        if psi_jet.order < order:
            raise PreconditionError(
                f"inner jet has order {psi_jet.order}, need >= {order}")
        ring = _RINGS[psi_jet.kind]
        mul, total = ring.mul, ring.total
        self.kind, self.order, self._ring = psi_jet.kind, order, ring
        psi = [ring.lift(v) for v in psi_jet.values[:order + 1]]
        support = [i for i in range(1, order + 1) if psi[i] is not None]
        rows = [[ring.one]]
        for n in range(1, order + 1):
            # C(n-1, i-1) psi^(i) for each nonzero order i <= n, ascending
            parts = [(i, mul(ring.weight(math.comb(n - 1, i - 1)), psi[i]))
                     for i in support if i <= n]
            row = [None] * (n + 1)
            # B(n, k) = 0 unless k parts from the support can sum to n
            k_lo, k_hi = ((-(-n // support[-1]), n // support[0]) if support
                          else (1, 0))
            for k in range(k_lo, k_hi + 1):
                terms = []
                for i, c in parts:
                    if i > n - k + 1:
                        break
                    b = rows[n - i][k - 1]
                    if b is not None:
                        terms.append(mul(c, b))
                row[k] = total(terms)
            rows.append(row)
        self._rows = rows

    def derivative(self, h_jet: Jet, n: int) -> JetValue:
        """(h o psi)^(n), for h's jet at psi's value."""
        if n == 0:
            return h_jet.values[0]
        if h_jet.kind != self.kind:
            raise PreconditionError("mixed jet representations are not summed")
        if h_jet.order < n or self.order < n:
            raise PreconditionError(
                f"order mismatch: need order >= {n}, got h:{h_jet.order} "
                f"table:{self.order}")
        ring = self._ring
        terms = []
        for k, b in enumerate(self._rows[n]):
            if b is not None:
                h = ring.lift(h_jet.values[k])
                if h is not None:
                    terms.append(ring.mul(h, b))
        return ring.lower(ring.total(terms))


def _check_orders(h_jet: Jet, psi_jet: Jet, j: int) -> None:
    if h_jet.order < j or psi_jet.order < j:
        raise PreconditionError(
            f"order mismatch: need order >= {j}, got h:{h_jet.order} "
            f"psi:{psi_jet.order}")
    if h_jet.kind != psi_jet.kind:
        raise PreconditionError("mixed jet representations are not summed")


def faa_di_bruno(h_jet: Jet, psi_jet: Jet, j: int) -> JetValue:
    """(h o psi)^(j) at psi_jet's base point; exact rationals in, exact
    rational out.  Several orders or outer jets over one inner jet share a
    single :class:`BellTable` instead."""
    return BellTable(psi_jet, j).derivative(h_jet, j)


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


def compose_jet(h_jet: Jet, psi_jet: Jet, J: int) -> Jet:
    """Jet of h o psi at psi_jet's base point, orders 0..J."""
    bell = BellTable(psi_jet, J)
    values = tuple(bell.derivative(h_jet, j) for j in range(J + 1))
    return Jet(psi_jet.base_point, values, h_jet.kind)


# ---------------------------------------------------------------------------
# Summation identities
# ---------------------------------------------------------------------------

def identity_sums(j: int) -> tuple:
    """(two_power, lah) from one walk over the multi-indices of order j,
    exactly: sum k!/(k_1!...k_j!) = 2^(j-1), and sum j!/(k_1!...k_j!) equals
    the Lah-number sum sum_k C(j-1, k-1) j!/k!."""
    if not 1 <= j <= 30:
        raise PreconditionError("identity checked for 1 <= j <= 30")
    two_power = lah = 0
    fact_j = math.factorial(j)
    for mi in iter_partition_multi_indices(j):
        denom = math.prod(math.factorial(kl) for kl in mi.k_vec if kl)
        two_power += math.factorial(mi.k) // denom
        lah += fact_j // denom
    if two_power != 2 ** (j - 1):
        raise AssertionError(
            f"two-power identity failed at j={j}: {two_power} != {2 ** (j - 1)}")
    rhs = sum(math.comb(j - 1, k - 1) * fact_j // math.factorial(k)
              for k in range(1, j + 1))
    if lah != rhs:
        raise AssertionError(f"Lah identity failed at j={j}: {lah} != {rhs}")
    return two_power, lah


def identity_two_power(j: int) -> int:
    """sum over multi-indices of k!/(k_1!...k_j!) = 2^(j-1), checked."""
    return identity_sums(j)[0]


def identity_lah(j: int) -> int:
    """sum over multi-indices of j!/(k_1!...k_j!), checked against Lah."""
    return identity_sums(j)[1]
