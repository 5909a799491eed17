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

Two recurrences, one per jet kind, both behind ``compose_jet``:
  * exact rationals, on one Fraction jet;
  * signed log magnitudes, (sign, log|.|) arrays, batched over a whole grid
    (``log_compose_table``) in blocks of points, each entry a max-shifted
    sum compensated by a pairwise TwoSum tree (``_log_sum``), within a few
    ulps of the correctly rounded ``math.fsum``; only these array kernels
    import numpy.  A single log jet is a one-row table; ``log_bell_table``
    is the Bell table itself.  Its diagonal B(n, n) = psi'^n has one live
    term per order, so compactness reads it with no table (``chains``).

The log kernel serves ``compose_jet`` and the composed tables of outer
functions with no Taylor recurrence (polynomials, bumps).  Its sums of
mixed-sign terms lose digits with J (3.9e-8 in log on gaussian o sqrt1px2
at J = 24), and numpy's exp and log make its bits depend on the SIMD level.
gaussian, expsqr, pow1px2 and sqrt1px2 compose by their own Taylor
recurrence instead (``experiments.composed_taylor_table``).

Composition never enumerates partitions: ``enumerate_partitions`` lists one
order's multi-indices (k_1, ..., k_j), sum(l k_l) = j, for the partition
count and the tests' partition-sum oracle.  ``identity_table`` reads the
summation identities for j <= jmax off the coefficients of jmax! e^(y x/(1-x)),
whose rows the exp rule r U_r = y sum_i i U_(r-i) fills by running sums; each
division by r is exact, since every coefficient is an integer.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Union

from .errors import PreconditionError
from .logdomain import LOG_ZERO, LogReal

if TYPE_CHECKING:  # the array kernels import numpy at call time
    import numpy as np

JetValue = Union[Fraction, LogReal]

TERM_BLOCK = 1 << 16  # Bell entries (point, n, k) per log_compose_table block
SUM_TERMS = TERM_BLOCK // 8  # padded terms (k, n, point) per contraction sum


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
        v = self.values[i]
        return v == 0 if self.kind == "exact" else v.is_zero()


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _two_sum(v: np.ndarray) -> np.ndarray:
    """Sum along the first axis, of a power-of-two length, by a pairwise
    TwoSum tree.  Each level adds the contiguous halves v[:h] and v[h:] and
    keeps the exact rounding error of every addition (Knuth's TwoSum); the
    errors are summed alongside and added at the end, as in Sum2 (Ogita, Rump
    & Oishi, SIAM J. Sci. Comput. 26(6), 2005).  On terms in bit-reversed
    slots (``_slots``) the halves are the neighbours 2m and 2m+1 of the
    terms' own order at every level.  Trailing zero terms never change the
    result, and a term next to its negative leaves an exact 0."""
    import numpy as np
    err = None
    while len(v) > 1:
        h = len(v) // 2
        a, b = v[:h], v[h:]
        v = a + b
        z = v - a
        e = v - z  # then (a - (v - z)) + (b - z), in place
        np.add(np.subtract(a, e, out=e), np.subtract(b, z, out=z), out=e)
        err = e if err is None else np.add(err[:h] + err[h:], e, out=e)
    return v[0] if err is None else v[0] + err[0]


@functools.cache
def _slots(n: int) -> np.ndarray:
    """Slot of each of n terms in a tree of 2^ceil(log2 n) leaves: term t
    goes to the bit reversal of t, read-only."""
    import numpy as np
    bits = (n - 1).bit_length()
    slots = np.array([int(f"{t:0{bits}b}"[::-1], 2) if bits else 0
                      for t in range(n)])
    slots.flags.writeable = False
    return slots


def _log_sum(sign: np.ndarray, log: np.ndarray) -> tuple:
    """(sign, log|sum|) over the first axis of the terms sign * exp(log),
    max-shifted as in ``signed_log_sum`` and scattered into the bit-reversed
    slots of a power-of-two array of +0.0 (``_slots``), so ``_two_sum`` adds
    the neighbours' tree of the terms in their given order.  A zero sum is
    (0, -inf), with a divide warning for the caller's errstate; one nonzero
    term is itself, bit for bit."""
    import numpy as np
    m = np.maximum.reduce(log)
    m[m == LOG_ZERO] = 0.0  # all terms 0: any finite shift
    live = np.subtract(log, m)
    np.multiply(np.exp(live, out=live), sign, out=live)
    terms = np.zeros((1 << (len(log) - 1).bit_length(),) + m.shape)
    terms[_slots(len(log))] = live
    del live  # before the tree's temporaries
    total = _two_sum(terms)
    return np.sign(total), m + np.log(np.abs(total))


@functools.cache
def _log_binomials(J: int) -> np.ndarray:
    """log C(n-1, i-1) at [n, i], 1 <= i <= n <= J, read-only."""
    import numpy as np
    table = np.array([[math.log(math.comb(n - 1, i - 1)) if 0 < i <= n else 0.0
                       for i in range(J + 1)] for n in range(J + 1)])
    table.flags.writeable = False
    return table


def log_bell_table(psi_sign, psi_log, J: int) -> tuple:
    """Partial Bell polynomials B(n, k), 0 <= k, n <= J, of one inner jet per
    column of (J+1, rows) arrays (sign, log|psi^(i)|): (sign, log|B|), each
    (J+1, J+1, rows), int8 signs, zeros as (0, -inf).  Order n gathers the
    terms C(n-1, i-1) psi^(i) B(n-i, k-1) as (i, k, rows), for the orders i
    nonzero in some column, and sums over i by one ``_log_sum``."""
    import numpy as np
    sign = np.zeros((J + 1, J + 1, psi_log.shape[1]), dtype=np.int8)
    log = np.full(sign.shape, LOG_ZERO)
    sign[0, 0], log[0, 0] = 1, 0.0
    support = np.flatnonzero(psi_sign[1:J + 1].any(axis=1)) + 1
    with np.errstate(divide="ignore"):
        for n in range(1, J + 1):
            i = support[support <= n]
            if len(i):  # B(n - i, k - 1) = 0 for k - 1 > n - i, so no k is masked
                c = _log_binomials(J)[n, i, None] + psi_log[i]
                sign[n, 1:n + 1], log[n, 1:n + 1] = _log_sum(
                    sign[n - i, :n] * psi_sign[i, None], log[n - i, :n] + c[:, None])
    return sign, log


def _order_batches(J: int, rows: int):
    """Contraction orders [lo, hi) per ``_log_sum``: as many as keep the
    (k, n, rows) terms, k padded to a power of two, within SUM_TERMS."""
    lo = 0
    while lo <= J:
        hi = lo + 1
        while hi <= J and (hi + 1 - lo) * rows << hi.bit_length() <= SUM_TERMS:
            hi += 1
        yield lo, hi
        lo = hi


def log_compose_table(f_sign, f_log, psi_sign, psi_log, J: int) -> tuple:
    """(sign, log|(f o psi)^(n)(x)|), each (points, J+1), from the
    (sign, log|.|) jet tables of f over psi(xs) and of psi over xs; order n is
    a sum over k of f^(k) B(n, k).  Points go in blocks of at most TERM_BLOCK
    Bell entries (point, n, k): memory does not grow with the grid.  Orders
    lo <= n < hi share one ``_log_sum`` over (k, n, points), k < hi, with the
    terms k > n as zeros (+0.0, log -inf), whatever f holds there."""
    import numpy as np
    f_sign, f_log, psi_sign, psi_log = (np.asarray(a, dtype=float)
                                        for a in (f_sign, f_log, psi_sign, psi_log))
    sign, log = np.empty((2, len(f_log), J + 1))
    rows = max(1, TERM_BLOCK // (J + 1) ** 2)
    with np.errstate(divide="ignore"):
        for at in (slice(lo, lo + rows) for lo in range(0, len(f_log), rows)):
            bell_sign, bell_log = log_bell_table(psi_sign[at].T, psi_log[at].T, J)
            fs, fl = f_sign[at].T[:, None], f_log[at].T[:, None]
            for lo, hi in _order_batches(J, bell_log.shape[2]):
                above = np.tri(hi, hi, -1, dtype=bool)[:, lo:hi, None]  # k > n
                bs = bell_sign[lo:hi, :hi].transpose(1, 0, 2) * fs[:hi]
                bl = bell_log[lo:hi, :hi].transpose(1, 0, 2) + fl[:hi]
                np.copyto(bs, 0.0, where=above)
                np.copyto(bl, LOG_ZERO, where=above)
                sign[at, lo:hi], log[at, lo:hi] = (a.T for a in _log_sum(bs, bl))
            del bell_sign, bell_log  # before the next block's table is built
    return sign, log


def _check_orders(h_jet: Jet, psi_jet: Jet, j: int) -> None:
    if h_jet.order < j or psi_jet.order < j:
        raise PreconditionError(
            f"--order: order mismatch: need order >= {j}, got h:{h_jet.order} "
            f"psi:{psi_jet.order}")
    if h_jet.kind != psi_jet.kind:
        raise PreconditionError("mixed jet representations are not summed")


def compose_jet(h_jet: Jet, psi_jet: Jet, J: int) -> Jet:
    """Jet of h o psi at psi_jet's base point, orders 0..J, for h's jet at
    psi's value.  Log jets run ``log_compose_table`` on one row; exact jets
    run the Bell recurrence on Fractions, skipping the B(n, k) that no k
    parts from psi's nonzero orders can reach."""
    _check_orders(h_jet, psi_jet, J)
    h, psi = h_jet.values[:J + 1], psi_jet.values[:J + 1]
    if h_jet.kind == "log":
        rows = [([[v.sign for v in vs]], [[v.log_abs for v in vs]]) for vs in (h, psi)]
        sign, log = log_compose_table(*rows[0], *rows[1], J)
        return Jet.from_log_row(psi_jet.base_point, sign[0], log[0])
    support = [i for i in range(1, J + 1) if psi[i]]
    rows = [[Fraction(1)]]
    for n in range(1, J + 1):
        # C(n-1, i-1) psi^(i) for each nonzero order i <= n, ascending
        parts = [(i, math.comb(n - 1, i - 1) * psi[i])
                 for i in support if i <= n]
        row = [Fraction(0)] * (n + 1)
        # B(n, k) = 0 unless k parts from the support can sum to n
        k_lo, k_hi = ((-(-n // support[-1]), n // support[0]) if support
                      else (1, 0))
        for k in range(k_lo, k_hi + 1):
            row[k] = sum((c * rows[n - i][k - 1] for i, c in parts
                          if i <= n - k + 1 and rows[n - i][k - 1]),
                         Fraction(0))
        rows.append(row)
    return Jet(psi_jet.base_point, tuple(
        sum((a * b for a, b in zip(h, row) if a and b), Fraction(0))
        for row in rows), "exact")


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
