"""Closed-form echo amplitudes for reflection and transmission transit vectors.

The amplitude attached to a transit vector k is a sum over admissible
branch count vectors b of

    C(k, b) * C(k~ - u, b - u) * (-R)^(k~ - b) * R^(k - b) * T^(2b)

for reflection (u = min{1, k~}, k~ the left shift of k), and

    C(k, m) * C(k~, m) * (-R)^(k~ - m) * R^(k - m) * T^(2m + 1)

for transmission.  Every factor is a per-index product and the branch set
is a Cartesian product of per-index ranges, so the whole sum factorizes
into a product over indices of small one-dimensional sums.  That is how
it is evaluated here: per index n, sum the n-th factor over the admissible
b_n, then multiply the per-index sums.  This costs O(sum of range lengths)
per vector instead of the size of the full branch set.  The sums and the
class tables (``class_tables``) read index n's binomials from one place,
``class_column``.

The terms of a per-index sum alternate in sign, and at large transit
counts their magnitudes (binomials of order 2^(k_n + k~_n) times powers of
R_n and T_n^2) far exceed the sum, so a float sum cancels.  The float sum
is kept when the sum of the term magnitudes is at most CANCEL_LIMIT times
the magnitude of the sum.  Otherwise, and when the binomials would not fit
a float or a power of R_n or T_n^2 in a term would lose bits to underflow,
the sum is evaluated exactly in integers and rounded once.

In the float sum T_n^2 is evaluated as 1 - R_n^2 directly, avoiding a sqrt
round trip; the odd power in the transmission case contributes one
sqrt(1 - R_n^2) factor per index.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import DomainError, InvalidTransitVector, ReflectionOutOfRange
from .transit import REFLECTION, TRANSMISSION, TransitVector, _Memo, branch_range, left_shift


def _check_reflections(refls: Sequence[float], k: Sequence[int]) -> None:
    if len(refls) != len(k):
        raise InvalidTransitVector(
            f"transit vector length {len(k)} vs {len(refls)} reflection coefficients")
    for n, r in enumerate(refls):
        if not (-1.0 < r < 1.0):
            raise ReflectionOutOfRange(f"R_{n} = {r} outside (-1, 1)")


# Largest sum of term magnitudes over |sum| for which the float sum is kept.
# A float term is off by at most about (k_n + k~_n + 9) / T_n^2 units of
# 2^-53 (T_n^2 is rounded once and raised to the b-th power), so a kept sum
# is off by at most CANCEL_LIMIT times that.  bench10's worst ratio is 8.7e3.
CANCEL_LIMIT = 2.0 ** 15
# The float terms need C(k_n, b) C(k~_n, b) <= 2^(k_n + k~_n) to fit a float,
# and R_n^(k_n + k~_n - 2 u_n) T_n^(2 min(k_n, k~_n)), below every product
# of powers in a term, to stay clear of the subnormal range.
_FLOAT_K = 1000
_FLOAT_TINY = 2.0 ** -1000


def class_column(kind: str, kn: int, ktn: int) -> List[Tuple[int, int]]:
    """(b_n, C(k_n, b_n) C(k~_n - u_n, b_n - u_n)) for every b_n in
    ``transit.branch_range(kind, k_n, k~_n)``, whose start is u_n: the
    number of ways level n of the tree can branch b_n times."""
    r = branch_range(kind, kn, ktn)
    return [(b, math.comb(kn, b) * math.comb(ktn - r.start, b - r.start)) for b in r]


def layer_factor(kind: str, r: float, kn: int, ktn: int) -> float:
    """Per-index factor s_n(R_n, k_n, k~_n); the amplitude of k is their
    product over n = 0..M, multiplied in that order."""
    t2 = 1.0 - r * r
    tn = 1.0 if kind == REFLECTION else math.sqrt(t2)
    # the bounds come from the range, not the column, which may be empty
    bs = branch_range(kind, kn, ktn)
    un, hi = bs.start, bs.stop - 1
    column = class_column(kind, kn, ktn)
    if (kn + ktn <= _FLOAT_K
            and abs(r) ** max(0, kn + ktn - 2 * un) * t2 ** hi >= _FLOAT_TINY):
        s = size = 0.0
        for b, c in column:
            sign = -1.0 if (ktn - b) & 1 else 1.0
            term = c * sign * r ** (ktn - b + kn - b) * t2 ** b * tn
            s += term
            size += abs(term)
        if size <= CANCEL_LIMIT * abs(s):
            return s
    return _exact_sum(r, kn, ktn, un, hi, column) * tn


def _exact_sum(r: float, kn: int, ktn: int, un: int, hi: int,
               column: List[Tuple[int, int]]) -> float:
    """The per-index sum without the factor T_n of transmission, computed
    exactly and rounded once.  R_n = p / q with q a power of two, and
    T_n^2 = (q^2 - p^2) / q^2, so every term is an integer over q^(k_n + k~_n):
    the sum over (b, c) in ``class_column`` of c (-1)^(k~_n - b)
    p^(k_n + k~_n - 2b) (q^2 - p^2)^b, taken by Horner's rule in p^2."""
    p, q = r.as_integer_ratio()
    p2 = p * p
    t2 = q * q - p2
    total, t2b = 0, t2 ** un
    for b, c in column:
        term = c * t2b
        total = total * p2 + (-term if (ktn - b) & 1 else term)
        t2b *= t2
    return total * p ** (kn + ktn - 2 * hi) / q ** (kn + ktn)  # correctly rounded


def _amplitude(kind: str, refls: Sequence[float], tv: TransitVector) -> float:
    if tv.kind != kind:
        raise InvalidTransitVector(f"expected {kind} kind, got {tv.kind}")
    k = tv.k
    _check_reflections(refls, k)
    kt = left_shift(k)
    total = 1.0
    for n in range(len(k)):
        total *= layer_factor(kind, refls[n], k[n], kt[n])
    return total


def reflection_amplitude(refls: Sequence[float], tv: TransitVector) -> float:
    """Amplitude of the reflection echo with transit vector k."""
    return _amplitude(REFLECTION, refls, tv)


def transmission_amplitude(refls: Sequence[float], tv: TransitVector) -> float:
    """Amplitude of the transmission echo with transit vector k."""
    return _amplitude(TRANSMISSION, refls, tv)


def amplitude(refls: Sequence[float], tv: TransitVector) -> float:
    """Dispatch on the vector's kind."""
    if tv.kind == REFLECTION:
        return reflection_amplitude(refls, tv)
    return transmission_amplitude(refls, tv)


def kunetz_primary(refls: Sequence[float], n: int) -> float:
    """Primary-echo amplitude R_n * prod_{j<n} (1 - R_j^2)."""
    if not (0 <= n < len(refls)):
        raise IndexError(f"interface index {n} out of range 0..{len(refls) - 1}")
    out = refls[n]
    for j in range(n):
        out *= 1.0 - refls[j] * refls[j]
    return out


def class_tables(kind: str) -> Callable[[Sequence[int]], Dict[Tuple[int, ...], int]]:
    """The class table of this kind as a function of an unvalidated k: the
    exact number of scattering sequences in every branch class (k, b), by b
    in lexicographic order over the branch set, the product over n of
    ``class_column(kind, k_n, k~_n)``'s counts.  A b outside the branch set
    has no entry.  Every column is read from one memo kept as long as the
    function, so each distinct (k_n, k~_n) column is built once, however
    many vectors have it.  DomainError for a kind other than REFLECTION and
    TRANSMISSION."""
    if kind not in (REFLECTION, TRANSMISSION):
        raise DomainError(f"unknown kind {kind!r}")
    columns = _Memo(lambda key: class_column(kind, *key))

    def fold(k: Sequence[int]) -> Dict[Tuple[int, ...], int]:
        table = {(): 1}
        for key in zip(k, left_shift(k)):
            column = columns[key]
            table = {b + (bn,): count * c for b, count in table.items() for bn, c in column}
        return table

    return fold


def class_weight(refls: Sequence[float], tv: TransitVector,
                 b: Sequence[int]) -> float:
    """Weight shared by every scattering sequence in branch class (k, b)."""
    k = tv.k
    kt = left_shift(k)
    extra_t = 1 if tv.kind == TRANSMISSION else 0
    parity = sum(ktn - bn for ktn, bn in zip(kt, b)) & 1
    out = -1.0 if parity else 1.0
    for n in range(len(k)):
        rn = refls[n]
        t2 = 1.0 - rn * rn
        out *= rn ** (kt[n] - b[n] + k[n] - b[n]) * t2 ** b[n]
        if extra_t:
            out *= math.sqrt(t2)
    return out
