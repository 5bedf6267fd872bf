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
b_n, then multiply the per-index sums.  This keeps intermediate magnitudes
bounded (binomials are always paired with the compensating powers of R_n)
and costs O(sum of range lengths) per vector instead of the size of the
full branch set.

T_n^2 is evaluated as 1 - R_n^2 directly, avoiding a sqrt round trip; the
odd power in the transmission case contributes one sqrt(1 - R_n^2) factor
per index.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .errors import InvalidTransitVector, ReflectionOutOfRange
from .transit import (
    REFLECTION,
    TRANSMISSION,
    TransitVector,
    left_shift,
    multi_binomial_exact,
)


def _check_reflections(refls: Sequence[float], k: Sequence[int]) -> None:
    if len(refls) != len(k):
        raise InvalidTransitVector(
            f"transit vector length {len(k)} vs {len(refls)} reflection coefficients")
    for n, r in enumerate(refls):
        if not (-1.0 < r < 1.0):
            raise ReflectionOutOfRange(f"R_{n} = {r} outside (-1, 1)")


def layer_factor(kind: str, r: float, kn: int, ktn: int) -> float:
    """Per-index factor s_n(R_n, k_n, k~_n); the amplitude of k is their
    product over n = 0..M, multiplied in that order."""
    t2 = 1.0 - r * r
    if kind == REFLECTION:
        un, tn = min(1, ktn), 1.0
    else:
        un, tn = 0, math.sqrt(t2)
    s = 0.0
    for b in range(un, min(kn, ktn) + 1):
        c = math.comb(kn, b) * math.comb(ktn - un, b - un)
        sign = -1.0 if (ktn - b) & 1 else 1.0
        s += c * sign * r ** (ktn - b + kn - b) * t2 ** b * tn
    return s


class LayerFactors(dict):
    """``layer_factor(kind, refls[n], k_n, k~_n)`` by key (n, k_n, k~_n),
    each evaluated once, on first lookup."""

    def __init__(self, kind: str, refls: Sequence[float]):
        super().__init__()
        self.kind = kind
        self.refls = refls

    def __missing__(self, key: Tuple[int, int, int]) -> float:
        n, kn, ktn = key
        s = self[key] = layer_factor(self.kind, self.refls[n], kn, ktn)
        return s


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


def branch_summand(refls: Sequence[float], tv: TransitVector,
                   b: Sequence[int]) -> float:
    """One branch-class term of the amplitude sum (for k's kind).

    The sign (-1)^(sum of k~ - b) is applied as an explicit parity factor
    on the absolute powers of R.  Used by the oracle cross-checks: this is
    the common weight of every scattering sequence in class (k, b), times
    the class size.
    """
    _check_reflections(refls, tv.k)
    return class_count(tv, b) * class_weight(refls, tv, b)


def class_count(tv: TransitVector, b: Sequence[int]) -> int:
    """Exact number of scattering sequences in branch class (k, b)."""
    k = tv.k
    kt = left_shift(k)
    b = tuple(int(x) for x in b)
    if tv.kind == REFLECTION:
        u = tuple(min(1, x) for x in kt)
        return multi_binomial_exact(k, b) * multi_binomial_exact(
            tuple(ktn - un for ktn, un in zip(kt, u)),
            tuple(bn - un for bn, un in zip(b, u)))
    return multi_binomial_exact(k, b) * multi_binomial_exact(kt, b)


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
