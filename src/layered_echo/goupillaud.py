"""Discrete-time wavefield recursion on a layered medium's time quantum.

Travel times written in decimal are whole multiples of a quantum P.  Split
layer n into tau_n/P layers of time P, joined by transparent interfaces
(R = 0, T = 1), with R_n at the bottom: in this Goupillaud medium all
wavefronts hit interfaces every P/2 seconds, and the exact wavefield is a
pure 2x2 scattering recursion per interface and half period:

    up_above   = R_n * down_above + T_n * up_below
    down_below = T_n * down_above - R_n * up_below

A unit downgoing impulse is launched above the first interface; the
upgoing amplitude crossing the source depth gives the reflection response
on the grid t = j*P, and the downgoing amplitude crossing the deepest
interface gives the transmission response on t = |tau'|/2 + j*P.

This is an independent physics oracle: it exercises the interface
scattering rules directly, with no combinatorics involved, so agreement
with the closed-form pulse trains validates amplitudes and sign
conventions end to end.  With M' + 1 one-quantum layers, its
(2*n_steps + M' + 1)*(M' + 1) cell updates are held to ``transit.MAX_TERMS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Tuple

from . import transit
from .errors import DomainError, EnumerationLimitExceeded
from .medium import Medium


@dataclass(frozen=True)
class LatticeResult:
    """Sampled reflection (g) and transmission (h) responses on the time grid."""

    period: float  # the quantum P, the grid's spacing in seconds
    g_times: Tuple[float, ...]
    g: Tuple[float, ...]
    h_times: Tuple[float, ...]
    h: Tuple[float, ...]

    def energy(self) -> float:
        return sum(x * x for x in self.g) + sum(x * x for x in self.h)


def simulate(medium: Medium, n_steps: int) -> LatticeResult:
    """Run the recursion for n_steps quanta P.

    P is the largest time dividing every layer travel time as written in
    decimal (the tail only delays the transmission samples).  Returns
    reflection samples at t = j*P for j = 1..n_steps and transmission
    samples at t = |tau'|/2 + j*P for j = 0..n_steps-1.
    """
    from fractions import Fraction  # imported here: it loads decimal, which only lattice needs
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    taus = [Fraction(repr(t)) for t in medium.layer_taus]  # repr gives back the decimal
    quantum = Fraction(gcd(*(t.numerator for t in taus)), lcm(*(t.denominator for t in taus)))
    counts = [int(t / quantum) for t in taus]  # layer n splits into counts[n] quanta
    m = sum(counts) - 1
    # reflection arrivals live on even half steps, transmission leaves the
    # stack on half steps of parity M'+1
    total_halves = 2 * n_steps + m + 1
    if total_halves * (m + 1) > transit.MAX_TERMS:
        raise EnumerationLimitExceeded(
            f"{n_steps} steps of the quantum P = {float(quantum)!r} s with M' = {m} "
            f"take more than {transit.MAX_TERMS} cell updates")

    refl = [x for c, r in zip(counts, medium.reflections) for x in [0.0] * (c - 1) + [r]]
    trans = [x for c, t in zip(counts, medium.transmission_coeffs())
             for x in [1.0] * (c - 1) + [t]]
    period = float(quantum)

    # down[n]: downgoing wave arriving at interface n this half step (n = 0..M')
    # up[n]: upgoing wave in region n arriving at interface n-1 this half step
    down = [0.0] * (m + 1)
    up = [0.0] * (m + 2)
    down[0] = 1.0
    g_raw = [0.0] * (total_halves + 2)
    h_raw = [0.0] * (total_halves + 2)

    for s in range(1, total_halves + 1):
        new_down = [0.0] * (m + 1)
        new_up = [0.0] * (m + 2)
        for n in range(m + 1):
            d, u = down[n], up[n + 1]
            new_up[n] = refl[n] * d + trans[n] * u
            out_down = trans[n] * d - refl[n] * u
            if n < m:
                new_down[n + 1] = out_down
            else:
                h_raw[s] += out_down  # crosses the deepest interface, absorbed
        g_raw[s + 1] += new_up[0]  # reaches the source depth next half step
        new_up[0] = 0.0
        down, up = new_down, new_up

    half_stack = transit.half_total_time(medium)
    g_times = tuple(j * period for j in range(1, n_steps + 1))
    g = tuple(g_raw[2 * j] for j in range(1, n_steps + 1))
    h_times = tuple(half_stack + j * period for j in range(n_steps))
    h = tuple(h_raw[m + 1 + 2 * j] for j in range(n_steps))
    return LatticeResult(period, g_times, g, h_times, h)
