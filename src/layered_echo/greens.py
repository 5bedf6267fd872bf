"""Pulse-train assembly: the Green's functions as finite delta trains.

A pulse train is the list of (arrival time, amplitude, transit vector)
triples up to a cutoff, sorted by time with lexicographic transit-vector
tie break.  Coincident arrivals are NOT merged by default -- the train is
indexed per transit vector -- merging is an explicit post-pass.

A train build evaluates each distinct per-layer factor once.  The
``threads`` keyword of the builders is accepted and has no effect: trains
are built in the calling thread, bit-identical whatever value is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TextIO, Tuple

from . import transit
# the amplitude functions stay importable from here, where callers look them up
from .amplitudes import layer_factor, reflection_amplitude, transmission_amplitude
from .errors import DomainError, ParseError
from .medium import Medium
from .transit import REFLECTION, TRANSMISSION, TransitVector


@dataclass(frozen=True)
class PulseTerm:
    """One delta arrival: time, amplitude and the transit vector it came from."""

    time: float
    amplitude: float
    k: Tuple[int, ...]


@dataclass(frozen=True)
class PulseTrain:
    kind: str
    cutoff: float
    terms: Tuple[PulseTerm, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def times(self) -> List[float]:
        return [t.time for t in self.terms]

    def amplitudes(self) -> List[float]:
        return [t.amplitude for t in self.terms]


@dataclass(frozen=True)
class SampledSignal:
    t0: float
    dt: float
    samples: Tuple[float, ...]

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError(f"dt = {self.dt} must be positive")

    def time_axis(self) -> List[float]:
        return [self.t0 + i * self.dt for i in range(len(self.samples))]


def _build_train(medium: Medium, cutoff: float, kind: str,
                 amplitude_floor: float) -> PulseTrain:
    if not math.isfinite(cutoff):
        raise DomainError(f"cutoff must be finite, got {cutoff}")
    arrivals = (transit.reflection_arrivals if kind == REFLECTION
                else transit.transmission_arrivals)
    refls = medium.reflections
    factors = {}
    rows = []
    for k, time in arrivals(medium, cutoff):
        amp = 1.0
        for n, kn, ktn in zip(range(len(k)), k, k[1:] + (0,)):
            s = factors.get((n, kn, ktn))
            if s is None:
                s = factors[n, kn, ktn] = layer_factor(kind, refls[n], kn, ktn)
            amp *= s
        rows.append((time, k, amp))
    rows.sort()  # (time, k) order; k is unique, so amp never decides
    terms = [PulseTerm(time, amp, k) for time, k, amp in rows]
    if amplitude_floor > 0.0:
        terms = [t for t in terms if abs(t.amplitude) >= amplitude_floor]
    return PulseTrain(kind, cutoff, tuple(terms))


def reflection_green(medium: Medium, cutoff: float, *,
                     amplitude_floor: float = 0.0, threads: int = 1) -> PulseTrain:
    """The reflection Green's function up to the cutoff, one term per k."""
    return _build_train(medium, cutoff, REFLECTION, amplitude_floor)


def transmission_green(medium: Medium, cutoff: float, *,
                       amplitude_floor: float = 0.0, threads: int = 1) -> PulseTrain:
    """The transmission Green's function up to the cutoff, one term per k."""
    return _build_train(medium, cutoff, TRANSMISSION, amplitude_floor)


DEFAULT_MERGE_TOL = 1e-12


def merge_ties(train: PulseTrain, tol_rel: float = DEFAULT_MERGE_TOL) -> PulseTrain:
    """Combine consecutive terms whose arrival times agree to tol_rel.

    Distinct transit vectors can arrive simultaneously when travel times
    are commensurate; floating accumulation may spread such a tie over a
    few ulps.  Two consecutive terms tie when |t_i - t_j| <= tol_rel *
    max(t_j, first arrival).  The merged term keeps the earliest time and
    the lexicographically smallest contributing transit vector, and sums
    the amplitudes.  tol_rel = 0 merges only bit-identical times.
    """
    if tol_rel < 0:
        raise DomainError("tol_rel must be >= 0")
    if not train.terms:
        return train
    floor = train.terms[0].time
    merged: List[PulseTerm] = []
    group = [train.terms[0]]
    for term in train.terms[1:]:
        if abs(term.time - group[-1].time) <= tol_rel * max(term.time, floor):
            group.append(term)
        else:
            merged.append(_merge_group(group))
            group = [term]
    merged.append(_merge_group(group))
    return PulseTrain(train.kind, train.cutoff, tuple(merged))


def _merge_group(group: List[PulseTerm]) -> PulseTerm:
    if len(group) == 1:
        return group[0]
    total = 0.0
    for t in group:
        total += t.amplitude
    return PulseTerm(group[0].time, total, min(t.k for t in group))


def ricker(peak_freq: float) -> Callable[[float], float]:
    """Ricker wavelet normalized to unit peak: (1 - 2 pi^2 f^2 t^2) exp(-pi^2 f^2 t^2)."""
    if not (peak_freq > 0.0):
        raise DomainError("peak frequency must be positive")
    a = (math.pi * peak_freq) ** 2

    def w(t: float) -> float:
        x = a * t * t
        return (1.0 - 2.0 * x) * math.exp(-x)

    return w


def convolve(train: PulseTrain, wavelet, t0: float, dt: float,
             n_samples: int) -> SampledSignal:
    """Render the delta train onto a regular time grid.

    ``wavelet`` is either a callable evaluated analytically at each sample,
    or the string "spike", which places each amplitude in the nearest bin.
    """
    if not (dt > 0.0):
        raise DomainError("dt must be positive")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    samples = [0.0] * n_samples
    if wavelet == "spike":
        for term in train.terms:
            idx = round((term.time - t0) / dt)
            if 0 <= idx < n_samples:
                samples[idx] += term.amplitude
    else:
        for i in range(n_samples):
            t = t0 + i * dt
            acc = 0.0
            for term in train.terms:
                acc += term.amplitude * wavelet(t - term.time)
            samples[i] = acc
    return SampledSignal(t0, dt, tuple(samples))


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_train_csv(train: PulseTrain, stream: TextIO, with_k: bool = False) -> None:
    """Emit `time,amplitude[,k]` rows, times/amplitudes at 17 significant digits."""
    if with_k:
        stream.write("time,amplitude,k\n")
        for t in train.terms:
            stream.write(f"{_fmt(t.time)},{_fmt(t.amplitude)},"
                         f"{'|'.join(str(x) for x in t.k)}\n")
    else:
        stream.write("time,amplitude\n")
        for t in train.terms:
            stream.write(f"{_fmt(t.time)},{_fmt(t.amplitude)}\n")


def read_train_csv(stream: TextIO, kind: str = REFLECTION,
                   cutoff: float = math.inf) -> PulseTrain:
    """Parse a train CSV from write_train_csv (k optional); a bad row raises ParseError."""
    header = stream.readline().strip().split(",")
    terms = []
    for line_no, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            k: Tuple[int, ...] = ()
            if len(fields) >= 3 and "k" in header:
                k = tuple(int(x) for x in fields[2].split("|"))
            terms.append(PulseTerm(float(fields[0]), float(fields[1]), k))
        except (ValueError, IndexError):
            raise ParseError(f"malformed train row {line!r}", line_no) from None
    return PulseTrain(kind, cutoff, tuple(terms))


def write_signal_csv(signal: SampledSignal, stream: TextIO) -> None:
    """Emit `time,value` rows for a sampled signal."""
    stream.write("time,value\n")
    for t, v in zip(signal.time_axis(), signal.samples):
        stream.write(f"{_fmt(t)},{_fmt(v)}\n")
