"""Medium data model, physical-profile conversion and file I/O.

A medium is the pair (tau', R): two-way travel times per layer plus one
reflection coefficient per interface.  Distinct physical profiles that map
to the same (tau', R) are indistinguishable to the wavefield, so the pair
is the complete description used everywhere else in the package.

Two text formats are supported:

  tau-R format::

      taur v1 M=<int>
      <tau_0> <R_0>
      ...
      <tau_M> <R_M>
      tail <tau_{M+1}>          # optional

  physical format::

      phys v1 M=<int>
      depths <z_-1> ... <z_M> [z_{M+1}]
      rho <rho_0> ... <rho_{M+1}>
      K <K_0> ... <K_{M+1}>

Lines starting with ``#`` (or trailing ``#`` comments) are ignored.
Numbers are written with 17 significant digits so that a write/read
round trip reproduces the exact float64 values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, TextIO, Union

from .errors import (
    InvalidProfile,
    LengthMismatch,
    NonPositiveTau,
    ParseError,
    ReflectionOutOfRange,
)


@dataclass(frozen=True)
class Medium:
    """A layered medium given by two-way travel times and reflection coefficients.

    ``layer_taus[n]`` is the two-way travel time of layer n (between
    interfaces z_{n-1} and z_n), for n = 0..M.  ``reflections[n]`` is the
    reflection coefficient of interface z_n for incidence from above.
    ``tail_tau`` is the two-way travel time from z_M down to the
    transmission receiver depth; zero means the receiver sits exactly at
    z_M.  Immutable after construction; safe to share across threads.
    """

    layer_taus: tuple
    reflections: tuple
    tail_tau: float = 0.0

    def __post_init__(self):
        taus = tuple(float(t) for t in self.layer_taus)
        refls = tuple(float(r) for r in self.reflections)
        object.__setattr__(self, "layer_taus", taus)
        object.__setattr__(self, "reflections", refls)
        object.__setattr__(self, "tail_tau", float(self.tail_tau))
        if len(taus) != len(refls):
            raise LengthMismatch(
                f"{len(taus)} travel times vs {len(refls)} reflection coefficients"
            )
        if len(taus) < 2:
            raise LengthMismatch("need M >= 1, i.e. at least two interfaces")
        for n, t in enumerate(taus):
            if not (t > 0.0) or math.isinf(t):
                raise NonPositiveTau(f"tau_{n} = {t} must be strictly positive")
        if not (self.tail_tau >= 0.0) or math.isinf(self.tail_tau):
            raise NonPositiveTau(f"tail tau = {self.tail_tau} must be >= 0")
        for n, r in enumerate(refls):
            if not (-1.0 < r < 1.0):
                raise ReflectionOutOfRange(f"R_{n} = {r} outside (-1, 1)")

    @property
    def n_layers(self) -> int:
        """M: the number of finite layers (interfaces are 0..M)."""
        return len(self.layer_taus) - 1

    @property
    def all_taus(self) -> tuple:
        """(tau_0, ..., tau_M, tau_{M+1})."""
        return self.layer_taus + (self.tail_tau,)

    def transmission_coeffs(self) -> tuple:
        """T_n = sqrt(1 - R_n^2) per interface."""
        return tuple(math.sqrt(1.0 - r * r) for r in self.reflections)


@dataclass(frozen=True)
class PhysicalProfile:
    """Piecewise-constant density / bulk-modulus profile.

    ``depths`` lists z_{-1} < z_0 < ... < z_M and optionally z_{M+1}.
    ``densities`` and ``bulk_moduli`` are indexed 0..M+1: index 0 is the
    region containing the source depth z_{-1}, index n the nth layer, and
    index M+1 the lower half-space.
    """

    depths: tuple
    densities: tuple
    bulk_moduli: tuple

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(float(z) for z in self.depths))
        object.__setattr__(self, "densities", tuple(float(x) for x in self.densities))
        object.__setattr__(self, "bulk_moduli", tuple(float(x) for x in self.bulk_moduli))
        m = len(self.densities) - 2
        if m < 1:
            raise InvalidProfile("need M >= 1 layers")
        if len(self.bulk_moduli) != m + 2:
            raise InvalidProfile(
                f"{len(self.densities)} densities vs {len(self.bulk_moduli)} bulk moduli"
            )
        if len(self.depths) not in (m + 2, m + 3):
            raise InvalidProfile(
                f"expected {m + 2} or {m + 3} depths for M={m}, got {len(self.depths)}"
            )
        for a, b in zip(self.depths, self.depths[1:]):
            if not (a < b):
                raise InvalidProfile(f"depths not strictly increasing: {a} >= {b}")
        for name, vals in (("rho", self.densities), ("K", self.bulk_moduli)):
            for v in vals:
                if not (v > 0.0):
                    raise InvalidProfile(f"{name} values must be strictly positive")

    @property
    def n_layers(self) -> int:
        return len(self.densities) - 2


def make_medium(layer_taus: Iterable[float],
                tail_tau: float,
                reflections: Iterable[float]) -> Medium:
    """Validate and build a Medium from raw sequences."""
    return Medium(tuple(layer_taus), tuple(reflections), tail_tau)


def from_physical(profile: PhysicalProfile) -> Medium:
    """Convert a (depth, rho, K) profile to travel times and reflections.

    tau_n = 2 (z_n - z_{n-1}) / sqrt(K_n / rho_n) and
    R_n = (sqrt(K_n rho_n) - sqrt(K_{n+1} rho_{n+1}))
        / (sqrt(K_n rho_n) + sqrt(K_{n+1} rho_{n+1})).
    """
    m = profile.n_layers
    z = profile.depths
    rho = profile.densities
    bulk = profile.bulk_moduli
    taus = [2.0 * (z[n + 1] - z[n]) / math.sqrt(bulk[n] / rho[n])
            for n in range(m + 1)]
    imped = [math.sqrt(bulk[n] * rho[n]) for n in range(m + 2)]
    refls = [(imped[n] - imped[n + 1]) / (imped[n] + imped[n + 1])
             for n in range(m + 1)]
    if len(z) == m + 3:
        tail = 2.0 * (z[m + 2] - z[m + 1]) / math.sqrt(bulk[m + 1] / rho[m + 1])
    else:
        tail = 0.0
    return Medium(tuple(taus), tuple(refls), tail)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_medium(medium: Medium) -> str:
    """Serialize a Medium in the tau-R format (round-trip exact)."""
    lines = [f"taur v1 M={medium.n_layers}"]
    for t, r in zip(medium.layer_taus, medium.reflections):
        lines.append(f"{_fmt(t)} {_fmt(r)}")
    lines.append(f"tail {_fmt(medium.tail_tau)}")
    return "\n".join(lines) + "\n"


def _data_lines(text: str):
    r"""Yield (line_no, tokens) for non-empty lines, comments stripped.

    A line ends at "\n", "\r\n" or "\r", as open()'s text mode splits
    them; str.splitlines() would also end one at a form feed in a comment.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _parse_float(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"not a number: {tok!r}", line_no) from None


def read_medium(source: Union[str, os.PathLike, TextIO]) -> Medium:
    """Parse a Medium from a file path (``str`` or ``os.PathLike``, passed
    to ``open()``) or a text stream.  The header line names the format,
    "taur" or "phys".
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="ascii") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        # the byte's line, counting "\n", "\r\n" and "\r" ends as _data_lines does
        head = exc.object[:exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"non-ASCII byte {exc.object[exc.start]:#04x}", line_no) from None

    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("empty medium file", 1)
    line_no, header = lines[0]
    if len(header) != 3 or header[1] != "v1" or not header[2].startswith("M="):
        raise ParseError(f"bad header: {' '.join(header)!r}", line_no)
    kind = header[0]
    try:
        m = int(header[2][2:])
    except ValueError:
        raise ParseError(f"bad layer count {header[2]!r}", line_no) from None
    if m < 1:
        raise ParseError(f"M={m}: need at least one layer", line_no)

    if kind == "taur":
        return _read_taur(lines[1:], m)
    if kind == "phys":
        return _read_phys(lines[1:], m)
    raise ParseError(f"unknown format {kind!r}", line_no)


def _read_taur(lines, m: int) -> Medium:
    taus, refls = [], []
    tail = 0.0
    saw_tail = False
    for line_no, toks in lines:
        if toks[0] == "tail":
            if saw_tail:
                raise ParseError("duplicate tail line", line_no)
            if len(toks) != 2:
                raise ParseError("tail line needs exactly one value", line_no)
            tail = _parse_float(toks[1], line_no)
            saw_tail = True
            continue
        if saw_tail:
            raise ParseError("data after tail line", line_no)
        if len(toks) != 2:
            raise ParseError(f"expected '<tau> <R>', got {len(toks)} fields", line_no)
        taus.append(_parse_float(toks[0], line_no))
        refls.append(_parse_float(toks[1], line_no))
    if len(taus) != m + 1:
        raise ParseError(f"expected {m + 1} interface lines, found {len(taus)}",
                         lines[-1][0] if lines else 1)
    return Medium(tuple(taus), tuple(refls), tail)


def _read_phys(lines, m: int) -> Medium:
    rows = {}
    for line_no, toks in lines:
        key = toks[0]
        if key not in ("depths", "rho", "K"):
            raise ParseError(f"unexpected line {key!r}", line_no)
        if key in rows:
            raise ParseError(f"duplicate {key!r} line", line_no)
        rows[key] = ([_parse_float(t, line_no) for t in toks[1:]], line_no)
    for key in ("depths", "rho", "K"):
        if key not in rows:
            raise ParseError(f"missing {key!r} line", lines[-1][0] if lines else 1)
    depths, dline = rows["depths"]
    rho, rline = rows["rho"]
    bulk, kline = rows["K"]
    if len(rho) != m + 2:
        raise ParseError(f"expected {m + 2} rho values for M={m}, got {len(rho)}", rline)
    if len(bulk) != m + 2:
        raise ParseError(f"expected {m + 2} K values for M={m}, got {len(bulk)}", kline)
    if len(depths) not in (m + 2, m + 3):
        raise ParseError(
            f"expected {m + 2} or {m + 3} depths for M={m}, got {len(depths)}", dline)
    profile = PhysicalProfile(tuple(depths), tuple(rho), tuple(bulk))
    return from_physical(profile)
