"""Seeded inputs, requests and correctness checks for the benchmark workloads.

A request is one or more ``layered_echo.cli.main(argv)`` calls timed
together, plus a check that runs after the timer stops.  Every input is
made from the workload seed by this module, which counts transit vectors
and scattering walks with its own code, so the inputs do not depend on
the package under test.

Workloads (one cost band per request, so the median does not fall in a
gap between two request sizes):

- ``trains``: ``reflect --with-k`` then ``transmit --with-k`` of one
  medium.  Requests alternate between ``bench10.taur`` at the reference
  cutoffs and random 10-layer media whose cutoffs are sized to the same
  term counts.  Sizing a cutoff takes a search over vector counts whose
  length depends on the medium, so the media are sized once into
  ``media.json`` (``PYTHONPATH=src python3 bench/workloads.py``), and a
  run picks its media from that table by seed.
- ``render``: ``render --wavelet ricker:25 --dt 0.004 --n 300`` over the
  bench10 reflection train, written in set-up.
- ``verify``: ``oracle`` on a seeded medium with M = 2 or 3, its cutoff
  sized to a fixed walk-count band, then ``lattice`` on the medium's
  equal-travel-time twin with M = 6.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

from layered_echo import amplitudes, make_medium, transit

WORKLOADS = ("trains", "render", "verify")

BENCH10 = "bench10.taur"
BENCH10_REFLECT_CUTOFF = "5.38014"
BENCH10_TRANSMIT_CUTOFF = "3.69007"
BENCH10_REFLECT_TERMS = 19242
BENCH10_TRANSMIT_TERMS = 35059
# sha256 of the `reflect`/`transmit --with-k` CSVs of bench10.taur at the
# reference cutoffs, as written by layered-echo 0.1.0.
BENCH10_REFLECT_SHA256 = "93458b4809ddaee4a0a1fd1d589b9285b51064daf912c1105c2aa4e2b908dec3"
BENCH10_TRANSMIT_SHA256 = "2fc5e41c1976afa0997f12d87da43fea26754d8559b67f685bf037ffd36ce966"

TRAINS_SEEDED_MEDIA = 4
TRAINS_BAND = 0.005          # seeded term counts within 0.5% of bench10's
TRAINS_TABLE = Path(__file__).resolve().parent / "media.json"
TRAINS_TABLE_SIZE = 48       # sized media in the table
SAMPLED_ROWS = 16            # rows per CSV recomputed bit for bit

RENDER_FREQ = 25.0
RENDER_DT = "0.004"
RENDER_N = 300
RENDER_SAMPLES = 8           # samples recomputed by direct Ricker summation
# |rendered - direct| <= RENDER_RTOL * sum_j |a_j w(t - t_j)|: the scale is the
# sample's own absolute sum, so a dropped term that matters is caught while
# windowing that skips negligible terms (low bits) is allowed.
RENDER_RTOL = 1e-9

VERIFY_MEDIA = 8
VERIFY_WALKS = 20_000        # oracle cutoff: first arrival where walks reach this
VERIFY_TWIN_LAYERS = 6
VERIFY_STEPS = 12
ORACLE_TOL = 1e-10           # the CLI default --tol of `oracle`
LATTICE_TOL = 1e-9           # the CLI default --tol of `lattice`


class CheckFailed(Exception):
    """A request's output is wrong."""


class SetupFailed(Exception):
    """The workload's inputs could not be prepared."""


@dataclass
class CallResult:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Request:
    label: str
    argvs: List[List[str]]
    items: int
    check: Callable[[List[CallResult]], None]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"layered-echo-bench:{workload}:{seed}")


# --- counting with the enumerators' own float arithmetic -------------------

class _OverCap(Exception):
    pass


def _last_level(t: float, tau: float, cutoff: float, kmin: int) -> int:
    """Number of k >= kmin with t + k*tau <= cutoff, same float expression
    as the depth-first enumerators."""
    q = max(math.floor((cutoff - t) / tau), kmin - 1)
    while q >= kmin and t + q * tau > cutoff:
        q -= 1
    while t + (q + 1) * tau <= cutoff:
        q += 1
    return q - kmin + 1


def count_reflection(taus: Sequence[float], cutoff: float,
                     cap: float = math.inf) -> int:
    """Reflection transit vectors with <k, tau> <= cutoff; raises _OverCap
    once the count passes ``cap``."""
    taus = tuple(taus)
    if taus[0] > cutoff:
        return 0
    last = len(taus) - 1
    seen = 0

    def walk(n: int, t: float) -> int:
        nonlocal seen
        if n == last:
            total = 1 + _last_level(t, taus[n], cutoff, 1)
            seen += total
            if seen > cap:
                raise _OverCap
            return total
        total = 1
        kn = 1
        while True:
            tn = t + kn * taus[n]
            if tn > cutoff:
                return total
            total += walk(n + 1, tn)
            kn += 1

    return walk(1, 1 * taus[0])


def half_total(taus: Sequence[float], tail: float) -> float:
    """|tau'|/2 summed in the package's order."""
    base = 0.0
    for t in tuple(taus) + (tail,):
        base += 0.5 * t
    return base


def count_transmission(taus: Sequence[float], tail: float, cutoff: float,
                       cap: float = math.inf) -> int:
    """Transmission transit vectors arriving by the cutoff."""
    taus = tuple(taus)
    base = half_total(taus, tail)
    if base > cutoff:
        return 0
    last = len(taus) - 1
    seen = 0

    def walk(n: int, t: float) -> int:
        nonlocal seen
        if n == last:
            total = _last_level(t, taus[n], cutoff, 0)
            seen += total
            if seen > cap:
                raise _OverCap
            return total
        total = 0
        kn = 0
        while True:
            tn = t + kn * taus[n]
            if tn > cutoff:
                return total
            total += walk(n + 1, tn)
            kn += 1

    return walk(1, base)


def size_cutoff(count: Callable[[float, float], int], target: int,
                lo: float, band: float) -> Tuple[float, int]:
    """A cutoff whose count is within ``band`` of ``target``.

    ``count(cutoff, cap)`` is monotone in the cutoff and raises _OverCap
    past ``cap``.  The count grows like a power of the cutoff, so each
    step takes the secant through the last two finite counts in log-log
    space, kept inside the bracket [lo, hi] (bisecting when it is not).
    """
    cap = 1.5 * target
    hi = math.inf
    points = []
    cutoff = lo
    for _ in range(100):
        try:
            c = count(cutoff, cap)
        except _OverCap:
            c = math.inf
        if abs(c - target) <= band * target:
            return cutoff, c
        if c < target:
            lo = cutoff
        else:
            hi = cutoff
        if math.isfinite(c) and c > 0:
            points.append((math.log(cutoff), math.log(c)))
        guess = math.nan
        if len(points) >= 2:
            (x0, y0), (x1, y1) = points[-2:]
            if y1 != y0:
                guess = math.exp(x1 + (math.log(target) - y1) * (x1 - x0) / (y1 - y0))
        if not (lo < guess < hi):
            guess = lo * 1.5 if math.isinf(hi) else 0.5 * (lo + hi)
        cutoff = guess
    raise SetupFailed(f"no cutoff within {band:.1%} of {target} terms")


# --- walk counts for the oracle cutoff -------------------------------------

def _reflection_vectors(taus, cutoff):
    m1 = len(taus)

    def walk(n, prefix, t):
        yield t, prefix + (0,) * (m1 - n)
        if n < m1:
            kn = 1
            while t + kn * taus[n] <= cutoff:
                yield from walk(n + 1, prefix + (kn,), t + kn * taus[n])
                kn += 1

    if taus[0] <= cutoff:
        yield from walk(1, (1,), taus[0])


def _transmission_vectors(taus, tail, cutoff):
    m1 = len(taus)

    def walk(n, prefix, t):
        if n == m1:
            yield t, prefix
            return
        kn = 0
        while t + kn * taus[n] <= cutoff:
            yield from walk(n + 1, prefix + (kn,), t + kn * taus[n])
            kn += 1

    base = half_total(taus, tail)
    if base <= cutoff:
        yield from walk(1, (0,), base)


def reflection_walks(k: Sequence[int]) -> int:
    """Scattering walks with reflection transit vector k (all branch classes)."""
    out = 1
    for n, kn in enumerate(k):
        ktn = k[n + 1] if n + 1 < len(k) else 0
        un = min(1, ktn)
        out *= sum(math.comb(kn, b) * math.comb(ktn - un, b - un)
                   for b in range(un, min(kn, ktn) + 1))
    return out


def transmission_walks(k: Sequence[int]) -> int:
    """Scattering walks with transmission transit vector k (Vandermonde)."""
    out = 1
    for n, kn in enumerate(k):
        ktn = k[n + 1] if n + 1 < len(k) else 0
        out *= math.comb(kn + ktn, kn)
    return out


def walk_cutoff(taus, tail, target: int) -> Tuple[float, int]:
    """Smallest cutoff at which reflection plus transmission walks reach
    ``target``, placed midway to the next distinct arrival.  Arrivals
    within a relative 1e-6 are one tie (sums in another order differ in
    the last bits), so neither rounding nor the oracle's boundary padding
    can change the count."""
    cutoff = 2.0 * max(taus)
    while True:
        events = [(t, reflection_walks(k)) for t, k in _reflection_vectors(taus, cutoff)]
        events += [(t, transmission_walks(k))
                   for t, k in _transmission_vectors(taus, tail, cutoff)]
        events.sort()
        total = 0
        for i, (t, w) in enumerate(events):
            total += w
            if total < target or (i + 1 < len(events) and events[i + 1][0] <= t * (1 + 1e-6)):
                continue
            if i + 1 < len(events):
                return 0.5 * (t + events[i + 1][0]), total
            break
        cutoff *= 1.25


# --- files ------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_taur(path: Path, taus: Sequence[float], refls: Sequence[float],
               tail: float = 0.0) -> None:
    lines = [f"taur v1 M={len(taus) - 1}"]
    lines += [f"{_fmt(t)} {_fmt(r)}" for t, r in zip(taus, refls)]
    lines.append(f"tail {_fmt(tail)}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _expect_ok(results: List[CallResult]) -> None:
    for r in results:
        _expect(r.rc == 0, f"exit code {r.rc}: {r.stderr.strip()[-200:]}")


# --- trains -----------------------------------------------------------------

def _seeded_medium(rng: random.Random, layers: int = 11):
    taus = [rng.uniform(0.02, 0.95) for _ in range(layers)]
    refls = [rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95) for _ in range(layers)]
    return taus, refls


def sized_medium(index: int) -> dict:
    """Entry ``index`` of the media table: a random 10-layer medium and the
    cutoffs at which the benchmark's counter gives bench10's term counts
    to within TRAINS_BAND."""
    taus, refls = _seeded_medium(rng_for("trains-media", index))
    cut_r, n_r = size_cutoff(lambda c, cap: count_reflection(taus, c, cap),
                             BENCH10_REFLECT_TERMS, taus[0], TRAINS_BAND)
    cut_t, n_t = size_cutoff(lambda c, cap: count_transmission(taus, 0.0, c, cap),
                             BENCH10_TRANSMIT_TERMS, half_total(taus, 0.0), TRAINS_BAND)
    return {"taus": taus, "refls": refls, "reflect_cutoff": cut_r, "reflect_terms": n_r,
            "transmit_cutoff": cut_t, "transmit_terms": n_t}


def write_media_table(path: Path = TRAINS_TABLE, size: int = TRAINS_TABLE_SIZE) -> None:
    path.write_text(json.dumps([sized_medium(i) for i in range(size)], indent=1) + "\n",
                    encoding="ascii")


def _check_bench10(out_r: Path, out_t: Path):
    def check(results):
        _expect_ok(results)
        for path, digest, rows in ((out_r, BENCH10_REFLECT_SHA256, BENCH10_REFLECT_TERMS),
                                   (out_t, BENCH10_TRANSMIT_SHA256, BENCH10_TRANSMIT_TERMS)):
            data = path.read_bytes()
            _expect(data.count(b"\n") - 1 == rows, f"{path.name}: expected {rows} rows")
            _expect(hashlib.sha256(data).hexdigest() == digest,
                    f"{path.name}: sha256 differs from the reference CSV")
    return check


def _check_seeded_train(path: Path, kind: str, taus, refls, rows: int,
                        rng: random.Random) -> None:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        lines = fh.read().splitlines()
    _expect(header == "time,amplitude,k", f"{path.name}: header {header!r}")
    _expect(len(lines) == rows, f"{path.name}: {len(lines)} rows, counter says {rows}")
    prev = None
    for line in lines:
        t, _, k = line.split(",")
        key = (float(t), tuple(int(x) for x in k.split("|")))
        _expect(prev is None or prev < key, f"{path.name}: rows not sorted by (time, k)")
        prev = key
    medium = make_medium(taus, 0.0, refls)
    if kind == "reflection":
        arrival, amp = transit.reflection_arrival, amplitudes.reflection_amplitude
    else:
        arrival, amp = transit.transmission_arrival, amplitudes.transmission_amplitude
    for i in rng.sample(range(len(lines)), min(SAMPLED_ROWS, len(lines))):
        t, a, k = lines[i].split(",")
        k = tuple(int(x) for x in k.split("|"))
        _expect(float(t) == arrival(k, medium), f"{path.name} row {i}: arrival time")
        _expect(float(a) == amp(medium.reflections, transit.TransitVector(k, kind)),
                f"{path.name} row {i}: amplitude")


def _prepare_trains(seed: int, workdir: Path, root: Path) -> List[Request]:
    rng = rng_for("trains", seed)
    out_r, out_t = workdir / "reflect.csv", workdir / "transmit.csv"

    def argvs(medium, cut_r, cut_t):
        return [["reflect", "--medium", str(medium), "--cutoff", cut_r,
                 "--with-k", "--out", str(out_r)],
                ["transmit", "--medium", str(medium), "--cutoff", cut_t,
                 "--with-k", "--out", str(out_t)]]

    bench10 = Request("bench10",
                      argvs(root / BENCH10, BENCH10_REFLECT_CUTOFF, BENCH10_TRANSMIT_CUTOFF),
                      BENCH10_REFLECT_TERMS + BENCH10_TRANSMIT_TERMS,
                      _check_bench10(out_r, out_t))
    table = json.loads(TRAINS_TABLE.read_text(encoding="ascii"))
    requests = []
    for j, index in enumerate(rng.sample(range(len(table)), TRAINS_SEEDED_MEDIA)):
        entry = table[index]
        taus, refls = entry["taus"], entry["refls"]
        cut_r, n_r = entry["reflect_cutoff"], entry["reflect_terms"]
        cut_t, n_t = entry["transmit_cutoff"], entry["transmit_terms"]
        path = workdir / f"trains-{j}.taur"
        write_taur(path, taus, refls)
        check_rng = random.Random(rng.getrandbits(64))

        def check(results, taus=taus, refls=refls, n_r=n_r, n_t=n_t, check_rng=check_rng):
            _expect_ok(results)
            _check_seeded_train(out_r, "reflection", taus, refls, n_r, check_rng)
            _check_seeded_train(out_t, "transmission", taus, refls, n_t, check_rng)

        seeded = Request(f"media-{index}", argvs(path, repr(cut_r), repr(cut_t)),
                         n_r + n_t, check)
        requests += [bench10, seeded]
    return requests


# --- render -----------------------------------------------------------------

def _read_train(path: Path):
    with open(path, encoding="ascii") as fh:
        fh.readline()
        rows = [line.split(",") for line in fh.read().splitlines()]
    return [float(r[0]) for r in rows], [float(r[1]) for r in rows]


def ricker_sample(times, amps, t: float, freq: float) -> Tuple[float, float]:
    """Direct Ricker sum at t, and the sum of the absolute contributions."""
    a = (math.pi * freq) ** 2
    acc = scale = 0.0
    for tj, aj in zip(times, amps):
        x = a * (t - tj) ** 2
        c = aj * (1.0 - 2.0 * x) * math.exp(-x)
        acc += c
        scale += abs(c)
    return acc, scale


def _prepare_render(seed: int, workdir: Path, root: Path, run_cli) -> List[Request]:
    rng = rng_for("render", seed)
    train = workdir / "bench10-reflect.csv"
    result = run_cli(["reflect", "--medium", str(root / BENCH10), "--cutoff",
                      BENCH10_REFLECT_CUTOFF, "--with-k", "--out", str(train)])
    if result.rc != 0 or sha256_file(train) != BENCH10_REFLECT_SHA256:
        raise SetupFailed("bench10 reflection train differs from the reference CSV")
    times, amps = _read_train(train)
    out = workdir / "signal.csv"
    dt = float(RENDER_DT)

    def check(results):
        _expect_ok(results)
        with open(out, encoding="ascii") as fh:
            header = fh.readline().strip()
            lines = fh.read().splitlines()
        _expect(header == "time,value", f"signal header {header!r}")
        _expect(len(lines) == RENDER_N, f"{len(lines)} samples, expected {RENDER_N}")
        for i in rng.sample(range(RENDER_N), RENDER_SAMPLES):
            t_s, v_s = lines[i].split(",")
            t = i * dt
            _expect(abs(float(t_s) - t) <= 1e-12, f"sample {i}: time {t_s}")
            ref, scale = ricker_sample(times, amps, t, RENDER_FREQ)
            _expect(abs(float(v_s) - ref) <= RENDER_RTOL * scale + 1e-300,
                    f"sample {i}: {v_s} vs direct sum {ref!r}")

    argv = ["render", "--train", str(train), "--wavelet", f"ricker:{RENDER_FREQ:g}",
            "--dt", RENDER_DT, "--n", str(RENDER_N), "--out", str(out)]
    return [Request("bench10-reflect", [argv], RENDER_N, check)]


# --- verify -----------------------------------------------------------------

_ORACLE_DEV = re.compile(r"max relative amplitude deviation: (\S+)")
_ORACLE_MISMATCH = re.compile(r"class count mismatches: (\d+)")
_ORACLE_VECTORS = re.compile(r"(reflection|transmission): vectors=(\d+)")
_LATTICE_DEV = re.compile(r"max absolute deviation: (\S+)")


def _parse(pattern, text: str, what: str) -> str:
    match = pattern.search(text)
    _expect(match is not None, f"no {what} in output")
    return match.group(1)


def _prepare_verify(seed: int, workdir: Path) -> List[Request]:
    rng = rng_for("verify", seed)
    requests = []
    for j in range(VERIFY_MEDIA):
        m = rng.choice((2, 3))
        taus = [rng.uniform(0.2, 1.0) for _ in range(m + 1)]
        refls = [rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9) for _ in range(m + 1)]
        small = workdir / f"verify-{j}.taur"
        write_taur(small, taus, refls)
        cutoff, _ = walk_cutoff(taus, 0.0, VERIFY_WALKS)
        oracle_vectors = (count_reflection(taus, cutoff)
                          + count_transmission(taus, 0.0, cutoff))

        # equal-travel-time twin: the same coefficients cycled over M = 6
        d = sum(taus) / len(taus)
        twin_taus = [d] * (VERIFY_TWIN_LAYERS + 1)
        twin_refls = [refls[n % len(refls)] for n in range(VERIFY_TWIN_LAYERS + 1)]
        twin = workdir / f"verify-{j}-twin.taur"
        write_taur(twin, twin_taus, twin_refls)
        g_last = VERIFY_STEPS * d
        h_last = half_total(twin_taus, 0.0) + (VERIFY_STEPS - 1) * d
        lattice_vectors = (count_reflection(twin_taus, g_last * (1.0 + 1e-12))
                           + count_transmission(twin_taus, 0.0, h_last * (1.0 + 1e-12)))

        def check(results, oracle_vectors=oracle_vectors):
            _expect_ok(results)
            oracle_run, lattice_run = results
            dev = float(_parse(_ORACLE_DEV, oracle_run.stdout, "oracle deviation"))
            _expect(dev <= ORACLE_TOL, f"oracle deviation {dev:.3e} > {ORACLE_TOL}")
            _expect(_parse(_ORACLE_MISMATCH, oracle_run.stdout, "mismatch count") == "0",
                    "class count mismatches")
            vectors = sum(int(n) for _, n in _ORACLE_VECTORS.findall(oracle_run.stderr))
            _expect(vectors == oracle_vectors,
                    f"oracle checked {vectors} vectors, counter says {oracle_vectors}")
            dev = float(_parse(_LATTICE_DEV, lattice_run.stdout, "lattice deviation"))
            _expect(dev <= LATTICE_TOL, f"lattice deviation {dev:.3e} > {LATTICE_TOL}")

        argvs = [["oracle", "--medium", str(small), "--cutoff", repr(cutoff)],
                 ["lattice", "--medium", str(twin), "--steps", str(VERIFY_STEPS)]]
        requests.append(Request(f"seeded-{j}", argvs, oracle_vectors + lattice_vectors, check))
    return requests


def prepare(workload: str, seed: int, workdir: Path, root: Path, run_cli) -> List[Request]:
    """Write the workload's inputs under ``workdir`` and return its requests,
    in the order the closed loop sends them (cycling)."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "trains":
        return _prepare_trains(seed, workdir, root)
    if workload == "render":
        return _prepare_render(seed, workdir, root, run_cli)
    if workload == "verify":
        return _prepare_verify(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    # Regenerate the media table of the `trains` workload.
    write_media_table()
    print(f"wrote {TRAINS_TABLE_SIZE} sized media to {TRAINS_TABLE}", file=sys.stderr)
