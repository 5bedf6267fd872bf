"""Command-line front end.

Subcommands: reflect, transmit, convert, oracle, lattice, render.
Pulse trains and sampled signals go to stdout (or --out) as CSV; summary
metrics go to stderr so stdout stays pipeline-clean.  Exit codes: 0 on
success, 1 on verification failure (oracle/lattice deviation), 2 on
usage, parse or validation errors and on any failure to read or write a
file or pipe, and when memory runs out.  The subcommands raise; ``main``
alone turns a ``LayeredEchoError``, ``OSError`` or ``MemoryError`` into
one ``error:`` line and exit 2.

``oracle`` and ``lattice`` build no train: they read ``greens.arrivals``.

A command runs with the cyclic garbage collector paused, and ``main``
leaves it as it found it.  A build allocates a few objects per transit
vector (stack entry, k text, row) and none of them form a reference
cycle, so the collector's repeated scans of them find nothing and cost a
large share of a build; reference counting still frees every object at
once.  The library modules never touch the collector: that
process-wide choice belongs to the application.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import stat
import sys
import time
from contextlib import contextmanager
from itertools import chain
from typing import Optional

from . import goupillaud, greens, oracle
from .amplitudes import class_table
from .errors import DomainError, LayeredEchoError
from .medium import read_medium, write_medium
from .transit import REFLECTION, TRANSMISSION, TransitVector, parse_k

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

# --threads and $LAYERED_ECHO_THREADS are accepted and have no effect; the
# benchmark worker records this default with its machine facts
THREADS_ENV = "LAYERED_ECHO_THREADS"


def _default_threads() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@contextmanager
def _open_out(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
        return
    # Overwrite in place and cut the old tail off at the end, instead of
    # opening with O_TRUNC: on ext4 (auto_da_alloc) truncating a file that
    # was just written starts its writeback on close, and the next truncate
    # of it waits for the disk, tens of milliseconds per call.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="ascii", newline="") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _parse_wavelet(spec: str):
    if spec == "spike":
        return "spike"
    if spec.startswith("ricker:"):
        try:
            freq = float(spec.split(":", 1)[1])
        except ValueError:
            raise LayeredEchoError(f"bad wavelet spec: {spec!r}") from None
        return greens.ricker(freq)
    raise LayeredEchoError(f"bad wavelet spec: {spec!r} (use ricker:FREQ or spike)")


def _run_train(args) -> int:
    if not (args.cutoff > 0):
        raise DomainError("--cutoff must be positive")
    medium = read_medium(args.medium)
    start = time.perf_counter()
    build = greens.reflection_green if args.kind == REFLECTION else greens.transmission_green
    train = build(medium, args.cutoff, amplitude_floor=args.floor)
    if args.merge_tol is not None:
        train = greens.merge_ties(train, args.merge_tol)
    # build time: the medium parse before and the CSV write after are not in it
    built = time.perf_counter() - start
    with _open_out(args.out) as fh:
        greens.write_train_csv(train, fh, with_k=args.with_k)
    amps = train.amps
    lo = min(amps, key=abs) if amps else 0.0
    hi = max(amps, key=abs) if amps else 0.0
    print(f"{args.kind}: terms={len(train)} min_amp={lo:.6g} max_amp={hi:.6g} "
          f"build={built:.3f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_convert(args) -> int:
    medium = read_medium(args.medium)
    with _open_out(args.out) as fh:
        fh.write(write_medium(medium))
    return EXIT_OK


def _class_mismatch(kind: str, k, b, count: int, expected: int) -> bool:
    """Name on stderr a class whose walk count differs from the formula's."""
    if count == expected:
        return False
    print(f"class count mismatch {kind} k={k} b={b}: "
          f"oracle {count} vs formula {expected}", file=sys.stderr)
    return True


def _cmd_oracle(args) -> int:
    if not (args.cutoff > 0):
        raise DomainError("--cutoff must be positive")
    if not (args.tol >= 0.0):
        raise DomainError(f"--tol must be a non-negative number, got {args.tol}")
    medium = read_medium(args.medium)
    kinds = [args.kind] if args.kind else [REFLECTION, TRANSMISSION]
    tol = args.tol
    worst = 0.0
    mismatches = 0
    missing = 0
    for kind in kinds:
        closed = {parse_k(text): amp
                  for _, text, amp in greens.arrivals(medium, kind, args.cutoff)}
        sums, counts = oracle.tally(medium, kind, args.cutoff)
        if args.corrupt and closed:
            closed[next(iter(closed))] += 1e-3  # test hook: force a detectable deviation
        for k, amp in closed.items():
            brute = sums.get(k, 0.0)
            scale = max(abs(brute), abs(amp), 1e-300)
            worst = max(worst, abs(amp - brute) / scale)
        # a walk-found vector the closed form lacks: the walks prune on the
        # search's own arrival floats, so each one arrives by the cutoff
        lacking = [k for k in sums if k not in closed]
        missing += len(lacking)
        for k in lacking:
            print(f"missing transit vector {kind} k={k}", file=sys.stderr)
        # every class of every vector against the formula, then each class
        # the walks found outside the formula's set against 0
        n_classes = len(counts)
        for k in chain(closed, lacking):
            for b, expected in class_table(TransitVector(k, kind)).items():
                mismatches += _class_mismatch(kind, k, b, counts.pop((k, b), 0), expected)
        for (k, b), count in counts.items():
            mismatches += _class_mismatch(kind, k, b, count, 0)
        print(f"{kind}: vectors={len(closed)} classes={n_classes}", file=sys.stderr)
    print(f"max relative amplitude deviation: {worst:.3e}")
    print(f"class count mismatches: {mismatches}")
    print(f"missing transit vectors: {missing}")
    if worst > tol or mismatches or missing:
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_lattice(args) -> int:
    if not (args.tol >= 0.0):
        raise DomainError(f"--tol must be a non-negative number, got {args.tol}")
    medium = read_medium(args.medium)
    result = goupillaud.simulate(medium, args.steps)
    worst = 0.0
    for kind, times, samples in ((REFLECTION, result.g_times, result.g),
                                 (TRANSMISSION, result.h_times, result.h)):
        # each row goes into its nearest slot as it comes, summing tied arrivals
        t0, period, n = times[0], result.period, len(times)
        binned = [0.0] * n
        for t, _, amp in greens.arrivals(medium, kind, times[-1] * (1.0 + 1e-12)):
            j = round((t - t0) / period)
            if 0 <= j < n:
                binned[j] += amp
        for s, b in zip(samples, binned):
            worst = max(worst, abs(s - b))
    energy = result.energy()
    print(f"max absolute deviation: {worst:.3e}")
    print(f"energy: {energy:.12f}")
    if worst > args.tol or energy > 1.0 + 1e-9:
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_render(args) -> int:
    with open(args.train, "r", encoding="ascii") as fh:
        train = greens.read_train_csv(fh)
    wavelet = _parse_wavelet(args.wavelet)
    signal = greens.convolve(train, wavelet, args.t0, args.dt, args.n)
    with _open_out(args.out) as fh:
        greens.write_signal_csv(signal, fh)
    return EXIT_OK


def _add_common_train_args(p):
    p.add_argument("--medium", required=True, help="medium file (taur or phys)")
    p.add_argument("--cutoff", type=float, required=True,
                   help="arrival-time cutoff in seconds (inclusive)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--merge-tol", type=float, default=None, dest="merge_tol",
                   help="merge coincident arrivals at this relative tolerance")
    p.add_argument("--floor", type=float, default=0.0,
                   help="drop terms with |amplitude| below this (default keep all)")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and has no effect")
    p.add_argument("--with-k", action="store_true", dest="with_k",
                   help="emit the transit vector provenance column")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layered-echo",
        description="Exact reflection/transmission Green's functions of "
                    "piecewise-constant layered acoustic media.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reflect", help="compute the reflection pulse train")
    _add_common_train_args(p)
    p.set_defaults(func=_run_train, kind=REFLECTION)

    p = sub.add_parser("transmit", help="compute the transmission pulse train")
    _add_common_train_args(p)
    p.set_defaults(func=_run_train, kind=TRANSMISSION)

    p = sub.add_parser("convert", help="convert a physical profile to tau-R form")
    p.add_argument("--medium", required=True, help="physical-format medium file")
    p.add_argument("--out", default=None, help="output tau-R path (default stdout)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("oracle", help="check closed forms against brute force")
    p.add_argument("--medium", required=True)
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--kind", choices=[REFLECTION, TRANSMISSION], default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("lattice", help="check closed forms against the "
                                       "recursion on the travel-time quantum")
    p.add_argument("--medium", required=True)
    p.add_argument("--steps", type=int, default=12, help="time quanta to simulate")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("render", help="convolve a train CSV onto a sample grid")
    p.add_argument("--train", required=True, help="pulse-train CSV")
    p.add_argument("--wavelet", default="spike", help="ricker:FREQ or spike")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was and
    # fills a new Namespace each call, and a build costs about a millisecond
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except (LayeredEchoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            try:
                sys.stdout.flush()
            except BrokenPipeError:
                # stdout's reader has gone: send what is still buffered to
                # devnull, or the interpreter's flush at exit fails again
                with open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
