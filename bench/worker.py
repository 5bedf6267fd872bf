"""One benchmark run in a fresh interpreter, started by run.py.

Sets up the workload, prints a ``ready`` event, then sends requests in a
closed loop (one client: the next request starts after the previous one
and its check finish) for ``--seconds``.  Each request is a sequence of
in-process ``layered_echo.cli.main(argv)`` calls with the CLI defaults;
only those calls are timed.  Events go to stdout, one JSON object per
line, as they happen, so a run killed at its wall-clock limit still
reports the requests it finished.

With ``--trace 1`` every input is sent twice, once traced and once not
(in alternating order), so the tracing overhead is measured on the same
inputs.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from itertools import count, cycle
from pathlib import Path

from layered_echo import cli

import tracer as tracing
import workloads
from calibration import calibrate
from workloads import CallResult


def emit(stream, event: str, **fields) -> None:
    stream.write(json.dumps({"event": event, **fields}) + "\n")
    stream.flush()


def call_cli(argv) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return CallResult(rc, out.getvalue(), err.getvalue())


def send(req, tracer=None) -> dict:
    """Run one request and its check; failures are reported, not raised."""
    record = {"label": req.label, "traced": tracer is not None, "ok": False}
    gc.collect()
    if tracer is not None:
        tracer.begin_request(req.label)
    try:
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            results = [call_cli(argv) for argv in req.argvs]
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            layers = tracer.end_request() if tracer is not None else None
        req.check(results)
    except workloads.CheckFailed as exc:
        record["error"] = f"CheckFailed: {exc}"
        return record
    except Exception:  # a crash in the package is a failed request, not a stopped run
        record["error"] = traceback.format_exc(limit=-3)
        return record
    record.update(ok=True, wall=wall, cpu=cpu, items=req.items)
    if layers is not None:
        record["layers"] = layers
    return record


def measure(requests, seconds: float, stream, tracer=None) -> list:
    """Closed loop over the requests, cycling, until ``seconds`` have passed
    (at least one request, or one traced/untraced pair).  Each request is
    bracketed by calibration loops; its record carries their mean as
    ``cal``.  Returns the per-layer metrics of each traced request that
    passed its check."""
    layers = []
    cal = calibrate()
    deadline = time.perf_counter() + seconds
    for i, req in zip(count(), cycle(requests)):
        if i and time.perf_counter() >= deadline:
            break
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if (i // 2) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.install()
                try:
                    record = send(req, tracer)
                finally:
                    tracer.uninstall()
                if record["ok"]:
                    layers.append(record.pop("layers"))
            else:
                record = send(req)
            after = calibrate()
            record["cal"] = 0.5 * (cal + after)
            cal = after
            emit(stream, "request", **record)
    return layers


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cli_threads": cli._default_threads(),
            "threads_env": os.environ.get(cli.THREADS_ENV), "python": platform.python_version(),
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where --trace 1 writes its spans (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    stream = sys.stdout
    requests = workloads.prepare(args.workload, args.seed, args.workdir, args.root, call_cli)
    emit(stream, "ready", env=environment(args.seed))
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    layers = measure(requests, args.seconds, stream, tracer)
    done = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        done["layers"] = tracing.summarize(layers)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    emit(stream, "done", **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
