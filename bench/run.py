"""layered-echo benchmark: end-to-end CLI metrics and per-layer metrics.

    python3 bench/run.py --workload trains --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout of the repository, against the package
source in ``src/``.  Each run happens in a fresh child interpreter
(bench/worker.py) with a wall-clock limit, so a hang ends as a failed run.
``LAYERED_ECHO_THREADS`` is removed from the child's environment, so the
CLI picks its default thread count.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over several fresh interpreters of the time from starting the
interpreter to the first timed request, scaled to a machine of fixed
speed: the calibration loop (bench/calibration.py) runs before and
between the set-ups, each set-up is divided by the mean of the loops
just before and after it, and ``setup_s`` is in seconds of a machine
where one pass of the loop takes CAL_REF_S.  ``--trace 1`` reports the
per-layer metrics of a traced run (bench/tracer.py) and the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment and the details behind the metrics.  The exit code is 0
when every request passed its check, 1 when a request or the run failed,
and 2 when the repository is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("trains", "render", "verify")
THREADS_ENV = "LAYERED_ECHO_THREADS"
# Set-ups per run: at least SETUP_MIN, then more until SETUP_BUDGET_S has
# passed, at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 12, 8.0
# setup_s is in seconds of a machine where one calibration pass takes this.
CAL_REF_S = 0.020
RUN_LIMIT_S = 170.0

# The seven end-to-end metrics in measured units: (name, unit, meaning).
END_TO_END = (
    ("setup_s", "s", "interpreter start to first timed request, median of set-ups, calibrated"),
    ("request_p50_s", "s", "median wall time per request"),
    ("request_tail_s", "s", "wall time at the highest percentile with >= 10 samples beyond it"),
    ("items_per_s", "1/s", "items completed per second of request time"),
    ("cpu_per_request_s", "s", "median process CPU seconds per request"),
    ("peak_rss_mb", "MB", "ru_maxrss of the workload's child process"),
    ("failed_frac", "ratio", "failed requests / attempted requests"),
)
# The same request metrics with each request's time divided by the time of
# the calibration loop run around it (bench/calibration.py), which cancels
# most of the machine's speed drift.  These, set-up time and memory are the
# result line's metrics, each with a bound in BENCHMARK.json.  failed_frac
# is 0 on a good run, so the result carries it as `attempted` and `failed`.
CALIBRATED = (
    ("request_p50_cal", "cal", "median request time / calibration time"),
    ("request_tail_cal", "cal", "request_tail_s, calibrated"),
    ("items_per_cal", "1/cal", "items completed per calibration time of requests"),
    ("cpu_per_request_cal", "cal", "median request CPU time / calibration time"),
)
RESULT_METRICS = ("setup_s", "request_p50_cal", "request_tail_cal", "items_per_cal",
                  "cpu_per_request_cal", "peak_rss_mb")
UNITS = {name: unit for name, unit, _ in END_TO_END + CALIBRATED}

ITEMS = {"trains": "terms written", "render": "output samples",
         "verify": "transit vectors checked"}

# ROADMAP baseline for bench10 (one thread): seconds per stage.
ROADMAP_STAGES = {
    "reflect": {"enumerate": 0.154, "amplitudes": 0.435, "csv": 0.120},
    "transmit": {"enumerate": 0.189, "amplitudes": 0.393, "csv": 0.193},
}


def git_sha(root: Path) -> str:
    """HEAD commit read from .git inside the checkout, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(walls):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it.  With ten samples or fewer no percentile has, and
    the minimum (percentile 0) continues the rule from eleven samples,
    where it is already the minimum."""
    walls = sorted(walls)
    n = len(walls)
    if n <= 10:
        return walls[0], 0.0
    return walls[n - 11], 100.0 * (n - 10) / n


def run_child(argv, env, deadline):
    """Run a worker; return (exit code or None if killed, events)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    events, buf, killed = [], b"", False
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                killed = True
                break
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if event.get("event") == "ready":
                    event["setup_s"] = now - start
                events.append(event)
        if not killed:
            try:
                proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                killed = True
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return (None if killed else proc.returncode), events


def summarize(workload, requests, setups, done, finished=True):
    """End-to-end metrics from the untraced requests that passed their check.

    A run that did not finish (killed at its limit, or crashed) counts the
    request in flight as attempted and failed.  Returns (values, detail);
    the timing values are None when no request passed.
    """
    attempted = len(requests) + (0 if finished else 1)
    failed = sum(not r["ok"] for r in requests) + (0 if finished else 1)
    good = [r for r in requests if r["ok"] and not r["traced"]]
    walls = [r["wall"] for r in good]
    cals = [r["wall"] / r["cal"] for r in good]
    values = dict.fromkeys(UNITS)
    values["setup_s"] = statistics.median(setups) if setups else None
    values["peak_rss_mb"] = done["peak_rss_kb"] / 1024.0 if done else None
    values["failed_frac"] = failed / attempted if attempted else None
    detail = {"attempted": attempted, "failed": failed, "samples": len(walls),
              "items": ITEMS[workload], "setup_samples_s": setups}
    if walls:
        values["request_tail_s"], detail["tail_percentile"] = tail(walls)
        values["request_tail_cal"], _ = tail(cals)
        values["request_p50_s"] = statistics.median(walls)
        values["request_p50_cal"] = statistics.median(cals)
        items = sum(r["items"] for r in good)
        values["items_per_s"] = items / sum(walls)
        values["items_per_cal"] = items / sum(cals)
        values["cpu_per_request_s"] = statistics.median(r["cpu"] for r in good)
        values["cpu_per_request_cal"] = statistics.median(r["cpu"] / r["cal"] for r in good)
        detail["calibration_ms"] = 1000 * statistics.median(r["cal"] for r in good)
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/layered_echo/cli.py", "bench10.taur") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    name = f"{args.workload}-seed{args.seed}"
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    spans = ROOT / ".bench_out" / f"spans-{name}.jsonl"
    child = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir), "--root", str(ROOT),
             "--spans", str(spans)]

    raw_setups, cals = [], []
    try:
        # Set-up alone, in fresh interpreters, with the calibration loop
        # before and between them.
        start = time.perf_counter()
        while args.trace == 0 and len(raw_setups) < SETUP_MAX and (
                len(raw_setups) < SETUP_MIN or time.perf_counter() - start < SETUP_BUDGET_S):
            shutil.rmtree(workdir, ignore_errors=True)
            if not cals:
                cals.append(calibrate())
            rc, events = run_child(child + ["--setup-only"], env, deadline)
            cals.append(calibrate())
            ready = [e for e in events if e["event"] == "ready"]
            if rc != 0 or not ready:
                print(f"error: set-up of {args.workload} failed (exit {rc})", file=sys.stderr)
                return 1
            raw_setups.append(ready[0]["setup_s"])
        shutil.rmtree(workdir, ignore_errors=True)
        rc, events = run_child(child, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    ready = next((e for e in events if e["event"] == "ready"), None)
    done = next((e for e in events if e["event"] == "done"), None)
    requests = [e for e in events if e["event"] == "request"]
    if ready is None:
        print(f"error: set-up of {args.workload} failed (exit {rc})", file=sys.stderr)
        return 1
    setups = [s * CAL_REF_S / (0.5 * (cals[i] + cals[i + 1]))
              for i, s in enumerate(raw_setups[:len(cals) - 1])]
    finished = done is not None and rc == 0
    values, detail = summarize(args.workload, requests, setups, done, finished)
    detail["setup_raw_s"] = raw_setups
    detail["setup_calibration_ms"] = [1000 * c for c in cals]
    attempted, failed = detail["attempted"], detail["failed"]
    correct = failed == 0
    for r in requests:
        if not r["ok"]:
            print(f"failed request {r['label']}: {r.get('error')}", file=sys.stderr)
    if not finished:
        print(f"error: run did not finish (exit {rc}; the limit is {RUN_LIMIT_S:.0f} s)",
              file=sys.stderr)
    if values["request_p50_s"] is None:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    env_record = dict(ready["env"], git_sha=git_sha(ROOT))
    detail.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  env=env_record)

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in env_record.items() if k != "seed"))
    if args.trace == 0:
        metrics = {n: {"value": values[n], "unit": UNITS[n]} for n in RESULT_METRICS}
        for n, u, what in END_TO_END + CALIBRATED:
            print(f"{n:<20} {values[n]:>14.6g} {u:<6} {what}")
        print(f"{'':<20} tail = p{detail['tail_percentile']:.0f} of {detail['samples']} "
              f"requests; items = {ITEMS[args.workload]}; failed {failed} of {attempted}; "
              f"calibration {detail['calibration_ms']:.2f} ms")
    else:
        layers = done["layers"] if done else {"metrics": {}, "bench10_stages": {}}
        metrics = dict(layers["metrics"])
        traced = [r["wall"] for r in requests if r["ok"] and r["traced"]]
        overhead = (statistics.median(traced) - values["request_p50_s"]) if traced else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for n, m in metrics.items():
            print(f"{n:<30} {m['value']:>14.6g} {m['unit']}")
        print(f"{'':<30} medians over {len(traced)} traced requests; untraced "
              f"request_p50_s {values['request_p50_s']:.6g} s")
        stages = layers["bench10_stages"]
        if stages:
            print("bench10 stage seconds, traced run vs ROADMAP baseline (one thread):")
            print(f"  {'command':<9} {'stage':<11} {'baseline':>9} {'measured':>9} {'diff':>9}")
            for cmd, base in ROADMAP_STAGES.items():
                for stage, b in base.items():
                    m = stages.get(cmd, {}).get(stage)
                    if m is not None:
                        print(f"  {cmd:<9} {stage:<11} {b:>9.3f} {m:>9.3f} {m - b:>+9.3f}")
        detail["bench10_stages"] = stages
        detail["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
