"""Per-layer tracing of layered_echo from outside the package.

``Tracer.install()`` replaces the public functions of each package module
with wrappers, including the names that ``cli`` and ``greens`` import
directly, and ``uninstall()`` puts the originals back.  The package code
is not modified.

Between ``begin_request()`` and ``end_request()`` the wrappers record one
span per layer call (name, start, end, parent, process CPU) and keep
aggregate counters for per-vector calls (amplitudes, scattering walks,
wavelet evaluations), where a span each would cost more than the call.
Outside a request the wrappers call straight through, so correctness
checks that use the package are not counted.  Spans stay in memory until
``write()``.

Amplitudes may run on the CLI's thread pool.  Their time is per-thread
CPU time, so time spent waiting for the interpreter lock is not counted,
and it is charged to the span open on the main thread (the train build).
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from typing import Dict, List, Optional

from layered_echo import amplitudes, cli, goupillaud, greens, medium, oracle, transit

# The per-layer metrics, in report order, with their units.
LAYER_METRICS = (
    ("transit.enumerate_s", "s"),
    ("transit.vectors", "count"),
    ("amplitudes.s", "s"),
    ("amplitudes.calls", "count"),
    ("amplitudes.factor_evals", "count"),
    ("amplitudes.distinct_factors", "count"),
    ("amplitudes.factor_reuse", "ratio"),
    ("greens.build_s", "s"),
    ("greens.build_self_s", "s"),
    ("greens.build_cpu_s", "s"),
    ("greens.terms", "count"),
    ("greens.merge_ties_s", "s"),
    ("greens.merge_in", "count"),
    ("greens.merge_out", "count"),
    ("greens.write_train_csv_s", "s"),
    ("greens.csv_bytes", "bytes"),
    ("greens.read_train_csv_s", "s"),
    ("greens.write_signal_csv_s", "s"),
    ("greens.convolve_s", "s"),
    ("greens.wavelet_calls", "count"),
    ("greens.wavelet_useful_frac", "ratio"),
    ("oracle.walks", "count"),
    ("oracle.walk_passes", "count"),
    ("oracle.weight_sums_s", "s"),
    ("oracle.class_counts_s", "s"),
    ("goupillaud.simulate_s", "s"),
    ("goupillaud.cell_updates", "count"),
    ("medium.read_s", "s"),
    ("cli.main_calls", "count"),
    ("cli.main_self_s", "s"),
)

# Span name -> per-layer metric that sums its durations.
_SPAN_SECONDS = {
    "transit.enumerate": "transit.enumerate_s",
    "greens.build": "greens.build_s",
    "greens.merge_ties": "greens.merge_ties_s",
    "greens.write_train_csv": "greens.write_train_csv_s",
    "greens.read_train_csv": "greens.read_train_csv_s",
    "greens.write_signal_csv": "greens.write_signal_csv_s",
    "greens.convolve": "greens.convolve_s",
    "oracle.weight_sums_by_vector": "oracle.weight_sums_s",
    "oracle.class_counts": "oracle.class_counts_s",
    "goupillaud.simulate": "goupillaud.simulate_s",
    "medium.read": "medium.read_s",
}

# A Ricker sample (1 - 2x) exp(-x), x = (pi f t)^2, is below 1e-15 of the
# peak once x >= 40: calls beyond that radius buy nothing.
_USEFUL_X = 40.0


class _Request:
    def __init__(self, rid: int, label: str):
        self.rid = rid
        self.label = label
        self.counts: Dict[str, float] = {}
        self.wavelets: List[list] = []
        # thread id -> ({span id: amplitude CPU seconds}, [(kind, k) per call])
        self.amp: Dict[int, tuple] = {}

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._request: Optional[_Request] = None
        self._command = ""
        self._saved = []
        self._next_rid = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"rid": self._request.rid, "id": len(self.spans),
                "parent": parent["id"] if parent else None, "name": name,
                "cmd": self._command, "attrs": {}, "child_s": 0.0,
                "cpu0": time.process_time(), "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu_s"] = time.process_time() - span.pop("cpu0")
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def _span(self, name: str, fn, attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            return result

        return wrapper

    # -- wrappers with their own accounting -------------------------------------

    def _main(self, fn):
        tracer = self
        inner = self._span("cli.main", fn)

        def main(argv=None):
            if tracer._request is None:
                return fn(argv)
            tracer._command = argv[0] if argv else ""
            try:
                return inner(argv)
            finally:
                tracer._command = ""

        return main

    def _enumerate(self, fn):
        tracer = self

        def enumerate_vectors(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            span = tracer._open("transit.enumerate")
            try:
                vectors = list(fn(*args, **kwargs))
            finally:
                tracer._close(span)
            span["attrs"]["vectors"] = len(vectors)
            return iter(vectors)

        return enumerate_vectors

    def _amplitude(self, fn, kind: str):
        tracer = self

        def amplitude(refls, tv):
            req = tracer._request
            if req is None:
                return fn(refls, tv)
            start = time.thread_time()
            try:
                return fn(refls, tv)
            finally:
                spent = time.thread_time() - start
                # one accumulator per thread, so the pool's threads share no counter
                acc = req.amp.get(threading.get_ident())
                if acc is None:
                    acc = req.amp.setdefault(threading.get_ident(), ({}, []))
                seconds, vectors = acc
                span = tracer._stack[-1]["id"]
                seconds[span] = seconds.get(span, 0.0) + spent
                vectors.append((kind, tv.k))

        return amplitude

    def _ricker(self, fn):
        tracer = self

        def ricker(peak_freq):
            w = fn(peak_freq)
            req = tracer._request
            if req is None:
                return w
            a = (math.pi * peak_freq) ** 2
            counts = [0, 0]
            req.wavelets.append(counts)

            def counted(t):
                counts[0] += 1
                if a * t * t < _USEFUL_X:
                    counts[1] += 1
                return w(t)

            return counted

        return ricker

    def _sequences(self, fn):
        tracer = self

        def enumerate_sequences(*args, **kwargs):
            req = tracer._request
            if req is None:
                yield from fn(*args, **kwargs)
                return
            req.add("oracle.walk_passes", 1)
            walks = 0
            try:
                for seq in fn(*args, **kwargs):
                    walks += 1
                    yield seq
            finally:
                req.add("oracle.walks", walks)

        return enumerate_sequences

    # -- install / uninstall ---------------------------------------------------

    def _targets(self):
        def terms(args, kwargs, result):
            return {"terms": len(result)}

        def merged(args, kwargs, result):
            return {"in": len(args[0]), "out": len(result)}

        def cells(args, kwargs, result):
            m = args[0].n_layers
            return {"cells": (2 * args[1] + m + 1) * (m + 1)}

        refl_amp = self._amplitude(amplitudes.reflection_amplitude, "reflection")
        trans_amp = self._amplitude(amplitudes.transmission_amplitude, "transmission")
        read = self._span("medium.read", medium.read_medium)
        return [
            ((cli, "main"), self._main(cli.main)),
            ((medium, "read_medium"), read),
            ((cli, "read_medium"), read),
            ((transit, "enumerate_reflection"), self._enumerate(transit.enumerate_reflection)),
            ((transit, "enumerate_transmission"), self._enumerate(transit.enumerate_transmission)),
            ((amplitudes, "reflection_amplitude"), refl_amp),
            ((greens, "reflection_amplitude"), refl_amp),
            ((amplitudes, "transmission_amplitude"), trans_amp),
            ((greens, "transmission_amplitude"), trans_amp),
            ((greens, "reflection_green"), self._span("greens.build", greens.reflection_green, terms)),
            ((greens, "transmission_green"), self._span("greens.build", greens.transmission_green, terms)),
            ((greens, "merge_ties"), self._span("greens.merge_ties", greens.merge_ties, merged)),
            ((greens, "write_train_csv"), self._csv_writer(greens.write_train_csv)),
            ((greens, "read_train_csv"), self._span("greens.read_train_csv", greens.read_train_csv)),
            ((greens, "write_signal_csv"), self._span("greens.write_signal_csv", greens.write_signal_csv)),
            ((greens, "convolve"), self._span("greens.convolve", greens.convolve)),
            ((greens, "ricker"), self._ricker(greens.ricker)),
            ((oracle, "enumerate_sequences"), self._sequences(oracle.enumerate_sequences)),
            ((oracle, "weight_sums_by_vector"),
             self._span("oracle.weight_sums_by_vector", oracle.weight_sums_by_vector)),
            ((oracle, "class_counts"), self._span("oracle.class_counts", oracle.class_counts)),
            ((goupillaud, "simulate"), self._span("goupillaud.simulate", goupillaud.simulate, cells)),
        ]

    def _csv_writer(self, fn):
        tracer = self
        inner = self._span("greens.write_train_csv", fn)

        def write_train_csv(train, stream, *args, **kwargs):
            if tracer._request is None:
                return fn(train, stream, *args, **kwargs)
            before = stream.tell()
            result = inner(train, stream, *args, **kwargs)
            tracer.spans[-1]["attrs"]["bytes"] = stream.tell() - before
            return result

        return write_train_csv

    def install(self) -> None:
        if self._saved:
            return
        for (module, name), wrapper in self._targets():
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved = []

    # -- requests ----------------------------------------------------------------

    def begin_request(self, label: str) -> None:
        self._request = _Request(self._next_rid, label)
        self._next_rid += 1
        self._stack = []
        self._open("request")["attrs"]["label"] = label

    def end_request(self) -> dict:
        """Close the request and return its per-layer metrics."""
        req = self._request
        while self._stack:
            self._close(self._stack[-1])
        self._request = None
        for seconds, _ in req.amp.values():
            for sid, spent in seconds.items():
                self.spans[sid]["child_s"] += spent
                self.spans[sid]["amp_s"] = self.spans[sid].get("amp_s", 0.0) + spent
        return _request_metrics(req, [s for s in self.spans if s["rid"] == req.rid])

    def write(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _request_metrics(req: _Request, spans: List[dict]) -> dict:
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    for key in ("oracle.walks", "oracle.walk_passes"):
        out[key] = req.counts.get(key, 0.0)
    factors = set()
    for _, vectors in req.amp.values():
        out["amplitudes.calls"] += len(vectors)
        for kind, k in set(vectors):
            factors.update((kind, n, kn, ktn) for n, (kn, ktn) in enumerate(zip(k, k[1:] + (0,))))
        out["amplitudes.factor_evals"] += sum(len(k) for _, k in vectors)
    out["amplitudes.distinct_factors"] = len(factors)
    if factors:
        out["amplitudes.factor_reuse"] = out["amplitudes.factor_evals"] / len(factors)
    for s in spans:
        dur = s["end"] - s["start"]
        out["amplitudes.s"] += s.get("amp_s", 0.0)
        if s["name"] in _SPAN_SECONDS:
            out[_SPAN_SECONDS[s["name"]]] += dur
        attrs = s["attrs"]
        if s["name"] == "transit.enumerate":
            out["transit.vectors"] += attrs["vectors"]
        elif s["name"] == "greens.build":
            out["greens.build_self_s"] += dur - s["child_s"]
            out["greens.build_cpu_s"] += s["cpu_s"]
            out["greens.terms"] += attrs["terms"]
        elif s["name"] == "greens.merge_ties":
            out["greens.merge_in"] += attrs["in"]
            out["greens.merge_out"] += attrs["out"]
        elif s["name"] == "greens.write_train_csv":
            out["greens.csv_bytes"] += attrs.get("bytes", 0)
        elif s["name"] == "goupillaud.simulate":
            out["goupillaud.cell_updates"] += attrs["cells"]
        elif s["name"] == "cli.main":
            out["cli.main_calls"] += 1
            out["cli.main_self_s"] += dur - s["child_s"]
    calls = sum(c[0] for c in req.wavelets)
    out["greens.wavelet_calls"] = calls
    if calls:
        out["greens.wavelet_useful_frac"] = sum(c[1] for c in req.wavelets) / calls
    out["label"] = req.label
    out["stages"] = _stages(spans)
    return out


def _stages(spans: List[dict]) -> dict:
    """Per CLI command: enumerate, amplitudes and CSV-write seconds."""
    out = {s["cmd"]: {"enumerate": 0.0, "amplitudes": 0.0, "csv": 0.0}
           for s in spans if s["name"] == "cli.main"}
    for s in spans:
        stages = out.get(s["cmd"])
        if stages is None:
            continue
        stages["amplitudes"] += s.get("amp_s", 0.0)
        if s["name"] == "transit.enumerate":
            stages["enumerate"] += s["end"] - s["start"]
        elif s["name"] == "greens.write_train_csv":
            stages["csv"] += s["end"] - s["start"]
    return out


def summarize(rows: List[dict]) -> dict:
    """Median over traced requests of each per-layer metric, with its unit,
    and the median stage seconds of the bench10 requests per CLI command."""
    metrics = {name: {"value": statistics.median(r[name] for r in rows) if rows else 0.0,
                      "unit": unit}
               for name, unit in LAYER_METRICS}
    stages = {}
    bench10 = [r["stages"] for r in rows if r["label"] == "bench10"]
    for cmd in ("reflect", "transmit"):
        per = [s[cmd] for s in bench10 if cmd in s]
        if per:
            stages[cmd] = {stage: statistics.median(p[stage] for p in per)
                           for stage in ("enumerate", "amplitudes", "csv")}
    return {"metrics": metrics, "bench10_stages": stages}
