"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from layered_echo import make_medium, oracle, transit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload, seed, workdir):
    """The requests' argv (workdir made relative) and every input file's bytes."""
    requests = workloads.prepare(workload, seed, workdir, ROOT, worker.call_cli)
    argvs = [[a.replace(str(workdir), "<work>") for a in argv]
             for req in requests for argv in req.argvs]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
             if p.suffix == ".taur" or p.name == "bench10-reflect.csv"}
    return argvs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    if workload != "render":  # render's input is the fixed bench10 train
        assert first != _inputs(workload, 8, tmp_path / "c")


def test_counters_match_the_enumerators():
    rng = random.Random(0)
    for _ in range(60):
        m = rng.choice((1, 2, 4, 6))
        taus = [rng.choice((0.5, rng.uniform(0.05, 1.0))) for _ in range(m + 1)]
        medium = make_medium(taus, 0.0, [0.3] * (m + 1))
        cutoff = rng.uniform(0.5, 4.0)
        assert workloads.count_reflection(taus, cutoff) == sum(
            1 for _ in transit.enumerate_reflection(medium, cutoff))
        assert workloads.count_transmission(taus, 0.0, cutoff) == sum(
            1 for _ in transit.enumerate_transmission(medium, cutoff))


def test_walk_counts_match_the_walk_enumerator():
    taus, refls = (0.7, 0.45, 0.9), (0.5, -0.3, 0.6)
    medium = make_medium(taus, 0.0, refls)
    cutoff, walks = workloads.walk_cutoff(taus, 0.0, 2000)
    counted = sum(1 for kind in (transit.REFLECTION, transit.TRANSMISSION)
                  for _ in oracle.enumerate_sequences(medium, kind, cutoff))
    assert counted == walks >= 2000


def test_size_cutoff_lands_in_the_term_band():
    taus = [0.3, 0.05, 0.7, 0.2, 0.9]
    cutoff, n = workloads.size_cutoff(
        lambda c, cap: workloads.count_reflection(taus, c, cap), 5000, taus[0], 0.005)
    assert abs(n - 5000) <= 25
    assert workloads.count_reflection(taus, cutoff) == n


def test_media_table_matches_its_generator_and_the_counter():
    table = json.loads(workloads.TRAINS_TABLE.read_text())
    assert len(table) == workloads.TRAINS_TABLE_SIZE
    assert table[:2] == [workloads.sized_medium(i) for i in range(2)]
    for entry in table:
        taus = entry["taus"]
        assert workloads.count_reflection(taus, entry["reflect_cutoff"]) == entry["reflect_terms"]
        assert workloads.count_transmission(taus, 0.0, entry["transmit_cutoff"]) \
            == entry["transmit_terms"]
        for n, target in ((entry["reflect_terms"], workloads.BENCH10_REFLECT_TERMS),
                          (entry["transmit_terms"], workloads.BENCH10_TRANSMIT_TERMS)):
            assert abs(n - target) <= workloads.TRAINS_BAND * target


def _replace_check(req, check):
    return workloads.Request(req.label, req.argvs, req.items, check)


def test_failed_requests_are_counted_and_left_out_of_timings(tmp_path):
    good = workloads.prepare("verify", 3, tmp_path, ROOT, worker.call_cli)[0]
    oracle_argv, lattice_argv = good.argvs
    corrupt = workloads.Request("corrupt", [oracle_argv + ["--corrupt"], lattice_argv],
                                good.items, good.check)
    records = [dict(worker.send(good), cal=0.025), dict(worker.send(corrupt), cal=0.025)]
    assert [r["ok"] for r in records] == [True, False]
    assert "exit code 1" in records[1]["error"]

    values, detail = run.summarize("verify", records, [0.1], {"peak_rss_kb": 1024})
    assert (detail["attempted"], detail["failed"], detail["samples"]) == (2, 1, 1)
    assert values["failed_frac"] == 0.5
    assert values["request_p50_s"] == records[0]["wall"]
    assert values["request_p50_cal"] == records[0]["wall"] / 0.025

    values, detail = run.summarize("verify", records[:1], [0.1], None, finished=False)
    assert (detail["attempted"], detail["failed"]) == (2, 1)


def test_a_tampered_csv_byte_fails_the_check(tmp_path):
    bench10 = workloads.prepare("trains", 1, tmp_path, ROOT, worker.call_cli)[0]
    assert bench10.label == "bench10"
    out = Path(bench10.argvs[0][-1])

    def tamper_then_check(results):
        data = bytearray(out.read_bytes())
        data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
        out.write_bytes(bytes(data))
        bench10.check(results)

    record = worker.send(_replace_check(bench10, tamper_then_check))
    assert not record["ok"] and "sha256" in record["error"]


def test_a_hung_run_is_killed_at_its_limit():
    hang = [sys.executable, "-c",
            "import time; print('{\"event\": \"ready\"}', flush=True); time.sleep(60)"]
    start = time.perf_counter()
    rc, events = run.run_child(hang, None, time.perf_counter() + 2.0)
    assert rc is None and [e["event"] for e in events] == ["ready"]
    assert time.perf_counter() - start < 10


def test_workload_lists_agree():
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == run.WORKLOADS == workloads.WORKLOADS


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def _result(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    lines = _result(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines[:-2])
    for name, unit, _ in run.END_TO_END:
        assert any(line.split()[:1] == [name] and unit in line.split() for line in text.splitlines())

    lines = _result(workload, 1)
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "trains", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
