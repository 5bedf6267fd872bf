"""Acceptance suite: one test per acceptance criterion.

Each test prints a single [PASS]/[FAIL] line (with capture suspended so
the lines always appear in the run log) and then asserts, so a failing
criterion is both visible in the log and red in the suite.
"""

import math
import random
import time

import pytest

from layered_echo import (
    REFLECTION,
    TRANSMISSION,
    TransitVector,
    enumerate_reflection,
    enumerate_transmission,
    kunetz_primary,
    make_medium,
    merge_ties,
    reflection_amplitude,
    reflection_green,
    transmission_green,
)
from layered_echo.amplitudes import amplitude, class_tables
from layered_echo.oracle import class_counts, enumerate_sequences, stats
from layered_echo.transit import half_total_time
from conftest import (
    BENCH10,
    REFLECT_CUTOFF,
    REFLECT_TERMS,
    TRANSMIT_CUTOFF,
    TRANSMIT_TERMS,
    launch_cli,
)


@pytest.fixture
def report(capsys):
    def _report(ok, label, detail=""):
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[{tag}] {label}{suffix}", flush=True)
        assert ok, f"{label}{suffix}"
    return _report


def test_criterion_01_reference_reflection_term_count(bench10, report):
    start = time.perf_counter()
    train = reflection_green(bench10, REFLECT_CUTOFF)
    wall = time.perf_counter() - start
    ok = len(train) == REFLECT_TERMS and wall < 60.0
    report(ok, "criterion 1: 10-layer reflection train has 19242 terms",
           f"got {len(train)} in {wall:.2f}s")


def test_criterion_02_reference_transmission_term_count(bench10, report):
    start = time.perf_counter()
    train = transmission_green(bench10, TRANSMIT_CUTOFF)
    wall = time.perf_counter() - start
    ok = len(train) == TRANSMIT_TERMS and wall < 60.0
    report(ok, "criterion 2: 10-layer transmission train has 35059 terms",
           f"got {len(train)} in {wall:.2f}s")


def test_criterion_03_first_arrivals(bench10, report):
    r = reflection_green(bench10, 1.0)
    ok = r.times[0] == bench10.layer_taus[0] and r.amps[0] == bench10.reflections[0]
    t = transmission_green(bench10, 2.2)
    direct = math.prod(math.sqrt(1 - x * x) for x in bench10.reflections)
    # the quoted 2.19007 s is half the total two-way time rounded to six
    # significant figures; the exact value is 2.19007075 s
    ok = ok and abs(t.times[0] - half_total_time(bench10)) <= 1e-9
    ok = ok and round(t.times[0], 5) == 2.19007
    ok = ok and abs(t.amps[0] - direct) <= 1e-12 * abs(direct)
    report(ok, "criterion 3: first reflection/transmission arrivals",
           f"refl ({r.times[0]}, {r.amps[0]}); trans ({t.times[0]}, {t.amps[0]})")


def test_criterion_04_primary_amplitudes_reduce_to_layer_peeling(report):
    rng = random.Random(1004)
    worst = 0.0
    for _ in range(100):
        refls = [rng.uniform(-0.95, 0.95) for _ in range(11)]
        for n in range(11):
            k = tuple([1] * (n + 1) + [0] * (10 - n))
            a = reflection_amplitude(refls, TransitVector(k, REFLECTION))
            expected = kunetz_primary(refls, n)
            worst = max(worst, abs(a - expected) / abs(expected))
    report(worst <= 1e-12,
           "criterion 4: primary amplitudes match the layer-peeling product",
           f"worst rel dev {worst:.3e}")


def _oracle_groups(medium, kind, cutoff):
    by_k = {}
    by_time = []
    for seq in enumerate_sequences(medium, kind, cutoff * (1 + 1e-9) + 1e-12):
        st = stats(seq, medium)
        by_k[st.k.k] = by_k.get(st.k.k, 0.0) + st.weight
        by_time.append((st.arrival, st.weight))
    return by_k, by_time


def test_criterion_05_closed_form_matches_walk_enumeration(report):
    rng = random.Random(1005)
    worst_k = 0.0
    worst_merge = 0.0
    for trial in range(20):
        m_layers = 1 + trial % 3
        taus = tuple(rng.uniform(0.9, 1.1) for _ in range(m_layers + 1))
        refls = tuple(rng.uniform(-0.9, 0.9) for _ in range(m_layers + 1))
        medium = make_medium(taus, 0.0, refls)
        cutoff = 8.0 * max(taus)
        for kind, build, enum in (
                (REFLECTION, reflection_green, enumerate_reflection),
                (TRANSMISSION, transmission_green, enumerate_transmission)):
            by_k, by_time = _oracle_groups(medium, kind, cutoff)
            for tv in enum(medium, cutoff):
                closed = amplitude(medium.reflections, tv)
                brute = by_k.get(tv.k, 0.0)
                scale = max(abs(closed), abs(brute), 1e-300)
                worst_k = max(worst_k, abs(closed - brute) / scale)
            merged = merge_ties(build(medium, cutoff))
            for tj, aj in zip(merged.times, merged.amps):
                s = sum(w for t, w in by_time if abs(t - tj) <= 1e-9 * max(tj, 1.0))
                scale = max(abs(aj), abs(s), 1e-300)
                worst_merge = max(worst_merge, abs(aj - s) / scale)
    ok = worst_k <= 1e-10 and worst_merge <= 1e-10
    report(ok, "criterion 5: closed forms match brute-force walk sums",
           f"per-vector {worst_k:.3e}, per-arrival {worst_merge:.3e}")


def test_criterion_06_class_counts_exact(report):
    mismatches = 0
    checked = 0
    for m_layers in (1, 2, 3):
        medium = make_medium((1.0,) * (m_layers + 1), 0.0,
                             (0.1,) * (m_layers + 1))
        for kind, extra in ((REFLECTION, 0.0),
                            (TRANSMISSION, 0.5 * (m_layers + 1))):
            class_table = class_tables(kind)
            for (k, b), n in class_counts(medium, kind, extra + 8.0).items():
                if sum(k) > 8:
                    continue
                checked += 1
                if n != class_table(k).get(b):
                    mismatches += 1
    report(mismatches == 0 and checked > 0,
           "criterion 6: walk class counts equal the binomial products exactly",
           f"{checked} classes, {mismatches} mismatches")


def test_criterion_07_every_branch_vector_is_realizable(report):
    missing = 0
    checked = 0
    for m_layers in (1, 2, 3):
        medium = make_medium((1.0,) * (m_layers + 1), 0.0,
                             (0.1,) * (m_layers + 1))
        for kind, enum, extra in (
                (REFLECTION, enumerate_reflection, 0.0),
                (TRANSMISSION, enumerate_transmission, 0.5 * (m_layers + 1))):
            counts = class_counts(medium, kind, extra + 8.0)
            for tv in enum(medium, extra + 8.0):
                if sum(tv.k) > 8:
                    continue
                for b in class_tables(kind)(tv.k):
                    checked += 1
                    if counts.get((tv.k, b), 0) < 1:
                        missing += 1
    report(missing == 0 and checked > 0,
           "criterion 7: every admissible branch vector is realized by a walk",
           f"{checked} branch vectors, {missing} unrealized")


def test_criterion_08_lattice_recursion_agreement(report):
    from layered_echo.goupillaud import simulate
    rng = random.Random(1008)
    worst = 0.0
    worst_energy = 0.0
    media = []
    for _ in range(20):
        m_layers = rng.randint(1, 5)
        refls = tuple(rng.uniform(-0.9, 0.9) for _ in range(m_layers + 1))
        media.append((make_medium((1.0,) * (m_layers + 1), 0.0, refls), 12))
    # unequal tau on a 0.1 s and a 0.05 s grid: the recursion runs on their quantum
    for i in range(20):
        per_second = (10, 20)[i % 2]
        m_layers = rng.randint(1, 4)
        taus = tuple(rng.randint(1, 7 * per_second // 10) / per_second
                     for _ in range(m_layers + 1))
        refls = tuple(rng.uniform(-0.9, 0.9) for _ in range(m_layers + 1))
        media.append((make_medium(taus, rng.choice((0.0, 0.25)), refls), 40))
    for medium, steps in media:
        res = simulate(medium, steps)
        worst_energy = max(worst_energy, res.energy())
        for kind, times, samples, build in (
                (REFLECTION, res.g_times, res.g, reflection_green),
                (TRANSMISSION, res.h_times, res.h, transmission_green)):
            train = merge_ties(build(medium, times[-1] * (1 + 1e-12)))
            grid = [0.0] * len(times)
            for t, a in zip(train.times, train.amps):
                grid[round((t - times[0]) / res.period)] += a
            for s, expected in zip(samples, grid):
                worst = max(worst, abs(s - expected))
    ok = worst <= 1e-9 and worst_energy <= 1.0 + 1e-9
    report(ok, "criterion 8: lattice recursion on the time quantum matches closed forms",
           f"{len(media)} media, worst abs dev {worst:.3e}, max energy {worst_energy:.12f}")


def test_criterion_09_support_locality(report):
    rng = random.Random(1009)
    ok = True
    for _ in range(100):
        m_layers = rng.randint(2, 6)
        support = rng.randint(0, m_layers - 1)
        k = tuple([1] + [rng.randint(1, 3) for _ in range(support)]
                  + [0] * (m_layers - support))
        tv = TransitVector(k, REFLECTION)
        refls = [rng.uniform(-0.85, 0.85) for _ in range(m_layers + 1)]
        base = reflection_amplitude(refls, tv)
        for n in range(len(k)):
            if k[n] != 0:
                continue
            for delta in (0.1, -0.1):
                bumped = list(refls)
                bumped[n] += delta
                if reflection_amplitude(bumped, tv) != base:
                    ok = False
    report(ok, "criterion 9: amplitudes are bit-identical under changes to "
               "coefficients outside the transit support")


def test_criterion_10_cli_output_is_thread_invariant(report):
    def run(threads):
        return launch_cli("reflect", "--medium", str(BENCH10), "--cutoff", str(REFLECT_CUTOFF),
                          "--threads", str(threads), "--with-k", capture_output=True)

    one, eight = run(1), run(8)
    ok = (one.returncode == 0 and eight.returncode == 0
          and one.stdout == eight.stdout and one.stdout)
    report(bool(ok), "criterion 10: CLI stdout is byte-identical across "
                     "--threads 1 and --threads 8",
           f"{len(one.stdout)} bytes")
