import copy
import gc
import io
import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import REFLECT_CUTOFF, TRANSMIT_CUTOFF
from layered_echo import (
    DomainError,
    EnumerationLimitExceeded,
    PulseTrain,
    REFLECTION,
    convolve,
    enumerate_reflection,
    make_medium,
    merge_ties,
    reflection_green,
    ricker,
    transmission_green,
    write_train_csv,
)
from layered_echo import greens, transit
from layered_echo.amplitudes import amplitude
from layered_echo.errors import ParseError
from layered_echo.greens import SampledSignal, read_train_csv, write_signal_csv
from layered_echo.oracle import enumerate_sequences, stats, tally
from layered_echo.transit import (
    TRANSMISSION,
    enumerate_transmission,
    half_total_time,
    reflection_arrival,
    transmission_arrival,
)


def test_m1_train_values():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    train = reflection_green(m, 2.0)
    assert list(zip(train.times, train.amps)) == [(1.0, 0.5), (2.0, 0.375)]


def test_first_term_invariants():
    m = make_medium((0.7, 1.3, 0.4), 0.2, (0.3, -0.5, 0.8))
    r = reflection_green(m, 5.0)
    assert r.times[0] == 0.7
    assert r.amps[0] == 0.3
    t = transmission_green(m, 5.0)
    half = 0.5 * (0.7 + 1.3 + 0.4 + 0.2)
    assert t.times[0] == pytest.approx(half, abs=0)
    direct = math.prod(math.sqrt(1 - x * x) for x in m.reflections)
    assert t.amps[0] == pytest.approx(direct, rel=1e-15)


def test_term_count_matches_enumeration():
    m = make_medium((0.6, 0.25, 1.1), 0.0, (0.4, -0.3, 0.2))
    train = reflection_green(m, 4.0)
    assert len(train) == sum(1 for _ in enumerate_reflection(m, 4.0))


def test_terms_sorted_with_lex_tiebreak():
    m = make_medium((1.0, 1.0, 2.0), 0.0, (0.3, 0.2, 0.1))
    train = reflection_green(m, 8.0)
    keys = list(zip(train.times, train.ks))
    assert keys == sorted(keys)
    assert all(t <= 8.0 for t in train.times)


def test_prefix_property():
    m = make_medium((0.6, 0.25, 1.1), 0.0, (0.4, -0.3, 0.2))
    small = reflection_green(m, 2.5)
    large = reflection_green(m, 4.0)
    n = len(small)
    assert (large.times[:n], large.amps[:n], large.k_text[:n]) == \
           (small.times, small.amps, small.k_text)


def test_amplitude_floor():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    full = reflection_green(m, 6.0)
    floored = reflection_green(m, 6.0, amplitude_floor=0.1)
    assert len(floored) < len(full)
    assert all(abs(a) >= 0.1 for a in floored.amps)


def test_nan_floor_and_merge_tolerance_are_rejected():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    with pytest.raises(DomainError):
        reflection_green(m, 6.0, amplitude_floor=math.nan)
    with pytest.raises(DomainError):
        merge_ties(reflection_green(m, 6.0), math.nan)
    # a negative floor still keeps every term
    assert reflection_green(m, 6.0, amplitude_floor=-1.0) == reflection_green(m, 6.0)


def test_builds_leave_no_reference_cycles():
    # rows held in a reference cycle (say, by a recursive closure) would stay
    # alive until the next full collection
    m = make_medium((0.3, 0.2, 0.25, 0.4), 0.0, (0.4, -0.3, 0.2, 0.5))
    gc.collect()
    gc.disable()
    try:
        trains = [reflection_green(m, 6.5), transmission_green(m, 6.5)]
        buf = io.StringIO()
        write_train_csv(trains[1], buf, with_k=True)
        buf.seek(0)
        trains += [read_train_csv(buf), merge_ties(trains[0], 1e-9)]
        ks = trains[0].ks
        sums, counts = tally(m, REFLECTION, 2.6)
        # the commensurate times merge into few terms; they are not counted
        sizes = [len(t) for t in trains[:3]] + [len(ks), sum(counts.values())]
        del trains, buf, ks, sums, counts
        freed = gc.collect()
    finally:
        gc.enable()
    assert min(sizes) >= 2000
    assert freed < 100


def _csv(train, with_k):
    buf = io.StringIO()
    write_train_csv(train, buf, with_k=with_k)
    return buf.getvalue()


def _f_string_csv(train, with_k):
    """The writer as it was with one f-string per row, kept as the reference."""
    rows = ["time,amplitude,k\n" if with_k else "time,amplitude\n"]
    for t, a, k in zip(train.times, train.amps, train.ks):
        if with_k:
            rows.append(f"{t:.17g},{a:.17g},{'|'.join(map(str, k))}\n")
        else:
            rows.append(f"{t:.17g},{a:.17g}\n")
    return "".join(rows)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8191, 8192, 8193])
def test_writer_matches_the_f_string_writer(n):
    rng = random.Random(n)
    odd = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
           -1.7976931348623157e308, 1.0, 0.1, 1 / 3]
    values = odd + [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-40, 40)
                    for _ in range(n)]
    # every k has an entry: with_k, the writer refuses the text "" of k = ()
    ks = [(0,), (7,), (1, 0), (0, 255, 256), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)]
    texts = ["|".join(map(str, ks[i % len(ks)]
                          + tuple(rng.randrange(300) for _ in range(i % 4))))
             for i in range(n)]
    train = PulseTrain(values[:n], values[:-n - 1:-1], texts)
    for with_k in (False, True):
        assert _csv(train, with_k) == _f_string_csv(train, with_k)
    # the signal writer, as it was with one f-string per row
    signal = SampledSignal(-3.7, 0.01, tuple(values[:n]))
    buf = io.StringIO()
    write_signal_csv(signal, buf)
    assert buf.getvalue() == "time,value\n" + "".join(
        f"{t:.17g},{v:.17g}\n" for t, v in zip(signal.time_axis(), signal.samples))


def test_empty_train_writes_only_the_header():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    for train in (PulseTrain((), (), ()), reflection_green(m, 0.5)):
        assert len(train) == 0
        assert _csv(train, False) == "time,amplitude\n"
        assert _csv(train, True) == "time,amplitude,k\n"


def test_train_is_a_value(bench10):
    train = reflection_green(bench10, 3.0)
    assert len(train) > 10
    for again in (pickle.loads(pickle.dumps(train)), copy.deepcopy(train), copy.copy(train)):
        assert again == train and hash(again) == hash(train)
        assert (again.times, again.amps, again.k_text, again.ks) == \
               (train.times, train.amps, train.k_text, train.ks)
    # the columns are the whole train: no kind or cutoff is kept
    assert [f.name for f in fields(train)] == ["times", "amps", "k_text"]
    for field in ("times", "amps", "k_text", "ks"):
        with pytest.raises(FrozenInstanceError):
            setattr(train, field, ())
        with pytest.raises(FrozenInstanceError):
            delattr(train, field)
    assert repr(train) == f"PulseTrain(<{len(train)} terms>)"
    # the train is built from its three columns alone
    with pytest.raises(TypeError):
        PulseTrain(REFLECTION, 3.0, train.times, train.amps, train.k_text)


def test_columns_of_different_lengths_are_refused():
    # one row short in one column: the writer, convolve and merge_ties
    # would each see as many terms as their shortest column holds
    for columns in [((0.5, 0.6), (0.25,), ("1|0", "1|1")),
                    ((0.5,), (0.25, 0.5), ("1|0",)),
                    ((0.5, 0.6), (0.25, 0.5), ("1|0",)),
                    ((), (), ("1|0",))]:
        with pytest.raises(DomainError, match="train columns differ in length"):
            PulseTrain(*columns)


def test_columns_are_stored_as_tuples():
    times, amps, texts = (0.5, 0.6), (0.25, -0.125), ("1|0", "1|1")
    built = PulseTrain(times, amps, texts)
    # a tuple is kept as it is: a build copies no column
    assert built.times is times and built.amps is amps and built.k_text is texts
    listed = PulseTrain(list(times), list(amps), list(texts))
    assert (type(listed.times), type(listed.amps), type(listed.k_text)) == (tuple,) * 3
    assert listed == built and hash(listed) == hash(built)
    # any iterable will do, and is read once
    assert PulseTrain(iter(times), iter(amps), iter(texts)) == built


def test_huge_cutoff_is_refused_at_once(bench10):
    with pytest.raises(EnumerationLimitExceeded):
        reflection_green(bench10, 1e300)
    with pytest.raises(EnumerationLimitExceeded):
        transmission_green(bench10, 1e300)


@pytest.mark.parametrize("build", [reflection_green, transmission_green],
                         ids=["reflection", "transmission"])
@pytest.mark.parametrize("name", ["bench10", "two-layer"])
def test_term_limit_is_exact(bench10, monkeypatch, build, name):
    # the search raises if and only if more than MAX_TERMS vectors arrive
    medium, cutoff = {
        "bench10": (bench10, REFLECT_CUTOFF if build is reflection_green else TRANSMIT_CUTOFF),
        "two-layer": (make_medium((0.3, 0.7, 0.45), 0.2, (0.4, -0.5, 0.3)), 6.0),
    }[name]
    full = build(medium, cutoff)
    monkeypatch.setattr(transit, "MAX_TERMS", len(full))
    assert build(medium, cutoff) == full
    monkeypatch.setattr(transit, "MAX_TERMS", len(full) - 1)
    with pytest.raises(EnumerationLimitExceeded):
        build(medium, cutoff)


@pytest.mark.xfail(strict=True, reason="the cutoff is compared with the float sum of the "
                   "travel times, not the exact arrival time (ROADMAP: exact arrival arithmetic)")
def test_arrival_exactly_at_the_cutoff_is_kept():
    # k = (1, 1) arrives at exactly 0.1 + 0.2 = 0.3 s, but its float time is
    # 0.30000000000000004, past the inclusive cutoff
    m = make_medium((0.1, 0.2), 0.0, (0.5, 0.5))
    assert (1, 1) in reflection_green(m, 0.3).ks


def test_merge_groups_are_anchored_at_their_first_time():
    # each step is within 1e-6 of the last, but the third term is 1.2e-6 past
    # the first: chaining would merge all three
    times = (1.0, 1.0 + 0.6e-6, 1.0 + 1.2e-6)
    train = PulseTrain(times, (1.0,) * 3, ("1|0", "1|1", "1|2"))
    merged = merge_ties(train, 1e-6)
    assert list(zip(merged.times, merged.amps, merged.ks)) == [
        (1.0, 2.0, (1, 0)), (times[2], 1.0, (1, 2))]


@pytest.mark.parametrize("tol_rel", [0.0, greens.DEFAULT_MERGE_TOL, 1.0])
def test_merge_of_an_empty_train_returns_it(tol_rel):
    empty = PulseTrain((), (), ())
    assert merge_ties(empty, tol_rel) is empty


def test_merge_no_ties_is_identity():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    train = reflection_green(m, 2.0)
    assert merge_ties(train, 1e-12) == train


def test_merge_commensurate_arrivals():
    # tau = (1, 1, 2): transit vectors (1,1,1) and (1,3,0) both arrive at 4
    m = make_medium((1.0, 1.0, 2.0), 0.0, (0.3, -0.4, 0.5))
    train = reflection_green(m, 4.0)
    at4 = [(a, k) for t, a, k in zip(train.times, train.amps, train.ks) if t == 4.0]
    assert {k for _, k in at4} == {(1, 1, 1), (1, 3, 0)}
    merged = merge_ties(train, 1e-12)
    merged_at4 = [(a, k) for t, a, k in zip(merged.times, merged.amps, merged.ks) if t == 4.0]
    assert len(merged_at4) == 1
    assert merged_at4[0][0] == pytest.approx(sum(a for a, _ in at4), rel=1e-15)
    assert merged_at4[0][1] == (1, 1, 1)
    # idempotent
    assert merge_ties(merged, 1e-12) == merged


def test_merge_zero_tol_only_bit_identical():
    train = PulseTrain((1.0, 1.0, 1.0 + 1e-15), (0.5, 0.25, 0.25),
                       ("1|0", "1|1", "1|2"))
    merged = merge_ties(train, 0.0)
    assert len(merged) == 2
    assert merged.amps[0] == 0.75


@pytest.mark.parametrize("tol_rel", [0.0, greens.DEFAULT_MERGE_TOL])
def test_merge_joins_bit_identical_negative_times(tol_rel):
    # a train read from CSV may hold times before zero; the tolerance scales
    # with their magnitude, so equal negative times merge at any tol_rel
    train = read_train_csv(io.StringIO("time,amplitude\n-1.0,0.5\n-1.0,0.25\n"))
    merged = merge_ties(train, tol_rel)
    assert (merged.times, merged.amps) == ((-1.0,), (0.75,))


def test_merged_train_matches_oracle_arrival_groups():
    rng = random.Random(21)
    for m_layers in (1, 2, 3):
        refls = tuple(rng.uniform(-0.8, 0.8) for _ in range(m_layers + 1))
        m = make_medium((1.0,) * (m_layers + 1), 0.0, refls)
        cutoff = 7.0
        merged = merge_ties(reflection_green(m, cutoff))
        groups = {}
        for seq in enumerate_sequences(m, REFLECTION, cutoff + 1e-9):
            st = stats(seq, m)
            slot = round(st.arrival)
            groups[slot] = groups.get(slot, 0.0) + st.weight
        got = {round(t): a for t, a in zip(merged.times, merged.amps)}
        assert set(got) == set(groups)
        for slot in groups:
            assert got[slot] == pytest.approx(groups[slot], rel=1e-10, abs=1e-14)


def test_convolve_spike():
    train = PulseTrain((1.0,), (1.0,), ("1",))
    sig = convolve(train, "spike", 0.0, 0.5, 5)
    assert sig.samples == (0.0, 0.0, 1.0, 0.0, 0.0)


def test_convolve_spike_skips_terms_whose_bin_index_overflows():
    train = PulseTrain((-1.5e308, 1.0, 1.5e308), (4.0, 1.0, 2.0),
                       ("1|2", "1", "1|1"))
    # (time - t0) / dt is -inf and +inf for the outer terms
    sig = convolve(train, "spike", 0.0, 0.5, 4)
    assert sig.samples == (0.0, 0.0, 1.0, 0.0)


def test_convolve_empty_train():
    train = PulseTrain((), (), ())
    sig = convolve(train, "spike", 0.0, 0.5, 4)
    assert sig.samples == (0.0, 0.0, 0.0, 0.0)


def test_ricker_unit_peak():
    w = ricker(25.0)
    assert w(0.0) == 1.0
    train = PulseTrain((0.8,), (-0.4,), ("1",))
    sig = convolve(train, w, 0.8, 0.01, 1)
    assert sig.samples[0] == pytest.approx(-0.4, abs=0)


def _convolve_every_sample(train, wavelet, t0, dt, n_samples):
    """The O(samples x terms) loop that windowed convolve must reproduce."""
    samples = []
    for i in range(n_samples):
        t = t0 + i * dt
        acc = 0.0
        for tj, aj in zip(train.times, train.amps):
            acc += aj * wavelet(t - tj)
        samples.append(acc)
    return samples


@st.composite
def _trains_and_grids(draw):
    freq = draw(st.floats(1.0, 200.0))
    w = ricker(freq)
    radius = w.radius
    dt = radius * 10.0 ** draw(st.floats(-3.0, math.log10(2.0)))
    n = draw(st.integers(1, 40))
    t0 = draw(st.floats(-5.0, 5.0))
    end = t0 + (n - 1) * dt
    # times before, inside, after and far from the grid, and just inside
    # one radius of a sample, where the wavelet's last nonzero (subnormal)
    # values lie and a window cut too short would drop them
    near = st.floats(t0 - 3 * radius, end + 3 * radius)
    edge = st.builds(lambda i, s: t0 + i * dt + s * radius, st.integers(0, n - 1),
                     st.floats(0.995, 1.0) | st.floats(-1.0, -0.995))
    far = st.sampled_from([t0 - 1e3 * radius, end + 1e3 * radius, -1e300, 1e300])
    times = draw(st.lists(st.one_of(near, edge, far), max_size=12))
    times += draw(st.lists(st.sampled_from(times), max_size=4)) if times else []
    times = draw(st.permutations(times))
    amps = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(times), max_size=len(times)))
    wavelet = draw(st.sampled_from([w, lambda t: w(t)]))  # the lambda has no radius
    return PulseTrain(times, amps, ("1",) * len(times)), wavelet, t0, dt, n


def _counting(wavelet, offsets):
    """The wavelet, appending each offset it is called at to offsets; it
    keeps the wavelet's ``radius``, if any."""
    def counted(t):
        offsets.append(t)
        return wavelet(t)

    if hasattr(wavelet, "radius"):
        counted.radius = wavelet.radius
    return counted


@settings(max_examples=300, deadline=None)
@given(_trains_and_grids())
# int term times: the offset is sample time minus term time, as the
# every-sample loop takes it
@example((PulseTrain([1, 2], [0.5, -0.25], ("1", "2")), ricker(25.0), 0.5, 0.05, 40))
def test_windowed_convolve_matches_every_sample_loop(case):
    train, wavelet, t0, dt, n = case
    got = convolve(train, wavelet, t0, dt, n).samples
    want = _convolve_every_sample(train, wavelet, t0, dt, n)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    # each term calls the wavelet on exactly the samples strictly inside its
    # radius, in grid order: no margin, and none past it
    radius = getattr(wavelet, "radius", math.inf)
    for tj in train.times:
        offsets = []
        convolve(PulseTrain((tj,), (1.0,), ("1",)), _counting(wavelet, offsets), t0, dt, n)
        inside = [t0 + i * dt - tj for i in range(n)]
        assert offsets == [x for x in inside if abs(x) < radius]


def test_windowed_convolve_exact_when_rounding_exceeds_the_radius():
    # at t0 = 1e20 a step of dt = 1 rounds away: thousands of samples share
    # the term's time, far more than the one-sample margin around it
    w = ricker(25.0)
    train = PulseTrain((1e20, 1e20 + 16384.0), (0.5, -0.25), ("1", "1"))
    got = convolve(train, w, 1e20, 1.0, 20000).samples
    want = _convolve_every_sample(train, w, 1e20, 1.0, 20000)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert got.count(0.5) > 1000


@pytest.mark.parametrize("t0, dt, n, cut", [
    (0.0, 0.004, 300, True),
    (-3.7, 0.01, 50, True),
    # at 1e20 the far edge rounds back onto the grid: nothing may be skipped
    (1e20, 1.0, 20000, False),
], ids=["bench-grid", "negative-t0", "huge-t0"])
@pytest.mark.parametrize("has_radius", [True, False], ids=["ricker", "no-radius"])
def test_convolve_far_edge_cut_is_exact(t0, dt, n, cut, has_radius):
    w = ricker(25.0)
    t_far = t0 + (n + 2) * dt + w.radius
    times = [t0 + (n // 2) * dt, math.nextafter(t_far, -math.inf), t_far,
             math.nextafter(t_far, math.inf), t_far + 1.0, t0 - 1.0]
    amps = [0.5 - 0.125 * j for j in range(len(times))]
    train = PulseTrain(times, amps, ("1",) * len(times))
    wavelet = w if has_radius else (lambda t: w(t))
    if has_radius:
        # a term at or after the far edge makes no wavelet call, unless
        # rounding at huge times brings the edge back onto the grid
        called = []
        for tj in times:
            if tj >= t_far:
                offsets = []
                convolve(PulseTrain((tj,), (1.0,), ("1",)), _counting(w, offsets), t0, dt, n)
                called.append(bool(offsets))
        assert any(called) != cut
    got = convolve(train, wavelet, t0, dt, n).samples
    want = _convolve_every_sample(train, wavelet, t0, dt, n)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert any(got)


@pytest.mark.parametrize("freq", [1e-2, 0.3, 1.0, 25.0, 199.7, 1e3, 1e4])
def test_ricker_is_exactly_zero_from_its_radius(freq):
    w = ricker(freq)
    assert w.radius == math.sqrt(750.0) / (math.pi * freq)
    for t in (w.radius * (1 + 1e-9), -w.radius * (1 + 1e-9), 1e153, -1e300):
        assert w(t) == 0.0
    # just inside the radius exp has already underflowed: the cut changes nothing
    assert w(w.radius * (1 - 1e-9)) == 0.0


@pytest.mark.parametrize("freq", [0.0, -1.0, math.inf, math.nan, 1e160])
def test_ricker_rejects_frequencies_without_a_finite_wavelet(freq):
    with pytest.raises(ValueError):
        ricker(freq)


def test_train_csv_round_trip():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    train = reflection_green(m, 4.0)
    buf = io.StringIO()
    write_train_csv(train, buf, with_k=True)
    buf.seek(0)
    again = read_train_csv(buf)
    # the k column is checked and dropped
    assert again == PulseTrain(train.times, train.amps, ("",) * len(train))
    assert again.ks == ((),) * len(train)


def test_a_train_without_k_is_not_written_with_k():
    # a read train has k text "", which would write rows like "1,0.5," that
    # the reader refuses
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    again = read_train_csv(io.StringIO(_csv(reflection_green(m, 3.0), True)))
    buf = io.StringIO()
    with pytest.raises(DomainError, match="k column"):
        write_train_csv(again, buf, with_k=True)
    assert buf.getvalue() == ""
    assert read_train_csv(io.StringIO(_csv(again, False))) == again


def test_train_csv_header_without_k():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    buf = io.StringIO()
    write_train_csv(reflection_green(m, 2.0), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,amplitude"
    assert lines[1] == "1,0.5"


_ROW_COUNTS = (1023, 1024, 1025, 2047, 2048, 2049, 2500)  # about the 1024-line blocks


@st.composite
def _written_trains(draw):
    """A train of 2500 terms that write_train_csv can write, whether its CSV
    has k and a final newline: rows are made by a seeded generator, so that
    trains of a few thousand terms stay cheap to draw."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k_len = draw(st.sampled_from([1, 3, 11, None]))  # None: lengths vary by term
    big_k = draw(st.sampled_from([0.0, 0.01, 0.5]))  # share of k tokens >= 256
    long_k = draw(st.sampled_from([0.0, 0.01]))  # share of k tokens of 700 to 5000 digits
    odd = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]

    def value(scale):
        return rng.choice(odd) if rng.random() < 0.01 else rng.uniform(-scale, scale)

    def k_token():
        if rng.random() < long_k:
            return str(rng.randrange(1, 10)) * rng.randrange(700, 5000)
        return str(rng.randrange(256, 100000) if rng.random() < big_k else rng.randrange(256))

    n = 2500
    texts = ["|".join(k_token() for _ in range(k_len or rng.randrange(1, 5))) for _ in range(n)]
    train = PulseTrain([abs(value(10.0)) for _ in range(n)], [value(1.0) for _ in range(n)], texts)
    return train, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(_written_trains(), st.integers(0, 40))
def test_read_train_csv_reads_back_what_write_train_csv_writes(case, few):
    # every size about the block edges, and a few rows; times and amplitudes
    # come back bit for bit, k is checked and dropped
    train, with_k, final_newline = case
    for n in (few,) + _ROW_COUNTS:
        part = PulseTrain(train.times[:n], train.amps[:n], train.k_text[:n])
        text = _csv(part, with_k)
        again = read_train_csv(io.StringIO(text if final_newline else text[:-1]))
        assert [t.hex() for t in again.times] == [t.hex() for t in part.times]
        assert [a.hex() for a in again.amps] == [a.hex() for a in part.amps]
        assert again.k_text == ("",) * n


@pytest.mark.parametrize("bad, line_no", [
    pytest.param(bad, 2102, id=bad)
    for bad in ["1.0,abc,1|2", "1.0,0.5,1|x", "1.0,0.5,1||2", "nan,0.5,1|2", "1.0,inf,1|2",
                "1.0,0.5,", "1.0,0.5,|1", "1.0,0.5,1|", "1.0,0.5,1|\u00b2"]
] + [pytest.param("1.0,0.5,1|" + "1" * 5000, 2502, id="5000-digits")])  # a k of any length
def test_read_train_csv_error_in_third_block_has_row_loop_line(bad, line_no):
    # the error names the first line of the block that does not parse alone
    rows = [f"{0.001 * i!r},0.5,{i % 256}|{i % 7}" for i in range(3000)]
    rows[2100] = bad
    rows[2500] = ""  # a blank line is a malformed row too
    text = "time,amplitude,k\n" + "\n".join(rows) + "\n"
    with pytest.raises(ParseError) as got:
        read_train_csv(io.StringIO(text))
    assert got.value.line_no == line_no
    assert str(got.value) == f"line {line_no}: malformed train row {rows[line_no - 2]!r}"


@pytest.mark.parametrize("newline", [None, "", "\r"], ids=["universal", "untranslated", "cr"])
@pytest.mark.parametrize("data, refused_at", [
    pytest.param(b"time,amplitude\r1,0.5\r2,0.25\r", {None: None, "": 2, "\r": 2}, id="cr"),
    pytest.param(b"time,amplitude\r\n1,0.5\r\n\r\n2,0.25", {None: 3, "": 2, "\r": 2}, id="crlf"),
    pytest.param(b"time,amplitude\r1,0.5\n2,0.25\r", {None: None, "": 3, "\r": 2}, id="mixed"),
])
def test_read_train_csv_splits_lines_as_the_stream_does(newline, data, refused_at):
    # the stream's own lines are the rows: a "\r" it leaves in one is refused,
    # and so is the blank line of the CRLF file
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline=newline)
    line_no = refused_at[newline]
    if line_no is None:
        assert read_train_csv(stream) == PulseTrain((1.0, 2.0), (0.5, 0.25), ("", ""))
    else:
        with pytest.raises(ParseError, match="malformed train row") as err:
            read_train_csv(stream)
        assert err.value.line_no == line_no


@pytest.mark.parametrize("text, line_no", [
    ("time,amplitude\n1,0.5\n\n2,0.25\n", 3),
    ("time,amplitude\n1,0.5\n \t\n2,0.25\n", 3),
    ("time,amplitude\n1,0.5\n2,0.25\n\n", 4),
    ("time,amplitude\r\n1,0.5\r\n2,0.25\r\n", 2),  # io.StringIO keeps the "\r"
    ("time,amplitude,k\n1,0.5,1\n2,0.25,1|+3\n", 3),
    ("time,amplitude,k\n1,0.5,1\n2,0.25,-1\n", 3),
    ("time,amplitude,k\n1,0.5,1\n2,0.25,1_0\n", 3),
    ("time,amplitude,k\n1,0.5,1\n2,0.25, 4\n", 3),
    ("time,amplitude,k\n1,0.5,1\n2,0.25,1 \n", 3),
    ("time,amplitude,k\n1,0.5,1\n2,0.25,\u0661\n", 3),  # an Arabic-Indic one
    ("time,amplitude\n1,0.5\n2,nan\n", 3),
], ids=["blank", "whitespace-only", "trailing-blank", "untranslated-cr", "k-plus",
        "k-minus", "k-underscore", "k-leading-space", "k-trailing-space", "k-non-ascii-digit",
        "nan-amplitude"])
def test_read_train_csv_refuses_what_write_train_csv_never_writes(text, line_no):
    with pytest.raises(ParseError) as err:
        read_train_csv(io.StringIO(text))
    assert err.value.line_no == line_no
    assert "malformed train row" in str(err.value)


def test_malformed_train_row_is_shown_as_read():
    # a row refused only for the "\r" the stream left in it shows that "\r"
    with pytest.raises(ParseError) as err:
        read_train_csv(io.StringIO("time,amplitude\r\n1,0.5\r\n"))
    assert str(err.value) == "line 2: malformed train row '1,0.5\\r'"
    with pytest.raises(ParseError) as err:
        read_train_csv(io.StringIO("time,amplitude\n1,0.5\n 2,x \n"))
    assert str(err.value) == "line 3: malformed train row ' 2,x '"


def test_read_train_csv_reads_whitespace_around_values():
    # float() reads the spaces; the k column takes none
    text = "time,amplitude,k\n 1 ,\t0.5\t,1|2\n2.0, -0.25,3\n"
    assert read_train_csv(io.StringIO(text)) == PulseTrain((1.0, 2.0), (0.5, -0.25), ("", ""))


@pytest.mark.parametrize("text, line_no", [
    ("1.0,0.5\n2.0,0.25\n", 1),  # no header: the first arrival was lost
    ("", 1),
    ("\n1.0,0.5\n", 1),
    ("time,k\n1.0,0.5\n", 1),
    ("time,amplitude,extra\n1.0,0.5,1\n", 1),
    ("time,amplitude\n1.0,0.5,1|2,junk\n", 2),
    ("time,amplitude\n1.0,0.5,1|2\n", 2),
    ("time,amplitude\n1.0,0.5\n2.0,0.25,\n", 3),
    ("time,amplitude,k\n1.0,0.5\n", 2),
    ("time,amplitude,k\n1.0,0.5,1|2,3\n", 2),
], ids=["no-header", "empty", "blank-header", "bad-header", "extra-header-field",
        "extra-fields", "k-without-k-header", "trailing-comma", "k-missing", "k-extra"])
def test_read_train_csv_rejects_bad_header_and_row_width(text, line_no):
    with pytest.raises(ParseError) as err:
        read_train_csv(io.StringIO(text))
    assert err.value.line_no == line_no


@pytest.mark.parametrize("header", ["time,amplitude", " time,amplitude\t", "time,amplitude\r"])
def test_read_train_csv_accepts_header_only(header):
    assert len(read_train_csv(io.StringIO(header + "\n"))) == 0


def test_signal_csv():
    train = PulseTrain((1.0,), (1.0,), ("1",))
    sig = convolve(train, "spike", 0.0, 0.5, 3)
    buf = io.StringIO()
    write_signal_csv(sig, buf)
    assert buf.getvalue().splitlines() == ["time,value", "0,0", "0.5,0", "1,1"]


@pytest.mark.parametrize("dt", [0.0, -0.5, math.nan, math.inf])
def test_sampled_signal_needs_positive_finite_dt(dt):
    with pytest.raises(DomainError):
        SampledSignal(0.0, dt, (1.0,))


@st.composite
def _media_and_cutoffs(draw):
    m = draw(st.integers(1, 4))
    taus = draw(st.lists(st.floats(0.1, 1.0), min_size=m + 1, max_size=m + 1))
    refls = draw(st.lists(st.floats(-0.95, 0.95), min_size=m + 1, max_size=m + 1))
    tail = draw(st.floats(0.0, 1.0))
    medium = make_medium(tuple(taus), tail, tuple(refls))
    kind = draw(st.sampled_from([REFLECTION, TRANSMISSION]))
    start = taus[0] if kind == REFLECTION else half_total_time(medium)
    cutoff = start + draw(st.floats(0.3, 2.5)) * sum(taus)
    floor = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    return medium, kind, cutoff, floor


@settings(max_examples=60, deadline=None)
@given(_media_and_cutoffs())
def test_train_matches_validated_reference(case):
    medium, kind, cutoff, floor = case
    if kind == REFLECTION:
        build, enum, arrival = reflection_green, enumerate_reflection, reflection_arrival
    else:
        build, enum, arrival = transmission_green, enumerate_transmission, transmission_arrival
    train = build(medium, cutoff, amplitude_floor=floor)
    vectors = list(enum(medium, cutoff))
    reference = sorted((arrival(tv.k, medium), tv.k,
                        amplitude(medium.reflections, tv)) for tv in vectors)
    expected = [(t.hex(), a.hex(), k) for t, k, a in reference
                if floor == 0.0 or abs(a) >= floor]
    ks = train.ks
    assert [(t.hex(), a.hex(), k) for t, a, k in zip(train.times, train.amps, ks)] == expected
    keys = list(zip(train.times, ks))
    assert keys == sorted(keys)
    if floor == 0.0:
        assert len(train) == len(vectors)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([REFLECTION, TRANSMISSION]),
       taus=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=7),
       tail=st.floats(0.0, 1.0), refl=st.floats(-0.9, 0.9), span=st.floats(0.0, 1.0))
def test_k_text_column_holds_the_enumerated_vectors(kind, taus, tail, refl, span):
    # M = len(taus) - 1 <= 6; a cutoff within a span of the first arrival
    m = make_medium(taus, tail, [refl * (-1) ** n for n in range(len(taus))])
    if kind == REFLECTION:
        build, enum, arrival = reflection_green, enumerate_reflection, reflection_arrival
    else:
        build, enum, arrival = transmission_green, enumerate_transmission, transmission_arrival
    first = taus[0] if kind == REFLECTION else half_total_time(m)
    cutoff = first + span * sum(taus)
    train = build(m, cutoff)
    ks = train.ks
    assert len(train.k_text) == len(ks) == len(train)
    for text, k in zip(train.k_text, ks):
        assert text == "|".join(map(str, k))
    # the enumeration order, sorted stably on time alone
    timed = [(arrival(tv.k, m), tv.k) for tv in enum(m, cutoff)]
    assert list(ks) == [k for _, k in sorted(timed, key=lambda row: row[0])]
