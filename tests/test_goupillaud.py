import random

import pytest

from layered_echo import (
    EnumerationLimitExceeded,
    make_medium,
    merge_ties,
    reflection_green,
    transmission_green,
)
from layered_echo import transit
from layered_echo.goupillaud import simulate


def test_m1_reflection_samples():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    res = simulate(m, 2)
    assert res.g_times == (1.0, 2.0)
    assert res.g[0] == 0.5
    assert res.g[1] == pytest.approx(0.375, rel=1e-15)


def test_transparent_medium():
    m = make_medium((1.0, 1.0, 1.0), 0.0, (0.0, 0.0, 0.0))
    res = simulate(m, 5)
    assert all(x == 0.0 for x in res.g)
    assert res.h[0] == 1.0
    assert all(x == 0.0 for x in res.h[1:])
    assert res.h_times[0] == 1.5


def test_tail_delays_transmission_times_only():
    m = make_medium((1.0, 1.0), 0.0, (0.3, -0.4))
    m_tail = make_medium((1.0, 1.0), 0.8, (0.3, -0.4))
    a, b = simulate(m, 4), simulate(m_tail, 4)
    assert a.g == b.g and a.h == b.h
    assert all(tb == pytest.approx(ta + 0.4) for ta, tb in zip(a.h_times, b.h_times))


def test_too_fine_a_quantum_is_held_to_the_term_limit():
    # P = 1e-12 splits the stack into about 2e12 one-quantum layers
    m = make_medium((1.0, 1.0 + 1e-12), 0.0, (0.5, 0.5))
    with pytest.raises(EnumerationLimitExceeded, match="P = 1e-12 s"):
        simulate(m, 3)


def test_bad_step_count_rejected():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    with pytest.raises(ValueError):
        simulate(m, 0)


def test_cell_updates_are_held_to_the_term_limit(monkeypatch):
    for taus, cells in (
            ((1.0, 1.0), 44),  # M = 1, 10 steps: (2*10 + 1 + 1) half steps of 2 cells
            ((0.2, 0.1), 69)):  # P = 0.1, M' = 2: (2*10 + 2 + 1) half steps of 3 cells
        m = make_medium(taus, 0.0, (0.5, 0.5))
        monkeypatch.setattr(transit, "MAX_TERMS", cells)
        assert len(simulate(m, 10).g) == 10
        monkeypatch.setattr(transit, "MAX_TERMS", cells - 1)
        with pytest.raises(EnumerationLimitExceeded):
            simulate(m, 10)


def _train_on_grid(train, times, period):
    out = [0.0] * len(times)
    for t, a in zip(train.times, train.amps):
        out[round((t - times[0]) / period)] += a
    return out


def _equal_media(rng, count, r_max):
    for _ in range(count):
        m_layers = rng.randint(1, 5)
        refls = tuple(rng.uniform(-r_max, r_max) for _ in range(m_layers + 1))
        yield make_medium((1.0,) * (m_layers + 1), 0.0, refls)


def _decimal_media(rng, count, r_max):
    """Unequal tau from {0.1, ..., 0.7}, then from {0.05, ..., 0.7}; tail 0 or 0.25."""
    for i in range(count):
        per_second = (10, 20)[i % 2]
        m_layers = rng.randint(1, 4)
        taus = tuple(rng.randint(1, 7 * per_second // 10) / per_second
                     for _ in range(m_layers + 1))
        refls = tuple(rng.uniform(-r_max, r_max) for _ in range(m_layers + 1))
        yield make_medium(taus, rng.choice((0.0, 0.25)), refls)


def test_matches_merged_closed_form():
    rng = random.Random(31)
    media = [(m, 12) for m in _equal_media(rng, 20, 0.9)]
    media += [(m, 40) for m in _decimal_media(rng, 40, 0.9)]
    for m, steps in media:
        res = simulate(m, steps)
        g_train = merge_ties(reflection_green(m, res.g_times[-1] * (1 + 1e-12)))
        got = _train_on_grid(g_train, res.g_times, res.period)
        for s, expected in zip(res.g, got):
            assert s == pytest.approx(expected, abs=1e-12)
        h_train = merge_ties(transmission_green(m, res.h_times[-1] * (1 + 1e-12)))
        got_h = _train_on_grid(h_train, res.h_times, res.period)
        for s, expected in zip(res.h, got_h):
            assert s == pytest.approx(expected, abs=1e-12)


def test_energy_never_exceeds_unity():
    rng = random.Random(32)
    for m in [*_equal_media(rng, 30, 0.99), *_decimal_media(rng, 40, 0.99)]:
        assert simulate(m, 20).energy() <= 1.0 + 1e-12
