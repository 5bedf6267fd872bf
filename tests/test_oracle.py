import math
import random
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from layered_echo import (
    DomainError,
    EnumerationLimitExceeded,
    InvalidSequence,
    REFLECTION,
    TRANSMISSION,
    TransitVector,
    branch_set,
    enumerate_reflection,
    enumerate_transmission,
    make_medium,
    reflection_amplitude,
    reflection_green,
    transmission_green,
)
from layered_echo import transit
from layered_echo.amplitudes import class_count
from layered_echo.oracle import (
    ScatteringSequence,
    class_counts,
    enumerate_sequences,
    stats,
    tally,
    weight,
    weight_sums_by_vector,
)
from layered_echo.transit import half_total_time


def rpath(*depths):
    return ScatteringSequence(depths, REFLECTION)


def tpath(*depths):
    return ScatteringSequence(depths, TRANSMISSION)


def test_sequence_validation():
    rpath(-1, 0, -1)
    tpath(-1, 0, 1, 2)
    with pytest.raises(InvalidSequence):
        ScatteringSequence((-1, 0, 2, 0, -1), REFLECTION)  # skips a level
    with pytest.raises(InvalidSequence):
        ScatteringSequence((-1, 0, -1, 0, -1), REFLECTION)  # revisits source
    with pytest.raises(InvalidSequence):
        ScatteringSequence((0, 1, 0), REFLECTION)


@pytest.mark.parametrize("depths, kind", [
    ((-1, 0), REFLECTION),
    ((-1, 0, 1), REFLECTION),
    ((-1, 0, 1, 2, 1, 2), TRANSMISSION),
    ((-1, 0, -1), "echo"),
    ((-1, 0.4, -1.2), REFLECTION),
    ((-1, 0, 1.5, 2), TRANSMISSION),
], ids=["too-short", "refl-not-back-at-source", "trans-interior-at-receiver", "unknown-kind",
        "refl-non-integral", "trans-non-integral"])
def test_sequence_refuses(depths, kind):
    with pytest.raises(InvalidSequence):
        ScatteringSequence(depths, kind)


@pytest.mark.parametrize("seq", [rpath(-1, 0, 1, 2, 1, 0, -1), tpath(-1, 0, 1, 2, 3)],
                         ids=[REFLECTION, TRANSMISSION])
def test_stats_refuses_a_walk_deeper_than_the_medium(seq):
    with pytest.raises(InvalidSequence, match="exceeds interface range"):
        stats(seq, make_medium((1.0, 1.0), 0.0, (0.5, 0.5)))


@pytest.mark.parametrize("walks", [lambda m: list(enumerate_sequences(m, "echo", 3.0)),
                                   lambda m: tally(m, "echo", 3.0)],
                         ids=["enumerate_sequences", "tally"])
def test_unknown_kind_is_refused(walks):
    with pytest.raises(ValueError, match="unknown kind 'echo'"):
        walks(make_medium((1.0, 1.0), 0.0, (0.5, 0.5)))


def test_weight_first_multiple():
    r0, r1 = 0.3, -0.6
    w = weight(rpath(-1, 0, 1, 0, -1), (r0, r1))
    assert w == pytest.approx(r1 * (1 - r0 * r0), rel=1e-15)


def test_weight_single_bounce():
    assert weight(rpath(-1, 0, -1), (0.37, 0.5)) == 0.37


def test_weight_double_reverberation_matches_closed_form():
    rng = random.Random(12)
    for _ in range(10):
        r0, r1 = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        w = weight(rpath(-1, 0, 1, 0, 1, 0, -1), (r0, r1))
        assert w == pytest.approx(-r0 * r1 * r1 * (1 - r0 * r0), rel=1e-13)
        # this is the only walk with transit vector (1, 2)
        closed = reflection_amplitude((r0, r1), TransitVector((1, 2), REFLECTION))
        assert w == pytest.approx(closed, rel=1e-13)


def test_stats_first_multiple():
    m = make_medium((1.0, 2.0), 0.0, (0.3, 0.4))
    st = stats(rpath(-1, 0, 1, 0, -1), m)
    assert st.k.k == (1, 1)
    assert st.b == (1, 0)
    assert st.arrival == pytest.approx(3.0)
    assert st.weight == pytest.approx(0.4 * (1 - 0.09))


def test_stats_primary():
    m = make_medium((1.0, 1.0), 0.0, (0.3, 0.4))
    st = stats(rpath(-1, 0, -1), m)
    assert st.k.k == (1, 0)
    assert st.b == (0, 0)


def test_stats_deep_multi_excursion_path():
    # four down-crossings into level 2; two of the resulting excursions
    # dip to level 3, so exactly two count as branched
    p = rpath(-1, 0, 1, 2, 1, 2, 3, 2, 1, 2, 1, 2, 3, 2, 1, 0, -1)
    m = make_medium((1.0, 1.0, 1.0, 1.0), 0.0, (0.1, 0.1, 0.1, 0.1))
    st = stats(p, m)
    assert st.k.k == (1, 1, 4, 2)
    assert st.b[2] == 2


def test_stats_transmission_trunk_excluded():
    m = make_medium((1.0, 1.0), 0.0, (0.3, 0.4))
    st = stats(tpath(-1, 0, 1, 0, 1, 2), m)
    assert st.k.k == (0, 1)
    assert st.b == (0, 0)
    assert st.arrival == pytest.approx(0.5 * 2.0 + 1.0)


def test_enumerate_sequences_m1():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    got = {s.depths for s in enumerate_sequences(m, REFLECTION, 1.0)}
    assert got == {(-1, 0, -1)}
    got2 = {s.depths for s in enumerate_sequences(m, REFLECTION, 2.0)}
    assert got2 == {(-1, 0, -1), (-1, 0, 1, 0, -1)}


def test_enumerate_sequences_transmission_m1():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    got = {s.depths for s in enumerate_sequences(m, TRANSMISSION, 1.0)}
    assert got == {(-1, 0, 1, 2)}


@pytest.mark.parametrize("kind", [REFLECTION, TRANSMISSION])
def test_cutoff_before_the_first_arrival_gives_no_walks(kind):
    # both kinds first arrive at 1.0 here
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    assert list(enumerate_sequences(m, kind, 0.99)) == []
    assert tally(m, kind, 0.99) == ({}, {})


def test_sequence_limit_guard(monkeypatch):
    m = make_medium((1.0, 1.0, 1.0), 0.0, (0.5, 0.5, 0.5))
    monkeypatch.setattr(transit, "MAX_TERMS", 10)
    with pytest.raises(EnumerationLimitExceeded):
        list(enumerate_sequences(m, REFLECTION, 20.0))


def test_arrival_equals_leg_sum():
    m = make_medium((0.9, 1.2, 0.8), 0.4, (0.1, -0.2, 0.3))
    for kind in (REFLECTION, TRANSMISSION):
        for seq in enumerate_sequences(m, kind, 6.0):
            legs = sum(0.5 * m.all_taus[max(a, b)]
                       for a, b in zip(seq.depths, seq.depths[1:]))
            assert stats(seq, m).arrival == pytest.approx(legs, rel=1e-12)


def test_stats_satisfy_constraints():
    m = make_medium((1.0, 1.0, 1.0), 0.0, (0.1, 0.2, 0.3))
    for seq in enumerate_sequences(m, REFLECTION, 8.0):
        st = stats(seq, m)
        k = st.k.k
        kt = k[1:] + (0,)
        assert k[0] == 1
        for n in range(3):
            assert min(1, kt[n]) <= st.b[n] <= min(k[n], kt[n])
    for seq in enumerate_sequences(m, TRANSMISSION, 6.0):
        st = stats(seq, m)
        k = st.k.k
        kt = k[1:] + (0,)
        assert k[0] == 0
        for n in range(3):
            assert 0 <= st.b[n] <= min(k[n], kt[n])


def test_class_counts_match_tree_products():
    # exact integer agreement on every reachable class
    for m_layers in (1, 2, 3):
        m = make_medium((1.0,) * (m_layers + 1), 0.0, (0.1,) * (m_layers + 1))
        counts = class_counts(m, REFLECTION, 8.0)
        assert counts
        for (k, b), n in counts.items():
            assert n == class_count(TransitVector(k, REFLECTION), b)
        tcounts = class_counts(m, TRANSMISSION, 0.5 * (m_layers + 1) + 8.0)
        assert tcounts
        for (k, b), n in tcounts.items():
            assert n == class_count(TransitVector(k, TRANSMISSION), b)


def test_class_count_small_examples():
    m = make_medium((1.0, 1.0), 0.0, (0.1, 0.1))
    counts = class_counts(m, REFLECTION, 6.0)
    assert counts[((1, 2), (1, 0))] == 1
    m3 = make_medium((1.0, 1.0, 1.0), 0.0, (0.1, 0.1, 0.1))
    counts3 = class_counts(m3, REFLECTION, 10.0)
    assert counts3[((1, 2, 2), (1, 1, 0))] == 2
    assert counts3[((1, 2, 2), (1, 2, 0))] == 1
    tc = class_counts(m, TRANSMISSION, 4.0)
    assert tc[((0, 1), (0, 0))] == 1


def test_branch_set_matches_oracle_branch_vectors():
    for m_layers in (1, 2, 3):
        m = make_medium((1.0,) * (m_layers + 1), 0.0, (0.1,) * (m_layers + 1))
        for kind, enum, extra in (
                (REFLECTION, enumerate_reflection, 0.0),
                (TRANSMISSION, enumerate_transmission,
                 0.5 * (m_layers + 1))):
            counts = class_counts(m, kind, extra + 8.0)
            observed = {}
            for (k, b) in counts:
                observed.setdefault(k, set()).add(b)
            for tv in enum(m, extra + 8.0):
                if sum(tv.k) > 8:
                    continue
                assert observed.get(tv.k, set()) == set(branch_set(tv))


def test_weight_sums_match_closed_form_per_vector():
    rng = random.Random(13)
    m = make_medium((1.0, 1.0, 1.0), 0.0,
                    tuple(rng.uniform(-0.8, 0.8) for _ in range(3)))
    sums = weight_sums_by_vector(m, REFLECTION, 8.0 + 1e-9)
    for tv in enumerate_reflection(m, 8.0):
        closed = reflection_amplitude(m.reflections, tv)
        assert sums[tv.k] == pytest.approx(closed, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("cutoff", [1.9, 2.5, 2.6, 3.0])
def test_classes_are_whole_at_an_exact_arrival(cutoff):
    # commensurate travel times: each cutoff is the arrival time of some
    # transit vector, and walk times summed leg by leg land on either side of
    # it, so pruning on them would keep part of a class
    m = make_medium((0.3, 0.2, 0.25, 0.4), 0.0, (0.4, -0.3, 0.2, 0.5))
    for kind, build in ((REFLECTION, reflection_green),
                        (TRANSMISSION, transmission_green)):
        for (k, b), n in class_counts(m, kind, cutoff).items():
            assert n == class_count(TransitVector(k, kind), b)
        assert weight_sums_by_vector(m, kind, cutoff).keys() == set(build(m, cutoff).ks)


def _reference_paths(medium, kind, cutoff):
    """The walks as a recursive DFS lists them, one path tuple each: the
    order ``enumerate_sequences`` must keep."""
    m = medium.n_layers
    half = [0.5 * t for t in medium.all_taus]
    # exit_cost[v]: time from interface v to the receiver
    exit_cost, acc = [0.0] * (m + 1), 0.0
    for v in (range(m + 1) if kind == REFLECTION else range(m, -1, -1)):
        acc += half[v] if kind == REFLECTION else half[v + 1]
        exit_cost[v] = acc
    path = [-1, 0]

    def visit(v, t):
        if kind == REFLECTION:
            if v == 0:
                yield tuple(path) + (-1,)
            else:
                yield from step(v - 1, t + half[v])
            if v < m and t + half[v + 1] + exit_cost[v + 1] <= cutoff:
                yield from step(v + 1, t + half[v + 1])
        else:
            if v == m:
                yield tuple(path) + (m + 1,)
            elif t + half[v + 1] + exit_cost[v + 1] <= cutoff:
                yield from step(v + 1, t + half[v + 1])
            if v > 0 and t + half[v] + exit_cost[v - 1] <= cutoff:
                yield from step(v - 1, t + half[v])

    def step(v, t):
        path.append(v)
        yield from visit(v, t)
        path.pop()

    if half[0] + exit_cost[0] <= cutoff:
        yield from visit(0, half[0])


def _walk_states(path, m1):
    """The walk state (v, came_down, down-crossings, branched excursions) at
    each interface of a path, counted as ``_counts`` counts them."""
    down, branched, deeper = [0] * m1, [0] * m1, [False] * m1
    for a, v in zip(path, path[1:-1]):
        if v == a + 1:
            down[v] += 1
            deeper[v] = False
            if a >= 0 and not deeper[a]:
                branched[a] += 1
                deeper[a] = True
        else:
            deeper[a] = False
        yield v, v == a + 1, tuple(down), tuple(branched)


@st.composite
def _walk_cases(draw):
    m = draw(st.integers(1, 3))
    # travel times within a factor 1.5 of each other, so that every layer
    # takes part in the reverberations
    base = draw(st.floats(0.1, 1.0))
    taus = [base * x for x in draw(st.lists(st.floats(1.0, 1.5), min_size=m + 1,
                                            max_size=m + 1))]
    refls = draw(st.lists(st.floats(-0.95, 0.95), min_size=m + 1, max_size=m + 1))
    medium = make_medium(tuple(taus), draw(st.floats(0.0, 1.0)), tuple(refls))
    kind = draw(st.sampled_from([REFLECTION, TRANSMISSION]))
    start = taus[0] if kind == REFLECTION else half_total_time(medium)
    # walk budget: at most 8 round trips past the first arrival, so at most
    # about 4 200 walks (the most when all travel times are equal)
    cutoff = start + (8.0 - draw(st.integers(0, 800)) / 100) * min(taus)
    return medium, kind, cutoff


@settings(max_examples=100, deadline=None)
@given(_walk_cases())
# commensurate travel times, each cutoff the time of a walk: the search's
# leg sums land on it one way and just past it the other, so the step-up
# prune of the transmission search decides a walk in the first case and
# the step-down prune in the second
@example((make_medium((0.6, 0.3), 0.25, (0.4, -0.3)), TRANSMISSION, 1.4749999999999999))
@example((make_medium((0.7, 0.1), 0.25, (0.4, -0.3)), TRANSMISSION, 0.7249999999999999))
def test_walks_match_the_per_sequence_reference(case):
    medium, kind, cutoff = case
    expected = list(_reference_paths(medium, kind, cutoff))
    # one walk past the reference is enough to fail a search that runs away
    sequences = list(islice(enumerate_sequences(medium, kind, cutoff), len(expected) + 1))
    assert [seq.depths for seq in sequences] == expected
    if sequences:
        with patch.object(transit, "MAX_TERMS", len(sequences) - 1):
            with pytest.raises(EnumerationLimitExceeded):
                list(enumerate_sequences(medium, kind, cutoff))
        with patch.object(transit, "MAX_TERMS", len(sequences)):
            assert list(enumerate_sequences(medium, kind, cutoff)) == sequences
    # tally's reference: the walks whose transit vector arrives by the cutoff,
    # listed at a padded budget so that the leg-summed walk times cut none short
    counts, weights, lengths, states = {}, {}, {}, set()
    for seq in enumerate_sequences(medium, kind, cutoff * (1 + 1e-9)):
        ref = stats(seq, medium)
        if ref.arrival <= cutoff:
            k = ref.k.k
            counts[k, ref.b] = counts.get((k, ref.b), 0) + 1
            weights.setdefault(k, []).append(ref.weight)
            lengths[k] = len(seq.depths)  # the same for every walk of k
            states.update(_walk_states(seq.depths, medium.n_layers + 1))
    got_sums, got_counts = tally(medium, kind, cutoff)
    assert got_counts == counts
    assert got_sums.keys() == weights.keys()
    classes = {}
    for k, _ in counts:
        classes[k] = classes.get(k, 0) + 1
    for k, ws in weights.items():
        # n counts roundings, measured from the exact products: at each visit
        # of a walk, tally rounds one product and at most one merge of the two
        # states that lead into a state, and the reference rounds one product;
        # at most two finished states per class add into sums[k]; fsum rounds
        # once.  A path of L entries has L - 2 visits, so 3 L covers them all.
        # A product that underflows may also lose half the least subnormal,
        # and no factor exceeds 1 in size to magnify that later.
        n = 3 * lengths[k] + 2 * classes[k]
        gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
        bound = gamma * math.fsum(map(abs, ws)) + n * len(ws) * math.ulp(0.0)
        assert abs(got_sums[k] - math.fsum(ws)) <= bound
    if states:
        with patch.object(transit, "MAX_TERMS", len(states) - 1):
            with pytest.raises(EnumerationLimitExceeded):
                tally(medium, kind, cutoff)
        with patch.object(transit, "MAX_TERMS", len(states)):
            assert tally(medium, kind, cutoff)[1] == counts
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            tally(medium, kind, bad)
        with pytest.raises(DomainError):
            next(enumerate_sequences(medium, kind, bad))
