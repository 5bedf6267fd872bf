import collections
import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from layered_echo import (
    InvalidTransitVector,
    REFLECTION,
    TRANSMISSION,
    TransitVector,
    enumerate_reflection,
    enumerate_transmission,
    left_shift,
    make_medium,
)
from layered_echo import greens, oracle, transit
from layered_echo.amplitudes import class_column, class_tables, layer_factor
from layered_echo.errors import DomainError
from layered_echo.transit import (
    reflection_arrival,
    transmission_arrival,
)


def rvec(*k):
    return TransitVector(k, REFLECTION)


def tvec(*k):
    return TransitVector(k, TRANSMISSION)


def test_left_shift():
    assert left_shift((1, 2, 0)) == (2, 0, 0)
    assert left_shift((1, 1, 1)) == (1, 1, 0)
    assert left_shift((0, 0, 0, 0)) == (0, 0, 0, 0)


def test_transit_vector_validation():
    rvec(1, 2, 0)
    tvec(0, 3, 0, 1)
    with pytest.raises(InvalidTransitVector):
        rvec(2, 1)  # k_0 must be 1
    with pytest.raises(InvalidTransitVector):
        rvec(1, 0, 1)  # support must be a prefix
    with pytest.raises(InvalidTransitVector):
        tvec(1, 1)  # k_0 must be 0
    with pytest.raises(InvalidTransitVector):
        rvec(1, -1)


@pytest.mark.parametrize("k, kind", [
    ((1, 2), "echo"),
    ((), REFLECTION),
    ((1, 2.7, 0.2), REFLECTION),
    ((0, 1.5), TRANSMISSION),
    ((1, float("nan")), REFLECTION),
    ((1, "2"), REFLECTION),
], ids=["unknown-kind", "empty", "refl-non-integral", "trans-non-integral", "nan", "str"])
def test_transit_vector_refuses(k, kind):
    with pytest.raises(InvalidTransitVector):
        TransitVector(k, kind)


def test_transit_vector_reads_integral_floats_as_ints():
    assert rvec(1.0, 2.0, 0.0).k == (1, 2, 0)
    assert all(type(x) is int for x in rvec(1.0, 2.0, 0.0).k)


def branch_set(tv):
    """The branch set of k: the keys of its class table, in their order."""
    return list(class_tables(tv.kind)(tv.k))


def test_branch_set_primary_is_singleton():
    # the only branch vector of a primary is the previous primary
    assert branch_set(rvec(1, 1, 1, 0)) == [(1, 1, 0, 0)]
    assert branch_set(rvec(1, 0, 0)) == [(0, 0, 0)]


def test_branch_set_small_examples():
    assert branch_set(rvec(1, 2)) == [(1, 0)]
    assert branch_set(rvec(1, 2, 2)) == [(1, 1, 0), (1, 2, 0)]


def test_branch_set_transmission():
    assert branch_set(tvec(0, 1)) == [(0, 0)]
    assert branch_set(tvec(0, 2, 1)) == [(0, 0, 0), (0, 1, 0)]


def test_branch_set_lexicographic_order():
    got = branch_set(rvec(1, 3, 3, 2, 0))
    assert got == sorted(got)
    assert len(got) == len(set(got))


def test_enumerate_reflection_m1():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    ks = {tv.k for tv in enumerate_reflection(m, 2.0)}
    assert ks == {(1, 0), (1, 1)}


def test_enumerate_reflection_below_first_arrival():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    assert list(enumerate_reflection(m, 0.5)) == []


def test_enumerate_transmission_m1():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    ks = {tv.k for tv in enumerate_transmission(m, 1.0)}
    assert ks == {(0, 0)}
    assert list(enumerate_transmission(m, 0.0)) == []


def test_emitted_vectors_satisfy_kind_invariants():
    m = make_medium((0.5, 0.25, 1.0), 0.0, (0.1, 0.2, 0.3))
    for tv in enumerate_reflection(m, 4.0):
        assert tv.k[0] == 1
        support = [i for i, x in enumerate(tv.k) if x > 0]
        assert support == list(range(len(support)))
    for tv in enumerate_transmission(m, 4.0):
        assert tv.k[0] == 0


def _box_reference_reflection(m, cutoff):
    """Exhaustive integer-box filter, independent of the DFS."""
    taus = m.layer_taus
    bounds = [int(cutoff // t) + 1 for t in taus]
    out = set()
    for k in itertools.product(*(range(b + 1) for b in bounds)):
        if k[0] != 1:
            continue
        if any(a == 0 and b != 0 for a, b in zip(k, k[1:])):
            continue
        if reflection_arrival(k, m) <= cutoff:
            out.add(k)
    return out


def _box_reference_transmission(m, base, cutoff):
    """Transmission vectors by the same exhaustive filter: k_0 = 0, any k_n >= 0."""
    taus = m.layer_taus
    bounds = [int(cutoff // t) + 1 for t in taus[1:]]
    out = set()
    for rest in itertools.product(*(range(b + 1) for b in bounds)):
        k = (0,) + rest
        # k_0 = 0, so this is <k, tau> summed left to right
        if base + reflection_arrival(k, m) <= cutoff:
            out.add(k)
    return out


def test_enumeration_completeness_against_box_filter():
    rng = random.Random(3)
    for m_layers in (1, 2, 3):
        taus = tuple(float(rng.randint(1, 3)) for _ in range(m_layers + 1))
        m = make_medium(taus, 0.0, (0.1,) * (m_layers + 1))
        cutoff = 9.0
        got = {tv.k for tv in enumerate_reflection(m, cutoff)}
        assert got == _box_reference_reflection(m, cutoff)
        # integer taus: |tau'|/2 and every <k, tau> are exact
        got = {tv.k for tv in enumerate_transmission(m, cutoff)}
        assert got == _box_reference_transmission(m, sum(taus) / 2, cutoff)
        assert len(got) > 1


def test_enumeration_monotone_in_cutoff():
    m = make_medium((0.7, 0.4, 1.1), 0.0, (0.1, 0.2, 0.3))
    small = {tv.k for tv in enumerate_reflection(m, 3.0)}
    large = {tv.k for tv in enumerate_reflection(m, 5.0)}
    assert small <= large
    small_t = {tv.k for tv in enumerate_transmission(m, 3.0)}
    large_t = {tv.k for tv in enumerate_transmission(m, 5.0)}
    assert small_t <= large_t


def test_enumeration_no_duplicates():
    m = make_medium((0.7, 0.4, 1.1), 0.0, (0.1, 0.2, 0.3))
    ks = [tv.k for tv in enumerate_reflection(m, 6.0)]
    assert len(ks) == len(set(ks))
    kt = [tv.k for tv in enumerate_transmission(m, 6.0)]
    assert len(kt) == len(set(kt))


def test_cutoff_is_inclusive():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    # arrival of (1, 1) is exactly 2.0
    assert (1, 1) in {tv.k for tv in enumerate_reflection(m, 2.0)}
    assert (1, 1) not in {tv.k for tv in enumerate_reflection(m, 1.9999999999)}


def test_arrival_helpers_match_enumerator_budget():
    m = make_medium((0.3, 0.21, 0.77), 0.13, (0.1, 0.2, 0.3))
    cutoff = 4.0
    for tv in enumerate_reflection(m, cutoff):
        assert reflection_arrival(tv.k, m) <= cutoff
    for tv in enumerate_transmission(m, cutoff):
        assert transmission_arrival(tv.k, m) <= cutoff


# a tau either any float or on a 0.1 s grid, where many arrivals tie exactly
_TAU = st.one_of(st.floats(0.1, 1.5), st.integers(1, 15).map(lambda i: i / 10))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([REFLECTION, TRANSMISSION]),
       taus=st.lists(_TAU, min_size=2, max_size=5),
       tail=_TAU, refl=st.floats(-0.9, 0.9), span=st.floats(0.0, 1.6))
@example(kind=REFLECTION, taus=[0.3, 0.1, 0.2, 0.1], tail=0.1, refl=0.5, span=1.6)
@example(kind=TRANSMISSION, taus=[0.3, 0.1, 0.2, 0.1], tail=0.1, refl=0.5, span=1.6)
def test_terms_come_in_lexicographic_order_and_sort_on_time_alone(kind, taus, tail, refl, span):
    # the first arrival plus a span, so every medium makes a small train
    m = make_medium(taus, tail, [refl * (-1) ** n for n in range(len(taus))])
    first = taus[0] if kind == REFLECTION else transit.half_total_time(m)
    cutoff = first + span
    # the rows carry k as its text in two parts; compare the parsed int tuples
    rows = [(t, transit.parse_k(head + tail), a)
            for t, head, tail, a in greens.arrivals(m, kind, cutoff)]
    ks = [k for _, k, _ in rows]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    # the build sorts on time alone; that must be exactly the (time, k) sort
    train = greens._build_train(m, cutoff, kind, 0.0)
    want = [(t.hex(), k, a.hex()) for t, k, a in sorted(rows)]
    assert list(zip(map(float.hex, train.times), train.ks, map(float.hex, train.amps))) == want


@pytest.mark.parametrize("kind, cutoff", [(REFLECTION, 3.5), (TRANSMISSION, 2.8)])
def test_terms_asks_each_factor_once(bench10, kind, cutoff):
    # a node looks its factor row up once and a child reads it by its own
    # entry, so the function is called once per distinct (n, k_n, k_{n+1}),
    # and for exactly the keys of the factors the vectors multiply
    asks = collections.Counter()

    def counted(n, kn, ktn):
        asks[n, kn, ktn] += 1
        return layer_factor(kind, bench10.reflections[n], kn, ktn)

    rows = list(transit.terms(bench10, kind, cutoff, counted))
    assert rows == list(greens.arrivals(bench10, kind, cutoff))
    used = set()
    for _, head, tail, _ in rows:
        k = transit.parse_k(head + tail)
        # a reflection vector multiplies the factors of its support alone
        size = k.index(0) if kind == REFLECTION and 0 in k else len(k)
        used.update(zip(range(size), k, left_shift(k)))
    assert set(asks) == used
    assert set(asks.values()) == {1}


# every function that reads a kind, called on one small medium
_KIND_READERS = {
    "class_column": lambda kind, m: class_column(kind, 2, 1),
    "layer_factor": lambda kind, m: layer_factor(kind, 0.5, 2, 1),
    "terms": lambda kind, m: list(transit.terms(m, kind, 3.0, lambda *key: 1.0)),
    "arrivals": lambda kind, m: list(greens.arrivals(m, kind, 3.0)),
    "class_tables": lambda kind, m: class_tables(kind),
    "tally": lambda kind, m: oracle.tally(m, kind, 3.0),
    "enumerate_sequences": lambda kind, m: list(oracle.enumerate_sequences(m, kind, 3.0)),
}


@pytest.mark.parametrize("kind", ["echo", "Reflection", ""])
@pytest.mark.parametrize("read", _KIND_READERS.values(), ids=list(_KIND_READERS))
def test_an_unknown_kind_is_refused(read, kind):
    # neither a near miss nor an empty kind may fall through to transmission
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    with pytest.raises(DomainError, match=re.escape(f"unknown kind {kind!r}")):
        read(kind, m)


# the functions that return an iterator, called without advancing it
_ITERATOR_READERS = {
    "terms": lambda m, kind, cutoff: transit.terms(m, kind, cutoff, lambda *key: 1.0),
    "arrivals": greens.arrivals,
    "enumerate_sequences": oracle.enumerate_sequences,
}


@pytest.mark.parametrize("read", _ITERATOR_READERS.values(), ids=list(_ITERATOR_READERS))
def test_an_unknown_kind_is_refused_at_the_call(read):
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    with pytest.raises(DomainError, match="unknown kind 'echo'"):
        read(m, "echo", 3.0)


# every search that takes a cutoff, called without advancing an iterator
_CUTOFF_READERS = {
    "terms": lambda m, cutoff: transit.terms(m, REFLECTION, cutoff, lambda *key: 1.0),
    "enumerate_reflection": enumerate_reflection,
    "enumerate_transmission": enumerate_transmission,
    "arrivals": lambda m, cutoff: greens.arrivals(m, REFLECTION, cutoff),
    "enumerate_sequences": lambda m, cutoff: oracle.enumerate_sequences(m, REFLECTION, cutoff),
    "tally": lambda m, cutoff: oracle.tally(m, REFLECTION, cutoff),
}


@pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("read", _CUTOFF_READERS.values(), ids=list(_CUTOFF_READERS))
def test_a_non_finite_cutoff_is_refused_at_the_call(read, cutoff):
    # nan compares false with every arrival and inf allows them all: neither
    # may reach a search, which would yield the primary or hit the term limit
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    with pytest.raises(DomainError, match="cutoff must be finite"):
        read(m, cutoff)
