"""Brute-force ground truth over explicit scattering sequences.

A scattering sequence is a walk on the interface indices: -1 (source
depth), 0..M (the interfaces), and M+1 (transmission receiver depth).
Reflection sequences start and end at -1 with interior in 0..M;
transmission sequences run from -1 to M+1.  Each step between adjacent
interfaces consumes half the two-way travel time of the layer crossed.

Weights come straight from the per-visit scattering rule: a visit to
interface j between two stays above contributes R_j, between two stays
below contributes -R_j, and a pass-through contributes sqrt(1 - R_j^2).

Transit counts are read off the depth-vs-time graph of the walk: k_n is
the number of excursions to depth >= n (equivalently, down-crossings of
layer n); an excursion that goes strictly deeper than n marks a branch
point at n.  For transmission walks the final excursion at each depth is
the trunk and is excluded from both counts.

``tally`` counts classes and sums weights without listing walks.  It
sums over walk states (interface, came_down, k, b), one level per path
length: walks that share a state share every continuation, so its cost
follows the number of states, which grows polynomially with the cutoff,
and it holds that number to ``transit.MAX_TERMS``.  It keys a state by
k and b packed into one int each, a digit per index.  It prunes on the
train search's own arrival floats, so it keeps or drops each class whole.

``enumerate_sequences`` is the reference it is tested against: a
depth-first search that lists every walk arriving by the cutoff, path
alone, pruned on times summed leg by leg.  It is exponential in the
cutoff by design and holds its walk count to ``transit.MAX_TERMS``, read
when a search starts.  ``stats`` and ``weight`` read k, b, the arrival
time and the weight off each listed ``ScatteringSequence`` from first
principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from . import transit
from .errors import DomainError, EnumerationLimitExceeded, InvalidSequence
from .medium import Medium
from .transit import (
    REFLECTION,
    TRANSMISSION,
    TransitVector,
    _int_entries,
    _Memo,
    half_total_time,
    reflection_arrival,
    transmission_arrival,
)


@dataclass(frozen=True)
class ScatteringSequence:
    """Interface-index walk, e.g. (-1, 0, 1, 0, -1)."""

    depths: Tuple[int, ...]
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "depths", _int_entries(self.depths, InvalidSequence))
        p = self.depths
        if len(p) < 3:
            raise InvalidSequence(f"sequence too short: {p}")
        for a, b in zip(p, p[1:]):
            if abs(a - b) != 1:
                raise InvalidSequence(f"non-adjacent step {a} -> {b}")
        if p[0] != -1:
            raise InvalidSequence(f"must start at -1, got {p[0]}")
        if self.kind == REFLECTION:
            if p[-1] != -1:
                raise InvalidSequence(f"reflection walk must end at -1, got {p[-1]}")
            if min(p[1:-1]) < 0:
                raise InvalidSequence("interior may not revisit -1")
        elif self.kind == TRANSMISSION:
            last = p[-1]
            if any(d < 0 for d in p[1:]) or any(d >= last for d in p[1:-1]):
                raise InvalidSequence("interior must stay within 0..M")
        else:
            raise InvalidSequence(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class PathStats:
    k: TransitVector
    b: Tuple[int, ...]
    arrival: float
    weight: float


def weight(seq: ScatteringSequence, refls: Sequence[float]) -> float:
    """Product of per-visit scattering factors, computed from first principles."""
    p = seq.depths
    trans = [math.sqrt(1.0 - r * r) for r in refls]
    w = 1.0
    for i in range(1, len(p) - 1):
        j = p[i]
        if p[i - 1] == p[i + 1] == j - 1:
            w *= refls[j]
        elif p[i - 1] == p[i + 1] == j + 1:
            w *= -refls[j]
        else:
            w *= trans[j]
    return w


def _counts(p: Tuple[int, ...], n_levels: int):
    """Down-crossing and branched-excursion counts per level 0..n_levels-1."""
    down = [0] * n_levels
    branched = [0] * n_levels
    open_branch = [False] * n_levels
    for a, b in zip(p, p[1:]):
        if b == a + 1:  # down-step into level b
            if b < n_levels:
                down[b] += 1
                open_branch[b] = False
            if 0 <= a < n_levels and not open_branch[a]:
                branched[a] += 1
                open_branch[a] = True
        else:  # up-step out of level a
            if a < n_levels:
                open_branch[a] = False
    return down, branched


def stats(seq: ScatteringSequence, medium: Medium) -> PathStats:
    """Transit/branch count vectors, arrival time and weight of a walk."""
    m1 = medium.n_layers + 1
    p = seq.depths
    if max(p) > (m1 if seq.kind == TRANSMISSION else m1 - 1):
        raise InvalidSequence(f"walk exceeds interface range for M={m1 - 1}")
    down, branched = _counts(p, m1)
    if seq.kind == REFLECTION:
        k = TransitVector(tuple(down), REFLECTION)
        b = tuple(branched)
        arrival = reflection_arrival(k.k, medium)
    else:
        # one excursion per level is the trunk; it always branches deeper
        k = TransitVector(tuple(d - 1 for d in down), TRANSMISSION)
        b = tuple(x - 1 for x in branched)
        arrival = transmission_arrival(k.k, medium)
    return PathStats(k, b, arrival, weight(seq, medium.reflections))


def enumerate_sequences(medium: Medium, kind: str,
                        cutoff: float) -> Iterator[ScatteringSequence]:
    """Yield every walk of the given kind arriving by the cutoff, once each.

    Depth-first search with time-budget pruning: a branch is abandoned as
    soon as the time spent plus the cheapest exit exceeds the cutoff.  The
    search carries the path alone; ``stats`` and ``weight`` read k, b and
    the weight off each walk it yields.  Raises EnumerationLimitExceeded
    past ``transit.MAX_TERMS`` walks, and DomainError for a non-finite
    cutoff or an unknown kind, at the call.
    """
    if not math.isfinite(cutoff):
        raise DomainError("cutoff must be finite")
    if kind not in (REFLECTION, TRANSMISSION):
        raise DomainError(f"unknown kind {kind!r}")
    return _walks(medium, kind, cutoff)


def _walks(medium: Medium, kind: str, cutoff: float) -> Iterator[ScatteringSequence]:
    """The walks of ``enumerate_sequences``, for a cutoff and kind it has checked."""
    m = medium.n_layers
    half = [0.5 * t for t in medium.all_taus]
    exit_cost = [0.0] * (m + 1)
    acc = 0.0
    if kind == REFLECTION:
        # exit_cost[v]: time to climb from interface v back to -1
        for v in range(m + 1):
            acc += half[v]
            exit_cost[v] = acc
        end = -1
    else:
        # exit_cost[v]: time to descend from interface v to M+1
        for v in range(m, -1, -1):
            acc += half[v + 1]
            exit_cost[v] = acc
        end = m + 1
    reflection = kind == REFLECTION
    t0 = half[0]
    if t0 + exit_cost[0] > cutoff:
        return

    limit = transit.MAX_TERMS
    emitted = 0
    path = [-1]
    # (interface v, time on arrival at v, index of v in the path)
    stack = [(0, t0, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        v, t, d = pop()
        del path[d:]
        path.append(v)
        if reflection:
            if v < m:
                t2 = t + half[v + 1]
                if t2 + exit_cost[v + 1] <= cutoff:
                    push((v + 1, t2, d + 1))
            if v:
                push((v - 1, t + half[v], d + 1))
                continue
        else:
            if v:
                t2 = t + half[v]
                if t2 + exit_cost[v - 1] <= cutoff:
                    push((v - 1, t2, d + 1))
            if v < m:
                t2 = t + half[v + 1]
                if t2 + exit_cost[v + 1] <= cutoff:
                    push((v + 1, t2, d + 1))
                continue
        emitted += 1
        if emitted > limit:
            raise EnumerationLimitExceeded(
                f"more than {limit} sequences below cutoff {cutoff}")
        yield ScatteringSequence(tuple(path) + (end,), kind)


def tally(medium: Medium, kind: str, cutoff: float) -> Tuple[Dict, Dict]:
    """(weight_sums_by_vector, class_counts) of every walk of the given kind
    whose transit vector arrives by the cutoff, summed over walk states.

    A level holds the states of one path length.  A state is the key
    (interface v, came_down, k, b) of the walks that reach it: the visit
    factor of v and the b increment of the next step depend on that key
    alone, so walks that share it share every continuation, and a state
    carries only [walks, weight sum of the visits before v].  A step
    multiplies the weight sum by the visit factor and adds both into the
    next level; a finished walk adds into ``counts[k, b]`` and ``sums[k]``.
    The cost follows the number of states, not of walks.

    Inside the search k and b are each one int, entry n in digit n of base
    2^width, and transmission entries are stored plus one, so that the
    trunk's -1 is a digit too.  A digit holds the largest entry any
    arriving vector can have, read off the cutoff and the least travel time
    with the search's own floats, plus the one that a tested step may add;
    so a step adds the unit of one index, no digit carries into the next,
    and no two states share a key.  Each distinct k and b is unpacked into
    an int tuple once, at the end.

    A move is pruned when the least arrival of any walk through the state
    it makes is past the cutoff, taken from ``reflection_arrival`` or
    ``transmission_arrival`` (the train search's own floats), which are
    monotone in every entry of k.  So pruning depends on the state alone, a
    class is kept or dropped whole, and the vectors found are the train's
    at any cutoff, one that equals an arrival time included.  The sums are
    not bit-identical to the ``weight`` of each walk of
    ``enumerate_sequences`` summed in walk order, the reference it is
    tested against, but agree with it to a bound on rounding.  Raises
    EnumerationLimitExceeded as soon as more than ``transit.MAX_TERMS``
    states (the root included) are made, and DomainError for a non-finite
    cutoff or an unknown kind.
    """
    if not math.isfinite(cutoff):
        raise DomainError("cutoff must be finite")
    taus = medium.layer_taus
    if kind == REFLECTION:
        t0, offset = taus[0], 0
    elif kind == TRANSMISSION:
        t0, offset = half_total_time(medium), 1
    else:
        raise DomainError(f"unknown kind {kind!r}")
    reflection = kind == REFLECTION
    m = medium.n_layers
    refls = medium.reflections
    neg = [-r for r in refls]
    trans = [math.sqrt(1.0 - r * r) for r in refls]
    limit = transit.MAX_TERMS
    # q: the most k_n can be in an arriving vector, the largest q with
    # t0 + q * tau <= cutoff for the least tau (k_0 is fixed).  No entry
    # passes the number of states either, so q stops at the limit
    tau = min(taus[1:])
    q = int(min(limit, max(0.0, (cutoff - t0) // tau)))
    while q < limit and t0 + (q + 1) * tau <= cutoff:
        q += 1
    while q and t0 + q * tau > cutoff:
        q -= 1
    # a state's b_n is at most its k_{n+1}, and a tested vector has at most
    # one entry past q
    width = (q + 1 + offset).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, width * (m + 1), width)
    unit = [1 << s for s in shifts]

    def unpack(x):
        return tuple([((x >> s) & mask) - offset for s in shifts])

    if reflection:
        # k never shrinks along a walk and climbing straight out adds nothing
        # to it, so a step down that makes k survives iff k arrives; a step
        # up always does
        arrives = _Memo(lambda k: reflection_arrival(unpack(k), medium) <= cutoff)
        alive = arrives[unit[0]]
    else:
        # the cheapest way on from v - 1 goes straight down, crossing every
        # layer from v to M once more, so a step up from v survives iff k plus
        # rest[v] arrives; a step down keeps the cheapest way on it had
        climbs = _Memo(lambda k: transmission_arrival(unpack(k), medium) <= cutoff)
        rest = [sum(unit[v:]) for v in range(m + 1)]
        alive = climbs[unit[0] + rest[0]]
    sums: Dict[int, float] = {}
    counts: Dict[Tuple[int, int], int] = {}
    if not alive:
        return sums, counts
    too_many = f"more than {limit} {kind} walk states by cutoff {cutoff:g}"
    made = 1  # the root
    if made > limit:
        raise EnumerationLimitExceeded(too_many)
    # the root: k_0 = 1 for reflection; for transmission k_0 = 0 and every
    # other entry of k and b is -1, the trunk, which counts in neither
    level = {(0, True, unit[0], 0): [1, 1.0]}
    while level:
        nxt: Dict[tuple, list] = {}
        get = nxt.get

        def step(key, n, w):
            nonlocal made
            state = get(key)
            if state is None:
                made += 1
                if made > limit:
                    raise EnumerationLimitExceeded(too_many)
                nxt[key] = [n, w]
            else:
                state[0] += n
                state[1] += w

        for (v, came_down, k, b), (n, w) in level.items():
            # the visit factor of v: a bounce back to the side it came from is
            # R_v from above and -R_v from below, a pass-through is T_v; stepping
            # down opens an excursion below v, a branch of the excursion at v
            # unless that one has been deeper already
            if came_down:
                w_up, w_down, b_down = w * refls[v], w * trans[v], b + unit[v]
            else:
                w_up, w_down, b_down = w * trans[v], w * neg[v], b
            if v:
                if reflection or climbs[k + rest[v]]:
                    step((v - 1, False, k, b), n, w_up)
            elif reflection:
                counts[k, b] = counts.get((k, b), 0) + n
                sums[k] = sums.get(k, 0.0) + w_up
            if v < m:
                k2 = k + unit[v + 1]
                if not reflection or arrives[k2]:
                    step((v + 1, True, k2, b_down), n, w_down)
            elif not reflection:
                counts[k, b_down] = counts.get((k, b_down), 0) + n
                sums[k] = sums.get(k, 0.0) + w_down
        level = nxt
    vectors = {k: unpack(k) for k in sums}
    branches = _Memo(unpack)
    return ({vectors[k]: s for k, s in sums.items()},
            {(vectors[k], branches[b]): n for (k, b), n in counts.items()})


def class_counts(medium: Medium, kind: str, cutoff: float
                 ) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]:
    """Exact number of walks per (transit vector, branch vector) class."""
    return tally(medium, kind, cutoff)[1]


def weight_sums_by_vector(medium: Medium, kind: str,
                          cutoff: float) -> Dict[Tuple[int, ...], float]:
    """Sum of walk weights grouped by transit vector."""
    return tally(medium, kind, cutoff)[0]
