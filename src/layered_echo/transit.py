"""Transit count vectors: enumeration, branch sets and arrival times.

A reflection transit vector k has k_0 = 1 and prefix support (k_n = 0
forces k_{n+1} = 0); a transmission transit vector has k_0 = 0 with
arbitrary nonnegative entries.  k_n counts round-trip crossings of
layer n, so the arrival time of every echo with transit vector k is
the inner product <k, tau> (plus half the total travel time in the
transmission case).

Both kinds are enumerated by one depth-first search over the entries of
k carrying the remaining time budget, so the cost is proportional to the
number of vectors emitted.  The two kinds differ only in k_0, in the least
allowed k_n and in which nodes of the search emit.  Children pop in
ascending order of their entry and a reflection prefix (padded with zeros)
is emitted before its children, so the vectors come in strictly increasing
lexicographic order of k; sorting by arrival time is the consumer's job.
The last entry k_M is not pushed: its parent emits those vectors directly.
Arrival times are accumulated strictly left to right (k_0*tau_0 first) so
that term counts at a given cutoff are deterministic and reproducible.  The
same search carries the amplitude: each time it fixes k_{n+1} it multiplies
the per-layer factor s_n(k_n, k_{n+1}) into a running product, and counts
the vectors against MAX_TERMS as it makes them.  A vector is carried as its
text, the CSV k field ("1|3|0"): each node's text is its parent's plus one
"|k_n", so the search builds no k tuple; ``parse_k`` parses a text back
where a caller wants the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, List, Mapping, Sequence, Tuple

from .errors import EnumerationLimitExceeded, InvalidTransitVector
from .medium import Medium

REFLECTION = "reflection"
TRANSMISSION = "transmission"


def _int_entries(values: Sequence, error: type) -> Tuple[int, ...]:
    """``values`` as a tuple of ints, or ``error`` unless every entry is an
    integer: 2.0 is read as 2, and 2.7 or "2" is refused."""
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise error(f"entries must be integers: {values}")
    return ints


@dataclass(frozen=True)
class TransitVector:
    """Per-layer round-trip crossing counts, tagged reflection or transmission."""

    k: Tuple[int, ...]
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "k", _int_entries(self.k, InvalidTransitVector))
        k = self.k
        if self.kind not in (REFLECTION, TRANSMISSION):
            raise InvalidTransitVector(f"unknown kind {self.kind!r}")
        if not k:
            raise InvalidTransitVector("empty transit vector")
        if any(x < 0 for x in k):
            raise InvalidTransitVector(f"negative entry in {k}")
        if self.kind == REFLECTION:
            if k[0] != 1:
                raise InvalidTransitVector(f"reflection vector must have k_0 = 1: {k}")
            for a, b in zip(k, k[1:]):
                if a == 0 and b != 0:
                    raise InvalidTransitVector(f"support must be a prefix: {k}")
        else:
            if k[0] != 0:
                raise InvalidTransitVector(f"transmission vector must have k_0 = 0: {k}")


def left_shift(k: Sequence[int]) -> Tuple[int, ...]:
    """(k_1, ..., k_M, 0)."""
    k = tuple(k)
    return k[1:] + (0,)


def branch_range(kind: str, kn: int, ktn: int) -> range:
    """The admissible b_n of index n, u_n..min(k_n, k~_n): u_n = min(1, k~_n)
    for reflection and 0 for transmission.  Empty for a reflection index
    with k_n = 0 < k~_n."""
    return range(min(1, ktn) if kind == REFLECTION else 0, min(kn, ktn) + 1)


def branch_set(tv: TransitVector) -> List[Tuple[int, ...]]:
    """All admissible branch count vectors for k, in lexicographic order:
    the Cartesian product of the ``branch_range`` of every index."""
    k = tv.k
    return list(product(*(branch_range(tv.kind, kn, ktn)
                          for kn, ktn in zip(k, left_shift(k)))))


def arrival_time(k: Sequence[int], taus: Sequence[float]) -> float:
    """<k, tau> accumulated left to right (the canonical summation order)."""
    t = k[0] * taus[0]
    for n in range(1, len(k)):
        t = t + k[n] * taus[n]
    return t


def half_total_time(medium: Medium) -> float:
    """|tau'|/2: one-way traversal time of the whole stack, fixed summation order."""
    base = 0.0
    for t in medium.all_taus:
        base += 0.5 * t
    return base


def reflection_arrival(k: Sequence[int], medium: Medium) -> float:
    """Arrival time of a reflection echo, identical floats to the enumerator."""
    return arrival_time(k, medium.layer_taus)


def transmission_arrival(k: Sequence[int], medium: Medium) -> float:
    """Arrival time of a transmission echo, identical floats to the enumerator."""
    taus = medium.layer_taus
    t = half_total_time(medium)
    for n in range(1, len(k)):
        t = t + k[n] * taus[n]
    return t


# The most work one search may do: transit vectors for ``terms``, cell
# updates for ``goupillaud.simulate``, walk states for ``oracle.tally`` and
# walks for ``oracle.enumerate_sequences``.
MAX_TERMS = 10_000_000


class _Memo(dict):
    """key -> make(key), each made on first lookup and kept."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def format_k(k: Sequence[int]) -> str:
    """The text of a transit vector, as the CSV k field writes it: "1|3|0"."""
    return "|".join(map(str, k))


def parse_k(text: str) -> Tuple[int, ...]:
    """The transit vector a k text holds; "" (no k) gives ()."""
    return tuple(map(int, text.split("|"))) if text else ()


def terms(medium: Medium, kind: str, cutoff: float,
          factors: Mapping) -> Iterator[Tuple[float, str, float]]:
    """Yield (arrival, k text, amplitude) for every transit vector k arriving by the cutoff.

    The k text is ``format_k(k)``, e.g. "1|3|0"; ``parse_k`` parses it back.
    The arrival is ``reflection_arrival(k)`` or ``transmission_arrival(k)``;
    the comparison with the cutoff is inclusive, and nothing is yielded if
    the first arrival is already late.  ``factors[n, k_n, k_{n+1}]`` is the
    per-layer factor s_n (see ``amplitudes.layer_factors``); the search
    multiplies s_n into a running product as soon as it fixes k_{n+1}, so
    the amplitude is the product of s_0 .. s_M in that order.  A reflection
    vector is emitted at the end of its support, where the remaining factors
    s(0, 0) are exactly 1.0 and are not multiplied in.  The vectors come in
    strictly increasing lexicographic order of k, for both kinds: the
    depth-first search visits children in ascending order of their entry,
    and a reflection prefix comes before its children.  A node that fixes
    the last entry k_M emits its children itself, multiplying s_{M-1} and
    then s_M into the running product, so no full vector takes a stack
    entry.  Each node's prefix text is its parent's plus "|k_n", so a
    vector's text costs one concatenation.  Raises EnumerationLimitExceeded
    if and only if more than MAX_TERMS vectors arrive: the search counts
    each node's children after making them, so a few past the limit may be
    yielded before it raises, and stops at once when one node surely has
    too many.
    """
    taus = medium.layer_taus
    m1 = len(taus)
    if kind == REFLECTION:
        # k_0 = 1; every prefix is a vector, padded with zeros; k_n >= 1 inside it
        k0, t0, first, emit_all = 1, 1 * taus[0], 1, True
    else:
        # k_0 = 0; only full-length vectors arrive; k_n >= 0
        k0, t0, first, emit_all = 0, half_total_time(medium), 0, False
    if t0 > cutoff:
        return
    # vectors still allowed: every reflection node counts (the root now, the
    # rest when made); for transmission only the children with n + 1 == m1
    last = m1 - 1  # the index of k_M
    left = MAX_TERMS - emit_all
    count_from = 1 if emit_all else last
    # bars[k_n] is the text "|k_n" that fixing k_n adds to a prefix, and
    # pads[m1 - n] the zeros that pad a reflection prefix of n entries
    bars = _Memo("|%d".__mod__)
    pads = _Memo("|0".__mul__)
    # (index n of the next entry to fix, k_{n-1}, text of k_0 .. k_{n-1},
    # time so far, s_0 * .. * s_{n-2}); an explicit stack, so a yield costs
    # O(1) at any depth
    stack = [(1, k0, str(k0), t0, 1.0)]
    pop = stack.pop
    extend = stack.extend
    while stack:
        n, kp, prefix, t, amp = pop()
        if emit_all:
            yield t, prefix + pads[m1 - n], amp * factors[n - 1, kp, 0]
        tau = taus[n]
        # there are at least (cutoff - t)/tau - 1 children and each holds a
        # vector not counted yet; the + 2 absorbs rounding
        if cutoff - t > (left + 2) * tau:
            break
        kn = first
        tn = t + kn * tau
        if n == last:
            # the children are full vectors: emit them here, not via the stack
            while tn <= cutoff:
                yield tn, prefix + bars[kn], amp * factors[n - 1, kp, kn] * factors[n, kn, 0]
                kn += 1
                tn = t + kn * tau
        else:
            children = []
            while tn <= cutoff:
                children.append((n + 1, kn, prefix + bars[kn], tn, amp * factors[n - 1, kp, kn]))
                kn += 1
                tn = t + kn * tau
            # pushed largest k_n first, so they pop in ascending order
            children.reverse()
            extend(children)
        if n >= count_from:
            left -= kn - first
            if left < 0:
                break
    else:
        return
    raise EnumerationLimitExceeded(f"more than {MAX_TERMS} {kind} terms arrive by {cutoff:g}")


def enumerate_reflection(medium: Medium, cutoff: float) -> Iterator[TransitVector]:
    """Yield every reflection transit vector with <k, tau> <= cutoff, once each,
    in increasing lexicographic order of k."""
    return (TransitVector(parse_k(k), REFLECTION)
            for _, k, _ in terms(medium, REFLECTION, cutoff, _Memo(lambda key: 1.0)))


def enumerate_transmission(medium: Medium, cutoff: float) -> Iterator[TransitVector]:
    """Yield every transmission transit vector arriving by the cutoff, once
    each, in increasing lexicographic order of k."""
    return (TransitVector(parse_k(k), TRANSMISSION)
            for _, k, _ in terms(medium, TRANSMISSION, cutoff, _Memo(lambda key: 1.0)))
