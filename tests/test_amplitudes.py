import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layered_echo import (
    DomainError,
    InvalidTransitVector,
    REFLECTION,
    ReflectionOutOfRange,
    TRANSMISSION,
    TransitVector,
    branch_set,
    kunetz_primary,
    reflection_amplitude,
    transmission_amplitude,
)
from layered_echo.amplitudes import (
    CANCEL_LIMIT,
    class_count,
    class_table,
    class_weight,
    layer_factor,
)
from layered_echo.transit import left_shift


def rvec(*k):
    return TransitVector(k, REFLECTION)


def tvec(*k):
    return TransitVector(k, TRANSMISSION)


def primary(n, m_layers):
    return rvec(*([1] * (n + 1) + [0] * (m_layers - n)))


def test_single_bounce_is_r0():
    assert reflection_amplitude((0.3, 0.7), rvec(1, 0)) == 0.3


def test_kunetz_values():
    assert kunetz_primary((0.25, 0.5), 0) == 0.25
    assert kunetz_primary((0.5, 0.5), 1) == 0.375
    with pytest.raises(IndexError):
        kunetz_primary((0.5, 0.5), 2)


def test_primary_amplitude_reduces_to_kunetz():
    rng = random.Random(42)
    for _ in range(20):
        m_layers = rng.randint(1, 6)
        refls = [rng.uniform(-0.95, 0.95) for _ in range(m_layers + 1)]
        for n in range(m_layers + 1):
            a = reflection_amplitude(refls, primary(n, m_layers))
            expected = kunetz_primary(refls, n)
            assert a == pytest.approx(expected, rel=1e-12)


def test_first_multiple_closed_form():
    rng = random.Random(5)
    for _ in range(10):
        r0, r1 = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        a = reflection_amplitude((r0, r1), rvec(1, 2))
        assert a == pytest.approx(-r0 * r1 * r1 * (1 - r0 * r0), rel=1e-13)


def test_transmission_direct_arrival():
    rng = random.Random(6)
    refls = [rng.uniform(-0.9, 0.9) for _ in range(5)]
    b = transmission_amplitude(refls, tvec(0, 0, 0, 0, 0))
    assert b == pytest.approx(math.prod(math.sqrt(1 - r * r) for r in refls),
                              rel=1e-14)


def test_transmission_single_and_double_reverberation():
    rng = random.Random(7)
    for _ in range(10):
        r0, r1 = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        t0 = math.sqrt(1 - r0 * r0)
        t1 = math.sqrt(1 - r1 * r1)
        one = transmission_amplitude((r0, r1), tvec(0, 1))
        assert one == pytest.approx(-r0 * r1 * t0 * t1, rel=1e-13)
        two = transmission_amplitude((r0, r1), tvec(0, 2))
        assert two == pytest.approx(r0 * r0 * r1 * r1 * t0 * t1, rel=1e-13)


def test_kind_mismatch_rejected():
    with pytest.raises(InvalidTransitVector):
        reflection_amplitude((0.5, 0.5), tvec(0, 1))
    with pytest.raises(InvalidTransitVector):
        transmission_amplitude((0.5, 0.5), rvec(1, 1))
    with pytest.raises(InvalidTransitVector):
        reflection_amplitude((0.5, 0.5, 0.5), rvec(1, 1))


def test_reflection_out_of_range_rejected():
    with pytest.raises(ReflectionOutOfRange):
        reflection_amplitude((0.5, 1.0), rvec(1, 1))


def test_support_locality_bit_identical():
    rng = random.Random(8)
    for _ in range(50):
        m_layers = rng.randint(2, 6)
        support = rng.randint(0, m_layers - 1)
        k = [1] + [rng.randint(1, 3) for _ in range(support)]
        k += [0] * (m_layers - support)
        tv = rvec(*k)
        refls = [rng.uniform(-0.9, 0.9) for _ in range(m_layers + 1)]
        base = reflection_amplitude(refls, tv)
        for n in range(len(k)):
            if k[n] != 0:
                continue
            for delta in (0.1, -0.1):
                bumped = list(refls)
                bumped[n] = max(-0.99, min(0.99, bumped[n] + delta))
                assert reflection_amplitude(bumped, tv) == base


def test_amplitude_bounded_by_class_count_total():
    rng = random.Random(9)
    for _ in range(40):
        m_layers = rng.randint(1, 4)
        k = [1] + [rng.randint(0, 4) for _ in range(m_layers)]
        for i in range(1, len(k)):
            if k[i - 1] == 0:
                k[i] = 0
        tv = rvec(*k)
        refls = [rng.uniform(-0.99, 0.99) for _ in range(m_layers + 1)]
        total = sum(class_count(tv, b) for b in branch_set(tv))
        assert abs(reflection_amplitude(refls, tv)) <= total


def test_class_table_holds_every_class_in_branch_set_order():
    rng = random.Random(12)
    for _ in range(60):
        m_layers = rng.randint(1, 4)
        if rng.random() < 0.5:
            k = [1] + [rng.randint(0, 4) for _ in range(m_layers)]
            for i in range(1, len(k)):
                if k[i - 1] == 0:
                    k[i] = 0
            tv = rvec(*k)
        else:
            tv = tvec(0, *(rng.randint(0, 4) for _ in range(m_layers)))
        k, kt = tv.k, left_shift(tv.k)
        # u_n = min(1, k~_n) for reflection, 0 for transmission
        u = [min(1, x) if tv.kind == REFLECTION else 0 for x in kt]
        table = class_table(tv.kind, tv.k)
        assert list(table) == branch_set(tv)
        for b, count in table.items():
            assert count == math.prod(math.comb(k[n], b[n]) * math.comb(kt[n] - u[n], b[n] - u[n])
                                      for n in range(len(k)))
            assert class_count(tv, b) == count


@pytest.mark.parametrize("tv, b", [
    (rvec(1, 2, 0), (0, 0, 0)),   # b_0 below u_0 = 1
    (rvec(1, 2, 0), (2, 0, 0)),   # b_0 above k_0
    (rvec(1, 2, 1), (1, 2, 0)),   # b_1 within k_1 but above k~_1
    (rvec(1, 0), (1, -1)),        # negative b_1
    (tvec(0, 2, 1), (1, 0, 0)),   # b_0 above k_0
    (tvec(0, 2, 1), (0, 2, 0)),   # b_1 above k~_1
    (tvec(0, 2, 1), (0, 0, -1)),  # negative b_2
    (rvec(1, 2, 0), (1, 1)),      # b shorter than k
    (tvec(0, 2, 1), (0, 1, 0, 0)),  # b longer than k
    (rvec(1, 1), (1.5, 0.2)),     # not integers; truncated, (1, 0) is in the set
], ids=["refl-below-u", "refl-above-k", "refl-above-kt", "refl-negative",
        "trans-above-k", "trans-above-kt", "trans-negative", "short", "long", "non-integral"])
def test_class_count_refuses_a_b_outside_the_branch_set(tv, b):
    with pytest.raises(DomainError):
        class_count(tv, b)


def test_transmission_polynomial_part():
    # dividing out the direct-transmission factor leaves a polynomial in R:
    # summing the branch terms with T set to 1, then scaling by (1-R^2)^m
    # per term and the direct factor once, reproduces the amplitude
    rng = random.Random(10)
    for _ in range(30):
        m_layers = rng.randint(1, 4)
        k = tuple([0] + [rng.randint(0, 3) for _ in range(m_layers)])
        tv = tvec(*k)
        refls = [rng.uniform(-0.9, 0.9) for _ in range(m_layers + 1)]
        direct = math.prod(math.sqrt(1 - r * r) for r in refls)
        kt = left_shift(k)
        total = 0.0
        for b in branch_set(tv):
            poly = float(class_count(tv, b))
            sign = -1.0 if sum(kt[n] - b[n] for n in range(len(k))) % 2 else 1.0
            poly *= sign
            for n in range(len(k)):
                poly *= refls[n] ** (kt[n] - b[n] + k[n] - b[n])
            scale = math.prod((1 - refls[n] ** 2) ** b[n] for n in range(len(k)))
            total += poly * scale
        expected = transmission_amplitude(refls, tv)
        assert direct * total == pytest.approx(expected, rel=1e-12)


def test_sign_parity_flip():
    # with all-positive reflection coefficients the sign of a class weight
    # is (-1)^(sum of shifted-count minus branch-count); bumping a single
    # down-shifted entry by one flips it
    refls = (0.4, 0.6, 0.2)
    b = (1, 1, 0)
    w_a = class_weight(refls, rvec(1, 2, 1), b)
    w_b = class_weight(refls, rvec(1, 3, 1), b)
    assert w_a > 0 > w_b or w_a < 0 < w_b
    parity = sum(left_shift((1, 2, 1))[n] - b[n] for n in range(3)) % 2
    assert math.copysign(1.0, w_a) == (-1.0 if parity else 1.0)


def test_branch_summands_add_up():
    rng = random.Random(11)
    # a transmission class weight also carries one factor T_n per index
    for kind, amplitude in [(REFLECTION, reflection_amplitude),
                            (TRANSMISSION, transmission_amplitude)]:
        for _ in range(30):
            m_layers = rng.randint(1, 4)
            k = [1 if kind == REFLECTION else 0] + [rng.randint(0, 4) for _ in range(m_layers)]
            if kind == REFLECTION:  # the support is a prefix
                for i in range(1, len(k)):
                    if k[i - 1] == 0:
                        k[i] = 0
            tv = TransitVector(k, kind)
            refls = [rng.uniform(-0.9, 0.9) for _ in range(m_layers + 1)]
            total = sum(count * class_weight(refls, tv, b)
                        for b, count in class_table(tv.kind, tv.k).items())
            assert total == pytest.approx(amplitude(refls, tv), rel=1e-11, abs=1e-300)


def test_amplitudes_always_finite(bench10):
    from layered_echo import enumerate_reflection
    for tv in enumerate_reflection(bench10, 3.0):
        a = reflection_amplitude(bench10.reflections, tv)
        assert math.isfinite(a)


def _exact_layer_sum(kind, r, kn, ktn):
    """The per-index sum in exact rationals, without the factor T_n of
    transmission: R_n is the float r exactly and T_n^2 = 1 - R_n^2."""
    rr = Fraction(r)
    t2 = 1 - rr * rr
    un = min(1, ktn) if kind == REFLECTION else 0
    terms = [math.comb(kn, b) * math.comb(ktn - un, b - un) * (-1) ** (ktn - b)
             * rr ** (ktn - b + kn - b) * t2 ** b
             for b in range(un, min(kn, ktn) + 1)]
    # every denominator divides q^(k_n + k~_n): one sum of numerators
    den = rr.denominator ** (kn + ktn)
    return Fraction(sum(t.numerator * (den // t.denominator) for t in terms), den)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from([REFLECTION, TRANSMISSION]),
       # a tiny |R| only makes the reference's numbers huge: 2^-10 to the
       # 1200th power still underflows, and 0.0 is covered
       r=st.one_of(st.just(0.0), st.floats(2.0 ** -10, 0.95), st.floats(-0.95, -(2.0 ** -10))),
       kn=st.integers(0, 600), ktn=st.integers(0, 600))
@example(kind=REFLECTION, r=0.5, kn=40, ktn=40)
@example(kind=REFLECTION, r=0.5, kn=80, ktn=80)
@example(kind=TRANSMISSION, r=0.5, kn=80, ktn=80)
@example(kind=REFLECTION, r=0.5, kn=520, ktn=520)
@example(kind=TRANSMISSION, r=-0.95, kn=600, ktn=600)
# R^63 is subnormal
@example(kind=REFLECTION, r=1e-5, kn=64, ktn=1)
# binomials past the float range with every power of R and T^2 a normal float
@example(kind=REFLECTION, r=0.685, kn=1000, ktn=310)
# k_n = 0 < k~_n: the reflection branch range is empty and the sum is 0
@example(kind=REFLECTION, r=0.5, kn=0, ktn=3)
def test_layer_factor_survives_cancellation(kind, r, kn, ktn):
    tn = 1.0 if kind == REFLECTION else math.sqrt(1.0 - r * r)
    want = float(_exact_layer_sum(kind, r, kn, ktn)) * tn
    got = layer_factor(kind, r, kn, ktn)
    # a float sum is kept only within CANCEL_LIMIT of its term magnitudes
    ulps = CANCEL_LIMIT * (kn + ktn + 9) / (1.0 - r * r) + 4
    assert abs(got - want) <= ulps * 2.0 ** -53 * abs(want)
