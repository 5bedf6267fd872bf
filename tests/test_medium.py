import io
import math
import random

import pytest

from layered_echo import (
    InvalidProfile,
    LengthMismatch,
    Medium,
    NonPositiveTau,
    ParseError,
    PhysicalProfile,
    ReflectionOutOfRange,
    from_physical,
    make_medium,
    read_medium,
    write_medium,
)
from conftest import BENCH10, BENCH10_REFLECTIONS, BENCH10_TAUS


def test_bench_medium_is_valid(bench10):
    assert bench10.n_layers == 10
    assert bench10.layer_taus == BENCH10_TAUS
    assert bench10.reflections == BENCH10_REFLECTIONS
    assert bench10.tail_tau == 0.0


def test_reflection_out_of_range():
    with pytest.raises(ReflectionOutOfRange):
        make_medium((1.0, 1.0), 0.0, (0.5, 1.0))
    with pytest.raises(ReflectionOutOfRange):
        make_medium((1.0, 1.0), 0.0, (-1.0, 0.5))


def test_non_positive_tau():
    with pytest.raises(NonPositiveTau):
        make_medium((1.0, -1.0), 0.0, (0.5, 0.5))
    with pytest.raises(NonPositiveTau):
        make_medium((0.0, 1.0), 0.0, (0.5, 0.5))
    with pytest.raises(NonPositiveTau):
        make_medium((1.0, 1.0), -0.1, (0.5, 0.5))


def test_zero_tail_is_allowed():
    m = make_medium((1.0, 1.0), 0.0, (0.5, 0.5))
    assert m.tail_tau == 0.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        make_medium((1.0, 1.0, 1.0), 0.0, (0.5, 0.5))
    with pytest.raises(LengthMismatch):
        make_medium((1.0,), 0.0, (0.5,))  # M = 0 is out of the model


def test_transmission_coeffs_unit_circle(bench10):
    for r, t in zip(bench10.reflections, bench10.transmission_coeffs()):
        assert abs(r * r + t * t - 1.0) <= 1e-15


def test_from_physical_zero_contrast():
    prof = PhysicalProfile((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 1.0, 1.0),
                           (4.0, 4.0, 4.0, 4.0))
    m = from_physical(prof)
    assert all(r == 0.0 for r in m.reflections)


def test_from_physical_impedance_ratio():
    # K*rho jumps 1 -> 9 at the last interface: R = (1 - 3) / (1 + 3)
    prof = PhysicalProfile((0.0, 1.0, 2.0), (1.0, 1.0, 3.0), (1.0, 1.0, 3.0))
    m = from_physical(prof)
    assert m.reflections[-1] == pytest.approx(-0.5, abs=0)
    assert m.reflections[0] == 0.0


def test_from_physical_travel_time():
    # 1 m layer at speed sqrt(K/rho) = 2 m/s: two-way time = 1 s
    prof = PhysicalProfile((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (4.0, 4.0, 4.0))
    m = from_physical(prof)
    assert m.layer_taus == (1.0, 1.0)
    assert m.tail_tau == 0.0


def test_from_physical_tail():
    prof = PhysicalProfile((0.0, 1.0, 2.0, 5.0), (1.0, 1.0, 1.0), (4.0, 4.0, 4.0))
    m = from_physical(prof)
    assert m.tail_tau == pytest.approx(3.0)


def test_invalid_profile():
    with pytest.raises(InvalidProfile):
        PhysicalProfile((0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidProfile):
        PhysicalProfile((0.0, 1.0, 2.0), (1.0, -1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidProfile):
        PhysicalProfile((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (1.0, 0.0, 1.0))
    with pytest.raises(InvalidProfile):
        PhysicalProfile((0.0, 1.0), (1.0, 1.0), (1.0, 1.0))  # M = 0
    with pytest.raises(InvalidProfile, match="3 densities vs 2 bulk moduli"):
        PhysicalProfile((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (4.0, 4.0))
    with pytest.raises(InvalidProfile, match="expected 3 or 4 depths for M=1, got 2"):
        PhysicalProfile((0.0, 1.0), (1.0, 1.0, 1.0), (4.0, 4.0, 4.0))


def test_from_physical_fuzz_yields_valid_media():
    rng = random.Random(20240817)
    for _ in range(200):
        m_layers = rng.randint(1, 6)
        depths = sorted(rng.uniform(0.0, 100.0) for _ in range(m_layers + 2))
        while len(set(depths)) != len(depths):
            depths = sorted(rng.uniform(0.0, 100.0) for _ in range(m_layers + 2))
        rho = [rng.uniform(0.5, 5000.0) for _ in range(m_layers + 2)]
        bulk = [rng.uniform(0.5, 5e9) for _ in range(m_layers + 2)]
        m = from_physical(PhysicalProfile(tuple(depths), tuple(rho), tuple(bulk)))
        assert all(t > 0 for t in m.layer_taus)
        assert all(-1.0 < r < 1.0 for r in m.reflections)


def test_round_trip_exact(bench10):
    text = write_medium(bench10)
    again = read_medium(io.StringIO(text))
    assert again == bench10
    assert write_medium(again) == text


def test_round_trip_random_media():
    rng = random.Random(99)
    for _ in range(50):
        m_layers = rng.randint(1, 8)
        m = Medium(tuple(rng.uniform(1e-6, 10.0) for _ in range(m_layers + 1)),
                   tuple(rng.uniform(-0.999999, 0.999999) for _ in range(m_layers + 1)),
                   rng.choice([0.0, rng.uniform(0.0, 5.0)]))
        assert read_medium(io.StringIO(write_medium(m))) == m


def test_bench_table_serialized_round_trip(bench10):
    lines = ["taur v1 M=10"]
    lines += [f"{t} {r}" for t, r in zip(BENCH10_TAUS, BENCH10_REFLECTIONS)]
    m = read_medium(io.StringIO("\n".join(lines) + "\n"))
    assert m == bench10


def test_a_path_and_its_str_give_equal_media(bench10):
    assert read_medium(BENCH10) == read_medium(str(BENCH10)) == bench10


def test_a_string_is_a_path_not_medium_text():
    text = write_medium(make_medium((1.0, 1.0), 0.0, (0.5, 0.5)))
    with pytest.raises(OSError):
        read_medium(text)


def test_empty_file_is_parse_error():
    with pytest.raises(ParseError):
        read_medium(io.StringIO(""))
    with pytest.raises(ParseError):
        read_medium(io.StringIO("# only a comment\n"))


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        read_medium(io.StringIO("taur v1 M=1\n1.0 0.5\nbogus\n"))
    assert exc.value.line_no == 3
    assert "line 3" in str(exc.value)


_TAUR = "taur v1 M=1\n1.0 0.5\n2.0 -0.25\n"
_PHYS = "phys v1 M=1\ndepths 0 1 2\nrho 1 1 1\nK 4 4 4\n"


@pytest.mark.parametrize("text, line_no, message", [
    (_TAUR + "tail 1\ntail 2\n", 5, "duplicate tail line"),
    (_TAUR + "tail 0 1\n", 4, "tail line needs exactly one value"),
    ("taur v1 M=1\n1.0 0.5\ntail 1\n2.0 -0.25\n", 4, "data after tail line"),
    (_TAUR.replace("v1", "v2"), 1, "bad header"),
    (_TAUR.replace("M=1", "M=x"), 1, "bad layer count 'M=x'"),
    (_TAUR.replace("taur", "xyz"), 1, "unknown format 'xyz'"),
    (_PHYS + "foo 1\n", 5, "unexpected line 'foo'"),
    (_PHYS.replace("K 4", "rho 1 1 1\nK 4"), 4, "duplicate 'rho' line"),
    (_PHYS.replace("K 4 4 4\n", ""), 3, "missing 'K' line"),
    (_PHYS.replace("rho 1 1 1", "rho 1 1"), 3, "expected 3 rho values for M=1, got 2"),
    (_PHYS.replace("K 4 4 4", "K 4 4"), 4, "expected 3 K values for M=1, got 2"),
    (_PHYS.replace("depths 0 1 2", "depths 0 1"), 2,
     "expected 3 or 4 depths for M=1, got 2"),
], ids=["taur-duplicate-tail", "taur-tail-two-values", "taur-data-after-tail",
        "taur-v2-header", "taur-bad-layer-count", "unknown-format",
        "phys-unexpected-line", "phys-duplicate-rho", "phys-missing-K",
        "phys-two-rho", "phys-two-K", "phys-two-depths"])
def test_malformed_medium_error_and_line(text, line_no, message):
    with pytest.raises(ParseError, match=f"^line {line_no}: .*{message}") as exc:
        read_medium(io.StringIO(text))
    assert exc.value.line_no == line_no


def test_taur_wrong_interface_count():
    with pytest.raises(ParseError):
        read_medium(io.StringIO("taur v1 M=2\n1.0 0.5\n1.0 0.5\n"))


def test_physical_format_end_to_end():
    text = ("phys v1 M=1\n"
            "depths 0 1 2\n"
            "rho 1 1 1\n"
            "K 4 4 4\n")
    m = read_medium(io.StringIO(text))
    assert m.layer_taus == (1.0, 1.0)
    assert m.reflections == (0.0, 0.0)


def test_physical_format_rejects_zero_layers():
    text = ("phys v1 M=0\n"
            "depths 0 1\n"
            "rho 1 1\n"
            "K 4 4\n")
    with pytest.raises(ParseError):
        read_medium(io.StringIO(text))


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\ntaur v1 M=1\n1.0 0.5  # inline\n\n2.0 -0.25\n"
    m = read_medium(io.StringIO(text))
    assert m.layer_taus == (1.0, 2.0)
    assert m.reflections == (0.5, -0.25)


# str.splitlines() ends a line at each of these too; a file opened in text
# mode ends one only at "\n", "\r\n" or "\r"
@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_a_line_break_character_in_a_comment_stays_in_it(char):
    text = "taur v1 M=1\n# two-layer test {} second page\n0.1 0.5\n0.2 0.3\n"
    assert read_medium(io.StringIO(text.format(char))) == read_medium(io.StringIO(text.format("")))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_lines_end_at_lf_crlf_and_cr(end):
    text = end.join(["taur v1 M=1", "0.1 0.5", "0.2 0.3  # comment", "tail 0", "bogus"])
    with pytest.raises(ParseError, match="^line 5: data after tail line"):
        read_medium(io.StringIO(text))


def test_medium_is_hashable_and_immutable(bench10):
    hash(bench10)
    with pytest.raises(Exception):
        bench10.tail_tau = 1.0
