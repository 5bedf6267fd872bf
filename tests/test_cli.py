import gc
import hashlib
import os
import subprocess

import pytest

from conftest import BENCH10, launch_cli
from layered_echo import cli, greens, oracle, transit
from layered_echo.errors import LayeredEchoError


def run(*args, **kwargs):
    return launch_cli(*args, capture_output=True, **kwargs)


@pytest.fixture
def small_medium(tmp_path):
    path = tmp_path / "m1.taur"
    path.write_text("taur v1 M=1\n1.0 0.5\n1.0 0.5\n")
    return str(path)


@pytest.fixture
def transparent_medium(tmp_path):
    path = tmp_path / "clear.taur"
    path.write_text("taur v1 M=2\n1.0 0\n1.0 0\n1.0 0\ntail 0\n")
    return str(path)


def test_reflect_basic(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "2")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["time,amplitude", "1,0.5", "2,0.375"]
    assert "terms=2" in res.stderr


def test_reflect_below_first_arrival_is_empty_success(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "0.1")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["time,amplitude"]


def test_reflect_nonpositive_cutoff_is_usage_error(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "0")
    assert res.returncode == 2


@pytest.mark.parametrize("cutoff", ["0", "-1"])
def test_oracle_nonpositive_cutoff_is_usage_error(small_medium, cutoff):
    # a cutoff before every arrival would check no vector and pass
    res = run("oracle", "--medium", small_medium, "--cutoff", cutoff)
    assert_one_error_line(res)
    assert "--cutoff must be positive" in res.stderr
    assert res.stdout == ""


def test_missing_medium_file_names_path():
    res = run("reflect", "--medium", "/nonexistent/med.taur", "--cutoff", "1")
    assert res.returncode == 2
    assert "/nonexistent/med.taur" in res.stderr
    assert res.stdout == ""


def test_malformed_medium_is_usage_error(tmp_path):
    bad = tmp_path / "bad.taur"
    bad.write_text("taur v1 M=1\n1.0 0.5\nnot-a-number 0\n")
    res = run("reflect", "--medium", str(bad), "--cutoff", "1")
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_transmit_transparent(transparent_medium):
    res = run("transmit", "--medium", transparent_medium, "--cutoff", "1.5")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["time,value".replace("value", "amplitude"),
                                       "1.5,1"]


def test_with_k_column(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "2", "--with-k")
    assert res.stdout.splitlines()[0] == "time,amplitude,k"
    assert res.stdout.splitlines()[1] == "1,0.5,1|0"


def test_convert_round_trip(tmp_path):
    phys = tmp_path / "prof.phys"
    phys.write_text("phys v1 M=1\ndepths 0 1 2\nrho 1 1 3\nK 4 4 12\n")
    out = tmp_path / "prof.taur"
    res = run("convert", "--medium", str(phys), "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert text.startswith("taur v1 M=1\n")
    assert "-0.5" in text  # impedance jump 1 -> 3 at the deepest interface


def test_out_replaces_longer_file_and_keeps_mode(small_medium, tmp_path):
    out = tmp_path / "train.csv"
    out.write_text("stale\n" * 1000)
    out.chmod(0o640)
    res = run("reflect", "--medium", small_medium, "--cutoff", "2", "--out", str(out))
    assert res.returncode == 0
    assert out.read_text() == run("reflect", "--medium", small_medium,
                                  "--cutoff", "2").stdout
    assert out.stat().st_mode & 0o777 == 0o640


def test_out_to_devnull(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "2", "--out", os.devnull)
    assert res.returncode == 0
    assert res.stdout == ""


def test_oracle_pass_and_corrupt(small_medium):
    res = run("oracle", "--medium", small_medium, "--cutoff", "4")
    assert res.returncode == 0
    assert "max relative amplitude deviation" in res.stdout
    bad = run("oracle", "--medium", small_medium, "--cutoff", "4", "--corrupt")
    assert bad.returncode == 1


def test_oracle_output_is_pinned(tmp_path):
    medium = tmp_path / "decimal.taur"
    medium.write_text("taur v1 M=2\n0.3 0.4\n0.5 -0.3\n0.7 0.5\ntail 0.25\n")
    res = run("oracle", "--medium", str(medium), "--cutoff", "3")
    assert res.returncode == 0
    assert res.stdout == ("max relative amplitude deviation: 3.353e-16\n"
                          "class count mismatches: 0\n"
                          "missing transit vectors: 0\n")
    assert res.stderr == ("reflection: vectors=13 classes=14\n"
                          "transmission: vectors=11 classes=14\n")


def _edit_arrivals(monkeypatch, edit):
    """Make ``greens.arrivals`` return its rows with ``edit`` applied to
    their list."""
    arrivals = greens.arrivals

    def edited(medium, kind, cutoff):
        rows = list(arrivals(medium, kind, cutoff))
        edit(rows)
        return iter(rows)

    monkeypatch.setattr(greens, "arrivals", edited)


def _perturb_first(rows):
    t, k, amp = rows[0]
    rows[0] = (t, k, amp + 1e-3)


def _drop_first(rows):
    del rows[0]


@pytest.mark.parametrize("command, edit", [
    (("oracle", "--cutoff", "4"), _perturb_first),
    (("lattice", "--steps", "10"), _perturb_first),
    (("lattice", "--steps", "10"), _drop_first),
], ids=["oracle-perturb", "lattice-perturb", "lattice-drop"])
def test_verifiers_fail_on_an_edited_closed_form(small_medium, capsys, monkeypatch,
                                                 command, edit):
    argv = [command[0], "--medium", small_medium, *command[1:]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    _edit_arrivals(monkeypatch, edit)
    assert cli.main(argv) == 1
    worst = float(capsys.readouterr().out.splitlines()[0].rpartition(" ")[2])
    assert worst > 1e-4


def test_oracle_fails_when_the_train_lacks_a_vector(tmp_path, capsys, monkeypatch):
    medium = tmp_path / "m2.taur"
    medium.write_text("taur v1 M=2\n1.0 0.5\n0.7 -0.3\n1.3 0.4\n")
    # both kinds have an arrival at 5.0, just past the lower cutoff: the
    # walks and the train both leave it out, so it is not reported missing
    for cutoff in ("6", "4.9999999999"):
        assert cli.main(["oracle", "--medium", str(medium), "--cutoff", cutoff]) == 0
        assert "missing transit vectors: 0\n" in capsys.readouterr().out
    argv = ["oracle", "--medium", str(medium), "--cutoff", "6"]
    search = transit.terms

    def drop_one(*args):
        rows = list(search(*args))
        del rows[len(rows) // 2]
        return iter(rows)

    monkeypatch.setattr(transit, "terms", drop_one)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert "class count mismatches: 0\n" in out
    assert "missing transit vectors: 2\n" in out  # one per kind
    assert len([line for line in err.splitlines() if "missing" in line]) == 2


def _oracle_with_edited_classes(tmp_path, capsys, monkeypatch, edit):
    """Exit code, stdout and the class mismatch lines of stderr of ``oracle``
    at cutoff 6 on a 2-layer medium, with ``edit`` applied to the reflection
    class counts of the walks."""
    medium = tmp_path / "m2.taur"
    medium.write_text("taur v1 M=2\n1.0 0.5\n0.7 -0.3\n1.3 0.4\n")
    tally = oracle.tally

    def edited(medium, kind, cutoff):
        sums, counts = tally(medium, kind, cutoff)
        if kind == transit.REFLECTION:
            edit(counts)
        return sums, counts

    monkeypatch.setattr(oracle, "tally", edited)
    code = cli.main(["oracle", "--medium", str(medium), "--cutoff", "6"])
    out, err = capsys.readouterr()
    return code, out, [line for line in err.splitlines() if "mismatch" in line]


def test_oracle_fails_when_the_walks_lack_a_class(tmp_path, capsys, monkeypatch):
    # k = (1, 2, 2) has more than one class; the walks keep the others
    def drop(counts):
        del counts[(1, 2, 2), (1, 1, 0)]

    code, out, lines = _oracle_with_edited_classes(tmp_path, capsys, monkeypatch, drop)
    assert code == 1
    assert "class count mismatches: 1\n" in out
    assert lines == ["class count mismatch reflection k=(1, 2, 2) b=(1, 1, 0): "
                     "oracle 0 vs formula 2"]


def test_oracle_fails_when_the_walks_overcount_a_class(tmp_path, capsys, monkeypatch):
    def bump(counts):
        counts[(1, 2, 2), (1, 1, 0)] += 1

    code, out, lines = _oracle_with_edited_classes(tmp_path, capsys, monkeypatch, bump)
    assert code == 1
    assert "class count mismatches: 1\n" in out
    assert lines == ["class count mismatch reflection k=(1, 2, 2) b=(1, 1, 0): "
                     "oracle 3 vs formula 2"]


def test_oracle_names_a_lacking_class_before_one_outside_the_set(tmp_path, capsys,
                                                                  monkeypatch):
    def drop_and_add(counts):
        del counts[(1, 2, 2), (1, 1, 0)]
        counts[(1, 0, 0), (5, 0, 0)] = 1

    code, out, lines = _oracle_with_edited_classes(tmp_path, capsys, monkeypatch,
                                                   drop_and_add)
    assert code == 1
    assert "class count mismatches: 2\n" in out
    assert lines == ["class count mismatch reflection k=(1, 2, 2) b=(1, 1, 0): "
                     "oracle 0 vs formula 2",
                     "class count mismatch reflection k=(1, 0, 0) b=(5, 0, 0): "
                     "oracle 1 vs formula 0"]


def test_oracle_fails_on_a_class_outside_the_formulas_set(tmp_path, capsys,
                                                           monkeypatch):
    # no walk of k = (1, 0, 0) branches; the formula has no such class
    def add(counts):
        counts[(1, 0, 0), (5, 0, 0)] = 1

    code, out, lines = _oracle_with_edited_classes(tmp_path, capsys, monkeypatch, add)
    assert code == 1
    assert "class count mismatches: 1\n" in out
    assert lines == ["class count mismatch reflection k=(1, 0, 0) b=(5, 0, 0): "
                     "oracle 1 vs formula 0"]


def test_oracle_walk_pad_scales_with_the_travel_times(tmp_path):
    # the check must not depend on the unit of time: the walks prune on the
    # train search's own arrival floats, so the medium scaled by 1e-14 gives
    # the same report, where any absolute slack such as 1e-12 s would be 12
    # cutoffs of the tiny medium, whose walks run past the term limit
    outs = []
    for tau, cutoff in (("1", "8"), ("1e-14", "8e-14")):
        medium = tmp_path / f"m-{tau}.taur"
        medium.write_text(f"taur v1 M=2\n{tau} 0.5\n{tau} -0.3\n{tau} 0.4\n")
        res = run("oracle", "--medium", str(medium), "--cutoff", cutoff, timeout=30)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert "missing transit vectors: 0\n" in outs[0]


REACH = "taur v1 M=3\n0.7 -0.88\n0.75 0.52\n0.7 0.37\n0.67 -0.38\n"


@pytest.mark.parametrize("text, args, stderr", [
    # 18 496 590 reflection and 34 457 877 transmission walks arrive by 14;
    # the oracle sums them by walk state, so it stays far below the limit
    (REACH, ["--cutoff", "14"],
     "reflection: vectors=1038 classes=7048\ntransmission: vectors=1206 classes=10837\n"),
    # bench10 at the pinned cutoffs: 147 745 classes against class_table
    (None, ["--cutoff", "5.38014", "--kind", "reflection"],
     "reflection: vectors=19242 classes=47112\n"),
    (None, ["--cutoff", "3.69007", "--kind", "transmission"],
     "transmission: vectors=35059 classes=100633\n"),
], ids=["reach", "bench10-reflection", "bench10-transmission"])
def test_oracle_reaches_past_the_term_limit_of_walks(tmp_path, text, args, stderr):
    medium = BENCH10
    if text is not None:
        medium = tmp_path / "reach.taur"
        medium.write_text(text)
    res = run("oracle", "--medium", str(medium), *args, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stderr == stderr
    assert "class count mismatches: 0\n" in res.stdout
    assert "missing transit vectors: 0\n" in res.stdout


@pytest.mark.xfail(strict=True, reason="the oracle prunes walks on the float sum of the "
                   "travel times, not the exact arrival time (ROADMAP item 1)")
def test_oracle_counts_an_arrival_exactly_at_the_cutoff(tmp_path):
    # k = (1, 1) arrives at exactly 0.1 + 0.2 = 0.3 s, but its float time is
    # 0.30000000000000004, so neither the closed form nor the walks keep it
    medium = tmp_path / "boundary.taur"
    medium.write_text("taur v1 M=1\n0.1 0.5\n0.2 0.5\n")
    res = run("oracle", "--medium", str(medium), "--cutoff", "0.3", "--kind", "reflection")
    assert res.returncode == 0, res.stderr
    assert res.stderr.startswith("reflection: vectors=2 ")


def test_lattice_pass_and_corrupt(small_medium):
    res = run("lattice", "--medium", small_medium, "--steps", "10")
    assert res.returncode == 0
    assert "energy" in res.stdout
    bad = run("lattice", "--medium", small_medium, "--steps", "10", "--corrupt")
    assert bad.returncode == 2
    assert "unrecognized arguments: --corrupt" in bad.stderr


def test_lattice_memory_follows_the_slots(tmp_path):
    # this equal-tau M = 6 medium has 397 594 reflection and 1 107 568
    # transmission vectors by its 28th slot; binned as they come, they fit
    # in an address space of 200 MB, where a train of them all does not
    resource = pytest.importorskip("resource")
    refls = ["-0.42954255164514044", "0.44744233677917089",
             "0.294653205773795", "0.2089172476650224"]
    medium = tmp_path / "twin.taur"
    medium.write_text("taur v1 M=6\n" + "".join(
        f"0.52687805524814268 {refls[n % 4]}\n" for n in range(7)))
    limit = 200 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = run("lattice", "--medium", str(medium), "--steps", "28", timeout=120,
              preexec_fn=cap_address_space)
    assert res.returncode == 0, res.stderr


def test_render_spike(small_medium, tmp_path):
    train = tmp_path / "train.csv"
    res = run("reflect", "--medium", small_medium, "--cutoff", "2",
              "--out", str(train))
    assert res.returncode == 0
    res = run("render", "--train", str(train), "--wavelet", "spike",
              "--t0", "0", "--dt", "0.5", "--n", "5")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "time,value", "0,0", "0.5,0", "1,0.5", "1.5,0", "2,0.375"]


def test_render_spike_with_overflowing_bin_index_is_all_zero(small_medium, tmp_path):
    train = tmp_path / "train.csv"
    run("reflect", "--medium", small_medium, "--cutoff", "2", "--out", str(train))
    # (time - t0) / dt overflows to inf for every term
    res = run("render", "--train", str(train), "--wavelet", "spike",
              "--dt", "1e-310", "--n", "3")
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    assert [row.split(",")[1] for row in res.stdout.splitlines()[1:]] == ["0", "0", "0"]


def test_render_bad_wavelet(small_medium, tmp_path):
    train = tmp_path / "train.csv"
    run("reflect", "--medium", small_medium, "--cutoff", "2", "--out", str(train))
    res = run("render", "--train", str(train), "--wavelet", "sinc",
              "--dt", "0.5", "--n", "3")
    assert res.returncode == 2


def test_threads_do_not_change_stdout():
    one = run("reflect", "--medium", str(BENCH10), "--cutoff", "4",
              "--threads", "1", "--with-k")
    eight = run("reflect", "--medium", str(BENCH10), "--cutoff", "4",
                "--threads", "8", "--with-k")
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout


def test_threads_env_fallback(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "2",
              env_extra={"LAYERED_ECHO_THREADS": "3"})
    assert res.returncode == 0
    assert res.stdout.splitlines()[1] == "1,0.5"


def test_stderr_stdout_separation(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "2")
    assert "terms=" not in res.stdout
    assert "terms=" in res.stderr
    # the timing covers the build only, not the parse or the CSV write
    assert " build=" in res.stderr and "wall=" not in res.stderr


def test_reflect_infinite_cutoff_is_usage_error(small_medium):
    res = run("reflect", "--medium", small_medium, "--cutoff", "inf",
              timeout=60)
    assert res.returncode == 2
    assert "finite" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [("oracle", "--cutoff", "inf"),
                                  ("lattice", "--steps", "0")])
def test_verifier_bad_argument_is_usage_error(small_medium, args):
    res = run(args[0], "--medium", small_medium, *args[1:], timeout=60)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_render_negative_sample_count_is_usage_error(small_medium, tmp_path):
    train = tmp_path / "train.csv"
    run("reflect", "--medium", small_medium, "--cutoff", "2", "--out", str(train))
    res = run("render", "--train", str(train), "--wavelet", "spike",
              "--dt", "0.5", "--n", "-1")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("row", ["1.0,abc", "1.0", "0.5,nan", "inf,0.5", "1.0,0.5,1|2,junk"])
def test_render_malformed_train_row_is_parse_error(tmp_path, row):
    train = tmp_path / "train.csv"
    train.write_text(f"time,amplitude\n1,0.5\n{row}\n")
    res = run("render", "--train", str(train), "--wavelet", "spike",
              "--dt", "0.5", "--n", "3")
    assert res.returncode == 2
    assert "line 3" in res.stderr
    assert "Traceback" not in res.stderr


# render does not build k, and still checks it
@pytest.mark.parametrize("k", ["1|x", "1||2", ""], ids=["letter", "empty-token", "empty"])
def test_render_malformed_k_is_parse_error(tmp_path, k):
    train = tmp_path / "train.csv"
    train.write_text(f"time,amplitude,k\n1,0.5,1\n1.0,0.5,{k}\n")
    res = run("render", "--train", str(train), "--wavelet", "spike",
              "--dt", "0.5", "--n", "3")
    assert res.returncode == 2
    assert "line 3" in res.stderr
    assert "Traceback" not in res.stderr


def test_render_reads_k_of_plain_digits_of_any_length(tmp_path):
    # "-1" and "+2" are ints, but no k the search writes
    signed = tmp_path / "signed.csv"
    signed.write_text("time,amplitude,k\n1,0.5,1\n2,0.25,-1|+2\n")
    res = run("render", "--train", str(signed), "--wavelet", "spike", "--dt", "0.5", "--n", "5")
    assert_one_error_line(res, "line 3: malformed train row")
    long_k = tmp_path / "long_k.csv"
    long_k.write_text(f"time,amplitude,k\n1,0.5,1\n2,0.25,1|{'9' * 5000}\n")
    plain = tmp_path / "plain.csv"
    plain.write_text("time,amplitude\n1,0.5\n2,0.25\n")
    out = [run("render", "--train", str(path), "--wavelet", "spike", "--dt", "0.5", "--n", "5")
           for path in (long_k, plain)]
    assert [res.returncode for res in out] == [0, 0]
    assert out[0].stdout == out[1].stdout == \
        "time,value\n0,0\n0.5,0\n1,0.5\n1.5,0\n2,0.25\n"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_render_reads_crlf_and_cr_files(small_medium, tmp_path, end):
    # render opens the train in text mode, which ends lines at either
    train = tmp_path / "train.csv"
    res = run("reflect", "--medium", small_medium, "--cutoff", "2", "--with-k", "--out", str(train))
    assert res.returncode == 0
    train.write_bytes(train.read_bytes().replace(b"\n", end.encode("ascii")))
    res = run("render", "--train", str(train), "--wavelet", "spike", "--dt", "0.5", "--n", "5")
    assert res.returncode == 0
    assert res.stdout == "time,value\n0,0\n0.5,0\n1,0.5\n1.5,0\n2,0.375\n"


@pytest.mark.parametrize("args", [("--wavelet", "ricker:inf"), ("--t0", "nan"),
                                  ("--dt", "inf")], ids=["ricker-inf", "t0-nan", "dt-inf"])
def test_render_non_finite_argument_is_usage_error(tmp_path, args):
    train = tmp_path / "train.csv"
    train.write_text("time,amplitude\n1,0.5\n")
    # the last of a repeated option wins
    res = run("render", "--train", str(train), "--wavelet", "ricker:25",
              "--dt", "0.5", "--n", "3", *args)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_render_non_ascii_train_is_parse_error(tmp_path):
    train = tmp_path / "train.csv"
    train.write_bytes(b"time,amplitude\n1,0.5\n\xff,1\n")
    res = run("render", "--train", str(train), "--dt", "0.5", "--n", "3")
    assert res.returncode == 2
    assert "0xff" in res.stderr
    assert "Traceback" not in res.stderr


def test_reflect_non_ascii_medium_is_parse_error(tmp_path):
    bad = tmp_path / "bad.taur"
    bad.write_bytes(b"taur v1 M=1\n1.0 0.5\n\xff 0.5\n")
    res = run("reflect", "--medium", str(bad), "--cutoff", "2")
    assert res.returncode == 2
    assert "line 3" in res.stderr
    assert "Traceback" not in res.stderr


# cutoff, render window and sha256 of the ricker:25 signals rendered over
# bench10 trains, as every-sample convolution computed them: windowing must
# not move a bit
RENDER_PINS = {
    "reflect": ("5.38014", ("--dt", "0.004", "--n", "300"),
                "d257095f7cc72f85ec5017e0a002b60fd3f3584600b22cebf65a2e4928a445e3"),
    "transmit": ("3.69007", ("--t0", "0", "--dt", "0.004", "--n", "2000"),
                 "e9a8e10586e6d49531cdb92fc5592623e762f46ea87f186cfce06fcc5dbd5417"),
}


# the with-k train is the benchmark's render input: its k column is checked,
# and is not rendered
@pytest.mark.parametrize("source", ["file", "file-with-k", "pipe-with-k"])
@pytest.mark.parametrize("kind", sorted(RENDER_PINS))
def test_render_bench10_ricker_signal_is_pinned(tmp_path, kind, source):
    cutoff, render_args, digest = RENDER_PINS[kind]
    train_args = [kind, "--medium", str(BENCH10), "--cutoff", cutoff]
    if source != "file":
        train_args.append("--with-k")
    if source == "pipe-with-k":
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin")
        res = run(*train_args)
        train, stdin = "/dev/stdin", res.stdout
    else:
        train, stdin = str(tmp_path / "train.csv"), None
        res = run(*train_args, "--out", train)
    assert res.returncode == 0
    res = run("render", "--train", train, "--wavelet", "ricker:25", *render_args, input=stdin)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("text", ["1.0,0.5\n2.0,0.25\n", ""], ids=["no-header", "empty"])
def test_render_train_without_header_is_parse_error(tmp_path, text):
    train = tmp_path / "train.csv"
    train.write_text(text)
    res = run("render", "--train", str(train), "--dt", "0.5", "--n", "3")
    assert_one_error_line(res, "line 1:")


def assert_one_error_line(res, path=None):
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    if path is not None:
        assert path in lines[0]


# sha256 and row count of the bench10 trains with their transit vectors
@pytest.mark.parametrize("kind, cutoff, rows, digest", [
    ("reflect", "5.38014", 19242,
     "93458b4809ddaee4a0a1fd1d589b9285b51064daf912c1105c2aa4e2b908dec3"),
    ("transmit", "3.69007", 35059,
     "2fc5e41c1976afa0997f12d87da43fea26754d8559b67f685bf037ffd36ce966"),
    # 453 pairs of these rows share an exact float time
    ("transmit", "4.2", 172083,
     "21c8ebc77e16182a240c7a3bfe56f1f7763efe85bbb73765b93b088cff1226c6"),
])
def test_bench10_train_csv_is_pinned(kind, cutoff, rows, digest):
    res = run(kind, "--medium", str(BENCH10), "--cutoff", cutoff, "--with-k")
    assert res.returncode == 0
    assert res.stdout.count("\n") - 1 == rows
    assert hashlib.sha256(res.stdout.encode("ascii")).hexdigest() == digest


# sha256 and row count of more bench10 CSVs: without k, merged and floored
@pytest.mark.parametrize("args, rows, digest", [
    (("reflect", "--cutoff", "5.38014"), 19242,
     "ed4c235db41f47c4485103d02b07c303e087fa2857a81487a7f9d06042cec545"),
    (("transmit", "--cutoff", "3.69007"), 35059,
     "76718fa001e1b0045f09246422fb83d9e96feda6526308ea60f6f6a2931418e8"),
    (("reflect", "--cutoff", "5.38014", "--merge-tol", "1e-12", "--with-k"), 19235,
     "ade82ffc864696b820af3356e633f2c7027cac29ff3a7af31e88e011d7e3fb07"),
    (("transmit", "--cutoff", "3.69007", "--merge-tol", "1e-12", "--with-k"), 35049,
     "0cd197fbe208f4bc7f8e2bc7609ac0bcb4a96429a69f2914c1e6d0d0282e8c04"),
    (("reflect", "--cutoff", "5.38014", "--floor", "1e-6", "--with-k"), 12869,
     "729a3f083c3b9f18bc8009fd97d869d6f08b6750f20d5730b905c3fca2322009"),
], ids=["reflect", "transmit", "reflect-merged-with-k", "transmit-merged-with-k",
        "reflect-floored-with-k"])
def test_bench10_train_csv_variants_are_pinned(args, rows, digest):
    res = run(*args, "--medium", str(BENCH10))
    assert res.returncode == 0
    assert res.stdout.count("\n") - 1 == rows
    assert hashlib.sha256(res.stdout.encode("ascii")).hexdigest() == digest


def test_merge_keeps_the_smallest_k_as_ints_not_as_text(tmp_path):
    # 1|2|1 and 1|10|0 both arrive at exactly 2.0; as strings "1|10|0" is
    # the smaller, as transit vectors (1, 2, 1) is
    medium = tmp_path / "trap.taur"
    medium.write_text("taur v1 M=2\n1 0.5\n0.1 -0.3\n0.8 0.4\ntail 0\n")
    args = ("reflect", "--medium", str(medium), "--cutoff", "2.0", "--with-k")
    res = run(*args)
    assert res.returncode == 0
    rows = res.stdout.splitlines()
    assert rows[-2:] == ["2,0.081900000000000014,1|2|1", "2,-8.6497558593749959e-09,1|10|0"]
    res = run(*args, "--merge-tol", "1e-12")
    assert res.returncode == 0
    assert res.stdout.splitlines()[-1] == "2,0.081899991350244158,1|2|1"


@pytest.mark.parametrize("command", ["reflect", "transmit", "oracle"])
def test_huge_cutoff_exits_at_once(command):
    # bench10 has more than 10^2999 vectors by 1e300 s: the first node of the
    # search alone has more children than the term limit, so it stops there
    res = run(command, "--medium", str(BENCH10), "--cutoff", "1e300", timeout=10)
    assert_one_error_line(res)
    assert res.stdout == ""


@pytest.mark.parametrize("case", ["medium-dir", "train-dir", "out-missing-dir", "out-dir"])
def test_unreadable_input_or_unwritable_out_is_usage_error(tmp_path, case):
    missing = str(tmp_path / "missing" / "x.csv")
    args, path = {
        "medium-dir": (("reflect", "--medium", str(tmp_path), "--cutoff", "2"), str(tmp_path)),
        "train-dir": (("render", "--train", str(tmp_path), "--dt", "0.1", "--n", "3"),
                      str(tmp_path)),
        "out-missing-dir": (("reflect", "--medium", str(BENCH10), "--cutoff", "2",
                             "--out", missing), missing),
        "out-dir": (("reflect", "--medium", str(BENCH10), "--cutoff", "2",
                     "--out", str(tmp_path)), str(tmp_path)),
    }[case]
    assert_one_error_line(run(*args), path)


def test_closed_stdout_pipe_is_usage_error():
    # about 1.3 MB of CSV, far more than a pipe holds: the writer is still
    # writing when the reader goes
    proc = launch_cli("transmit", "--medium", str(BENCH10), "--cutoff", "3.69007",
                      launch=subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == "time,amplitude\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    res = subprocess.CompletedProcess(proc.args, proc.wait(timeout=60), "", stderr)
    assert_one_error_line(res)
    assert "Broken pipe" in stderr


@pytest.mark.parametrize("args", [
    ("reflect", "--cutoff", "2", "--merge-tol", "nan"),
    ("reflect", "--cutoff", "2", "--floor", "nan"),
    # `worst > nan` is false, so a nan tolerance would pass any deviation
    ("oracle", "--cutoff", "2", "--tol", "nan"),
    ("lattice", "--tol", "nan"),
    ("oracle", "--cutoff", "2", "--tol", "-1"),
    ("lattice", "--tol", "-1"),
], ids=["--merge-tol", "--floor", "oracle-tol", "lattice-tol",
        "oracle-negative-tol", "lattice-negative-tol"])
def test_nan_merge_tolerance_or_floor_is_usage_error(small_medium, args):
    res = run(args[0], "--medium", small_medium, *args[1:])
    assert_one_error_line(res)
    assert res.stdout == ""


def test_lattice_runs_unequal_taus_on_their_quantum(tmp_path):
    path = tmp_path / "decimal.taur"
    path.write_text("taur v1 M=2\n0.3 0.4\n0.5 -0.3\n0.7 0.5\ntail 0.25\n")
    res = run("lattice", "--medium", str(path), "--steps", "60")
    assert res.returncode == 0, res.stderr
    dev = float(res.stdout.splitlines()[0].rpartition(" ")[2])
    assert dev <= 1e-12


def test_lattice_refuses_a_too_fine_quantum_at_once():
    # bench10's tau have 6 or 7 decimals: P = 1e-7 s splits it into 43 801 415 layers
    res = run("lattice", "--medium", str(BENCH10), "--steps", "12", timeout=10)
    assert_one_error_line(res)
    assert "quantum P = 1e-07 s" in res.stderr and "M' = 43801414" in res.stderr
    assert res.stdout == ""


# 10**20 does not fit an index (OverflowError); 2**62 floats are more bytes
# than the address space (MemoryError).  Both fail at once, allocating nothing.
@pytest.mark.parametrize("n", [str(10**20), str(2**62)], ids=["overflow", "memory"])
def test_render_oversized_sample_count_is_usage_error(small_medium, tmp_path, n):
    train = tmp_path / "train.csv"
    run("reflect", "--medium", small_medium, "--cutoff", "2", "--out", str(train))
    res = run("render", "--train", str(train), "--dt", "0.5", "--n", n, timeout=60)
    assert_one_error_line(res)
    assert res.stdout == ""


# 6 000 002 half steps of 2 cells each pass the limit of 10^7 cell updates;
# every count is refused before the lattice allocates anything
@pytest.mark.parametrize("steps", [str(10**20), str(2**61), "3000000"],
                         ids=["overflow", "memory", "work"])
def test_lattice_oversized_step_count_is_usage_error(small_medium, steps):
    res = run("lattice", "--medium", small_medium, "--steps", steps, timeout=10)
    assert_one_error_line(res)
    assert res.stdout == ""


def test_term_limit_exits_2_without_output(capsys, monkeypatch):
    # bench10 has 19 242 reflection vectors by 5.38014 s
    monkeypatch.setattr(transit, "MAX_TERMS", 19241)
    code = cli.main(["reflect", "--medium", str(BENCH10), "--cutoff", "5.38014"])
    out, err = capsys.readouterr()
    assert_one_error_line(subprocess.CompletedProcess([], code, out, err))
    assert out == ""


def test_out_of_memory_exits_2_without_traceback(small_medium, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(greens, "reflection_green", exhausted)
    code = cli.main(["reflect", "--medium", small_medium, "--cutoff", "2"])
    out, err = capsys.readouterr()
    assert_one_error_line(subprocess.CompletedProcess([], code, out, err))
    assert err == "error: out of memory\n"
    assert out == ""


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("args, code", [
    (("reflect", "--medium", "SMALL", "--cutoff", "2"), 0),
    (("oracle", "--medium", "SMALL", "--cutoff", "4"), 1),
    (("reflect", "--medium", "/nonexistent/med.taur", "--cutoff", "2"), 2),
    (("reflect", "--medium", "SMALL", "--cutoff", "2", "--no-such-flag"), "argparse"),
], ids=["ok", "verification", "usage", "argparse"])
def test_main_leaves_collector_state_as_found(small_medium, capsys, monkeypatch, restore_gc,
                                              enabled, args, code):
    argv = [small_medium if a == "SMALL" else a for a in args]
    if code == 1:
        _edit_arrivals(monkeypatch, _perturb_first)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if code == "argparse":
        with pytest.raises(SystemExit):
            cli.main(argv)
    else:
        assert cli.main(argv) == code
    assert gc.isenabled() is enabled


def test_command_runs_with_collector_paused(small_medium, capsys, monkeypatch, restore_gc):
    seen = []
    monkeypatch.setattr(cli, "_run_train", lambda args: seen.append(gc.isenabled()) or 0)
    # a parser built now names the patched command; main's own is built once
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    gc.enable()
    assert cli.main(["reflect", "--medium", small_medium, "--cutoff", "2"]) == 0
    assert seen == [False]
    assert gc.isenabled()


# main pauses the collector because the command bodies make no reference
# cycles: a cycle added to one would hold its objects until the command ends
@pytest.mark.parametrize("argv", [
    ("reflect", "--medium", "BENCH10", "--cutoff", "5.38014", "--with-k", "--out", "TRAIN"),
    ("transmit", "--medium", "BENCH10", "--cutoff", "3.69007", "--with-k",
     "--merge-tol", "1e-12", "--floor", "1e-9", "--out", "OUT"),
    ("render", "--train", "TRAIN", "--dt", "0.004", "--n", "2000", "--out", "OUT"),
    ("render", "--train", "TRAIN", "--wavelet", "ricker:25", "--dt", "0.004",
     "--n", "300", "--out", "OUT"),
    ("oracle", "--medium", "LAYERED", "--cutoff", "3"),
    ("lattice", "--medium", "EQUAL", "--steps", "40"),
    ("convert", "--medium", "PHYS", "--out", "OUT"),
    ("reflect", "--medium", "MISSING", "--cutoff", "2"),
    ("reflect", "--medium", "BAD", "--cutoff", "2"),
], ids=["reflect", "transmit", "render-spike", "render-ricker", "oracle", "lattice",
        "convert", "missing-medium", "malformed-medium"])
def test_command_bodies_leave_no_reference_cycles(tmp_path, capsys, restore_gc, argv):
    files = {
        # about 18 000 walks, and 9 920 reflection terms by the last lattice step
        "LAYERED": "taur v1 M=3\n0.3 0.4\n0.2 -0.3\n0.25 0.2\n0.4 0.5\n",
        "EQUAL": "taur v1 M=3\n0.5 0.4\n0.5 -0.3\n0.5 0.2\n0.5 0.5\n",
        "PHYS": "phys v1 M=1\ndepths 0 1 2\nrho 1 1 3\nK 4 4 12\n",
        "BAD": "taur v1 M=1\n1.0 0.5\nnot-a-number 0\n",
    }
    paths = {"BENCH10": str(BENCH10), "TRAIN": str(tmp_path / "train.csv"),
             "OUT": str(tmp_path / "out.csv"), "MISSING": str(tmp_path / "missing.taur")}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    if argv[0] == "render":
        assert run("reflect", "--medium", str(BENCH10), "--cutoff", "5.38014",
                   "--out", paths["TRAIN"]).returncode == 0
    args = cli.build_parser().parse_args([paths.get(a, a) for a in argv])
    gc.collect()  # the parser's own cycles
    gc.disable()
    try:
        args.func(args)
        failed = False
    except (LayeredEchoError, OSError):
        failed = True
    freed = gc.collect()
    assert failed == (argv[2] in ("MISSING", "BAD"))
    assert freed < 100


def test_main_builds_its_parser_once_and_a_namespace_per_call(tmp_path, capsys, monkeypatch,
                                                              request):
    built, seen = [], []
    build = cli.build_parser

    def build_parser():
        parser = build()
        parse = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(parse(argv)) or seen[-1])
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", build_parser)
    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)  # drop the spying parser
    cutoff, render_args, digest = RENDER_PINS["reflect"]
    train = str(tmp_path / "train.csv")
    assert cli.main(["reflect", "--medium", str(BENCH10), "--cutoff", cutoff, "--with-k",
                     "--out", train]) == 0
    assert cli.main(["render", "--train", train, "--wavelet", "ricker:25", *render_args]) == 0
    assert len(built) == 1
    assert seen[0].with_k and seen[0].kind == transit.REFLECTION
    assert sorted(vars(seen[1])) == ["command", "dt", "func", "n", "out", "t0", "train",
                                     "wavelet"]
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest
