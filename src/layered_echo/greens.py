"""Pulse-train assembly: the Green's functions as finite delta trains.

A pulse train is the list of (arrival time, amplitude, transit vector)
triples up to a cutoff, sorted by time with lexicographic transit-vector
tie break.  Coincident arrivals are NOT merged by default -- the train is
indexed per transit vector -- merging is an explicit post-pass.

A train is a frozen dataclass of three parallel tuples, ``times``,
``amps`` and ``k_text``, and of nothing else (no kind, no cutoff); the
builders, ``merge_ties``, ``read_train_csv``, ``write_train_csv`` and
``convolve`` work on them.  A transit vector is kept as its CSV text,
"1|3|0" (``transit.format_k``), which a build joins once per vector from
the two parts of the search's row as the row comes, and
``write_train_csv`` writes as it is.  The ``ks`` tuples are made only
when that property is read, anew each time.  The transit vectors are
provenance: ``read_train_csv`` checks a k column but keeps none of it,
so every term it reads has the text "" and k = ().

A train build evaluates each distinct per-layer factor once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator, List, TextIO, Tuple

from . import transit
from .amplitudes import layer_factor
# unused here; kept importable because bench/tracer.py patches
# greens.reflection_amplitude and greens.transmission_amplitude by name
from .amplitudes import reflection_amplitude, transmission_amplitude
from .errors import DomainError, ParseError
from .medium import Medium
from .transit import REFLECTION, TRANSMISSION, parse_k


@dataclass(frozen=True, repr=False)
class PulseTrain:
    """A delta train: the parallel columns ``times``, ``amps`` and
    ``k_text`` (term i is times[i], amps[i] and the transit vector whose
    text is k_text[i], "" for a term without k).

    Each column is stored as a tuple (a tuple passed in is kept as it is),
    and columns of different lengths raise DomainError.  Trains are
    immutable; two are equal when every column is.
    """

    times: Tuple[float, ...]
    amps: Tuple[float, ...]
    k_text: Tuple[str, ...]

    def __post_init__(self):
        for name in ("times", "amps", "k_text"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.times) == len(self.amps) == len(self.k_text):
            raise DomainError(f"train columns differ in length: {len(self.times)} times, "
                              f"{len(self.amps)} amps, {len(self.k_text)} k_text")

    @property
    def ks(self) -> Tuple[Tuple[int, ...], ...]:
        """The transit vectors as int tuples, parsed anew on each access."""
        return tuple(map(parse_k, self.k_text))

    def __repr__(self) -> str:
        return f"PulseTrain(<{len(self.times)} terms>)"

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SampledSignal:
    t0: float
    dt: float
    samples: Tuple[float, ...]

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf):
            raise DomainError(f"dt = {self.dt} must be positive and finite")

    def time_axis(self) -> List[float]:
        return [self.t0 + i * self.dt for i in range(len(self.samples))]


def arrivals(medium: Medium, kind: str,
             cutoff: float) -> Iterator[Tuple[float, str, str, float]]:
    """The closed form's (arrival, head, tail, amplitude) rows up to the
    cutoff, in increasing lexicographic order of k, as ``transit.terms``
    yields them: the k text is ``head + tail``.  DomainError for a
    non-finite cutoff or an unknown kind, at the call."""
    if not math.isfinite(cutoff):
        raise DomainError(f"cutoff must be finite, got {cutoff}")
    refls = medium.reflections
    return transit.terms(medium, kind, cutoff,
                         lambda n, kn, ktn: layer_factor(kind, refls[n], kn, ktn))


def _build_train(medium: Medium, cutoff: float, kind: str,
                 amplitude_floor: float) -> PulseTrain:
    rows = arrivals(medium, kind, cutoff)
    if math.isnan(amplitude_floor):
        raise DomainError("amplitude floor must not be nan")
    # each text is joined as its row comes, so that the search's row tuples
    # are freed one by one and only (time, text, amplitude) rows are held.
    # A stable sort on time alone of rows in lexicographic order of k gives
    # the (time, k) order without comparing any k
    rows = sorted(((t, head + tail, amp) for t, head, tail, amp in rows), key=itemgetter(0))
    if amplitude_floor > 0.0:
        rows = [row for row in rows if abs(row[2]) >= amplitude_floor]
    # the columns share the float and str objects the rows hold
    times, texts, amps = zip(*rows) if rows else ((), (), ())
    return PulseTrain(times, amps, texts)


def reflection_green(medium: Medium, cutoff: float, *,
                     amplitude_floor: float = 0.0) -> PulseTrain:
    """The reflection Green's function up to the cutoff, one term per k."""
    return _build_train(medium, cutoff, REFLECTION, amplitude_floor)


def transmission_green(medium: Medium, cutoff: float, *,
                       amplitude_floor: float = 0.0) -> PulseTrain:
    """The transmission Green's function up to the cutoff, one term per k."""
    return _build_train(medium, cutoff, TRANSMISSION, amplitude_floor)


DEFAULT_MERGE_TOL = 1e-12


def merge_ties(train: PulseTrain, tol_rel: float = DEFAULT_MERGE_TOL) -> PulseTrain:
    """Combine runs of terms whose arrival times agree to tol_rel.

    Distinct transit vectors can arrive simultaneously when travel times
    are commensurate; floating accumulation may spread such a tie over a
    few ulps.  A term t_j joins the current group when |t_j - t_g| <=
    tol_rel * max(|t_j|, |first arrival|), where t_g is the time of the group's
    first term, which the merged term keeps; so a group never spans more
    than that tolerance, however many terms it chains.  The merged term
    also keeps the lexicographically smallest contributing transit vector,
    and sums the amplitudes.  tol_rel = 0 merges only bit-identical times.
    """
    if not (tol_rel >= 0):
        raise DomainError(f"tol_rel must be >= 0, got {tol_rel}")
    times, amps, texts = train.times, train.amps, train.k_text
    if not times:
        return train
    floor = times[0]
    # starts[g] is the index of group g's first term
    starts = [0]
    t_g = floor
    for j in range(1, len(times)):
        t = times[j]
        if not abs(t - t_g) <= tol_rel * max(abs(t), abs(floor)):
            starts.append(j)
            t_g = t
    starts.append(len(times))
    m_amps: List[float] = []
    m_texts: List[str] = []
    for lo, hi in zip(starts, starts[1:]):
        if hi - lo == 1:
            m_amps.append(amps[lo])
            m_texts.append(texts[lo])
        else:
            total = 0.0  # added in train order; sum() compensates from 3.12 on
            for a in amps[lo:hi]:
                total += a
            m_amps.append(total)
            # smallest as int tuples: as strings, "1|10|0" < "1|2|1"
            m_texts.append(min(texts[lo:hi], key=parse_k))
    m_times = [times[lo] for lo in starts[:-1]]
    return PulseTrain(m_times, m_amps, m_texts)


def ricker(peak_freq: float) -> Callable[[float], float]:
    """Ricker wavelet normalized to unit peak: (1 - 2 pi^2 f^2 t^2) exp(-pi^2 f^2 t^2).

    The returned callable has a ``radius`` attribute, sqrt(750) / (pi f),
    and returns exactly 0.0 for |t| >= radius.  There pi^2 f^2 t^2 >= 750,
    past the point (about 745) where exp(-x) underflows to 0.0, so the cut
    changes no value; it keeps a huge |t| from overflowing into nan.
    """
    if not (0.0 < peak_freq <= 1e150):  # above, (pi f)^2 overflows
        raise DomainError("peak frequency must be positive and at most 1e150")
    a = (math.pi * peak_freq) ** 2
    radius = math.sqrt(750.0) / (math.pi * peak_freq)

    def w(t: float) -> float:
        if abs(t) >= radius:
            return 0.0
        x = a * t * t
        return (1.0 - 2.0 * x) * math.exp(-x)

    w.radius = radius
    return w


def convolve(train: PulseTrain, wavelet, t0: float, dt: float,
             n_samples: int) -> SampledSignal:
    """Render the delta train onto a regular time grid.

    ``wavelet`` is either a callable evaluated analytically at each sample,
    or the string "spike", which places each amplitude in the nearest bin.

    Sample i is the sum over the terms, in train order, of
    amplitude * wavelet(t0 + i*dt - time).  A callable with a ``radius``
    attribute promises wavelet(t) == 0.0 for |t| >= radius (as ``ricker``
    does); each term then visits only the samples inside its radius, with
    one sample of margin each side, and the skipped contributions are
    exactly +-0.0, so the signal is bit-identical to the sum over every
    sample.  Where rounding of huge times could move a sample across the
    radius, that term takes the whole grid.  A callable without ``radius``
    is evaluated on the whole grid.  A term at or after
    t0 + (n_samples + 2)*dt + radius reaches no sample and is skipped
    before any window arithmetic, unless rounding at that time could
    reach the grid, when no term is skipped.  Cost: O(terms + sum of the
    windows) wavelet calls instead of O(samples x terms), and only a
    comparison for each term past the grid's far edge.
    Term times and amplitudes must be finite (``read_train_csv`` checks).
    """
    if not (dt > 0.0 and math.isfinite(dt) and math.isfinite(t0)):
        raise DomainError("dt must be positive and finite, t0 finite")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    try:
        samples = [0.0] * n_samples
    except (OverflowError, MemoryError):
        raise DomainError(f"cannot allocate {n_samples} samples") from None
    n = float(n_samples)
    if wavelet == "spike":
        for tj, aj in zip(train.times, train.amps):
            q = (tj - t0) / dt
            # compare in float first: round() of an overflowed quotient raises
            if -1.0 < q < n:
                idx = round(q)
                if 0 <= idx < n_samples:
                    samples[idx] += aj
    else:
        radius = getattr(wavelet, "radius", math.inf)
        # every step of _window's arithmetic is monotone in the term time, so
        # if a term at t_far gets an empty window at the grid's end, every
        # later one does too; otherwise (huge times, no radius) cut nothing.
        # Two samples past the last, not one, so that a rounding of
        # (t_far - radius - t0) / dt to just under n_samples + 1 still cuts
        t_far = t0 + (n + 2.0) * dt + radius
        if _window(t_far, t0, dt, n_samples, radius) != (n_samples, n_samples):
            t_far = math.inf
        for tj, aj in zip(train.times, train.amps):
            if tj >= t_far:
                continue
            lo, hi = _window(tj, t0, dt, n_samples, radius)
            for i in range(lo, hi):
                samples[i] += aj * wavelet(t0 + i * dt - tj)
    return SampledSignal(t0, dt, tuple(samples))


def _window(tj: float, t0: float, dt: float, n_samples: int,
            radius: float) -> Tuple[int, int]:
    """The samples [lo, hi) a term at tj can reach: those within radius of
    it, one sample of margin each side, or the whole grid."""
    n = float(n_samples)
    # clamp in float: int() of a huge or infinite quotient would overflow
    lo = int(max(0.0, min(n, (tj - radius - t0) / dt - 1.0)))
    hi = int(max(0.0, min(n, (tj + radius - t0) / dt + 2.0)))
    # t0 + i*dt - tj is monotone in i, so if the samples just outside
    # the window lie at or beyond the radius, all the skipped ones do;
    # when rounding of huge times breaks that, take the whole grid
    if ((lo > 0 and t0 + (lo - 1) * dt - tj > -radius)
            or (hi < n_samples and t0 + hi * dt - tj < radius)):
        return 0, n_samples
    return lo, hi


_CSV_CHUNK = 4096  # rows per write


def write_train_csv(train: PulseTrain, stream: TextIO, with_k: bool = False) -> None:
    """Emit `time,amplitude[,k]` rows, times/amplitudes at 17 significant digits.

    The format is medium._fmt's (``%.17g`` converts a float as ``:.17g``
    does), one ``%`` per row; rows go out joined in chunks.  The k field
    is the train's ``k_text`` as it is; a k text "", which the reader
    refuses, raises DomainError before any byte is written.
    """
    if with_k and "" in train.k_text:
        raise DomainError("cannot write the k column: a term has no transit vector")
    columns = (train.times, train.amps, train.k_text) if with_k else (train.times, train.amps)
    stream.write("time,amplitude,k\n" if with_k else "time,amplitude\n")
    format_row = ("%.17g,%.17g,%s\n" if with_k else "%.17g,%.17g\n").__mod__
    for i in range(0, len(train.times), _CSV_CHUNK):
        j = i + _CSV_CHUNK
        stream.write("".join(map(format_row, zip(*[c[i:j] for c in columns]))))


_TRAIN_HEADERS = {"time,amplitude": 2, "time,amplitude,k": 3}  # header -> fields a row
_READ_CHUNK = 1024  # lines per column parse; larger chunks raise the read's peak memory


# every byte but ",", "\n" and "\r": deleting them leaves a block's separators
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n\r")))


def _parse_columns(lines: List[str], width: int):
    r"""The times and amplitudes of a block of train rows, parsed a column
    at a time: the one statement of a train row.

    The block is joined and split once on "," with each "\n" turned into
    ","; a column is then every width-th field.  A row is width fields, the
    time and amplitude as float() reads them (whitespace around a value
    included) and finite, and the k field, when width is 3, tokens of plain
    ASCII digits of any length joined by "|".  Each line ends in "\n" (the
    stream's last may end in nothing).  Raises ValueError on anything else:
    a blank line, a row of another width, a "\r", a non-ASCII character, a
    bad or non-finite value, or any other k token.
    """
    n = len(lines)
    text = "".join(lines)
    ends = text.endswith("\n")
    # The separators left must be width - 1 commas and one "\n" per line
    # (none after the stream's last): with no "\r" the stream split its lines
    # at "\n" alone, so line i's fields are fields[i*width:(i+1)*width].  A
    # non-ASCII character fails the encode (UnicodeEncodeError is a ValueError)
    separators = (b"," * (width - 1) + b"\n") * n
    if (text.encode("ascii").translate(None, _NOT_SEPARATORS)
            != (separators if ends else separators[:-1])):
        raise ValueError
    fields = text.replace("\n", ",").split(",")
    if ends:
        fields.pop()
    times = tuple(map(float, fields[0::width]))
    amps = tuple(map(float, fields[1::width]))
    if not (all(map(math.isfinite, times)) and all(map(math.isfinite, amps))):
        raise ValueError
    if width == 3:
        # framed in bars, an empty token shows as "||"
        framed = f"|{'|'.join(fields[2::3])}|".encode("ascii")
        if framed.translate(None, b"0123456789|") or b"||" in framed:
            raise ValueError
    return times, amps


def _first_refused(lines: List[str], width: int) -> int:
    """The index of the first line that _parse_columns refuses alone, or 0."""
    for i, line in enumerate(lines):
        try:
            _parse_columns([line], width)
        except ValueError:
            return i
    return 0


def read_train_csv(stream: TextIO) -> PulseTrain:
    r"""Parse a train CSV from write_train_csv (k optional) into a train.

    The first line, stripped, must be ``time,amplitude`` or
    ``time,amplitude,k``, and every later line a row as _parse_columns
    states it: as many fields as the header, a finite time and amplitude,
    and k tokens of ASCII digits.  A bad header raises ParseError at line 1;
    the first line that is no such row, a blank one included, raises
    ParseError "malformed train row" with its line number and the line as
    read, less its "\n"; a byte the stream cannot decode raises ParseError
    naming the stream.  Lines are the stream's own: a text-mode file reads
    CRLF and CR files, but a "\r" that the stream leaves in a line
    (``io.StringIO``, ``newline=""``) is refused.

    A k column is checked but not kept: every term's k text is "" and its
    k is (), as in a CSV without k.

    The rows are read 1024 lines at a time and each block is parsed a
    column at a time; a block that does not parse raises the error of its
    first line that does not parse alone.
    """
    times: List[float] = []
    amps: List[float] = []
    try:
        header = stream.readline().strip()
        width = _TRAIN_HEADERS.get(header)
        if width is None:
            raise ParseError("train CSV header must be 'time,amplitude' or "
                             f"'time,amplitude,k', got {header!r}", 1)
        line_no = 2
        for lines in iter(lambda: list(islice(stream, _READ_CHUNK)), []):
            try:
                block = _parse_columns(lines, width)
            except ValueError:
                i = _first_refused(lines, width)
                row = lines[i].removesuffix("\n")  # as read, a stray "\r" kept
                raise ParseError(f"malformed train row {row!r}", line_no + i) from None
            times += block[0]
            amps += block[1]
            line_no += len(lines)
    except UnicodeDecodeError as exc:
        where = getattr(stream, "name", "train CSV")
        raise ParseError(f"non-ASCII byte {exc.object[exc.start]:#04x} in {where}") from None
    return PulseTrain(times, amps, ("",) * len(times))


def write_signal_csv(signal: SampledSignal, stream: TextIO) -> None:
    """Emit `time,value` rows for a sampled signal, as write_train_csv does:
    ``%.17g``, one ``%`` per row, rows joined in chunks."""
    stream.write("time,value\n")
    times, samples = signal.time_axis(), signal.samples
    for i in range(0, len(samples), _CSV_CHUNK):
        j = i + _CSV_CHUNK
        stream.write("".join(map("%.17g,%.17g\n".__mod__, zip(times[i:j], samples[i:j]))))
