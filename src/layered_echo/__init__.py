"""Exact time-domain Green's functions of piecewise-constant layered media.

The reflection and transmission impulse responses of a stack of
homogeneous acoustic layers are finite trains of delta arrivals up to any
cutoff time.  This package computes them exactly from closed-form
combinatorial amplitude formulas, and ships two independent brute-force
oracles for verification: a walk oracle that sums the scattering walks
by walk state (``oracle.tally``, with ``oracle.enumerate_sequences`` as
its per-walk reference), and a lattice recursion on the medium's
travel-time quantum.
"""

from .errors import (
    DomainError,
    EnumerationLimitExceeded,
    InvalidProfile,
    InvalidSequence,
    InvalidTransitVector,
    LayeredEchoError,
    LengthMismatch,
    NonPositiveTau,
    ParseError,
    ReflectionOutOfRange,
)
from .medium import (
    Medium,
    PhysicalProfile,
    from_physical,
    make_medium,
    read_medium,
    write_medium,
)
from .transit import (
    REFLECTION,
    TRANSMISSION,
    TransitVector,
    branch_set,
    enumerate_reflection,
    enumerate_transmission,
    left_shift,
)
from .amplitudes import (
    amplitude,
    kunetz_primary,
    reflection_amplitude,
    transmission_amplitude,
)
from .greens import (
    PulseTrain,
    SampledSignal,
    convolve,
    merge_ties,
    reflection_green,
    ricker,
    transmission_green,
    write_train_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Medium",
    "PhysicalProfile",
    "PulseTrain",
    "REFLECTION",
    "SampledSignal",
    "TRANSMISSION",
    "TransitVector",
    "amplitude",
    "branch_set",
    "convolve",
    "enumerate_reflection",
    "enumerate_transmission",
    "from_physical",
    "kunetz_primary",
    "left_shift",
    "make_medium",
    "merge_ties",
    "read_medium",
    "reflection_amplitude",
    "reflection_green",
    "ricker",
    "transmission_amplitude",
    "transmission_green",
    "write_medium",
    "write_train_csv",
    "LayeredEchoError",
    "NonPositiveTau",
    "ReflectionOutOfRange",
    "LengthMismatch",
    "InvalidProfile",
    "ParseError",
    "DomainError",
    "InvalidTransitVector",
    "InvalidSequence",
    "EnumerationLimitExceeded",
]
