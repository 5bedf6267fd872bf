"""Exception hierarchy for layered_echo."""


class LayeredEchoError(Exception):
    """Base class for all layered_echo errors."""


class NonPositiveTau(LayeredEchoError, ValueError):
    """A layer two-way travel time is zero or negative."""


class ReflectionOutOfRange(LayeredEchoError, ValueError):
    """A reflection coefficient has magnitude >= 1."""


class LengthMismatch(LayeredEchoError, ValueError):
    """Travel-time and reflection-coefficient vectors disagree in length."""


class InvalidProfile(LayeredEchoError, ValueError):
    """Physical profile violates monotonicity or positivity constraints."""


class ParseError(LayeredEchoError, ValueError):
    """An input file could not be parsed.  Carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DomainError(LayeredEchoError, ValueError):
    """An argument lies outside the domain of the computation."""


class InvalidTransitVector(LayeredEchoError, ValueError):
    """Transit count vector violates the constraints of its kind."""


class InvalidSequence(LayeredEchoError, ValueError):
    """Scattering sequence violates path constraints."""


class EnumerationLimitExceeded(LayeredEchoError, RuntimeError):
    """A search or simulation would pass its work limit."""
