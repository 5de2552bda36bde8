"""Exception types shared across the package, and the cap on how much of
an input their messages quote."""

# input echoed into an error message is cut to this many characters
QUOTE_LIMIT = 64


def clipped(text: str) -> str:
    """text, cut to ``QUOTE_LIMIT`` characters with "..." appended if longer:
    an error message stays short however long the input it names."""
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def quoted(value) -> str:
    """repr(value) for an error message, cut as ``clipped`` cuts it."""
    return clipped(repr(value))


class QuatrevError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(QuatrevError):
    """Matrix dimensions do not conform."""


class SingularError(QuatrevError):
    """A matrix required to be invertible is singular."""


class DomainError(QuatrevError):
    """A scalar argument lies outside the required domain."""


class SpecError(QuatrevError):
    """A Jordan block specification is malformed or has the wrong shape."""


class NotConstructible(QuatrevError):
    """No conjugator of the requested kind exists for this spec."""


class FlavorError(QuatrevError):
    """A certificate's flavor does not match the requested factorization."""


class CertificateError(QuatrevError):
    """A freshly constructed certificate failed its own checks."""


class PairingError(QuatrevError):
    """Float eigenvalues could not be paired into conjugate classes."""


class RankProfileError(QuatrevError):
    """Numeric rank profile is inconsistent with a nilpotent structure."""
