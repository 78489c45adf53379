"""Exceptions shared across the package, mapped to CLI exit codes."""


class LoopMatsukiError(Exception):
    """Base class; exit_code is used by the command line interface."""

    exit_code = 2


class InvalidInputError(LoopMatsukiError):
    """Malformed configuration, matrix data, or arguments."""

    exit_code = 2


class UnsupportedFamilyError(LoopMatsukiError):
    """A family / parameter combination outside the implemented catalog."""

    exit_code = 3


class PrecisionError(LoopMatsukiError):
    """A series computation cannot certify its result at the needed depth."""

    exit_code = 4


class NotAntiFixedError(LoopMatsukiError):
    """Input loop fails the anti-fixedness requirement gamma*sigma(gamma)=z."""

    exit_code = 5


class CertificateError(LoopMatsukiError):
    """A computed result failed the exact check that certifies it."""

    exit_code = 1


def certify(holds: bool, what: str) -> None:
    """Raise CertificateError unless an exact certificate check holds."""
    if not holds:
        raise CertificateError(f"certificate failed: {what}")
