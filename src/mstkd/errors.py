"""Exception classes shared by all mstkd modules, one per exit code.

Each class carries the exit code that `mstkd.cli` returns for it.
"""

import contextlib


class MstkdError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class ContractError(MstkdError):
    """An operation was called outside its stated contract: bad dimensions,
    an unscorable pair list, an unsupported model kind, an empty group."""


class ConfigError(MstkdError):
    """Invalid experiment configuration or config file."""
    exit_code = 2


class FormatError(MstkdError):
    """A binary or text artifact file is malformed."""
    exit_code = 3


class DivergenceError(MstkdError):
    """Training produced a non-finite loss or gradient, or an output row
    cannot be normalized."""
    exit_code = 4


class MissingArtifactError(MstkdError):
    """A pipeline stage requires an upstream artifact that does not exist."""
    exit_code = 5


@contextlib.contextmanager
def naming(what: str):
    """Re-raise an MstkdError raised inside as one of the same class whose
    message starts with `what`, such as the model that was being run."""
    try:
        yield
    except MstkdError as exc:
        raise type(exc)(f"{what}: {exc}") from exc
