"""Exception types shared across the package."""


class FedcoldError(Exception):
    """Base class for all package errors."""


class ConfigError(FedcoldError):
    """Invalid configuration value, dimension mismatch, or bad argument."""


class DataFormatError(FedcoldError):
    """Malformed or inconsistent input/output file."""


class NumericsError(FedcoldError):
    """Non-finite values or a failed numeric diagnostic."""


def not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    """The refusal of the file at ``path``, which is not UTF-8 text."""
    return f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
