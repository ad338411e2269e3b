"""Exception types shared across the package.

Plain argument violations raise the builtin ValueError; the classes here
cover failures that deserve their own identity at the CLI boundary
(file-format problems map to exit code 2, numerical blowups to exit code 3).
"""


class RomgaError(Exception):
    """Base class for package-specific failures."""


class PersistenceError(RomgaError):
    """I/O failure while reading or writing an artifact file."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


class FormatError(RomgaError):
    """File is not in the expected binary format (bad magic or version)."""


class CorruptionError(RomgaError):
    """File has the right format tag but inconsistent or damaged content."""


class EmptyMaskError(RomgaError):
    """Requested observation rectangle contains no cell centers."""


class DivergenceError(RomgaError):
    """The solver produced non-finite values."""
