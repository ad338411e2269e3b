"""Exception types shared across the package.

A rejected input raises the builtin ValueError: a bad argument, an empty
observation window, or a damaged or foreign file, whose message then
starts with the file's path. The classes here cover only the failures the
command line treats differently from a ValueError: an unreadable or
unwritable file (exit code 2, the file named) and a numerical blowup
(exit code 3, beside numpy's LinAlgError).
"""


class RomgaError(Exception):
    """Base class for package-specific failures."""


class PersistenceError(RomgaError):
    """I/O failure while reading or writing an artifact file."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


class DivergenceError(RomgaError):
    """The solver produced non-finite values."""
