"""Exception types shared across modules, and the one helper that names an input.

Input/contract violations raise ``ValueError``, or one of the two subclasses
below where a caller catches that kind alone: ``analysis.report`` turns an
``AnalysisError`` into a warning, and a ``ConfigError`` carries the field path
or file name at fault, which ``section`` attaches. The CLI maps every
``ValueError`` to exit code 2 and only an ``AssertionError`` to exit code 3,
an internal invariant violation; any other exception escaping a command ends
it with a traceback and exit code 1.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["AnalysisError", "ConfigError", "section"]


class AnalysisError(ValueError):
    """Raised by analysis operations on inputs violating their preconditions."""


class ConfigError(ValueError):
    """Raised on configuration schema violations; carries a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@contextmanager
def section(path: str):
    """Re-raise a ``ValueError`` as a ``ConfigError`` at ``path``; a ``ConfigError`` keeps its own."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(path, str(e)) from e
