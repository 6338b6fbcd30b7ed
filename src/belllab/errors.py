"""Exception types shared across modules.

Input/contract violations raise ``ValueError``, or one of the two subclasses
below where a caller catches that kind alone: ``analysis.report`` turns an
``AnalysisError`` into a warning, and the CLI keeps a ``ConfigError``'s field
path. The CLI maps every ``ValueError`` to exit code 2 and only an
``AssertionError`` to exit code 3, an internal invariant violation; any other
exception escaping a command ends it with a traceback and exit code 1.
"""

from __future__ import annotations

__all__ = ["AnalysisError", "ConfigError"]


class AnalysisError(ValueError):
    """Raised by analysis operations on inputs violating their preconditions."""


class ConfigError(ValueError):
    """Raised on configuration schema violations; carries a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
