"""Exception types shared across modules.

Input/contract violations raise ``ValueError`` subclasses so the CLI can map
them uniformly to exit code 2. The CLI maps only an ``AssertionError`` to exit
code 3, an internal invariant violation; any other exception escaping a
command ends it with a traceback and exit code 1.
"""

from __future__ import annotations

__all__ = ["BellLabError", "PipelineError", "AnalysisError", "ConfigError"]


class BellLabError(ValueError):
    """Base class for input and contract violations."""


class PipelineError(BellLabError):
    """Raised by the coincidence pipeline on malformed inputs."""


class AnalysisError(BellLabError):
    """Raised by analysis operations on inputs violating their preconditions."""


class ConfigError(BellLabError):
    """Raised on configuration schema violations; carries a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
