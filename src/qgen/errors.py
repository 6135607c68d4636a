"""The pipeline's errors: one class per CLI exit code.

``InputError`` maps to exit 2, ``ProviderError`` to 3 and
``PipelineStateError`` to 4. A failure is known only by its category, so
there are no other error classes; the message says what went wrong.
"""

from __future__ import annotations


class QgenError(Exception):
    """Base class for all package-specific errors."""


class InputError(QgenError):
    """Bad or malformed user-supplied input (blocks files, config, params)."""


class ProviderError(QgenError):
    """Transport-level failure talking to an embedding or chat provider."""

    def __init__(self, status: int, message: str, retryable: bool = False,
                 retry_after: float | None = None):
        super().__init__(f"provider error (status {status}): {message}")
        self.status = status
        self.retryable = retryable
        # Seconds the provider asked the client to wait before retrying.
        self.retry_after = retry_after


class PipelineStateError(QgenError):
    """Inputs or artifacts a stage cannot use: missing, damaged or inconsistent."""
