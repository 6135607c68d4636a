"""Exception hierarchy shared across the pipeline.

``InputError`` subclasses map to CLI exit code 2, ``ProviderError`` to 3 and
``PipelineStateError`` subclasses to 4.
"""

from __future__ import annotations


class QgenError(Exception):
    """Base class for all package-specific errors."""


class InputError(QgenError):
    """Bad or malformed user-supplied input (blocks files, config, params)."""


class MalformedBlocksFile(InputError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail


class EmptyDocument(InputError):
    pass


class WrongRole(InputError):
    pass


class InvalidChunkParams(InputError):
    pass


class NoStandardsFound(InputError):
    pass


class DuplicateStandardCode(InputError):
    pass


class ConfigError(InputError):
    pass


class EmptyText(InputError):
    pass


class EmptyTopic(InputError):
    pass


class EmptyContext(InputError):
    pass


class ProviderError(QgenError):
    """Transport-level failure talking to an embedding or chat provider."""

    def __init__(self, status: int, message: str, retryable: bool = False,
                 retry_after: float | None = None):
        super().__init__(f"provider error (status {status}): {message}")
        self.status = status
        self.message = message
        self.retryable = retryable
        # Seconds the provider asked the client to wait before retrying.
        self.retry_after = retry_after


class DimensionMismatch(QgenError):
    pass


class ZeroVector(QgenError):
    pass


class LengthMismatch(QgenError):
    pass


class DuplicateChunkId(QgenError):
    pass


class EmptyIndex(QgenError):
    pass


class CorruptIndexFile(QgenError):
    pass


class MissingIndex(QgenError):
    pass


class MissingEmbedder(QgenError):
    pass


class PipelineStateError(QgenError):
    """A stage was invoked without the artifacts an earlier stage produces."""


class EmptyBatch(PipelineStateError):
    pass


class WrongIndexRole(PipelineStateError):
    pass
