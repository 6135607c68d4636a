from __future__ import annotations

import http.client
import io
import threading
from pathlib import Path

import numpy as np
import pytest

from qgen.blocks import Block, DocRole, Page, SourceDocument, load_document
from qgen.chat import MockChatProvider
from qgen.embedding import MockEmbeddingProvider

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


def unit_rows(vectors) -> np.ndarray:
    """Non-zero ``vectors`` as float64 rows of unit length, as ``embed_texts`` returns them.

    Each row is first divided by its largest magnitude, so a row of tiny or
    huge numbers has a norm that neither under- nor overflows.
    """
    rows = np.asarray(vectors, dtype=np.float64)
    rows = rows / np.abs(rows).max(axis=-1, keepdims=True)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def nota_doc() -> SourceDocument:
    return load_document(FIXTURES / "nota_mini.blocks.json", DocRole.KNOWLEDGE_SOURCE)


@pytest.fixture
def rpt_doc() -> SourceDocument:
    return load_document(FIXTURES / "rpt_mini.blocks.json", DocRole.STANDARDS_BLUEPRINT)


@pytest.fixture
def mock_embedder() -> MockEmbeddingProvider:
    return MockEmbeddingProvider(dim=64)


@pytest.fixture
def mock_chat() -> MockChatProvider:
    return MockChatProvider()


class CountingChat(MockChatProvider):
    """Mock chat provider that counts the completions it serves."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def complete(self, system, user, **kwargs):
        self.calls += 1
        return super().complete(system, user, **kwargs)


class RecordingEmbedder(MockEmbeddingProvider):
    """Mock embedding provider that records the texts of every request it serves."""

    def __init__(self, dim: int = 64):
        super().__init__(dim=dim)
        self.batches: list[list[str]] = []
        self._lock = threading.Lock()

    def embed(self, texts):
        with self._lock:
            self.batches.append(list(texts))
        return super().embed(texts)


def make_block(text: str, page: int = 1, font_size: float = 11.0,
               bbox: tuple[float, float, float, float] = (10.0, 10.0, 100.0, 30.0)) -> Block:
    return Block(text=text, page=page, bbox=bbox, font_size=font_size)


def make_doc(texts: list[str], doc_id: str = "doc", role: DocRole = DocRole.KNOWLEDGE_SOURCE,
             font_sizes: list[float] | None = None) -> SourceDocument:
    sizes = font_sizes or [11.0] * len(texts)
    blocks = tuple(make_block(t, font_size=s) for t, s in zip(texts, sizes))
    return SourceDocument(doc_id=doc_id, role=role, pages=(Page(number=1, blocks=blocks),))


class _ShortBody(io.BytesIO):
    """A response whose body ends before its declared length."""

    def read(self, *args):
        raise http.client.IncompleteRead(b"{", 10)


# Transport errors urllib does not wrap in URLError, each made fresh per raise.
TRANSPORT_FAILURES = {
    "timeout": lambda: TimeoutError("timed out"),
    "reset": lambda: ConnectionResetError(104, "Connection reset by peer"),
    "remote-disconnected": lambda: http.client.RemoteDisconnected("Remote end closed connection without response"),
    "incomplete-read": None,  # the response arrives, and reading its body fails
}


def failing_urlopen(failure: str):
    """A fake ``urllib.request.urlopen`` that fails with ``TRANSPORT_FAILURES[failure]``."""
    def urlopen(request, timeout):
        make = TRANSPORT_FAILURES[failure]
        if make is None:
            return _ShortBody()
        raise make()
    return urlopen
