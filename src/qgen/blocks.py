"""Layout-block documents: the ingestion boundary of the pipeline.

Curriculum documents enter as Blocks-JSON files produced by an extraction
tool (one object per text block with position and font metadata), so the
pipeline never touches PDF bytes and fixtures stay hand-authorable.

Format (UTF-8)::

    {"doc_id": str,
     "role": "knowledge" | "standards",
     "pages": [{"page": int,
                "blocks": [{"text": str, "bbox": [x0, y0, x1, y1],
                            "font_size": float, "font_name": str?}]}]}

Reading order is file order; blocks are never re-sorted by bbox.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from .errors import InputError
from .jsonio import read_json

_WS_RUN = re.compile(r"[^\S\n]+")
_BLANK_RUN = re.compile(r"\n{3,}")


def normalize_ws(text: str) -> str:
    """Collapse whitespace runs within lines, trim line edges and keep one blank line at most.

    Newlines carry separator semantics for the recursive splitter, so line
    breaks and paragraph breaks (one blank line) survive. Every other run
    of whitespace, no-break spaces and tabs included, becomes one space,
    and a longer run of blank lines becomes one paragraph break, so no run
    of whitespace in block text is longer than two characters.
    """
    if "  " not in text and text.isprintable():
        # Every whitespace character but the space is unprintable, so this is
        # one line with single spaces: the regex passes below would only
        # strip its edges, at several microseconds each per block.
        return text.strip()
    lines = [_WS_RUN.sub(" ", line).strip() for line in text.split("\n")]
    return _BLANK_RUN.sub("\n\n", "\n".join(lines).strip("\n"))


class DocRole(Enum):
    KNOWLEDGE_SOURCE = "knowledge"
    STANDARDS_BLUEPRINT = "standards"


# Numbers are checked by exact type, so a bool (an int subclass) is none.
_NUMBER_TYPES = {int, float}


def _check_page_number(number) -> None:
    if not (type(number) is int and number >= 1):
        raise ValueError(f"page must be a positive integer, got {number!r}")


@dataclass(frozen=True)
class Block:
    """One extracted text block with its page position and font metadata.

    The constructor is the only check of a block's fields. Text is
    whitespace-normalized, so every downstream consumer sees collapsed
    space runs and trimmed line edges; the bbox becomes a float tuple and
    the font size a float.
    """

    text: str
    page: int
    bbox: tuple[float, float, float, float]
    font_size: float
    font_name: str | None = None

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError(f"text must be a string, got {type(self.text).__name__}")
        object.__setattr__(self, "text", normalize_ws(self.text))
        if not self.text:
            raise ValueError("text must contain a non-whitespace character")
        _check_page_number(self.page)
        bbox = self.bbox
        if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4 and {*map(type, bbox)} <= _NUMBER_TYPES):
            raise ValueError(f"bbox must be four numbers [x0, y0, x1, y1], got {bbox!r}")
        x0, y0, x1, y1 = bbox = tuple(map(float, bbox))
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"bbox must satisfy x0 < x1 and y0 < y1, got {bbox}")
        object.__setattr__(self, "bbox", bbox)
        if not (type(self.font_size) in _NUMBER_TYPES and self.font_size > 0):
            raise ValueError(f"font_size must be a positive number, got {self.font_size!r}")
        object.__setattr__(self, "font_size", float(self.font_size))
        if not (self.font_name is None or isinstance(self.font_name, str)):
            raise ValueError(f"font_name must be a string when present, got {type(self.font_name).__name__}")


@dataclass(frozen=True)
class Page:
    """A numbered page and its blocks, each of which names this page."""

    number: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        _check_page_number(self.number)
        for i, block in enumerate(self.blocks):
            if block.page != self.number:
                raise ValueError(f"blocks[{i}] is on page {block.page}, not page {self.number}")


@dataclass(frozen=True)
class SourceDocument:
    """An ordered sequence of pages of layout blocks in reading order.

    Its doc_id is a non-blank string, its page numbers strictly increase
    and it holds at least one block.
    """

    doc_id: str
    role: DocRole
    pages: tuple[Page, ...]

    def __post_init__(self):
        if not (isinstance(self.doc_id, str) and self.doc_id.strip()):
            raise ValueError(f"doc_id must be a non-blank string, got {self.doc_id!r}")
        previous = 0
        for i, page in enumerate(self.pages):
            if page.number <= previous:
                raise ValueError(f"pages[{i}]: page {page.number} does not increase (previous {previous})")
            previous = page.number
        if not any(page.blocks for page in self.pages):
            raise ValueError("document contains no blocks")

    def iter_blocks(self) -> Iterator[Block]:
        for page in self.pages:
            yield from page.blocks


def flatten_text(doc: SourceDocument) -> str:
    """Join all block texts with blank lines, in reading order.

    This is the reference text for recursive chunk spans and for scanning
    learning-standard codes: block boundaries become paragraph breaks, so
    every block starts at a line start.
    """
    return "\n\n".join(b.text for b in doc.iter_blocks())


def load_document(path: str | Path, role: DocRole | None = None) -> SourceDocument:
    """Load a Blocks-JSON file into a :class:`SourceDocument`.

    ``role``, when given, asserts the document role declared in the file.
    This maps the file's JSON onto the :class:`Block`, :class:`Page` and
    :class:`SourceDocument` constructors, which check the fields. Text that
    is not strict JSON (see :mod:`qgen.jsonio`), a role mismatch, a JSON
    shape the format does not have or a field a constructor refuses raises
    :class:`InputError` naming the file and, where one is at fault, the
    JSON path (``pages[i]`` or ``pages[i].blocks[j]``).
    """
    path = Path(path)
    spath = str(path)
    if not path.is_file():
        raise FileNotFoundError(f"blocks file not found: {spath}")
    try:
        raw = read_json(path)
    except ValueError as exc:
        raise InputError(f"{spath}: invalid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise InputError(f"{spath}: top level must be an object")
    role_raw = raw.get("role")
    try:
        file_role = DocRole(role_raw)
    except ValueError:
        raise InputError(f"{spath}: role must be 'knowledge' or 'standards', got {role_raw!r}") from None
    if role is not None and file_role is not role:
        raise InputError(f"{spath}: expected role {role.value!r}, file declares {file_role.value!r}")
    pages_raw = raw.get("pages")
    if not isinstance(pages_raw, list):
        raise InputError(f"{spath}: pages must be a list")

    pages: list[Page] = []
    for pi, page_raw in enumerate(pages_raw):
        if not isinstance(page_raw, dict):
            raise InputError(f"{spath}: pages[{pi}] must be an object")
        blocks_raw = page_raw.get("blocks")
        if not isinstance(blocks_raw, list):
            raise InputError(f"{spath}: pages[{pi}].blocks must be a list")
        number = page_raw.get("page")
        blocks: list[Block] = []
        for bi, b in enumerate(blocks_raw):
            if not isinstance(b, dict):
                raise InputError(f"{spath}: pages[{pi}].blocks[{bi}] must be an object")
            try:
                blocks.append(Block(b.get("text"), number, b.get("bbox"), b.get("font_size"), b.get("font_name")))
            except ValueError as exc:
                raise InputError(f"{spath}: pages[{pi}].blocks[{bi}]: {exc}") from None
        try:
            pages.append(Page(number, tuple(blocks)))
        except ValueError as exc:
            raise InputError(f"{spath}: pages[{pi}]: {exc}") from None
    try:
        return SourceDocument(raw.get("doc_id"), file_role, tuple(pages))
    except ValueError as exc:
        raise InputError(f"{spath}: {exc}") from None
