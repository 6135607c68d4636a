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

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator

from .errors import EmptyDocument, MalformedBlocksFile, WrongRole

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


@dataclass(frozen=True)
class Block:
    """One extracted text block with its page position and font metadata.

    Text is whitespace-normalized at construction, so every downstream
    consumer sees collapsed space runs and trimmed line edges.
    """

    text: str
    page: int
    bbox: tuple[float, float, float, float]
    font_size: float
    font_name: str | None = None

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError("block text must be a string")
        object.__setattr__(self, "text", normalize_ws(self.text))
        if not self.text:
            raise ValueError("block text must contain a non-whitespace character")
        if self.page < 1:
            raise ValueError("page must be a positive integer")
        x0, y0, x1, y1 = self.bbox
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"bbox must satisfy x0 < x1 and y0 < y1, got {self.bbox}")
        if self.font_size <= 0:
            raise ValueError("font_size must be positive")


@dataclass(frozen=True)
class Page:
    number: int
    blocks: tuple[Block, ...]


@dataclass(frozen=True)
class SourceDocument:
    """An ordered sequence of pages of layout blocks in reading order."""

    doc_id: str
    role: DocRole
    pages: tuple[Page, ...] = field(default_factory=tuple)

    def iter_blocks(self) -> Iterator[Block]:
        for page in self.pages:
            yield from page.blocks

    @property
    def block_count(self) -> int:
        return sum(len(p.blocks) for p in self.pages)


def flatten_text(doc: SourceDocument) -> str:
    """Join all block texts with blank lines, in reading order.

    This is the reference text for recursive chunk spans and for scanning
    learning-standard codes: block boundaries become paragraph breaks, so
    every block starts at a line start.
    """
    return "\n\n".join(b.text for b in doc.iter_blocks())


def _require(cond: bool, path: str, detail: str) -> None:
    if not cond:
        raise MalformedBlocksFile(path, detail)


def load_document(path: str | Path, role: DocRole | None = None) -> SourceDocument:
    """Load a Blocks-JSON file into a :class:`SourceDocument`.

    ``role``, when given, asserts the document role declared in the file;
    a mismatch raises :class:`WrongRole`. Structural problems raise
    :class:`MalformedBlocksFile` with a field-level diagnostic, and a file
    with zero blocks raises :class:`EmptyDocument`.
    """
    path = Path(path)
    spath = str(path)
    if not path.is_file():
        raise FileNotFoundError(f"blocks file not found: {spath}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedBlocksFile(spath, f"invalid JSON: {exc}") from exc

    _require(isinstance(raw, dict), spath, "top level must be an object")
    doc_id = raw.get("doc_id")
    _require(isinstance(doc_id, str) and doc_id.strip() != "", spath, "doc_id must be a non-empty string")
    role_raw = raw.get("role")
    try:
        file_role = DocRole(role_raw)
    except ValueError:
        raise MalformedBlocksFile(spath, f"role must be 'knowledge' or 'standards', got {role_raw!r}") from None
    if role is not None and file_role is not role:
        raise WrongRole(f"{spath}: expected role {role.value!r}, file declares {file_role.value!r}")

    pages_raw = raw.get("pages")
    _require(isinstance(pages_raw, list), spath, "pages must be a list")

    pages: list[Page] = []
    prev_page_no = 0
    for pi, page_raw in enumerate(pages_raw):
        where = f"pages[{pi}]"
        _require(isinstance(page_raw, dict), spath, f"{where} must be an object")
        page_no = page_raw.get("page")
        _require(isinstance(page_no, int) and not isinstance(page_no, bool) and page_no >= 1,
                 spath, f"{where}.page must be a positive integer")
        _require(page_no > prev_page_no, spath,
                 f"{where}.page={page_no} does not increase (previous {prev_page_no})")
        prev_page_no = page_no
        blocks_raw = page_raw.get("blocks")
        _require(isinstance(blocks_raw, list), spath, f"{where}.blocks must be a list")
        blocks: list[Block] = []
        for bi, b in enumerate(blocks_raw):
            bwhere = f"{where}.blocks[{bi}]"
            _require(isinstance(b, dict), spath, f"{bwhere} must be an object")
            text = b.get("text")
            _require(isinstance(text, str), spath, f"{bwhere}.text must be a string")
            bbox = b.get("bbox")
            _require(isinstance(bbox, list) and len(bbox) == 4
                     and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in bbox),
                     spath, f"{bwhere}.bbox must be four numbers [x0,y0,x1,y1]")
            font_size = b.get("font_size")
            _require(isinstance(font_size, (int, float)) and not isinstance(font_size, bool),
                     spath, f"{bwhere}.font_size must be a number")
            font_name = b.get("font_name")
            _require(font_name is None or isinstance(font_name, str),
                     spath, f"{bwhere}.font_name must be a string when present")
            try:
                blocks.append(Block(
                    text=text,
                    page=page_no,
                    bbox=(float(bbox[0]), float(bbox[1]), float(bbox[2]), float(bbox[3])),
                    font_size=float(font_size),
                    font_name=font_name,
                ))
            except ValueError as exc:
                raise MalformedBlocksFile(spath, f"{bwhere}: {exc}") from None
        pages.append(Page(number=page_no, blocks=tuple(blocks)))

    doc = SourceDocument(doc_id=doc_id, role=file_role, pages=tuple(pages))
    if doc.block_count == 0:
        raise EmptyDocument(f"{spath}: document contains no blocks")
    return doc
