"""Chunking strategies: recursive character splitting, structure-aware block
grouping, and per-learning-standard splitting of the yearly teaching plan.

All three are pure functions of (document, parameters) and produce
deterministic chunk ids of the form ``{doc_id}:{strategy}:{ordinal}``.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from statistics import median

from .blocks import SourceDocument, flatten_text
from .errors import InputError
from .jsonio import as_tuple


class Strategy(Enum):
    RECURSIVE = "recursive"
    STRUCTURE_AWARE = "structure_aware"
    STANDARD_SPLIT = "standard_split"


@dataclass(frozen=True)
class Chunk:
    """A contiguous text unit with provenance metadata; the retrieval atom."""

    chunk_id: str
    doc_id: str
    text: str
    strategy: Strategy
    char_span: tuple[int, int] | None = None
    source_blocks: tuple[int, ...] | None = None

    def __post_init__(self):
        # A row read back from JSON holds the strategy's value and arrays. Ingest builds
        # thousands of chunks from members, which skip the comparatively slow enum call.
        if not isinstance(self.strategy, Strategy):
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        object.__setattr__(self, "char_span", as_tuple(self.char_span))
        object.__setattr__(self, "source_blocks", as_tuple(self.source_blocks))
        for name in ("chunk_id", "doc_id", "text"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"chunk {name} must be a string, got {getattr(self, name)!r}")
        if not self.text:
            raise ValueError("chunk text must be non-empty")
        # ``type(v) is int`` refuses a bool, which ``isinstance`` would take.
        span, blocks = self.char_span, self.source_blocks
        if not (span is None or type(span) is tuple and len(span) == 2 and type(span[0]) is type(span[1]) is int):
            raise TypeError(f"chunk char_span must be None or two integers, got {span!r}")
        if not (blocks is None or type(blocks) is tuple and set(map(type, blocks)) <= {int}):
            raise TypeError(f"chunk source_blocks must be None or a tuple of integers, got {blocks!r}")


_CODE_PATTERN = r"\d+\.\d+\.\d+"
STANDARD_CODE_RE = re.compile(rf"(?m)^({_CODE_PATTERN})\b")
_STANDARD_CODE = re.compile(_CODE_PATTERN)


@dataclass(frozen=True)
class LearningStandard:
    """One numbered learning standard from the yearly teaching plan."""

    code: str
    description: str

    def __post_init__(self):
        if not _STANDARD_CODE.fullmatch(self.code):
            raise ValueError(f"standard code must match digit.digit.digit, got {self.code!r}")
        if not isinstance(self.description, str):
            raise TypeError(f"standard description must be a string, got {self.description!r}")


def _chunk_id(doc_id: str, strategy: Strategy, ordinal: int) -> str:
    return f"{doc_id}:{strategy.value}:{ordinal:04d}"


# Separator tiers, highest priority first. A piece that still exceeds
# max_chars after the last tier is a separator-free token and is emitted
# whole (the documented size-bound exception).
_SEPARATOR_TIERS = (
    re.compile(r"\n{2,}"),      # paragraph break
    re.compile(r"\n"),          # line break
    re.compile(r"[.!?]+\s+"),   # sentence end
    re.compile(r"[ \t]+"),      # word boundary
)


def _atom_starts(text: str, max_chars: int) -> list[int]:
    """Start offsets of atomic pieces after recursive splitting.

    Each tier only splits pieces that still exceed max_chars, so a short
    paragraph is never cut internally even when it contains lower-tier
    separators. Boundaries sit on both sides of a separator run; otherwise
    a glued separator could push a max_chars-sized token over the bound.
    """

    def split(lo: int, hi: int, tier: int) -> list[int]:
        if hi - lo <= max_chars or tier == len(_SEPARATOR_TIERS):
            return [lo]
        cuts: set[int] = set()
        for m in _SEPARATOR_TIERS[tier].finditer(text, lo, hi):
            cuts.add(m.start())
            cuts.add(m.end())
        ordered = sorted(c for c in cuts if lo < c < hi)
        if not ordered:
            return split(lo, hi, tier + 1)
        out: list[int] = []
        starts = [lo] + ordered
        for i, s in enumerate(starts):
            e = starts[i + 1] if i + 1 < len(starts) else hi
            if e - s > max_chars:
                out.extend(split(s, e, tier + 1))
            else:
                out.append(s)
        return out

    return split(0, len(text), 0)


def chunk_recursive(doc: SourceDocument, max_chars: int = 1000, overlap: int = 200) -> list[Chunk]:
    """Split the flattened text into overlapping chunks; ``RunConfig`` checks ``max_chars`` and ``overlap``.

    Cuts prefer separator boundaries (paragraph > line > sentence > space).
    Every character of the flattened text is covered by at least one chunk
    span, and no chunk exceeds ``max_chars`` unless a single separator-free
    token does, in which case that token is emitted whole. Consecutive
    chunks overlap by at most ``overlap`` characters, aligned to separator
    boundaries on a best-effort basis. No chunk is whitespace-only unless
    the text holds a whitespace run of ``max_chars`` characters or more:
    where the separator cut would leave whitespace alone, the chunk is cut
    at ``max_chars`` characters instead, splitting the token that follows.
    """
    text = flatten_text(doc)
    # Legal cut positions: every atomic piece's end offset.
    bounds = _atom_starts(text, max_chars)[1:] + [len(text)]

    spans: list[tuple[int, int]] = []
    cursor = 0
    prev_start = -1
    while cursor < len(text):
        start = cursor
        if spans and overlap > 0:
            # Earliest bound in [cursor - overlap, cursor) after prev_start.
            i = bisect_left(bounds, max(cursor - overlap, prev_start + 1))
            if bounds[i] < cursor:
                start = bounds[i]
        if len(text) - start <= max_chars:
            spans.append((start, len(text)))
            break
        window_end = start + max_chars
        # bounds[j] is the widest cut in the window; bounds[j + 1] lies past it.
        j = bisect_right(bounds, window_end) - 1
        if j >= 0 and bounds[j] > cursor:
            span = (start, bounds[j])
        else:
            # Separator-free token longer than the window: emit it whole,
            # without an overlap prefix.
            span = (cursor, bounds[j + 1])
        if not text[span[0]:span[1]].strip():
            # Separator whitespace alone is no chunk (embedders refuse it):
            # cut at the window's end instead, splitting the token after it.
            span = (start, window_end)
        spans.append(span)
        prev_start, cursor = span

    return [
        Chunk(
            chunk_id=_chunk_id(doc.doc_id, Strategy.RECURSIVE, i),
            doc_id=doc.doc_id,
            text=text[s:e],
            strategy=Strategy.RECURSIVE,
            char_span=(s, e),
        )
        for i, (s, e) in enumerate(spans)
    ]


DEFAULT_UNIT_KEYWORDS = ("Contoh", "Latih Diri", "Standard Pembelajaran")


def chunk_structure_aware(
    doc: SourceDocument,
    heading_font_delta: float = 3.0,
    max_chars: int = 1500,
    keywords: tuple[str, ...] = DEFAULT_UNIT_KEYWORDS,
) -> list[Chunk]:
    """Group blocks into chunks using font-size and unit-keyword signals.

    A new chunk starts at a heading (font size >= document median +
    ``heading_font_delta``), at a block opening a keyword unit, or when the
    size budget would overflow outside a keyword unit. A keyword-opened
    unit is never split, whatever its size; block order is preserved and
    every block lands in exactly one chunk. ``RunConfig`` checks ``max_chars``.
    """
    blocks = list(doc.iter_blocks())
    med = median(b.font_size for b in blocks)

    groups: list[list[int]] = []
    cur: list[int] = []
    cur_len = 0
    cur_keyword_unit = False

    def flush():
        nonlocal cur, cur_len
        if cur:
            groups.append(cur)
        cur = []
        cur_len = 0

    for gi, block in enumerate(blocks):
        is_heading = block.font_size - med >= heading_font_delta
        is_keyword = any(block.text.startswith(k) for k in keywords)
        would_overflow = bool(cur) and cur_len + 1 + len(block.text) > max_chars
        if cur and (is_heading or is_keyword):
            flush()
        elif would_overflow and not cur_keyword_unit:
            flush()
        if not cur:
            cur_keyword_unit = is_keyword
        cur.append(gi)
        cur_len += len(block.text) + (1 if cur_len else 0)
    flush()

    return [
        Chunk(
            chunk_id=_chunk_id(doc.doc_id, Strategy.STRUCTURE_AWARE, i),
            doc_id=doc.doc_id,
            text="\n".join(blocks[gi].text for gi in group),
            strategy=Strategy.STRUCTURE_AWARE,
            source_blocks=tuple(group),
        )
        for i, group in enumerate(groups)
    ]


def chunk_rpt_standards(doc: SourceDocument) -> list[tuple[LearningStandard, Chunk]]:
    """Split a standards-blueprint document into one chunk per standard code.

    Scans the flattened text for ``d.d.d`` codes at line starts; each chunk
    runs from its code to just before the next one (trailing whitespace
    trimmed) and keeps the code inside its text. ``load_document`` checks the role.
    """
    text = flatten_text(doc)
    matches = list(STANDARD_CODE_RE.finditer(text))
    if not matches:
        raise InputError(f"{doc.doc_id}: no learning-standard code (digit.digit.digit at line start) found")

    seen: set[str] = set()
    out: list[tuple[LearningStandard, Chunk]] = []
    for i, m in enumerate(matches):
        code = m.group(1)
        if code in seen:
            raise InputError(f"{doc.doc_id}: standard code {code} appears more than once")
        seen.add(code)
        start = m.start()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        body = text[start:end].rstrip()
        end = start + len(body)
        description = text[m.end():end].strip().lstrip(":.-").strip()
        standard = LearningStandard(code=code, description=description)
        chunk = Chunk(
            chunk_id=_chunk_id(doc.doc_id, Strategy.STANDARD_SPLIT, i),
            doc_id=doc.doc_id,
            text=body,
            strategy=Strategy.STANDARD_SPLIT,
            char_span=(start, end),
        )
        out.append((standard, chunk))
    return out
