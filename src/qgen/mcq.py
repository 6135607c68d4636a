"""Multiple-choice question model and the tolerant JSON parser for model output.

The parser never raises on bad model text: it returns a
:class:`ParseFailure` carrying the full raw response and a diagnostic
category, so failure accounting downstream loses nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .jsonio import loads

LABELS = ("A", "B", "C", "D")


class ParseCategory(Enum):
    NOT_JSON = "NotJson"
    MISSING_FIELD = "MissingField"
    BAD_OPTION_COUNT = "BadOptionCount"
    DUPLICATE_OPTION = "DuplicateOption"
    ANSWER_NOT_IN_OPTIONS = "AnswerNotInOptions"


class McqValidationError(ValueError):
    def __init__(self, category: ParseCategory, message: str):
        super().__init__(message)
        self.category = category


def _squash_ws(text: str) -> str:
    return " ".join(text.split())


@dataclass(frozen=True)
class McqOption:
    label: str
    text: str


@dataclass(frozen=True)
class Mcq:
    """One multiple-choice question: stem, four labeled options, key, explanation."""

    stem: str
    options: tuple[McqOption, ...]
    answer_key: str
    explanation: str = ""
    language_tag: str = "ms"

    def __post_init__(self):
        """Enforce the MCQ invariants, raising a categorized validation error.

        Labels are checked before the answer key, and the key before the
        option texts, so each input gets one precise diagnostic.
        """
        if not isinstance(self.stem, str) or not self.stem.strip():
            raise McqValidationError(ParseCategory.MISSING_FIELD, "stem must be a non-empty string")
        object.__setattr__(self, "stem", self.stem.strip())
        # A row read back from JSON holds each option as a {"label", "text"} object.
        object.__setattr__(self, "options",
                           tuple(o if isinstance(o, McqOption) else McqOption(**o) for o in self.options))
        for name in ("explanation", "language_tag"):
            if not isinstance(getattr(self, name), str):
                raise McqValidationError(ParseCategory.MISSING_FIELD,
                                         f"{name} must be a string, got {getattr(self, name)!r}")
        if len(self.options) != 4:
            raise McqValidationError(ParseCategory.BAD_OPTION_COUNT, f"expected 4 options, got {len(self.options)}")
        labels = [o.label for o in self.options]
        if sorted(labels) != list(LABELS):
            raise McqValidationError(
                ParseCategory.BAD_OPTION_COUNT, f"option labels must be exactly A-D once each, got {labels}"
            )
        if self.answer_key not in labels:
            raise McqValidationError(
                ParseCategory.ANSWER_NOT_IN_OPTIONS, f"answer {self.answer_key!r} matches no option label or text"
            )
        for o in self.options:
            if not isinstance(o.text, str) or not o.text.strip():
                raise McqValidationError(ParseCategory.MISSING_FIELD, f"option {o.label} has empty text")
        normalized = [_squash_ws(o.text) for o in self.options]
        if len(set(normalized)) != 4:
            dupes = sorted({t for t in normalized if normalized.count(t) > 1})
            raise McqValidationError(ParseCategory.DUPLICATE_OPTION, f"duplicate option text(s): {dupes}")


@dataclass(frozen=True)
class ParseFailure:
    """A model response that could not be turned into a valid MCQ."""

    raw_text: str
    category: ParseCategory
    message: str

    def __post_init__(self):
        object.__setattr__(self, "category", ParseCategory(self.category))
        for name in ("raw_text", "message"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string, got {type(getattr(self, name)).__name__}")


_FENCE_RE = re.compile(r"^\s*```[A-Za-z0-9_-]*\s*\n(?P<body>.*)\n?```\s*$", re.DOTALL)
_ANSWER_LETTER_RE = re.compile(r"([A-Da-d])\s*[\).:,]?")

_STEM_KEYS = ("stem", "question", "soalan")
_OPTIONS_KEYS = ("options", "choices", "pilihan")
_ANSWER_KEYS = ("answer_key", "answer", "correct_answer", "jawapan")
_EXPLANATION_KEYS = ("explanation", "penjelasan")
_TEXT_KEYS = ("text", "value", "teks")


def _first_key(obj: dict, keys: tuple[str, ...]):
    for k in keys:
        if k in obj:
            return obj[k]
    return None


def _strip_fence(raw: str) -> str:
    m = _FENCE_RE.match(raw)
    return m.group("body") if m else raw


def _coerce_options(payload) -> tuple[McqOption, ...]:
    if isinstance(payload, list):
        if all(isinstance(v, str) for v in payload):
            # Labelled in order; Mcq refuses any count but four.
            return tuple(McqOption(chr(ord("A") + i), v) for i, v in enumerate(payload))
        options = []
        for i, item in enumerate(payload):
            if not isinstance(item, dict):
                raise McqValidationError(ParseCategory.MISSING_FIELD, f"options[{i}] is not an object")
            label = item.get("label")
            text = _first_key(item, _TEXT_KEYS)
            if not isinstance(label, str) or not label.strip():
                raise McqValidationError(ParseCategory.MISSING_FIELD, f"options[{i}] is missing a label")
            if not isinstance(text, str):
                raise McqValidationError(ParseCategory.MISSING_FIELD, f"options[{i}] is missing text")
            options.append(McqOption(label.strip().upper(), text))
        return tuple(options)
    if isinstance(payload, dict):
        return tuple(
            McqOption(str(label).strip().upper(), text if isinstance(text, str) else "")
            for label, text in payload.items()
        )
    raise McqValidationError(ParseCategory.MISSING_FIELD, "options must be an array or an A-D map")


def _coerce_answer(payload, options: tuple[McqOption, ...]):
    """The label ``payload`` names by letter or by option text; any other value as given."""
    if isinstance(payload, str):
        m = _ANSWER_LETTER_RE.fullmatch(payload.strip())
        if m:
            return m.group(1).upper()
        squashed = _squash_ws(payload)
        for opt in options:
            if _squash_ws(opt.text) == squashed:
                return opt.label
    return payload


def parse_mcq_json(raw: str) -> Mcq | ParseFailure:
    """Parse a model response into an :class:`Mcq`, or report why it failed.

    A single surrounding markdown code fence is stripped, and the rest must
    be strict JSON (see :mod:`qgen.jsonio`). Field names and shapes are
    mapped tolerantly (``question``/``stem``, options as array or A-D map,
    the answer as a letter or an option's text); the MCQ invariants are
    then enforced by :class:`Mcq` alone.
    """
    body = _strip_fence(raw)
    try:
        data = loads(body)
    except ValueError as exc:
        return ParseFailure(raw_text=raw, category=ParseCategory.NOT_JSON, message=f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        return ParseFailure(
            raw_text=raw, category=ParseCategory.NOT_JSON,
            message=f"top-level JSON value is {type(data).__name__}, expected an object",
        )

    try:
        stem = _first_key(data, _STEM_KEYS)
        if stem is None:
            raise McqValidationError(ParseCategory.MISSING_FIELD, "missing stem/question field")
        options_payload = _first_key(data, _OPTIONS_KEYS)
        if options_payload is None:
            raise McqValidationError(ParseCategory.MISSING_FIELD, "missing options field")
        options = _coerce_options(options_payload)
        answer_payload = _first_key(data, _ANSWER_KEYS)
        if answer_payload is None:
            raise McqValidationError(ParseCategory.MISSING_FIELD, "missing answer field")
        explanation = _first_key(data, _EXPLANATION_KEYS)
        if not isinstance(explanation, str):
            explanation = ""
        return Mcq(stem=stem, options=options, answer_key=_coerce_answer(answer_payload, options),
                   explanation=explanation)
    except McqValidationError as exc:
        return ParseFailure(raw_text=raw, category=exc.category, message=str(exc))
