from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.jsonio import dumps, loads
from qgen.mcq import Mcq, McqOption, ParseCategory, ParseFailure, _squash_ws, parse_mcq_json
from tests.malformed_corpus import MALFORMED_CASES, _mcq

VALID_JSON = json.dumps({
    "stem": "Apakah hasil 5 + (-3)?",
    "options": [
        {"label": "A", "text": "8"},
        {"label": "B", "text": "2"},
        {"label": "C", "text": "-2"},
        {"label": "D", "text": "-8"},
    ],
    "answer_key": "B",
    "explanation": "Gerak tiga unit ke kiri.",
}, ensure_ascii=False)


def test_valid_json_parses():
    mcq = parse_mcq_json(VALID_JSON)
    assert isinstance(mcq, Mcq)
    assert mcq.answer_key == "B"
    assert mcq.stem == "Apakah hasil 5 + (-3)?"
    assert [o.label for o in mcq.options] == ["A", "B", "C", "D"]


def test_fenced_json_parses_identically():
    fenced = f"```json\n{VALID_JSON}\n```"
    assert parse_mcq_json(fenced) == parse_mcq_json(VALID_JSON)


def test_bare_fence_without_language_tag():
    fenced = f"```\n{VALID_JSON}\n```"
    assert isinstance(parse_mcq_json(fenced), Mcq)


def test_question_key_alias():
    payload = json.loads(VALID_JSON)
    payload["question"] = payload.pop("stem")
    assert isinstance(parse_mcq_json(json.dumps(payload)), Mcq)


def test_options_as_plain_array():
    payload = json.loads(VALID_JSON)
    payload["options"] = ["8", "2", "-2", "-8"]
    mcq = parse_mcq_json(json.dumps(payload))
    assert isinstance(mcq, Mcq)
    texts = {o.label: o.text for o in mcq.options}
    assert texts["A"] == "8"
    assert texts["D"] == "-8"


def test_options_as_label_map():
    payload = json.loads(VALID_JSON)
    payload["options"] = {"A": "8", "B": "2", "C": "-2", "D": "-8"}
    mcq = parse_mcq_json(json.dumps(payload))
    assert isinstance(mcq, Mcq)
    assert {o.label: o.text for o in mcq.options}["B"] == "2"


def test_answer_as_option_text():
    payload = json.loads(VALID_JSON)
    payload["answer_key"] = "-2"
    mcq = parse_mcq_json(json.dumps(payload))
    assert isinstance(mcq, Mcq)
    assert mcq.answer_key == "C"


def test_answer_with_trailing_punctuation():
    payload = json.loads(VALID_JSON)
    payload["answer_key"] = "b)"
    mcq = parse_mcq_json(json.dumps(payload))
    assert isinstance(mcq, Mcq)
    assert mcq.answer_key == "B"


def test_three_options_bad_count():
    payload = json.loads(VALID_JSON)
    payload["options"] = payload["options"][:3]
    result = parse_mcq_json(json.dumps(payload))
    assert isinstance(result, ParseFailure)
    assert result.category is ParseCategory.BAD_OPTION_COUNT


def test_truncated_json_not_json():
    result = parse_mcq_json(VALID_JSON[:-10])
    assert isinstance(result, ParseFailure)
    assert result.category is ParseCategory.NOT_JSON


@pytest.mark.parametrize("raw,expected", MALFORMED_CASES, ids=range(len(MALFORMED_CASES)))
def test_malformed_corpus_categories(raw, expected):
    result = parse_mcq_json(raw)
    assert isinstance(result, ParseFailure)
    assert result.category is expected
    assert result.raw_text == raw


def test_mcq_invariants_enforced_on_construction():
    options = tuple(McqOption(l, t) for l, t in zip("ABCD", ["a", "b", "c", "d"]))
    with pytest.raises(ValueError):
        Mcq(stem="", options=options, answer_key="A")
    with pytest.raises(ValueError):
        Mcq(stem="s", options=options[:3], answer_key="A")
    with pytest.raises(ValueError):
        Mcq(stem="s", options=options, answer_key="E")
    dup = tuple(McqOption(l, "x") for l in "ABCD")
    with pytest.raises(ValueError):
        Mcq(stem="s", options=dup, answer_key="A")


def test_mcq_constructor_strips_the_stem():
    options = tuple(McqOption(l, t) for l, t in zip("ABCD", ["a", "b", "c", "d"]))
    assert Mcq(stem="  Apakah integer?\n", options=options, answer_key="A").stem == "Apakah integer?"


_DUPLICATES = [{"label": l, "text": t} for l, t in zip("ABCD", ["x", "x", "c", "d"])]
_BLANK_A = [{"label": l, "text": t} for l, t in zip("ABCD", ["", "b", "c", "d"])]


# Inputs with several faults: the stem first, then the option count and
# labels, then the answer key, then the option texts.
@pytest.mark.parametrize("raw, category, message", [
    (_mcq(stem="", options=["a", "b", "c"]), ParseCategory.MISSING_FIELD, "stem must be a non-empty string"),
    (_mcq(options=["a", "b", "c"], answer="E"), ParseCategory.BAD_OPTION_COUNT, "expected 4 options, got 3"),
    (_mcq(options=["a", "b", "c", "d", "e"]), ParseCategory.BAD_OPTION_COUNT, "expected 4 options, got 5"),
    (_mcq(options=_DUPLICATES, answer="E"), ParseCategory.ANSWER_NOT_IN_OPTIONS,
     "answer 'E' matches no option label or text"),
    (_mcq(options=_BLANK_A, answer="tiada"), ParseCategory.ANSWER_NOT_IN_OPTIONS,
     "answer 'tiada' matches no option label or text"),
    (_mcq(options=_DUPLICATES, answer="x"), ParseCategory.DUPLICATE_OPTION, "duplicate option text(s): ['x']"),
    (_mcq(answer=2), ParseCategory.ANSWER_NOT_IN_OPTIONS, "answer 2 matches no option label or text"),
    (_mcq(answer=["B"]), ParseCategory.ANSWER_NOT_IN_OPTIONS, "answer ['B'] matches no option label or text"),
], ids=["blank_stem_3_options", "3_options_bad_answer", "5_options", "duplicates_bad_answer",
        "blank_option_bad_answer", "duplicates_answered_by_text", "int_answer", "list_answer"])
def test_one_diagnostic_per_input(raw, category, message):
    assert parse_mcq_json(raw) == ParseFailure(raw_text=raw, category=category, message=message)


def test_mcq_serialization_round_trip():
    mcq = parse_mcq_json(VALID_JSON)
    row = loads(dumps(mcq))
    # The tag is written with the fields; the constructor does not take it.
    assert row.pop("kind") == "mcq"
    assert Mcq(**row) == mcq


def test_parse_failure_serialization_round_trip():
    failure = parse_mcq_json("prose only")
    row = loads(dumps(failure))
    assert row.pop("kind") == "parse_failure"
    assert ParseFailure(**row) == failure


# Every whitespace character there is (none lies past U+3000), plus some that are not.
_ALPHABET = [c for c in map(chr, range(0x3001)) if c.isspace()] + list("a.\u200b\xad")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(_ALPHABET) | st.characters(), max_size=30))
def test_squash_ws_equals_regex_reference(text):
    assert _squash_ws(text) == re.sub(r"\s+", " ", text).strip()
