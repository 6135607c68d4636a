from __future__ import annotations

import json
import math
import re
from dataclasses import is_dataclass
from pathlib import Path

import pytest

from qgen.cli import COMMANDS, _build_parser, resolve_config
from qgen.config import RunConfig, config_from_dict, load_config, parse_method
from qgen.errors import InputError
from qgen.generate import METHOD_ORDER, Method
from qgen.jsonio import dumps, fields_of, loads
from tests.conftest import FIXTURES


def test_defaults():
    cfg = RunConfig()
    assert cfg.provider.mock is True
    assert cfg.chunking.recursive_max_chars == 1000
    assert cfg.chunking.recursive_overlap == 200
    assert cfg.chunking.structure_heading_font_delta == 3.0
    assert cfg.chunking.structure_max_chars == 1500
    assert cfg.generation.methods == METHOD_ORDER
    assert cfg.generation.temperature == 0.7
    assert cfg.evaluation.tau == 0.5
    assert cfg.evaluation.sts_unit == "stem"
    assert cfg.provider.api_key_env == "QGEN_API_KEY"


def test_load_none_gives_defaults():
    assert load_config(None) == RunConfig()


def test_unknown_top_level_key_rejected():
    with pytest.raises(InputError, match="unknown config key"):
        config_from_dict({"paths": {}, "surprise": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(InputError, match="chunking.max_tokens"):
        config_from_dict({"chunking": {"max_tokens": 512}})


def test_method_aliases():
    assert parse_method("structured") is Method.STRUCTURED_PROMPT
    assert parse_method("rag_structure") is Method.RAG_STRUCTURE_AWARE
    assert parse_method("RAG_GENERIC") is Method.RAG_GENERIC
    with pytest.raises(InputError, match="unknown method 'quantum'"):
        parse_method("quantum")


def flags(*argv: str) -> RunConfig:
    return resolve_config(_build_parser().parse_args(["run-all", *argv]))


def test_repeated_methods_kept_once_in_first_order():
    cfg = config_from_dict({"generation": {"methods": ["basic", "rag_generic", "basic_prompt", "BASIC"]}})
    assert cfg.generation.methods == (Method.BASIC_PROMPT, Method.RAG_GENERIC)
    cfg = load_config(None, {"generation": {"methods": ["structured", "basic", "structured_prompt"]}})
    assert cfg.generation.methods == (Method.STRUCTURED_PROMPT, Method.BASIC_PROMPT)


QUICKSTART = str(FIXTURES / "mock_config.json")


# The README quickstart commands and the bench's stage call, each with what
# it resolves to: (command, methods, n_per_method, tau, k, workdir, mock).
@pytest.mark.parametrize("argv, expected", [
    (["run-all", "--config", QUICKSTART], ("run-all", METHOD_ORDER, 6, 0.35, 3, "workdir", True)),
    (["ingest", "--config", QUICKSTART], ("ingest", METHOD_ORDER, 6, 0.35, 3, "workdir", True)),
    (["index", "--config", QUICKSTART], ("index", METHOD_ORDER, 6, 0.35, 3, "workdir", True)),
    (["generate", "--config", QUICKSTART, "--methods", "rag_structure", "--n", "10"],
     ("generate", (Method.RAG_STRUCTURE_AWARE,), 10, 0.35, 3, "workdir", True)),
    (["evaluate", "--config", QUICKSTART, "--tau", "0.4"],
     ("evaluate", METHOD_ORDER, 6, 0.4, 3, "workdir", True)),
    (["report", "--config", QUICKSTART], ("report", METHOD_ORDER, 6, 0.35, 3, "workdir", True)),
    (["evaluate", "--config", QUICKSTART, "--workdir", "bench/w", "--tau", "0.35"],
     ("evaluate", METHOD_ORDER, 6, 0.35, 3, "bench/w", True)),
    (["--k", "7", "report", "--mock"], ("report", METHOD_ORDER, 5, 0.5, 7, "workdir", True)),
])
def test_argv_resolves_with_options_on_either_side_of_the_command(argv, expected):
    command = next(arg for arg in argv if arg in COMMANDS)
    options = [arg for arg in argv if arg != command]
    for order in (argv, [command, *options], [*options, command]):
        args = _build_parser().parse_args(order)
        cfg = resolve_config(args)
        assert (args.command, cfg.generation.methods, cfg.generation.n_per_method, cfg.evaluation.tau,
                cfg.evaluation.k, cfg.paths.workdir, cfg.provider.mock) == expected, order
        if args.config:
            assert cfg.paths.knowledge_blocks == str(FIXTURES / "nota_mini.blocks.json")


def test_flag_precedence_over_file(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"generation": {"n_per_method": 50, "topic": "Pecahan"},
                                  "evaluation": {"tau": 0.9}}))
    cfg = flags("--config", str(config), "--n", "7", "--tau", "0.2", "--methods", "basic",
                "--workdir", "elsewhere")
    assert cfg.generation.n_per_method == 7
    assert cfg.evaluation.tau == 0.2
    assert cfg.generation.methods == (Method.BASIC_PROMPT,)
    assert cfg.paths.workdir == "elsewhere"
    assert cfg.generation.topic == "Pecahan"


def test_flag_validation():
    with pytest.raises(InputError, match="generation.n_per_method must be >= 1"):
        load_config(None, {"generation": {"n_per_method": 0}})
    with pytest.raises(InputError, match=r"evaluation.tau must be within \[0, 1\]"):
        load_config(None, {"evaluation": {"tau": 1.5}})
    with pytest.raises(InputError, match="evaluation.k must be >= 1"):
        load_config(None, {"evaluation": {"k": 0}})


def _strict_json(value) -> bool:
    """Whether ``value`` has a strict JSON text: no non-finite float, no lone surrogate."""
    if isinstance(value, float):
        return math.isfinite(value)
    texts = value if isinstance(value, list) else [value] if isinstance(value, str) else []
    return all(not any(0xD800 <= ord(c) <= 0xDFFF for c in text) for text in texts)


# Each value is refused from the file and, where a flag sets the same key, from the flag.
@pytest.mark.parametrize("section, key, value, flag", [
    ("evaluation", "sts_unit", "Full", None),
    ("evaluation", "k", 0, ["--k", "0"]),
    ("generation", "retrieval_k", 0, None),
    ("generation", "n_per_method", "5", None),
    ("generation", "n_per_method", 0, ["--n", "0"]),
    ("evaluation", "tau", 7, ["--tau", "7"]),
    ("evaluation", "refusal_markers", "tidak", None),
    ("provider", "mock", "false", None),
    ("chunking", "unit_keywords", "Contoh", None),
    ("generation", "methods", [], None),
    ("provider", "backoff_base", math.nan, None),
    ("chunking", "structure_heading_font_delta", math.inf, None),
    ("provider", "mock_malformed_rate", -math.inf, None),
    ("evaluation", "tau", math.nan, ["--tau", "nan"]),
    ("generation", "temperature", -5.0, None),
    ("generation", "temperature", 2.5, None),
    ("generation", "topic", "Nombor \ud800", None),
    ("evaluation", "refusal_markers", ["tidak", "\ud800"], None),
    ("paths", "workdir", "out\udcff", ["--workdir", "out\udcff"]),
    ("generation", "topic", " \t", None),
    ("evaluation", "refusal_markers", ["tidak", ""], None),
    ("evaluation", "refusal_markers", [" "], None),
    ("chunking", "unit_keywords", ["Contoh", "\n"], None),
    ("provider", "mock_dim", 1, None),
    ("provider", "mock_malformed_rate", 1.5, None),
    ("provider", "mock_malformed_rate", -0.5, None),
    ("chunking", "recursive_max_chars", 0, None),
    ("chunking", "recursive_overlap", 1000, None),
    ("chunking", "recursive_overlap", -1, None),
    ("chunking", "structure_max_chars", 0, None),
])
def test_bad_values_refused_naming_the_setting(tmp_path, section, key, value, flag):
    setting = re.escape(f"{section}.{key} must")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({section: {key: value}}))
    if _strict_json(value):
        with pytest.raises(InputError, match=setting):
            load_config(config)
    else:
        # json.dumps writes NaN, Infinity or a lone-surrogate escape, which the
        # file's strict reader refuses before any setting is looked at.
        with pytest.raises(InputError, match=r"run\.json: invalid JSON: .* line 1 column \d+"):
            load_config(config)
        with pytest.raises(InputError, match=setting):
            config_from_dict({section: {key: value}})
    if flag:
        with pytest.raises(InputError, match=setting):
            flags(*flag)


def test_empty_lists_stay_legal():
    cfg = config_from_dict({"evaluation": {"refusal_markers": []}, "chunking": {"unit_keywords": []}})
    assert cfg.evaluation.refusal_markers == () and cfg.chunking.unit_keywords == ()


@pytest.mark.parametrize("value", [7, 7.5, True, None, ["a", 1], {"a": 1}])
def test_each_setting_takes_only_the_json_type_of_its_default(value):
    # fields_of keeps each default as its Python value, so a tuple setting stays a tuple.
    sections = {s: fields_of(v) for s, v in fields_of(RunConfig()).items() if is_dataclass(v)}
    for section, keys in sections.items():
        for key, default in keys.items():
            number = type(default) in (int, float) and type(value) in (int, float)
            if type(value) is type(default) or (isinstance(default, float) and number):
                continue
            with pytest.raises(InputError, match=re.escape(f"{section}.{key} must")):
                config_from_dict({section: {key: value}})


def test_float_setting_keeps_an_int_as_given():
    cfg = config_from_dict({"evaluation": {"tau": 1}, "provider": {"backoff_base": 0}})
    assert type(cfg.evaluation.tau) is int and cfg.evaluation.tau == 1
    assert loads(dumps(cfg))["provider"]["backoff_base"] == 0


def test_non_object_section_refused_with_or_without_overrides(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"evaluation": 5}))
    for overrides in (None, {"evaluation": {"tau": 0.3}}):
        with pytest.raises(InputError, match="config evaluation must be an object"):
            load_config(config, overrides)
    with pytest.raises(InputError, match="config top level must be an object"):
        config_from_dict([1])


def test_readme_configuration_block_is_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = re.search(r"```json\n(.*?)\n```", section, re.DOTALL).group(1)
    assert config_from_dict(json.loads(block)) == RunConfig()


def test_relative_input_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "conf"
    sub.mkdir()
    (sub / "k.blocks.json").write_text("{}")
    config = sub / "run.json"
    config.write_text(json.dumps({
        "paths": {"knowledge_blocks": "k.blocks.json",
                  "standards_blocks": "/abs/r.blocks.json",
                  "workdir": "out"},
    }))
    cfg = load_config(config)
    assert cfg.paths.knowledge_blocks == str(sub / "k.blocks.json")
    assert cfg.paths.standards_blocks == "/abs/r.blocks.json"
    assert cfg.paths.workdir == "out"


def test_report_format_validation():
    with pytest.raises(InputError, match="report_format must be 'markdown' or 'json'"):
        config_from_dict({"report_format": "pdf"})


def test_to_dict_round_trip():
    cfg = config_from_dict({
        "generation": {"methods": ["basic", "rag_structure"], "n_per_method": 3},
        "evaluation": {"tau": 0.4},
    })
    assert config_from_dict(loads(dumps(cfg))) == cfg


@pytest.mark.parametrize("key, value", [
    ("max_in_flight", 0), ("max_in_flight", -1),
    ("max_retries", -1), ("backoff_base", -1),
])
def test_provider_numbers_validated(key, value):
    with pytest.raises(InputError, match=f"provider.{key}"):
        config_from_dict({"provider": {key: value}})
