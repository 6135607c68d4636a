from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from qgen.cli import _build_parser, resolve_config
from qgen.config import RunConfig, config_from_dict, load_config, parse_method
from qgen.errors import ConfigError
from qgen.generate import METHOD_ORDER, Method


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
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"paths": {}, "surprise": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="chunking.max_tokens"):
        config_from_dict({"chunking": {"max_tokens": 512}})


def test_method_aliases():
    assert parse_method("structured") is Method.STRUCTURED_PROMPT
    assert parse_method("rag_structure") is Method.RAG_STRUCTURE_AWARE
    assert parse_method("RAG_GENERIC") is Method.RAG_GENERIC
    with pytest.raises(ConfigError):
        parse_method("quantum")


def flags(*argv: str) -> RunConfig:
    return resolve_config(_build_parser().parse_args(["run-all", *argv]))


def test_repeated_methods_kept_once_in_first_order():
    cfg = config_from_dict({"generation": {"methods": ["basic", "rag_generic", "basic_prompt", "BASIC"]}})
    assert cfg.generation.methods == (Method.BASIC_PROMPT, Method.RAG_GENERIC)
    cfg = load_config(None, {"generation": {"methods": ["structured", "basic", "structured_prompt"]}})
    assert cfg.generation.methods == (Method.STRUCTURED_PROMPT, Method.BASIC_PROMPT)


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
    with pytest.raises(ConfigError):
        load_config(None, {"generation": {"n_per_method": 0}})
    with pytest.raises(ConfigError):
        load_config(None, {"evaluation": {"tau": 1.5}})
    with pytest.raises(ConfigError):
        load_config(None, {"evaluation": {"k": 0}})


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
])
def test_bad_values_refused_naming_the_setting(tmp_path, section, key, value, flag):
    setting = re.escape(f"{section}.{key} must")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=setting):
        load_config(config)
    if flag:
        with pytest.raises(ConfigError, match=setting):
            flags(*flag)


@pytest.mark.parametrize("value", [7, 7.5, True, None, ["a", 1], {"a": 1}])
def test_each_setting_takes_only_the_json_type_of_its_default(value):
    defaults = RunConfig().to_dict()
    for section, keys in defaults.items():
        if not isinstance(keys, dict):
            continue
        for key, default in keys.items():
            number = type(default) in (int, float) and type(value) in (int, float)
            if type(value) is type(default) or (isinstance(default, float) and number):
                continue
            with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must")):
                config_from_dict({section: {key: value}})


def test_float_setting_keeps_an_int_as_given():
    cfg = config_from_dict({"evaluation": {"tau": 1}, "provider": {"backoff_base": 0}})
    assert type(cfg.evaluation.tau) is int and cfg.evaluation.tau == 1
    assert cfg.to_dict()["provider"]["backoff_base"] == 0


def test_non_object_section_refused_with_or_without_overrides(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"evaluation": 5}))
    for overrides in (None, {"evaluation": {"tau": 0.3}}):
        with pytest.raises(ConfigError, match="config evaluation must be an object"):
            load_config(config, overrides)
    with pytest.raises(ConfigError, match="config top level must be an object"):
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
    with pytest.raises(ConfigError):
        config_from_dict({"report_format": "pdf"})


def test_to_dict_round_trip():
    cfg = config_from_dict({
        "generation": {"methods": ["basic", "rag_structure"], "n_per_method": 3},
        "evaluation": {"tau": 0.4},
    })
    assert config_from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("key, value", [
    ("max_in_flight", 0), ("max_in_flight", -1),
    ("max_retries", -1), ("backoff_base", -1),
])
def test_provider_numbers_validated(key, value):
    with pytest.raises(ConfigError, match=f"provider.{key}"):
        config_from_dict({"provider": {key: value}})
