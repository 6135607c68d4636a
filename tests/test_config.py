from __future__ import annotations

import json

import pytest

from qgen.config import RunConfig, apply_flags, config_from_dict, load_config, parse_method
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


def test_repeated_methods_kept_once_in_first_order():
    cfg = config_from_dict({"generation": {"methods": ["basic", "rag_generic", "basic_prompt", "BASIC"]}})
    assert cfg.generation.methods == (Method.BASIC_PROMPT, Method.RAG_GENERIC)
    cfg = apply_flags(cfg, methods=["structured", "basic", "structured_prompt"])
    assert cfg.generation.methods == (Method.STRUCTURED_PROMPT, Method.BASIC_PROMPT)


def test_flag_precedence_over_file():
    cfg = config_from_dict({"generation": {"n_per_method": 50}, "evaluation": {"tau": 0.9}})
    cfg = apply_flags(cfg, n=7, tau=0.2, methods=["basic"], workdir="elsewhere")
    assert cfg.generation.n_per_method == 7
    assert cfg.evaluation.tau == 0.2
    assert cfg.generation.methods == (Method.BASIC_PROMPT,)
    assert cfg.paths.workdir == "elsewhere"


def test_flag_validation():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        apply_flags(cfg, n=0)
    with pytest.raises(ConfigError):
        apply_flags(cfg, tau=1.5)
    with pytest.raises(ConfigError):
        apply_flags(cfg, k=0)


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
