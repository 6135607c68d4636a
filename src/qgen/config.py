"""Run configuration: defaults, JSON config files and flag overrides.

Precedence is flag > file > default. Flags and file values merge into one
dict, which passes one set of type and range checks. The fully resolved
configuration is echoed into the workdir so every run leaves one
reproducible artifact describing exactly what it did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .chunking import DEFAULT_UNIT_KEYWORDS
from .errors import InputError
from .evaluate import DEFAULT_REFUSAL_MARKERS
from .generate import METHOD_ORDER, Method
from .jsonio import encodable, read_json

_METHOD_ALIASES = {
    "structured": Method.STRUCTURED_PROMPT,
    "structured_prompt": Method.STRUCTURED_PROMPT,
    "basic": Method.BASIC_PROMPT,
    "basic_prompt": Method.BASIC_PROMPT,
    "rag_generic": Method.RAG_GENERIC,
    "rag_structure": Method.RAG_STRUCTURE_AWARE,
    "rag_structure_aware": Method.RAG_STRUCTURE_AWARE,
}


def parse_method(name: str) -> Method:
    key = name.strip().lower()
    if key not in _METHOD_ALIASES:
        raise InputError(f"unknown method {name!r}; valid: {sorted(_METHOD_ALIASES)}")
    return _METHOD_ALIASES[key]


def parse_methods(names) -> tuple[Method, ...]:
    """Methods by name or alias, each kept once, in first-occurrence order."""
    return tuple(dict.fromkeys(parse_method(n) for n in names))


@dataclass(frozen=True)
class PathsConfig:
    knowledge_blocks: str = ""
    standards_blocks: str = ""
    workdir: str = "workdir"


@dataclass(frozen=True)
class ChunkingConfig:
    recursive_max_chars: int = 1000
    recursive_overlap: int = 200
    structure_heading_font_delta: float = 3.0
    structure_max_chars: int = 1500
    unit_keywords: tuple[str, ...] = DEFAULT_UNIT_KEYWORDS

    def __post_init__(self):
        # Block text holds no whitespace run longer than two characters, so a
        # window of three or more never leaves a chunk of whitespace alone.
        if self.recursive_max_chars < 3:
            raise InputError(f"chunking.recursive_max_chars must be >= 3, got {self.recursive_max_chars}")
        if not 0 <= self.recursive_overlap < self.recursive_max_chars:
            raise InputError(f"chunking.recursive_overlap must be within [0, recursive_max_chars), "
                             f"got {self.recursive_overlap} with recursive_max_chars {self.recursive_max_chars}")
        if self.structure_max_chars < 1:
            raise InputError(f"chunking.structure_max_chars must be >= 1, got {self.structure_max_chars}")


@dataclass(frozen=True)
class ProviderConfig:
    mock: bool = True
    chat_endpoint: str = ""
    chat_model: str = ""
    embed_endpoint: str = ""
    embed_model: str = ""
    api_key_env: str = "QGEN_API_KEY"
    max_retries: int = 3
    backoff_base: float = 0.5
    max_in_flight: int = 4
    mock_dim: int = 64
    mock_malformed_rate: float = 0.0

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise InputError(f"provider.max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.max_retries < 0:
            raise InputError(f"provider.max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise InputError(f"provider.backoff_base must be >= 0, got {self.backoff_base}")
        if self.mock_dim < 2:
            raise InputError(f"provider.mock_dim must be >= 2, got {self.mock_dim}")
        if not 0 <= self.mock_malformed_rate <= 1:
            raise InputError(f"provider.mock_malformed_rate must be within [0, 1], got {self.mock_malformed_rate}")


@dataclass(frozen=True)
class GenerationConfig:
    methods: tuple[Method, ...] = METHOD_ORDER
    n_per_method: int = 5
    temperature: float = 0.7
    topic: str = "Nombor Nisbah"
    retrieval_k: int = 3

    def __post_init__(self):
        if not self.methods:
            raise InputError("generation.methods must name at least one method")
        if self.n_per_method < 1:
            raise InputError(f"generation.n_per_method must be >= 1, got {self.n_per_method}")
        # The sampling range of the OpenAI chat API, which serves the paper's GPT-4o.
        if not 0 <= self.temperature <= 2:
            raise InputError(f"generation.temperature must be within [0, 2], got {self.temperature}")
        if self.retrieval_k < 1:
            raise InputError(f"generation.retrieval_k must be >= 1, got {self.retrieval_k}")


@dataclass(frozen=True)
class EvaluationConfig:
    tau: float = 0.5
    k: int = 3
    sts_unit: str = "stem"
    refusal_markers: tuple[str, ...] = DEFAULT_REFUSAL_MARKERS

    def __post_init__(self):
        if not 0 <= self.tau <= 1:
            raise InputError(f"evaluation.tau must be within [0, 1], got {self.tau}")
        if self.k < 1:
            raise InputError(f"evaluation.k must be >= 1, got {self.k}")
        if self.sts_unit not in ("stem", "full"):
            raise InputError(f"evaluation.sts_unit must be 'stem' or 'full', got {self.sts_unit!r}")


@dataclass(frozen=True)
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    report_format: str = "markdown"

    def __post_init__(self):
        if self.report_format not in ("markdown", "json"):
            raise InputError(f"report_format must be 'markdown' or 'json', got {self.report_format!r}")


_NOT_BLANK = ("generation.topic", "chunking.unit_keywords", "evaluation.refusal_markers")


def _checked(name: str, value, default):
    """``value`` if it has the JSON type of ``default``; a list setting comes back as a tuple."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        # An int stays an int, so the resolved config echoes the file's bytes.
        # A flag such as --tau nan reaches here through argparse's float.
        finite = isinstance(value, float) and math.isfinite(value)
        ok, kind = finite or isinstance(value, int) and not isinstance(value, bool), "a finite number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:
        ok, kind = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value), "a list of strings"
    if not ok:
        raise InputError(f"{name} must be {kind}, got {value!r}")
    # Every setting is echoed into the workdir, whose codec writes only UTF-8;
    # an undecodable command-line byte arrives as a lone surrogate.
    texts = [value] if isinstance(default, str) else value if isinstance(default, tuple) else []
    if not all(map(encodable, texts)):
        raise InputError(f"{name} must be UTF-8 text, without lone surrogates, got {value!r}")
    # A blank marker is in every answer, and a blank keyword opens a unit at every block.
    if name in _NOT_BLANK and not all(text.strip() for text in texts):
        raise InputError(f"{name} must not be blank, got {value!r}")
    if name == "generation.methods":
        return parse_methods(value)
    return tuple(value) if isinstance(default, tuple) else value


def _from_dict(cls, data, prefix: str):
    """Build ``cls`` from ``data``, checking each key against the type of its default."""
    if not isinstance(data, dict):
        raise InputError(f"config {prefix.rstrip('.') or 'top level'} must be an object")
    defaults = cls()
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise InputError(f"unknown config key {prefix}{key}")
        default = getattr(defaults, key)
        if is_dataclass(default):
            kwargs[key] = _from_dict(type(default), value, f"{prefix}{key}.")
        else:
            kwargs[key] = _checked(f"{prefix}{key}", value, default)
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data, "")


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file, or the defaults when ``path`` is None, with ``overrides`` laid over it.

    ``overrides`` maps section names to the keys they set, as the file does.
    Both pass the same checks. Relative input-document paths are resolved
    against the config file's directory, so a config shipped inside a repo
    works from any cwd; the workdir stays relative to the cwd.
    """
    data = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise InputError(f"config file not found: {path}")
        try:
            data = read_json(path)
        except ValueError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict):
        for section, values in (overrides or {}).items():
            given = data.get(section, {})
            data[section] = {**given, **values} if isinstance(given, dict) else given
    cfg = config_from_dict(data)
    if path is None:
        return cfg
    base = path.resolve().parent
    resolved = {}
    for key in ("knowledge_blocks", "standards_blocks"):
        value = getattr(cfg.paths, key)
        if value and not Path(value).is_absolute():
            resolved[key] = str(base / value)
    if resolved:
        cfg = replace(cfg, paths=replace(cfg.paths, **resolved))
    return cfg
