"""Run configuration: defaults, JSON config files and flag overrides.

Precedence is flag > file > default. The fully resolved configuration is
echoed into the workdir so every run leaves one reproducible artifact
describing exactly what it did.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .chunking import DEFAULT_UNIT_KEYWORDS
from .errors import ConfigError
from .evaluate import DEFAULT_REFUSAL_MARKERS
from .generate import METHOD_ORDER, Method

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
        raise ConfigError(f"unknown method {name!r}; valid: {sorted(_METHOD_ALIASES)}")
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
            raise ConfigError(f"provider.max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.max_retries < 0:
            raise ConfigError(f"provider.max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ConfigError(f"provider.backoff_base must be >= 0, got {self.backoff_base}")


@dataclass(frozen=True)
class GenerationConfig:
    methods: tuple[Method, ...] = METHOD_ORDER
    n_per_method: int = 5
    temperature: float = 0.7
    topic: str = "Nombor Nisbah"
    retrieval_k: int = 3


@dataclass(frozen=True)
class EvaluationConfig:
    tau: float = 0.5
    k: int = 3
    sts_unit: str = "stem"
    refusal_markers: tuple[str, ...] = DEFAULT_REFUSAL_MARKERS


@dataclass(frozen=True)
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    report_format: str = "markdown"

    def to_dict(self) -> dict:
        data = asdict(self)
        data["generation"]["methods"] = [m.value for m in self.generation.methods]
        return data


def _merge_section(defaults, data: dict, path: str, **coercions):
    kwargs = {}
    for key, value in data.items():
        if not hasattr(defaults, key):
            raise ConfigError(f"unknown config key {path}.{key}")
        kwargs[key] = coercions[key](value) if key in coercions else value
    try:
        return replace(defaults, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in config section {path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config top level must be an object")
    cfg = RunConfig()
    known = {"paths", "chunking", "provider", "generation", "evaluation", "report_format"}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    sections: dict = {}
    if "paths" in data:
        sections["paths"] = _merge_section(cfg.paths, data["paths"], "paths")
    if "chunking" in data:
        sections["chunking"] = _merge_section(
            cfg.chunking, data["chunking"], "chunking",
            unit_keywords=tuple,
        )
    if "provider" in data:
        sections["provider"] = _merge_section(cfg.provider, data["provider"], "provider")
    if "generation" in data:
        sections["generation"] = _merge_section(
            cfg.generation, data["generation"], "generation",
            methods=parse_methods,
        )
    if "evaluation" in data:
        sections["evaluation"] = _merge_section(
            cfg.evaluation, data["evaluation"], "evaluation",
            refusal_markers=tuple,
        )
    if "report_format" in data:
        if data["report_format"] not in ("markdown", "json"):
            raise ConfigError(f"report_format must be 'markdown' or 'json', got {data['report_format']!r}")
        sections["report_format"] = data["report_format"]
    return replace(cfg, **sections)


def load_config(path: str | Path | None) -> RunConfig:
    """Load a JSON config file, or the full default set when ``path`` is None.

    Relative input-document paths are resolved against the config file's
    directory, so a config shipped inside a repo works from any cwd; the
    workdir stays relative to the cwd.
    """
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    cfg = config_from_dict(data)
    base = path.resolve().parent
    resolved = {}
    for key in ("knowledge_blocks", "standards_blocks"):
        value = getattr(cfg.paths, key)
        if value and not Path(value).is_absolute():
            resolved[key] = str(base / value)
    if resolved:
        cfg = replace(cfg, paths=replace(cfg.paths, **resolved))
    return cfg


def apply_flags(
    cfg: RunConfig,
    *,
    mock: bool | None = None,
    n: int | None = None,
    methods: list[str] | None = None,
    tau: float | None = None,
    k: int | None = None,
    workdir: str | None = None,
) -> RunConfig:
    """Overlay command-line flags; only explicitly supplied flags override."""
    if mock:
        cfg = replace(cfg, provider=replace(cfg.provider, mock=True))
    if n is not None:
        if n < 1:
            raise ConfigError(f"--n must be >= 1, got {n}")
        cfg = replace(cfg, generation=replace(cfg.generation, n_per_method=n))
    if methods is not None:
        cfg = replace(cfg, generation=replace(cfg.generation, methods=parse_methods(methods)))
    if tau is not None:
        if not 0.0 <= tau <= 1.0:
            raise ConfigError(f"--tau must be within [0, 1], got {tau}")
        cfg = replace(cfg, evaluation=replace(cfg.evaluation, tau=tau))
    if k is not None:
        if k < 1:
            raise ConfigError(f"--k must be >= 1, got {k}")
        cfg = replace(cfg, evaluation=replace(cfg.evaluation, k=k))
    if workdir is not None:
        cfg = replace(cfg, paths=replace(cfg.paths, workdir=workdir))
    return cfg
