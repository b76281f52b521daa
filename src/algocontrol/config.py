"""Experiment configuration files: a flat INI-like format.

Three sections — [benchmark], [agent], [harness] — of ``key = value``
lines. ``#`` and ``;`` start comments. Unknown sections or keys are
rejected with the offending line number, as are type and range errors.
Each key names one field of ``BenchmarkConfig``, ``AgentHyperparams`` or
``ExperimentConfig`` (``FIELDS``), so every default lives in its dataclass.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .agents import AgentHyperparams
from .benchmarks import BenchmarkConfig
from .core import ConfigError
from .harness import ExperimentConfig

_SECTIONS = (
    (BenchmarkConfig, "benchmark"),
    (AgentHyperparams, "agent"),
    (ExperimentConfig, "harness"),
)
# Fields whose key is not their name in their dataclass's section.
_RENAMED = {
    "agent_kind": ("agent", "kind"),
    "n_episodes": ("harness", "episodes"),
    "master_seed": ("harness", "seed"),
    "n_train_instances": ("harness", "train_instances"),
    "n_test_instances": ("harness", "test_instances"),
    "output_path": ("harness", "output"),
}
# (section, key) -> (dataclass, field): the one table that parsing,
# --set overrides and rendering read.
FIELDS = {
    _RENAMED.get(f.name, (section, f.name)): (owner, f)
    for owner, section in _SECTIONS
    for f in fields(owner)
    if f.name not in ("benchmark", "hp")
}
_SECTION_NAMES = tuple(section for _, section in _SECTIONS)
_REQUIRED = (("benchmark", "kind"), ("agent", "kind"), ("harness", "episodes"))
# Benchmark keys that one benchmark kind alone reads; rendered for it only.
_KIND_ONLY = {"levels": "sigmoidmva", "fuzzy_mean": "fuzzy", "fuzzy_spread": "fuzzy"}
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _parse_lines(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTION_NAMES:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if (current, key) not in FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        sections[current][key] = (value.strip(), lineno)
    return sections


def _convert(section: str, key: str, kind: type, value: str, lineno: int):
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if kind is str:  # names are case-insensitive, an output path is not
            return value if key == "output" else value.lower()
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key {section}.{key} expects {kind.__name__}, got {value!r}"
        ) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config file. A key left out takes its
    default, as ``ExperimentConfig.validated()`` resolves it."""
    sections = _parse_lines(text)
    for section, key in _REQUIRED:
        if key not in sections.get(section, {}):
            raise ConfigError(f"missing required key {section}.{key}")
    values: dict[type, dict] = {owner: {} for owner, _ in _SECTIONS}
    for (section, key), (owner, f) in FIELDS.items():
        entry = sections.get(section, {}).get(key)
        if entry is not None:
            values[owner][f.name] = _convert(section, key, _TYPES[f.type], *entry)
    benchmark = BenchmarkConfig(**values[BenchmarkConfig])
    # canonicalize so render/parse round-trips exactly
    benchmark = replace(benchmark, horizon=benchmark.resolved_horizon)
    cfg = ExperimentConfig(benchmark=benchmark, **values[ExperimentConfig]).validated()
    if cfg.train_eval_every > cfg.n_episodes:  # the run would have no curve to report
        raise ConfigError("harness.train_eval_every must be <= harness.episodes")
    return replace(cfg, hp=replace(cfg.hp, **values[AgentHyperparams]))


def apply_overrides(text: str, overrides: list[str]) -> str:
    """Apply ``section.key=value`` overrides on top of config text."""
    lines = text.splitlines()
    for item in overrides:
        target, sep, value = item.partition("=")
        if not sep or "." not in target:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        section, _, key = target.partition(".")
        section = section.strip().lower()
        key = key.strip().lower()
        if section not in _SECTION_NAMES:
            raise ConfigError(f"override names unknown section {section!r}")
        if (section, key) not in FIELDS:
            raise ConfigError(f"override names unknown key {key!r} in [{section}]")
        lines = _set_key(lines, section, key, value.strip())
    return "\n".join(lines) + "\n"


def _set_key(lines: list[str], section: str, key: str, value: str) -> list[str]:
    out: list[str] = []
    in_section = False
    placed = False
    for line in lines:
        stripped = line.split("#", 1)[0].split(";", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if in_section and not placed:
                out.append(f"{key} = {value}")
                placed = True
            in_section = stripped[1:-1].strip().lower() == section
            out.append(line)
            continue
        if in_section and stripped and "=" in stripped:
            existing = stripped.partition("=")[0].strip().lower()
            if existing == key:
                out.append(f"{key} = {value}")
                placed = True
                continue
        out.append(line)
    if not placed:
        if not in_section:
            out.append(f"[{section}]")
        out.append(f"{key} = {value}")
    return out


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config; parse_config round-trips it."""
    cfg = cfg.validated()
    bench = replace(cfg.benchmark, horizon=cfg.benchmark.resolved_horizon)
    objects = {BenchmarkConfig: bench, AgentHyperparams: cfg.hp, ExperimentConfig: cfg}
    blocks = []
    for section in _SECTION_NAMES:
        block = [f"[{section}]"]
        keys = sorted((k for s, k in FIELDS if s == section), key=lambda k: k != "kind")
        for key in keys:
            owner, f = FIELDS[section, key]
            value = getattr(objects[owner], f.name)
            if key in _KIND_ONLY and _KIND_ONLY[key] != bench.kind or value == "":
                continue
            block.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
        blocks.append("\n".join(block))
    return "\n\n".join(blocks) + "\n"
