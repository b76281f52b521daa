"""Experiment configuration files: a flat INI-like format.

Three sections — [benchmark], [agent], [harness] — of ``key = value``
lines. ``#`` and ``;`` start a comment at the start of a line or after
whitespace, so ``output = res#1.csv`` keeps its ``#``. Unknown sections
or keys are rejected with the offending line number, as are type and
range errors and a key set twice in one section, even in two blocks of it.
Each key names one field of ``BenchmarkConfig``, ``AgentHyperparams`` or
``ExperimentConfig`` (``FIELDS``), so every default lives in its dataclass.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import fields, replace

from .agents import AgentHyperparams
from .benchmarks import ENVIRONMENTS, BenchmarkConfig
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
# overrides and rendering read.
FIELDS = {
    _RENAMED.get(f.name, (section, f.name)): (owner, f)
    for owner, section in _SECTIONS
    for f in fields(owner)
    if f.name not in ("benchmark", "hp")
}
_SECTION_NAMES = tuple(section for _, section in _SECTIONS)
_REQUIRED = (("benchmark", "kind"), ("agent", "kind"), ("harness", "episodes"))
# Benchmark keys that one benchmark kind alone reads; rendered for it only.
_KIND_ONLY = {key: kind for kind, env in ENVIRONMENTS.items() for key in env.params}
_COMMENT = re.compile(r"(?:^|\s)[#;]")
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _parse_lines(text: str, overrides: Iterable[str]) -> dict[tuple[str, str], tuple[str, str]]:
    """``(section, key) -> (value, where)`` of ``text``, then of each override."""
    table: dict[tuple[str, str], tuple[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTION_NAMES:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key, where = key.strip().lower(), f"line {lineno}"
        if (current, key) not in FIELDS:
            raise ConfigError(f"{where}: unknown key {key!r} in [{current}]")
        if (current, key) in table:
            first = table[current, key][1]
            raise ConfigError(f"{where}: {current}.{key} is already set on {first}")
        table[current, key] = (value.strip(), where)
    for item in overrides:
        target, sep, value = item.partition("=")
        entry = tuple(part.strip().lower() for part in target.split(".", 1))
        if not sep or len(entry) != 2:
            raise ConfigError(f"--set {item!r} must look like section.key=value")
        where = "--set " + ".".join(entry)
        if entry not in FIELDS:
            raise ConfigError(f"{where}: unknown key")
        table[entry] = (value.strip(), where)
    return table


def _convert(section: str, key: str, kind: type, value: str, where: str):
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
            f"{where}: key {section}.{key} expects {kind.__name__}, got {value!r}"
        ) from None


def parse_config(text: str, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Parse and fully validate a config file, then set each
    ``section.key=value`` override on it in turn; an override's value is
    verbatim but for surrounding whitespace, ``#`` and ``;`` included. A key
    left out takes its default, as ``ExperimentConfig.validated()`` resolves it."""
    table = _parse_lines(text, overrides)
    for section, key in _REQUIRED:
        if (section, key) not in table:
            raise ConfigError(f"missing required key {section}.{key}")
    values: dict[type, dict] = {owner: {} for owner, _ in _SECTIONS}
    for (section, key), (value, where) in table.items():
        owner, f = FIELDS[section, key]
        values[owner][f.name] = _convert(section, key, _TYPES[f.type], value, where)
    benchmark = BenchmarkConfig(**values[BenchmarkConfig])
    cfg = ExperimentConfig(benchmark=benchmark, **values[ExperimentConfig]).validated()
    if cfg.train_eval_every > cfg.n_episodes:  # the run would have no curve to report
        raise ConfigError("harness.train_eval_every must be <= harness.episodes")
    return replace(cfg, hp=replace(cfg.hp, **values[AgentHyperparams]))


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config; parse_config round-trips it."""
    cfg = cfg.validated()
    objects = {BenchmarkConfig: cfg.benchmark, AgentHyperparams: cfg.hp, ExperimentConfig: cfg}
    blocks = []
    for section in _SECTION_NAMES:
        block = [f"[{section}]"]
        keys = sorted((k for s, k in FIELDS if s == section), key=lambda k: k != "kind")
        for key in keys:
            owner, f = FIELDS[section, key]
            value = getattr(objects[owner], f.name)
            if key in _KIND_ONLY and _KIND_ONLY[key] != cfg.benchmark.kind or value == "":
                continue
            text = str(value).lower() if isinstance(value, bool) else str(value)
            line = f"{key} = {text}"
            if line.splitlines() != [_COMMENT.split(line, 1)[0]] or text != text.strip():
                raise ConfigError(f"{section}.{key} = {text!r} would not read back from a config")
            block.append(line)
        blocks.append("\n".join(block))
    return "\n\n".join(blocks) + "\n"
