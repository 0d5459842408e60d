"""Experiment configuration: one INI document, strictly schema-checked.

Unknown sections or keys are rejected with the offending line number, so a
typo can never silently fall back to a default.  Relative paths resolve under
the UFOLAB_OUTPUT_ROOT environment variable when it is set (the working
directory otherwise) and are created at parse time.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, ContractError, check_field_types
from .model import ModelConfig
from .synthdata import DEFAULT_CONDITIONS, DEFAULT_JITTER, check_conditions, check_jitter
from .train import TrainConfig

OUTPUT_ROOT_ENV = "UFOLAB_OUTPUT_ROOT"


@dataclass(frozen=True)
class DataConfig:
    conditions: tuple = DEFAULT_CONDITIONS
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        check_field_types(self)
        check_conditions(self.conditions)
        check_jitter(self.jitter)


@dataclass(frozen=True)
class PathsConfig:
    checkpoints: Path = Path("checkpoints")
    reports: Path = Path("reports")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    train: TrainConfig
    data: DataConfig
    paths: PathsConfig


def _int_list(text: str) -> tuple:
    return tuple(int(p) for p in text.split(",") if p.strip())


# every field of the four records is a key, parsed by its declared type, but
# `channels` (the renderer draws one channel) and `dtype` (checkpoints are
# float32 only); the schema is the whole vocabulary a file may use
_PARSERS = {"int": int, "float": float, "str": str, "Path": Path, "tuple": _int_list}
_SCHEMA = {section: {f.name: _PARSERS[f.type] for f in fields(record)
                     if f.name not in ("channels", "dtype")}
           for section, record in (("model", ModelConfig), ("train", TrainConfig),
                                   ("data", DataConfig), ("paths", PathsConfig))}


def _line_of(lines: list[str], section: str, key: str | None = None) -> int | None:
    """Best-effort line lookup for diagnostics (1-based)."""
    in_section = False
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("["):
            if key is None and stripped == f"[{section}]":
                return i
            in_section = stripped == f"[{section}]"
        elif key is not None and in_section:
            head = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if head.lower() == key:  # configparser lowercases every key it reads
                return i
    return None


def _loc(lines, section, key=None) -> str:
    line = _line_of(lines, section, key)
    return f" (line {line})" if line is not None else ""


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV) or ".")


def resolve_path(p) -> Path:
    """Anchor relative paths at the output root; absolute paths pass through."""
    p = Path(p)
    return p if p.is_absolute() else output_root() / p


def load_config(path) -> ExperimentConfig:
    """Parse and validate one experiment INI file.

    Raises ConfigError naming the offending section/key and line for unknown
    or ill-typed entries, condition ids outside the generator, non-UTF-8
    files and paths that cannot be created as directories.  Clip geometry and
    the condition vocabulary come from the model being trained, not from here.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    # no name can head an empty section, so [DEFAULT] is an unknown section
    # rather than keys silently shared by (or lost from) every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]{_loc(lines, section)}")
        for key, raw in parser.items(section):
            parse = _SCHEMA[section].get(key)
            if parse is None:
                raise ConfigError(
                    f"unknown key '{key}' in [{section}]{_loc(lines, section, key)}")
            try:
                values[section][key] = parse(raw.strip())
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for '{key}' in [{section}]"
                    f"{_loc(lines, section, key)}: {exc}") from exc

    def build(section, factory):
        try:
            return factory(**values[section])
        except ContractError as exc:
            raise ConfigError(f"invalid [{section}] settings: {exc}") from exc

    model = build("model", ModelConfig)
    train = build("train", TrainConfig)
    data = build("data", DataConfig)

    paths = {key: resolve_path(values["paths"].get(key, getattr(PathsConfig, key)))
             for key in _SCHEMA["paths"]}
    for key, p in paths.items():
        try:
            p.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot create [paths] {key}{_loc(lines, 'paths', key)} "
                              f"as a directory: {exc}") from exc

    return ExperimentConfig(model=model, train=train, data=data,
                            paths=PathsConfig(**paths))
