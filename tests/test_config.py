"""Config parsing: strict schema, typed values, value checks, paths, fuzzing."""

import dataclasses
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ufolab.config import (
    _SCHEMA,
    OUTPUT_ROOT_ENV,
    DataConfig,
    PathsConfig,
    load_config,
    resolve_path,
)
from ufolab.errors import ConfigError, ContractError
from ufolab.model import ModelConfig
from ufolab.train import TrainConfig

from test_cli import CONFIG


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_empty_config_gives_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_config(write(tmp_path, ""))
    assert cfg.model.frames == 8 and cfg.model.timesteps == 100
    assert cfg.train.steps == 3000 and cfg.train.lr_peak == 2e-4
    assert cfg.data.conditions == tuple(range(16))
    assert cfg.paths.checkpoints.is_dir() and cfg.paths.reports.is_dir()


def test_values_parse_and_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_config(write(tmp_path, """
[model]
frames = 4
timesteps = 50
schedule = scaled_linear

[train]
steps = 10
warmup_steps = 2
lr_peak = 1e-3

[data]
conditions = 0, 3, 7

[paths]
checkpoints = ckpt
reports = out/reports
"""))
    assert cfg.model.frames == 4 and cfg.model.schedule == "scaled_linear"
    assert cfg.train.lr_peak == 1e-3 and cfg.train.warmup_steps == 2
    assert cfg.data.conditions == (0, 3, 7)
    assert (tmp_path / "ckpt").is_dir() and (tmp_path / "out" / "reports").is_dir()


def test_missing_file_and_malformed(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(write(tmp_path, "steps = 3\n"))  # key before any section


def test_unknown_key_reports_line(tmp_path):
    path = write(tmp_path, "[train]\nsteps = 5\nwarmup_steps = 0\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "learning_rate" in msg and "[train]" in msg and "line 4" in msg
    # configparser lowercases keys, so the line lookup must too
    with pytest.raises(ConfigError, match=r"unknown key 'foo' in \[model\] \(line 3\)"):
        load_config(write(tmp_path, "[model]\nFrames = 4\nFOO = 3\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[sampler\]"):
        load_config(write(tmp_path, "[sampler]\nsteps = 5\n"))
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\] \(line 1\)"):
        load_config(write(tmp_path, "[DEFAULT]\nsteps = 5\n[train]\n"))


def test_bad_value_reports_key_and_line(tmp_path):
    for key, value in (("steps", "plenty"), ("STEPS", "plenty"), ("seed", "True"),
                       ("seed", "1.5"), ("batch_size", "2.0")):
        path = write(tmp_path, f"[train]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert f"'{key.lower()}'" in str(err.value) and "line 2" in str(err.value)


def test_domain_violations_become_config_errors(tmp_path):
    # ModelConfig contract failure (heads must divide dim)
    with pytest.raises(ConfigError, match=r"invalid \[model\]"):
        load_config(write(tmp_path, "[model]\ndim = 10\nheads = 4\n"))
    for bad in ("steps = 5\nwarmup_steps = 9", "seed = -1", "batch_size = 0"):
        with pytest.raises(ConfigError, match=r"invalid \[train\]"):
            load_config(write(tmp_path, f"[train]\n{bad}\n"))
    for bad in ("fps = nan", "fps = -1", "timesteps = 1", "patch = 0", "heads = 0"):
        with pytest.raises(ConfigError, match=r"invalid \[model\]"):
            load_config(write(tmp_path, f"[model]\n{bad}\n"))


def test_schema_keys_are_fields_of_their_records():
    # each section is built as record(**values), so no key can raise TypeError
    # there, and every field but the model's channels and dtype is a key
    records = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig,
               "paths": PathsConfig}
    assert set(records) == set(_SCHEMA)
    for section, record in records.items():
        names = {f.name for f in dataclasses.fields(record)}
        assert set(_SCHEMA[section]) <= names, section
        assert names - set(_SCHEMA[section]) == ({"channels", "dtype"} if section == "model"
                                                 else set()), section
    assert sum(map(len, _SCHEMA.values())) == 23


def test_data_checks(tmp_path):
    with pytest.raises(ConfigError, match="condition ids"):
        load_config(write(tmp_path, "[data]\nconditions = 0, 99\n"))
    with pytest.raises(ConfigError, match="at least one id"):
        load_config(write(tmp_path, "[data]\nconditions = ,\n"))
    with pytest.raises(ConfigError, match="jitter"):
        load_config(write(tmp_path, "[data]\njitter = 0.5\n"))
    # the record applies the rules itself, as clip_stream does
    for bad in ({"conditions": (2.7, True)}, {"conditions": (0, 36)}, {"conditions": ()},
                {"jitter": 0.5}, {"jitter": True}):
        with pytest.raises(ContractError):
            DataConfig(**bad)


def test_output_root_env_anchors_relative_paths(tmp_path, monkeypatch):
    root = tmp_path / "scratch"
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
    cfg = load_config(write(tmp_path, "[paths]\ncheckpoints = ck\nreports = rp\n"))
    assert cfg.paths.checkpoints == root / "ck"
    assert cfg.paths.reports == root / "rp"
    assert (root / "ck").is_dir()
    absolute = tmp_path / "abs"
    assert resolve_path(absolute) == absolute  # absolute paths ignore the root


FIXTURE = CONFIG.format(steps=3, lr="3e-3", alpha_train="1.0", seed=5,
                        ck="ck", rp="rp").encode()
# bytes that change a value's type, sign or size, or the file's structure
PICKS = st.one_of(st.sampled_from(b"0-.en/[]=,\n\x00\x80\xff"), st.integers(0, 255))
MUTATED = st.lists(st.tuples(st.integers(0, len(FIXTURE) - 1), PICKS),
                   min_size=1, max_size=6)


def mutate(edits) -> bytes:
    blob = bytearray(FIXTURE)
    for at, byte in edits:
        blob[at] = byte
    return bytes(blob)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.one_of(st.binary(max_size=400), MUTATED.map(mutate)))
def test_fuzzed_config_loads_or_raises_config_error(tmp_path, monkeypatch, blob):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    real_mkdir = Path.mkdir

    def confined_mkdir(self, *args, **kwargs):
        # a mutated [paths] entry may point anywhere; act as if outside were read-only
        if not os.path.abspath(self).startswith(str(tmp_path) + os.sep):
            raise PermissionError(f"outside the test directory: {self}")
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", confined_mkdir)
    path = tmp_path / "fuzz.ini"
    path.write_bytes(blob)
    try:
        load_config(path)
    except ConfigError:
        pass
