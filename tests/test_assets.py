"""The committed artifacts under assets/ match assets/MANIFEST.json.

The acceptance gate scores these files, so each one must be the file its
manifest entry describes: same sha256 (no truncation or swap), adapter
headers that agree with the recorded training config, and adapters trained
on the base that is committed beside them (no stale stage left behind by the
resumable script).  Tiny runs of scripts/run_experiments.py also check that
the interframe probe it runs between training steps leaves the trained bytes
unchanged, and that the first 20 steps of every stage still give the losses
its manifest entry recorded, bit for bit.
"""

import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

import ufolab.train
from ufolab.adapter import load_adapter

ROOT = Path(__file__).resolve().parents[1]
ASSETS = ROOT / "assets"
BASES = ("base-a.ufom", "base-b.ufom")
ADAPTERS = ("ufo-a-d1.ufoa", "ufo-a-d4.ufoa", "ufo-a-d64.ufoa", "ufo-b-d4.ufoa",
            "ufo-style-a.ufoa")


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ASSETS / "MANIFEST.json").read_text())["artifacts"]


@pytest.mark.parametrize("name", BASES + ADAPTERS)
def test_artifact_matches_its_manifest_entry(manifest, name):
    entry = manifest[name]
    assert entry["file"] == name
    assert hashlib.sha256((ASSETS / name).read_bytes()).hexdigest() == entry["sha256"]
    assert entry["steps"] == entry["train_config"]["steps"]


@pytest.mark.parametrize("name", ADAPTERS)
def test_adapter_header_agrees_with_manifest(manifest, name):
    entry = manifest[name]
    meta = load_adapter(ASSETS / name).meta
    assert meta["train_steps"] == entry["train_config"]["steps"]
    assert meta["train_seed"] == entry["train_config"]["seed"]
    assert entry["base_sha256"] == manifest[entry["base"]]["sha256"]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", ROOT / "scripts" / "run_experiments.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_probe_leaves_trained_bytes_unchanged(tmp_path, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "PROBE_STEPS", 2)
    for probe_every, out in ((0, tmp_path / "off"), (1, tmp_path / "on")):
        out.mkdir()
        for stage in ("base-a", "ufo-a-d4", "ufo-style"):
            _, entry = script.train_stage(stage, out, steps=3, probe_every=probe_every)
            assert len(entry["probe_interframe"]) == 3 * (probe_every > 0)
    for name in ("base-a.ufom", "ufo-a-d4.ufoa", "ufo-style-a.ufoa"):
        assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes()


class _Stop(Exception):
    pass


def test_first_20_losses_reproduce_the_manifest(tmp_path, monkeypatch, manifest):
    """Re-run each stage with its real TrainConfig and stop it after 20 steps.

    The full budget is kept (a shorter `steps` would cut the warm-up and so
    change the lr); the trainer's loss function is wrapped to record each
    step's l_simple and to stop the run once 20 are in.
    """
    script = load_script()
    real = ufolab.train.training_losses
    seen = []

    def first_20(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out["l_simple"].item())
        if len(seen) == 20:
            raise _Stop
        return out

    monkeypatch.setattr(ufolab.train, "training_losses", first_20)
    for base in BASES:  # adapter stages load their base from the assets directory
        shutil.copy(ASSETS / base, tmp_path / base)
    for name, stage in script.STAGES.items():
        seen.clear()
        with pytest.raises(_Stop):
            script.train_stage(name, tmp_path)
        assert seen == manifest[stage.out]["first20_loss_simple"], name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BASES)
