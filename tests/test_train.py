"""Trainer tests: schedule values, freeze guard, determinism, loss plumbing."""

import csv

import numpy as np
import pytest

from ufolab import tensor as T
from ufolab.adapter import init_adapter
from ufolab.errors import ContractError, NumericError
from ufolab.model import ModelConfig, build_model
from ufolab.synthdata import clip_stream
from ufolab.tensor import Tensor
from ufolab.train import (
    FreezeGuard,
    TrainConfig,
    lr_schedule,
    train_base,
    train_ufo_consistency,
    train_ufo_style,
    write_loss_csv,
)

# smallest geometry the synthetic renderer supports, 8 tokens per clip
TINY = ModelConfig(frames=2, height=16, width=16, channels=1, patch=8, dim=8,
                   heads=2, mlp_dim=16, blocks=1, cond_vocab=16, timesteps=8)


@pytest.fixture(autouse=True)
def fresh_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def tiny_cfg(**kw):
    base = dict(steps=4, batch_size=2, lr_peak=3e-3, warmup_steps=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def stream_for(cfg, seed=100, **kw):
    return clip_stream(cfg.batch_size, seed=seed, frames=TINY.frames, **kw)


def snapshot(params):
    return {k: p.data.copy() for k, p in params.items()}


def unchanged(params, ref):
    return all(np.array_equal(params[k].data, v) for k, v in ref.items())


# ---------------------------------------------------------------------------
# config and schedule
# ---------------------------------------------------------------------------

def test_config_invariants():
    TrainConfig(steps=0, warmup_steps=0)  # a no-op run is configurable
    with pytest.raises(ContractError):
        TrainConfig(steps=-1)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(lr_peak=0.0)
    with pytest.raises(ContractError):
        TrainConfig(warmup_steps=-1)
    with pytest.raises(ContractError):
        TrainConfig(steps=100, warmup_steps=101)
    with pytest.raises(ContractError):
        TrainConfig(alpha_train=0.0)
    with pytest.raises(ContractError):
        TrainConfig(alpha_train=1.1)
    with pytest.raises(ContractError):
        TrainConfig(loss_lambda=-0.1)


@pytest.mark.parametrize("field, value", [
    ("loss_lambda", float("nan")), ("loss_lambda", float("inf")), ("lr_peak", float("inf"))])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ContractError):
        TrainConfig(**{field: value})


def test_lr_schedule_values():
    cfg = TrainConfig(steps=3000, warmup_steps=500, lr_peak=2e-4)
    assert lr_schedule(0, cfg) == 0.0
    assert lr_schedule(1, cfg) == 2e-4 / 500
    assert lr_schedule(250, cfg) == pytest.approx(1e-4)
    assert lr_schedule(500, cfg) == 2e-4  # peak reached exactly at warm-up end
    assert lr_schedule(1000, cfg) == 2e-4
    assert lr_schedule(3000, cfg) == 2e-4
    nowarm = TrainConfig(steps=10, warmup_steps=0, lr_peak=1e-3)
    assert lr_schedule(0, nowarm) == 0.0
    assert lr_schedule(1, nowarm) == 1e-3


def test_lr_schedule_is_monotone_until_peak():
    cfg = TrainConfig(steps=100, warmup_steps=7, lr_peak=5e-4)
    values = [lr_schedule(s, cfg) for s in range(20)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[7:] == [5e-4] * 13


# ---------------------------------------------------------------------------
# base training
# ---------------------------------------------------------------------------

def test_zero_steps_leaves_model_bit_exact():
    model = build_model(TINY, seed=3)
    ref = snapshot(model.params)
    cfg = tiny_cfg(steps=0, warmup_steps=0)
    _, rows = train_base(model, stream_for(cfg), cfg)
    assert rows == [] and unchanged(model.params, ref)


def test_fixed_seed_training_is_bit_identical():
    results = []
    for _ in range(2):
        model = build_model(TINY, seed=5)
        cfg = tiny_cfg(steps=5)
        _, rows = train_base(model, stream_for(cfg), cfg)
        results.append((snapshot(model.params), rows))
    (pa, ra), (pb, rb) = results
    assert ra == rb
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)


def test_training_reduces_loss_on_tiny_run():
    model = build_model(TINY, seed=5)
    cfg = tiny_cfg(steps=60, batch_size=4, warmup_steps=6, seed=1)
    _, rows = train_base(model, stream_for(cfg, seed=101), cfg)
    assert len(rows) == 60
    losses = [r["loss_simple"] for r in rows]
    k = max(1, len(losses) // 10)
    assert np.mean(losses[-k:]) < np.mean(losses[:k])


def test_train_base_rejects_frozen_model_and_bad_stream():
    model = build_model(TINY, seed=0)
    for p in model.params.values():
        p.requires_grad = False
    with pytest.raises(ContractError):
        train_base(model, stream_for(tiny_cfg()), tiny_cfg())
    for p in model.params.values():
        p.requires_grad = True

    def bad_stream():
        while True:
            yield np.zeros((2, 16, 16, 1), dtype=np.float32), np.zeros(2, dtype=int)

    with pytest.raises(ContractError):
        train_base(model, bad_stream(), tiny_cfg(steps=1, warmup_steps=1))


def test_divergent_run_aborts_with_step_index():
    model = build_model(TINY, seed=0)
    cfg = tiny_cfg(steps=30, warmup_steps=1, lr_peak=1e12)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
        train_base(model, stream_for(cfg), cfg)
    assert "step" in str(err.value)


# ---------------------------------------------------------------------------
# adapter training
# ---------------------------------------------------------------------------

def warm_model(seed=7):
    # the output heads start at zero, so an untrained base passes no gradient
    # into the trunk; a few steps make the graph live for adapter fitting
    model = build_model(TINY, seed=seed)
    cfg = tiny_cfg(steps=3)
    train_base(model, stream_for(cfg, seed=seed + 50), cfg)
    return model


def test_consistency_training_freezes_base_and_updates_adapter():
    model = warm_model()
    adapter = init_adapter(model, rank=2, seed=1)
    base_ref = snapshot(model.params)
    adapter_ref = snapshot(adapter.parameters())
    cfg = tiny_cfg(steps=4)
    _, rows = train_ufo_consistency(model, adapter, stream_for(cfg, static=True), cfg)
    assert len(rows) == 4
    assert unchanged(model.params, base_ref)  # freeze guard held
    assert not unchanged(adapter.parameters(), adapter_ref)
    assert all(p.requires_grad for p in model.params.values())  # restored
    assert not any(p.requires_grad for p in adapter.parameters().values())
    assert adapter.meta["train_steps"] == 4 and adapter.meta["alpha_train"] == 1.0
    assert adapter.meta["final_loss"] == rows[-1]["loss_simple"]


def test_consistency_training_requires_full_intensity_and_kind():
    model = build_model(TINY, seed=7)
    adapter = init_adapter(model, rank=2)
    cfg = tiny_cfg(alpha_train=0.5)
    with pytest.raises(ContractError):
        train_ufo_consistency(model, adapter, stream_for(cfg, static=True), cfg)
    styled = init_adapter(model, rank=2, kind="stylization")
    with pytest.raises(ContractError):
        train_ufo_consistency(model, styled, stream_for(tiny_cfg(), static=True), tiny_cfg())
    with pytest.raises(ContractError):
        train_ufo_style(model, adapter, stream_for(tiny_cfg()), tiny_cfg())


def test_consistency_training_rejects_moving_clips():
    model = build_model(TINY, seed=7)
    adapter = init_adapter(model, rank=2, seed=1)
    cfg = tiny_cfg(steps=3)
    static, moving = stream_for(cfg, static=True), stream_for(cfg)

    def still_then_moving():
        yield next(static)
        yield next(moving)

    with pytest.raises(ContractError, match="static clips.*step 2"):
        train_ufo_consistency(model, adapter, still_then_moving(), cfg)
    # the failed run hands the adapter back frozen, like a finished one
    assert not any(p.requires_grad for p in adapter.parameters().values())


def test_adapter_training_is_deterministic():
    grabs = []
    for _ in range(2):
        model = warm_model()
        adapter = init_adapter(model, rank=2, seed=9)
        cfg = tiny_cfg(steps=3)
        train_ufo_consistency(model, adapter, stream_for(cfg, static=True), cfg)
        grabs.append(snapshot(adapter.parameters()))
    assert all(np.array_equal(grabs[0][k], grabs[1][k]) for k in grabs[0])


def test_zero_step_adapter_run_changes_nothing():
    model = build_model(TINY, seed=7)
    adapter = init_adapter(model, rank=2, seed=1)
    ref = snapshot(adapter.parameters())
    cfg = tiny_cfg(steps=0, warmup_steps=0)
    _, rows = train_ufo_consistency(model, adapter, stream_for(cfg, static=True), cfg)
    assert rows == [] and unchanged(adapter.parameters(), ref)
    assert "final_loss" not in adapter.meta


def test_style_training_sets_recommended_alpha():
    model = build_model(TINY, seed=7)
    adapter = init_adapter(model, rank=2, kind="stylization")
    cfg = tiny_cfg(steps=2, alpha_train=0.8, warmup_steps=1)
    train_ufo_style(model, adapter, stream_for(cfg, style="invert"), cfg)
    assert adapter.recommended_alpha == 0.8
    assert adapter.kind == "stylization"


def test_freeze_guard_names_the_mutated_layer():
    params = {"blocks.0.tattn.q.w": Tensor(np.ones((2, 2), dtype=np.float32)),
              "blocks.0.tattn.v.w": Tensor(np.ones((2, 2), dtype=np.float32))}
    guard = FreezeGuard(params)
    guard.check()
    params["blocks.0.tattn.v.w"].data[0, 0] = 5.0
    with pytest.raises(ContractError) as err:
        guard.check(step=17)
    msg = str(err.value)
    assert "blocks.0.tattn.v.w" in msg and "step 17" in msg
    assert "q.w" not in msg


# ---------------------------------------------------------------------------
# loss log
# ---------------------------------------------------------------------------

def test_loss_csv_has_one_row_per_step(tmp_path):
    model = build_model(TINY, seed=5)
    cfg = tiny_cfg(steps=5)
    out = tmp_path / "curve.csv"
    _, rows = train_base(model, stream_for(cfg), cfg, log_path=out)
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["step", "loss_simple", "loss_vlb", "lr"]
    assert len(body) == 5
    assert [int(r[0]) for r in body] == [1, 2, 3, 4, 5]
    for row, logged in zip(body, rows):
        assert float(row[3]) == logged["lr"] == lr_schedule(int(row[0]), cfg)
        assert float(row[1]) == pytest.approx(logged["loss_simple"], rel=1e-10)
    assert not list(tmp_path.glob("*.tmp*"))  # atomic write left no debris


def test_write_loss_csv_empty_is_header_only(tmp_path):
    out = tmp_path / "curve.csv"
    write_loss_csv(out, [])
    assert out.read_text() == "step,loss_simple,loss_vlb,lr\n"
