"""Training loops for the base generator and for intensity adapters.

All three trainers share one seeded loop: pull a batch from the data stream,
add noise at uniform timesteps, take one Adam step on the hybrid loss (no
gradient accumulation).  Adapter training freezes the base model — per-layer
checksums are re-verified after every step — and runs the adapter at
`alpha_train`.  Consistency adapters fit static clips at full intensity, so
intensity later dials how strongly generations are pulled toward temporal
stability; stylization adapters fit restyled clips and are meant to be applied
at the same intensity they were trained with.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .adapter import AdapterStack, UfoAdapter, compose
from .diffusion import training_losses
from .errors import ContractError, NumericError
from .fileio import atomic_write_bytes
from .model import DiffusionModel

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_COLUMNS = ("step", "loss_simple", "loss_vlb", "lr")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 3000
    batch_size: int = 8
    lr_peak: float = 2e-4
    warmup_steps: int = 500
    alpha_train: float = 1.0
    loss_lambda: float = 0.001
    seed: int = 0

    def __post_init__(self):
        # steps = 0 is allowed so a no-op run leaves its target bit-exact
        if self.steps < 0:
            raise ContractError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr_peak < math.inf:
            raise ContractError(f"lr_peak must be finite and > 0, got {self.lr_peak}")
        if not 0 <= self.warmup_steps <= self.steps:
            raise ContractError(
                f"warmup_steps must lie in [0, steps], got {self.warmup_steps}")
        if not 0.0 < self.alpha_train <= 1.0:
            raise ContractError(f"alpha_train must lie in (0, 1], got {self.alpha_train}")
        if not 0 <= self.loss_lambda < math.inf:
            raise ContractError(f"loss_lambda must be finite and >= 0, got {self.loss_lambda}")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warm-up from zero to lr_peak at warmup_steps, constant after."""
    if step <= 0:
        return 0.0
    if step >= cfg.warmup_steps:
        return cfg.lr_peak
    return cfg.lr_peak * step / cfg.warmup_steps


class Adam:
    """Adam with bias correction; state lives next to each parameter."""

    def __init__(self, params):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for key, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[key]
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= (lr / c1) * m / (np.sqrt(v / c2) + ADAM_EPS)


class FreezeGuard:
    """Per-parameter checksums taken at arm time and re-verified every step."""

    def __init__(self, params):
        self.params = dict(params)
        self.reference = self._digests()

    def _digests(self) -> dict:
        return {name: hashlib.sha256(np.ascontiguousarray(p.data).tobytes()).hexdigest()
                for name, p in self.params.items()}

    def check(self, step: int | None = None) -> None:
        now = self._digests()
        changed = [name for name in self.params if now[name] != self.reference[name]]
        if changed:
            where = f" at step {step}" if step is not None else ""
            raise ContractError(
                f"frozen base parameters changed{where}: {', '.join(changed)}")


def write_loss_csv(path, rows) -> None:
    """One CSV row per training step: (step, loss_simple, loss_vlb, lr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LOG_COLUMNS)
    for row in rows:
        writer.writerow([row["step"], f"{row['loss_simple']:.12g}",
                         f"{row['loss_vlb']:.12g}", f"{row['lr']:.12g}"])
    atomic_write_bytes(path, buf.getvalue().encode())


def _run(model: DiffusionModel, trainable, data, cfg: TrainConfig,
         stack: AdapterStack | None = None, guard: FreezeGuard | None = None,
         log_path=None) -> list[dict]:
    """The shared seeded loop; returns one loss row per step."""
    if not trainable:
        raise ContractError("nothing to train: no parameters require gradients")
    mcfg = model.config
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(trainable)
    rows = []
    for step in range(1, cfg.steps + 1):
        clips, conds = next(data)
        clips = np.asarray(clips)
        if clips.ndim != 5:
            raise ContractError(
                f"data stream must yield (B, F, H, W, C) batches, got {clips.shape}")
        t = rng.integers(1, mcfg.timesteps + 1, size=clips.shape[0])
        eps = rng.standard_normal(clips.shape).astype(mcfg.np_dtype)

        T.reset_tape()
        for p in trainable.values():
            p.grad = None
        out = training_losses(model, clips, t, conds, eps, stack=stack,
                              lambda_vlb=cfg.loss_lambda)
        loss = out["loss"].item()
        if not np.isfinite(loss):
            T.reset_tape()
            raise NumericError(f"training loss became non-finite at step {step}")
        T.backward(out["loss"])
        lr = lr_schedule(step, cfg)
        opt.step(lr)
        if guard is not None:
            guard.check(step)
        rows.append({"step": step, "loss_simple": out["l_simple"].item(),
                     "loss_vlb": out["l_vlb"].item(), "lr": lr})
    T.reset_tape()
    if log_path is not None:
        write_loss_csv(log_path, rows)
    return rows


def train_base(model: DiffusionModel, data, cfg: TrainConfig,
               log_path=None) -> tuple[DiffusionModel, list[dict]]:
    """Fit the (unfrozen) base generator on a moving-clip stream in place."""
    trainable = model.trainable()
    if len(trainable) != len(model.params):
        raise ContractError("base training requires a fully unfrozen model")
    rows = _run(model, trainable, data, cfg, log_path=log_path)
    return model, rows


def _train_ufo(model: DiffusionModel, adapter: UfoAdapter, data,
               cfg: TrainConfig, log_path=None) -> list[dict]:
    stack = compose(model, [(adapter, cfg.alpha_train)])
    unfrozen = [p for p in model.params.values() if p.requires_grad]
    for p in unfrozen:
        p.requires_grad = False
        p.grad = None
    guard = FreezeGuard(model.params)
    adapter.set_trainable(True)
    try:
        rows = _run(model, adapter.parameters(), data, cfg, stack=stack,
                    guard=guard, log_path=log_path)
    finally:
        for p in unfrozen:
            p.requires_grad = True
        adapter.set_trainable(False)
    adapter.meta.update({"train_steps": cfg.steps, "train_seed": cfg.seed,
                         "alpha_train": cfg.alpha_train})
    if rows:
        adapter.meta["final_loss"] = rows[-1]["loss_simple"]
    return rows


def train_ufo_consistency(model: DiffusionModel, adapter: UfoAdapter, images,
                          cfg: TrainConfig, log_path=None) -> tuple[UfoAdapter, list[dict]]:
    """Fit an adapter to static clips (every frame one image) at full intensity.

    `images` must stream batches whose clips repeat a single frame
    (ContractError on the first batch that does not); the base model is
    frozen for the whole run and checked per step.
    """
    if cfg.alpha_train != 1.0:
        raise ContractError(
            f"consistency training runs at alpha_train = 1, got {cfg.alpha_train}")
    if adapter.kind != "consistency":
        raise ContractError(f"adapter kind is {adapter.kind!r}, expected 'consistency'")
    rows = _train_ufo(model, adapter, _static_batches(images), cfg, log_path=log_path)
    return adapter, rows


def _static_batches(data):
    """Pass `data`'s batches through, refusing any clip whose frames differ from frame 0."""
    for step, batch in enumerate(data, start=1):
        clips = np.asarray(batch[0])
        if clips.ndim == 5 and not (clips == clips[:, :1]).all():
            raise ContractError(f"consistency training needs static clips, but a clip in "
                                f"the batch for step {step} has frames that differ from frame 0")
        yield batch


def train_ufo_style(model: DiffusionModel, adapter: UfoAdapter, videos,
                    cfg: TrainConfig, log_path=None) -> tuple[UfoAdapter, list[dict]]:
    """Fit an adapter to restyled clips at a fixed training intensity.

    The learned delta is meant to be applied at the intensity it was trained
    with, recorded as the adapter's recommended_alpha.
    """
    if adapter.kind != "stylization":
        raise ContractError(f"adapter kind is {adapter.kind!r}, expected 'stylization'")
    rows = _train_ufo(model, adapter, videos, cfg, log_path=log_path)
    adapter.recommended_alpha = cfg.alpha_train
    return adapter, rows
