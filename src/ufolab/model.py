"""Toy video diffusion transformer.

Clips of shape (frames, height, width, channels) are patchified per frame,
embedded with a learned position table plus timestep/condition lookups, and
run through pre-norm blocks of temporal attention (tokens attend across
frames at a fixed spatial site), spatial attention (across sites within a
frame), and a gelu MLP.  Two zero-initialized heads read out the noise
estimate and the variance-interpolation coefficient.

Every affine layer inside the blocks is registered as *adaptable*; the model
fingerprint hashes their (name, out_features, in_features) triples so adapter
files can prove they were trained against a structurally identical model.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, FormatError, check_field_types, check_ids
from .fileio import read_container, unpack_arrays, write_container
from .schedule import SCHEDULE_KINDS, Schedule, make_schedule
from .tensor import Tensor

MODEL_MAGIC = b"UFOM"
_INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    frames: int = 8
    height: int = 16
    width: int = 16
    channels: int = 1
    patch: int = 2
    dim: int = 64
    heads: int = 4
    mlp_dim: int = 256
    blocks: int = 2
    cond_vocab: int = 36
    timesteps: int = 100
    schedule: str = "cosine"
    fps: float = 8.0
    dtype: str = "float32"

    def __post_init__(self):
        check_field_types(self)
        for name in ("frames", "height", "width", "channels", "patch", "dim",
                     "heads", "mlp_dim", "blocks", "cond_vocab", "timesteps"):
            if getattr(self, name) < 1:
                raise ContractError(f"config field {name} must be >= 1, got {getattr(self, name)}")
        if self.height % self.patch or self.width % self.patch:
            raise ContractError(f"patch {self.patch} must divide height {self.height} and width {self.width}")
        if self.dim % self.heads:
            raise ContractError(f"heads {self.heads} must divide dim {self.dim}")
        if self.schedule not in SCHEDULE_KINDS:
            raise ContractError(f"unknown schedule kind {self.schedule!r}")
        if self.dtype not in ("float32", "float64"):
            raise ContractError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.timesteps < 2:
            raise ContractError(f"timesteps must be >= 2, got {self.timesteps}")
        if not 0 < self.fps < math.inf:
            raise ContractError(f"fps must be finite and > 0, got {self.fps!r}")

    @property
    def sites(self) -> int:
        return (self.height // self.patch) * (self.width // self.patch)

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * self.channels

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ModelConfig":
        if not isinstance(doc, dict):
            raise FormatError(f"model config must be a JSON object, got {type(doc).__name__}")
        known = ModelConfig.__dataclass_fields__.keys()
        extra = set(doc) - set(known)
        if extra:
            raise FormatError(f"unknown model config fields {sorted(extra)}")
        try:
            return ModelConfig(**doc)
        except ContractError as exc:
            raise FormatError(f"bad model config: {exc}") from None


@dataclass
class DiffusionModel:
    config: ModelConfig
    params: "OrderedDict[str, Tensor]"
    sched: Schedule = field(repr=False, default=None)

    def __post_init__(self):
        if self.sched is None:
            self.sched = make_schedule(self.config.schedule, self.config.timesteps)

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def trainable(self) -> "OrderedDict[str, Tensor]":
        return OrderedDict((k, v) for k, v in self.params.items() if v.requires_grad)


def adaptable_layers(model_or_cfg) -> list[tuple[str, int, int]]:
    """Ordered (name, out_features, in_features) for every block affine layer."""
    cfg = model_or_cfg.config if isinstance(model_or_cfg, DiffusionModel) else model_or_cfg
    specs = []
    for b in range(cfg.blocks):
        for attn in ("tattn", "sattn"):
            for piece in ("q", "k", "v", "proj"):
                specs.append((f"block{b}.{attn}.{piece}", cfg.dim, cfg.dim))
        specs.append((f"block{b}.mlp.fc1", cfg.mlp_dim, cfg.dim))
        specs.append((f"block{b}.mlp.fc2", cfg.dim, cfg.mlp_dim))
    return specs


def fingerprint(model_or_cfg) -> str:
    """sha256 over the ordered adaptable-layer names and shapes (never weights)."""
    text = ";".join(f"{name}:{m}:{n}" for name, m, n in adaptable_layers(model_or_cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def param_specs(cfg: ModelConfig) -> list[tuple[str, tuple, str]]:
    """Ordered (name, shape, init) for every parameter: the registry that
    build_model draws in, checkpoints store, and load_model checks against.

    `init` is "normal" (N(0, 0.02)), "zeros" or "ones"; the output heads start
    at zero, so a fresh model predicts zero noise and mid-interpolation variance.
    """
    d = cfg.dim
    specs = [("patch_embed.w", (d, cfg.patch_dim), "normal"),
             ("patch_embed.b", (d,), "zeros"),
             ("pos_emb", (cfg.frames, cfg.sites, d), "normal"),
             ("t_table", (cfg.timesteps, d), "normal"),
             ("cond_table", (cfg.cond_vocab, d), "normal")]
    for b in range(cfg.blocks):
        for ln in ("ln1", "ln2", "ln3"):
            specs += [(f"block{b}.{ln}.g", (d,), "ones"), (f"block{b}.{ln}.b", (d,), "zeros")]
    for name, m, n in adaptable_layers(cfg):
        specs += [(name + ".w", (m, n), "normal"), (name + ".b", (m,), "zeros")]
    specs += [("final_ln.g", (d,), "ones"), ("final_ln.b", (d,), "zeros")]
    for head in ("head_eps", "head_sigma"):
        specs += [(head + ".w", (cfg.patch_dim, d), "zeros"),
                  (head + ".b", (cfg.patch_dim,), "zeros")]
    return specs


def build_model(cfg: ModelConfig, seed: int = 0) -> DiffusionModel:
    """Fresh model initialised per `param_specs`, drawing in registry order."""
    rng = np.random.default_rng(seed)
    init = {"normal": lambda shape: rng.normal(size=shape) * _INIT_STD,
            "zeros": np.zeros, "ones": np.ones}
    params = OrderedDict(
        (name, Tensor(init[kind](shape).astype(cfg.np_dtype), requires_grad=True))
        for name, shape, kind in param_specs(cfg))
    return DiffusionModel(cfg, params)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def _linear(x: Tensor, name: str, params, stack=None) -> Tensor:
    """Affine layer y = x W^T + b on the last axis of x, shape (clips, ..., n):
    one `T.linear` node, with `stack`'s corrections added on the same input."""
    y = T.linear(x, params[name + ".w"], params[name + ".b"])
    if stack is not None:
        y = stack.apply(name, x, y)
    return y


def _attention(h: Tensor, prefix: str, params, stack, heads: int) -> Tensor:
    """Self-attention over the length axis of (clips, groups, length, dim)."""
    q, k, v = (_linear(h, f"{prefix}.{name}", params, stack) for name in "qkv")
    out = T.attention(q, k, v, heads, 1.0 / math.sqrt(h.shape[-1] // heads))
    return _linear(out, prefix + ".proj", params, stack)


def _patchify(z: Tensor, cfg: ModelConfig) -> Tensor:
    b, f = z.shape[0], cfg.frames
    hp, wp, p, c = cfg.height // cfg.patch, cfg.width // cfg.patch, cfg.patch, cfg.channels
    x = T.reshape(z, (b, f, hp, p, wp, p, c))
    x = T.transpose(x, (0, 1, 2, 4, 3, 5, 6))
    return T.reshape(x, (b, f, cfg.sites, cfg.patch_dim))


def _unpatchify(x: Tensor, cfg: ModelConfig) -> Tensor:
    b, f = x.shape[0], cfg.frames
    hp, wp, p, c = cfg.height // cfg.patch, cfg.width // cfg.patch, cfg.patch, cfg.channels
    y = T.reshape(x, (b, f, hp, wp, p, p, c))
    y = T.transpose(y, (0, 1, 2, 4, 3, 5, 6))
    return T.reshape(y, (b, f, cfg.height, cfg.width, c))


def forward(model: DiffusionModel, z_t, t, cond, stack=None) -> tuple[Tensor, Tensor]:
    """Predict (eps_hat, v) for noisy latents z_t at timesteps t under condition ids.

    `stack` is an optional adapter stack whose entries modulate the adaptable
    affine layers; `stack=None` and a stack at intensity zero take the same
    code path through the base weights.
    """
    cfg = model.config
    p = model.params
    expect = (cfg.frames, cfg.height, cfg.width, cfg.channels)
    z_arr = z_t.data if isinstance(z_t, Tensor) else np.asarray(z_t)
    if z_arr.ndim != 5 or z_arr.shape[1:] != expect:
        raise DimensionError(f"z_t shape {z_arr.shape} does not match (batch,) + {expect}")
    batch = z_arr.shape[0]
    t = check_ids(t, "t", 1, cfg.timesteps + 1, (batch,))
    cond = check_ids(cond, "cond", 0, cfg.cond_vocab, (batch,))
    if stack is not None:
        stack.check_model(model)

    z = z_t if isinstance(z_t, Tensor) else Tensor(z_arr.astype(cfg.np_dtype, copy=False))
    x = _linear(_patchify(z, cfg), "patch_embed", p)          # (B, F, S, dim)
    x = T.add(x, p["pos_emb"])                                 # suffix broadcast over batch
    ctx = T.add(T.take_rows(p["t_table"], t - 1), T.take_rows(p["cond_table"], cond))
    ctx = T.expand(T.reshape(ctx, (batch, 1, 1, cfg.dim)), x.shape)
    x = T.add(x, ctx)

    for bidx in range(cfg.blocks):
        pre = f"block{bidx}"
        # temporal attention: across frames at each spatial site
        h = T.layernorm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        h = _attention(T.transpose(h, (0, 2, 1, 3)), f"{pre}.tattn", p, stack, cfg.heads)
        x = T.add(x, T.transpose(h, (0, 2, 1, 3)))
        # spatial attention: across sites within each frame
        h = T.layernorm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        x = T.add(x, _attention(h, f"{pre}.sattn", p, stack, cfg.heads))
        # position-wise MLP
        h = T.layernorm(x, p[f"{pre}.ln3.g"], p[f"{pre}.ln3.b"])
        h = _linear(T.gelu(_linear(h, f"{pre}.mlp.fc1", p, stack)), f"{pre}.mlp.fc2", p, stack)
        x = T.add(x, h)

    x = T.layernorm(x, p["final_ln.g"], p["final_ln.b"])
    eps_hat = _unpatchify(_linear(x, "head_eps", p), cfg)
    v = _unpatchify(_linear(x, "head_sigma", p), cfg)
    return eps_hat, v


# ---------------------------------------------------------------------------
# checkpoint I/O (UFOM container)
# ---------------------------------------------------------------------------

def save_model(model: DiffusionModel, path) -> None:
    names = list(model.params.keys())
    header = {
        "kind": "model",
        "config": model.config.to_dict(),
        "fingerprint": fingerprint(model),
        "param_names": names,
        "param_shapes": [list(model.params[n].shape) for n in names],
    }
    write_container(path, MODEL_MAGIC, header, [model.params[n].data for n in names])


def load_model(path) -> DiffusionModel:
    header, payload, at = read_container(path, MODEL_MAGIC)
    for key in ("config", "fingerprint", "param_names", "param_shapes"):
        if key not in header:
            raise FormatError(f"model header is missing '{key}'")
    cfg = ModelConfig.from_dict(header["config"])
    if cfg.dtype != "float32":
        raise FormatError("model checkpoints are stored in float32 only")
    specs = param_specs(cfg)
    if header["param_names"] != [name for name, _, _ in specs]:
        raise FormatError("model header parameter registry does not match the architecture")
    if header["param_shapes"] != [list(shape) for _, shape, _ in specs]:
        raise FormatError("model header parameter shapes do not match the architecture")
    if header["fingerprint"] != fingerprint(cfg):
        raise FormatError("model header fingerprint does not match the architecture")
    arrays = unpack_arrays(payload, at, [(name, shape) for name, shape, _ in specs])
    params = OrderedDict((name, Tensor(arrays[name], requires_grad=True)) for name, _, _ in specs)
    return DiffusionModel(cfg, params)
