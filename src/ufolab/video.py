"""Video clips: float32 arrays of shape (frames, height, width, channels)
with values in [0, 1], saved as a raw little-endian payload next to a JSON
sidecar describing the geometry and frame rate."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, check_field_types, is_number
from .fileio import atomic_write_bytes, canonical_json

SIDECAR_KEYS = ("frames", "height", "width", "channels", "fps")


@dataclass
class Clip:
    """One video clip. `meta` carries free-form provenance (seed, condition, ...)."""

    data: np.ndarray
    fps: float = 8.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 4:
            raise ContractError(f"clip data must be (frames, height, width, channels), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractError("clip data contains non-finite values")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ContractError(f"clip values must lie in [0, 1], got [{arr.min()}, {arr.max()}]")
        if not 0 < self.fps < math.inf:
            raise ContractError(f"fps must be a finite positive number, got {self.fps!r}")
        self.data = arr
        self.fps = float(self.fps)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple:
        return self.data.shape


def save_clip(clip: Clip, path) -> None:
    """Write `<path>` (raw float32 LE frames) and `<path>.json` (geometry sidecar).

    An old sidecar is removed before the payload is replaced, so a save that
    stops between the two writes leaves a payload without a sidecar, which
    `load_clip` refuses, and never a new payload paired with an old sidecar.
    """
    path = Path(path)
    side_path = Path(str(path) + ".json")
    f, h, w, c = clip.data.shape
    sidecar = {"frames": f, "height": h, "width": w, "channels": c,
               "fps": clip.fps, "meta": dict(clip.meta)}
    side_path.unlink(missing_ok=True)
    atomic_write_bytes(path, clip.data.astype("<f4").tobytes(order="C"))
    atomic_write_bytes(side_path, canonical_json(sidecar) + b"\n")


def load_clip(path) -> Clip:
    """Inverse of save_clip; raises FormatError on any mismatch or damage."""
    path = Path(path)
    side_path = Path(str(path) + ".json")
    if not side_path.exists():
        raise FormatError(f"missing sidecar {side_path.name}")
    try:
        sidecar = json.loads(side_path.read_text("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"sidecar is not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise FormatError("sidecar must be a JSON object")
    for key in SIDECAR_KEYS:
        if key not in sidecar:
            raise FormatError(f"sidecar is missing key '{key}'")
    dims = [sidecar[k] for k in ("frames", "height", "width", "channels")]
    if not all(is_number(d, int) and d > 0 for d in dims):
        raise FormatError(f"sidecar geometry must be positive integers, got {dims}")

    blob = path.read_bytes()
    expected = math.prod(dims) * 4
    if len(blob) != expected:
        raise FormatError(f"payload holds {len(blob)} bytes, sidecar promises {expected}",
                          offset=min(len(blob), expected))
    arr = np.frombuffer(blob, dtype="<f4").reshape(dims).astype(np.float32, copy=True)
    try:
        return Clip(arr, fps=sidecar["fps"], meta=sidecar.get("meta", {}))
    except ContractError as exc:
        raise FormatError(f"bad clip: {exc}") from None
