"""Synthetic training clips: one moving object over a static textured field.

A condition id deterministically selects (shape, motion, palette); the seed
drives start position, direction, phase, and the per-frame appearance jitter.
The same (condition, seed) pair always renders bit-identical clips.  Values
keep 0.1 of headroom below 1.0 so brightness-shift invariance checks stay in
range, and are snapped to the 1/2^24 grid, which float32 subtraction from 1
maps onto itself — that is what makes color inversion a bit-exact involution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, is_index
from .video import Clip

SHAPES = ("square", "disk", "bar")
MOTIONS = ("translate", "oscillate", "grow")
PALETTES = ((0.20, 0.80), (0.30, 0.70), (0.15, 0.65), (0.25, 0.75))
NUM_CONDITIONS = len(SHAPES) * len(MOTIONS) * len(PALETTES)  # 36
DEFAULT_CONDITIONS = tuple(range(16))  # default corpus: first 16 ids
STYLES = ("invert", "posterize", "grayscale", "vignette")

DEFAULT_JITTER = 0.05  # per-frame object value jitter and edge noise amplitude
_BG_WAVE = 0.04        # background texture wave amplitude
_BG_NOISE = 0.02       # background static pixel noise amplitude
_HALF = 2              # object half-extent in pixels
_GRID = float(2 ** 24)  # pixel value quantum (see module docstring)
_POSTER_LEVELS = 4
_VIGNETTE = 0.5


@dataclass(frozen=True)
class ConditionSpec:
    """Decoded rendering program for one condition id."""
    condition_id: int
    shape: str
    motion: str
    palette: int


def check_conditions(conditions) -> tuple:
    """The ids of a condition list as ints, or ContractError unless it is a
    non-empty list, tuple, range or 1-D array of integers in [0, NUM_CONDITIONS)."""
    if isinstance(conditions, np.ndarray) and conditions.ndim == 1:
        conditions = conditions.tolist()
    if not isinstance(conditions, (list, tuple, range)) or len(conditions) == 0:
        raise ContractError(f"conditions must be a list of at least one id, got {conditions!r}")
    bad = [c for c in conditions if not is_index(c, NUM_CONDITIONS)]
    if bad:
        raise ContractError(f"condition ids {bad} are not integers in [0, {NUM_CONDITIONS})")
    return tuple(int(c) for c in conditions)


def check_jitter(jitter) -> None:
    """ContractError unless the appearance jitter lies in [0, 0.1]."""
    if not 0.0 <= jitter <= 0.1:
        raise ContractError(f"jitter must lie in [0, 0.1], got {jitter}")


def describe_condition(cond: int) -> ConditionSpec:
    """Decode a condition id; ids enumerate (shape, motion, palette) triples."""
    if not is_index(cond, NUM_CONDITIONS):
        raise ContractError(f"condition must be an integer in [0, {NUM_CONDITIONS}), got {cond!r}")
    cond = int(cond)
    return ConditionSpec(
        condition_id=cond,
        shape=SHAPES[cond % len(SHAPES)],
        motion=MOTIONS[(cond // len(SHAPES)) % len(MOTIONS)],
        palette=(cond // (len(SHAPES) * len(MOTIONS))) % len(PALETTES),
    )


def _object_mask(shape: str, cy: float, cx: float, half: float,
                 height: int, width: int) -> np.ndarray:
    yy, xx = np.mgrid[0:height, 0:width]
    if shape == "square":
        return (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    if shape == "disk":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= (half + 0.5) ** 2
    return (np.abs(yy - cy) <= 1) & (np.abs(xx - cx) <= half + 1)  # bar


def _extent(shape: str, half: float) -> tuple[int, int]:
    """Largest |dy|, |dx| a shape can reach from its center."""
    if shape == "square":
        e = int(np.ceil(half))
        return e, e
    if shape == "disk":
        e = int(np.floor(half + 0.5))
        return e, e
    return 1, int(np.ceil(half)) + 1  # bar


def _check_fits(program: ConditionSpec, height: int, width: int) -> None:
    """Refuse a frame too small for an oscillating object, which keeps its
    extent plus 3 pixels clear of each border; other motions fit 8x8."""
    ey, ex = _extent(program.shape, float(_HALF))
    if program.motion == "oscillate" and (height < 2 * ey + 7 or width < 2 * ex + 7):
        raise ContractError(f"condition {program.condition_id} ({program.shape}, oscillate) needs "
                            f"frames of at least {2 * ey + 7}x{2 * ex + 7}, got {height}x{width}")


def _check_render(seed, programs, frames, height, width, jitter, style=None) -> None:
    """ContractError unless the seed is an integer >= 0, the geometry integers of at least 2
    frames of 8x8 that each program fits, the jitter in [0, 0.1] and the style None or in STYLES."""
    if not is_index(seed):
        raise ContractError(f"seed must be an integer >= 0, got {seed!r}")
    if not all(map(is_index, (frames, height, width))) or frames < 2 or min(height, width) < 8:
        raise ContractError(f"geometry must be integers of at least 2 frames of 8x8, "
                            f"got frames={frames!r}, {height!r}x{width!r}")
    for program in programs:
        _check_fits(program, height, width)
    check_jitter(jitter)
    if style is not None and style not in STYLES:
        raise ContractError(f"unknown style {style!r}; choose from {STYLES}")


def _edge_of(mask: np.ndarray) -> np.ndarray:
    """Boundary ring: mask pixels with at least one off-mask 4-neighbour."""
    inner = mask.copy()
    inner[1:, :] &= mask[:-1, :]
    inner[:-1, :] &= mask[1:, :]
    inner[:, 1:] &= mask[:, :-1]
    inner[:, :-1] &= mask[:, 1:]
    return mask & ~inner


def _start_range(size: int, margin: int, v: int, frames: int) -> tuple[int, int]:
    back = max(0, -v * (frames - 1))
    fwd = max(0, v * (frames - 1))
    low, high = margin + back, size - margin - fwd
    if high <= low:  # tiny geometry: keep the velocity, let the object exit frame
        low, high = margin, max(margin + 1, size - margin)
    return low, high


def render_clip(cond: int, seed: int, frames: int = 8, height: int = 16,
                width: int = 16, jitter: float = DEFAULT_JITTER) -> tuple[Clip, np.ndarray]:
    """Render one clip at 8 fps; returns (clip, per-frame object masks (F, H, W) bool)."""
    program = describe_condition(cond)
    _check_render(seed, [program], frames, height, width, jitter)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(cond)]))
    bg_level, fg_level = PALETTES[program.palette]

    # static textured background: low-frequency wave plus frozen pixel noise
    yy, xx = np.mgrid[0:height, 0:width]
    phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
    wave = np.sin(2 * np.pi * yy / height + phase_y) * np.sin(2 * np.pi * xx / width + phase_x)
    background = bg_level + _BG_WAVE * wave + rng.uniform(-_BG_NOISE, _BG_NOISE,
                                                          size=(height, width))

    half = float(_HALF)
    motion = program.motion
    if motion == "translate":
        ey, ex = _extent(program.shape, half)
        vy, vx = rng.choice([(0, 1), (1, 0), (1, 1), (0, -1), (-1, 0),
                             (-1, -1), (1, -1), (-1, 1)])
        y0 = rng.integers(*_start_range(height, ey + 1, vy, frames))
        x0 = rng.integers(*_start_range(width, ex + 1, vx, frames))
        centers = [(y0 + vy * t, x0 + vx * t) for t in range(frames)]
        halves = [half] * frames
    elif motion == "oscillate":
        ey, ex = _extent(program.shape, half)
        cy = rng.integers(ey + 3, height - ey - 3)
        cx = rng.integers(ex + 3, width - ex - 3)
        phase = rng.uniform(0, 2 * np.pi)
        axis = rng.integers(0, 2)
        centers = []
        for t in range(frames):
            off = int(np.rint(2.0 * np.sin(2 * np.pi * t / frames + phase)))
            centers.append((cy + off, cx) if axis == 0 else (cy, cx + off))
        halves = [half] * frames
    else:  # grow
        cap = 4.0  # largest half whose extent clears the border from any center
        while cap > 1.0:
            ey, ex = _extent(program.shape, cap)
            if (ey <= min(height // 2 - 3, height - height // 2 - 4)
                    and ex <= min(width // 2 - 3, width - width // 2 - 4)):
                break
            cap -= 1.0
        cy = rng.integers(height // 2 - 2, height // 2 + 3)
        cx = rng.integers(width // 2 - 2, width // 2 + 3)
        centers = [(cy, cx)] * frames
        halves = [min(1.0 + 3.0 * t / (frames - 1), cap) for t in range(frames)]

    data = np.empty((frames, height, width, 1), dtype=np.float64)
    masks = np.empty((frames, height, width), dtype=bool)
    for t in range(frames):
        frame = background.copy()
        mask = _object_mask(program.shape, centers[t][0], centers[t][1],
                            halves[t], height, width)
        fill = fg_level + rng.uniform(-jitter, jitter)
        frame[mask] = fill
        edge = _edge_of(mask)
        frame[edge] += rng.uniform(-jitter, jitter, size=int(edge.sum()))
        data[t, :, :, 0] = frame
        masks[t] = mask
    data = np.rint(np.clip(data, 0.0, 1.0) * _GRID) / _GRID
    clip = Clip(data.astype(np.float32), meta={"condition": int(cond), "seed": int(seed)})
    return clip, masks


def gen_moving_scene(cond: int, seed: int, **kwargs) -> Clip:
    """Moving-object clip for a condition id (mask-free convenience form)."""
    return render_clip(cond, seed, **kwargs)[0]


def make_static_video(frame: np.ndarray, frames: int, fps: float = 8.0,
                      meta: dict | None = None) -> Clip:
    """Duplicate a single (H, W, C) frame into an exactly static clip."""
    frame = np.asarray(frame, dtype=np.float32)
    if frame.ndim != 3:
        raise ContractError(f"frame must be (height, width, channels), got {frame.shape}")
    if not (is_index(frames) and frames >= 1):
        raise ContractError(f"frames must be an integer >= 1, got {frames!r}")
    data = np.repeat(frame[None], frames, axis=0)
    return Clip(data, fps=fps, meta=dict(meta or {}))


def apply_style(clip: Clip, style: str) -> Clip:
    """Deterministic pixel restyle; `style` is one of STYLES.

    Inversion is bit-exact self-inverse on the renderer's 1/2^24 value grid.
    """
    if style not in STYLES:
        raise ContractError(f"unknown style {style!r}; choose from {STYLES}")
    x = clip.data
    if style == "invert":
        out = np.float32(1.0) - x
    elif style == "posterize":
        q = np.float32(_POSTER_LEVELS - 1)
        out = np.rint(x * q) / q
    elif style == "grayscale":
        out = np.repeat(x.mean(axis=-1, keepdims=True, dtype=np.float32),
                        x.shape[-1], axis=-1)
    else:  # vignette
        f, h, w, c = x.shape
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
        r2 = ((yy - (h - 1) / 2.0) ** 2 + (xx - (w - 1) / 2.0) ** 2)
        r2 /= max(r2.max(), 1.0)
        out = x * (1.0 - np.float32(_VIGNETTE) * r2[None, :, :, None])
    out = np.clip(out, 0.0, 1.0).astype(np.float32)
    return Clip(out, fps=clip.fps, meta={**clip.meta, "style": style})


def clip_stream(batch_size: int, seed: int, conditions=None, static: bool = False,
                style: str | None = None, frames: int = 8, height: int = 16, width: int = 16,
                jitter: float = DEFAULT_JITTER):
    """Infinite iterator of training batches ((B, F, H, W, C) float32, cond ids).

    `render_clip` draws each clip at the given geometry and jitter; `static`
    rebuilds it from its own first frame (consistency targets) and `style`
    restyles it.  A stream is a pure function of its arguments, each checked
    when the stream is made (ContractError), not at its first batch.
    """
    if not (is_index(batch_size) and batch_size >= 1):
        raise ContractError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    pool = check_conditions(DEFAULT_CONDITIONS if conditions is None else conditions)
    _check_render(seed, map(describe_condition, pool), frames, height, width, jitter, style)
    render = {"frames": frames, "height": height, "width": width, "jitter": jitter}
    return _batches(batch_size, np.random.default_rng(seed), np.asarray(pool, dtype=int),
                    static, style, render)


def _batches(batch_size, rng, pool, static, style, render):
    while True:
        conds = pool[rng.integers(0, len(pool), size=batch_size)]
        clip_seeds = rng.integers(0, 2 ** 31, size=batch_size)
        batch = []
        for c, s in zip(conds, clip_seeds):
            clip = gen_moving_scene(int(c), int(s), **render)
            if static:
                clip = make_static_video(clip.data[0], clip.frames, meta=clip.meta)
            if style is not None:
                clip = apply_style(clip, style)
            batch.append(clip.data)
        yield np.stack(batch), conds.copy()
