"""Video evaluation metrics.

All metrics consume clips with values in [0, 1] and reduce with float64.
Consistency metrics compare 4x4 mean-pooled block features between
consecutive frames inside a region; when no mask is given the subject region
falls back to the top temporal-variance quartile of blocks and the
background to its complement.  Motion is measured with exhaustive
block-matching (SAD, radius 3) and summarized by OFT — the mean of the top
5% of block-flow magnitudes; a treated clip counts as motion-excluded when
its OFT falls below 1 pixel/frame while the base clip moved at least 1.5x
faster.  `evaluate_set` bundles everything into one CSV-serializable report.
It checks and converts each clip once and scores motion in stacks of at most
CHUNK consecutive clips of one shape through `_chunk_oft`; `estimate_flow`
and `oft` run the same block-flow kernel on a stack of one clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, is_intensity
from .fileio import write_csv
from .heap import keep_freed_heap_pages
from .video import Clip

BLOCK = 4
FLOW_RADIUS = 3
TOP_FLOW_FRACTION = 0.05
STALL_THRESHOLD = 1.0   # pixels/frame: treated clip is near-static below this
DROP_RATIO = 1.5        # and the base clip moved at least this much faster
CHUNK = 8               # clips per stacked flow pass: 16 took more memory for no more speed

CSV_COLUMNS = ("id", "condition", "seed", "alpha", "flicker", "sc", "bc", "oft", "excluded")


def _as_array(clip) -> np.ndarray:
    arr = clip.data if isinstance(clip, Clip) else np.asarray(clip)
    if arr.ndim != 4:
        raise ContractError(f"clip array must be (frames, height, width, channels), got {arr.shape}")
    if arr.shape[0] < 2:
        raise ContractError("metrics need at least 2 frames")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
        raise ContractError("clip values must be finite and lie in [0, 1]")
    return arr


def temporal_flicker_score(clip) -> float:
    """1 minus the mean absolute consecutive-frame difference (1 = static)."""
    return _flicker(_as_array(clip))


def _flicker(arr: np.ndarray) -> float:
    return float(1.0 - np.mean(np.abs(np.diff(arr, axis=0))))


# ---------------------------------------------------------------------------
# block features and consistency
# ---------------------------------------------------------------------------

def _block_grid(arr: np.ndarray) -> tuple[int, int]:
    """(H/B, W/B) of a (..., H, W, C) array whose frames tile into B x B blocks."""
    h, w = arr.shape[-3:-1]
    if h % BLOCK or w % BLOCK:
        raise ContractError(f"frame size {h}x{w} must be divisible by block size {BLOCK}")
    return h // BLOCK, w // BLOCK


def _block_means(arr: np.ndarray) -> np.ndarray:
    """(F, H, W, C) -> (F, H/B, W/B, C) by mean-pooling B x B blocks."""
    hb, wb = _block_grid(arr)
    f, c = arr.shape[0], arr.shape[-1]
    return arr.reshape(f, hb, BLOCK, wb, BLOCK, c).mean(axis=(2, 4))


def _block_mask(mask: np.ndarray, h: int, w: int) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.shape != (h, w):
        raise ContractError(f"mask shape {mask.shape} does not match frames {h}x{w}")
    pooled = mask.astype(np.float64).reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).mean(axis=(1, 3))
    return pooled > 0.5


def _variance_block_mask(blocks: np.ndarray) -> np.ndarray:
    """Subject fallback: top temporal-variance quartile of blocks (at least one)."""
    var = blocks.var(axis=0).mean(axis=-1)  # (Hb, Wb)
    flat = var.reshape(-1)
    k = max(1, math.ceil(flat.size / 4))
    order = np.argsort(-flat, kind="stable")  # ties: lowest block index wins
    chosen = np.zeros(flat.size, dtype=bool)
    chosen[order[:k]] = True
    return chosen.reshape(var.shape)


def _region_consistency(blocks: np.ndarray, region: np.ndarray) -> float:
    """Mean consecutive-frame cosine of the (F, Hb, Wb, C) block means inside `region`.

    Each frame's norm is taken once.  Two zero frames count as 1, a zero
    frame beside a non-zero one as 0, and a cosine is clipped to [-1, 1].
    """
    if not region.any():
        raise ContractError("region mask selects no blocks")
    feats = blocks[:, region, :].reshape(blocks.shape[0], -1)
    norms = [float(np.linalg.norm(f)) for f in feats]
    sims = []
    for u, v, nu, nv in zip(feats, feats[1:], norms, norms[1:]):
        if nu == 0.0 or nv == 0.0:
            sims.append(float(nu == nv))
        else:
            sims.append(min(max(float(np.dot(u, v)) / (nu * nv), -1.0), 1.0))
    return float(np.mean(sims))


def consistency_score(clip, region: str = "subject", mask=None) -> float:
    """Mean consecutive-frame cosine similarity over one region's blocks.

    `region` is "subject" or "background"; `mask` (H, W, bool) marks subject
    pixels and defaults to the temporal-variance fallback.
    """
    if region not in ("subject", "background"):
        raise ContractError(f"region must be 'subject' or 'background', got {region!r}")
    arr = _as_array(clip)
    blocks = _block_means(arr)
    if mask is None:
        subject = _variance_block_mask(blocks)
    else:
        subject = _block_mask(mask, arr.shape[1], arr.shape[2])
    return _region_consistency(blocks, subject if region == "subject" else ~subject)


# ---------------------------------------------------------------------------
# block-matching flow
# ---------------------------------------------------------------------------

# candidate displacements ranked by (dy² + dx², dy, dx), the tie order
_CANDIDATES = np.array(sorted(
    ((dy, dx) for dy in range(-FLOW_RADIUS, FLOW_RADIUS + 1)
     for dx in range(-FLOW_RADIUS, FLOW_RADIUS + 1)),
    key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1])))


def _flow(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block flow for every consecutive pair of each clip of a finite float64
    (N, F, H, W, C) stack.

    Returns ((N, F-1, Hb, Wb, 2) integer (dy, dx), (N,) bool saturated).  One
    vectorised pass per candidate scores every block of every pair of every
    clip.  The next frames are padded with +inf, so an off-frame window scores
    +inf.  Each candidate's window, viewed in block layout, minus the
    reference blocks is written into one contiguous (N, F-1, Hb, Wb,
    BLOCK*BLOCK*C) buffer in the block's row-major (y, x, c) order, reused for
    every candidate: summing that contiguous last axis adds in the same order
    as `.sum()` over one (BLOCK, BLOCK, C) block, whatever N is, so every SAD
    keeps the bits of one block scored alone.  `argmin` keeps the first of
    equal SADs in `_CANDIDATES` order, the smallest displacement.
    """
    radius = FLOW_RADIUS
    n, f, h, w, c = stack.shape
    hb, wb = _block_grid(stack)
    keep_freed_heap_pages()  # else each chunk faults its ~1 MB of buffers back in
    grid = (n, f - 1, hb, BLOCK, wb, BLOCK, c)

    def block_view(frames):  # (n, f-1, hb, wb, BLOCK, BLOCK, c), no copy
        return frames.reshape(grid).swapaxes(3, 4)

    ref = np.ascontiguousarray(block_view(stack[:, :-1]))
    padded = np.pad(stack[:, 1:], ((0, 0), (0, 0), (radius, radius), (radius, radius), (0, 0)),
                    constant_values=np.inf)
    diff = np.empty((n, f - 1, hb, wb, BLOCK * BLOCK * c))
    diff_blocks = diff.reshape(ref.shape)
    sads = np.empty((len(_CANDIDATES), n, f - 1, hb, wb))
    for k, (dy, dx) in enumerate(_CANDIDATES):
        window = padded[:, :, radius + dy:radius + dy + h, radius + dx:radius + dx + w]
        np.subtract(block_view(window), ref, out=diff_blocks)
        np.abs(diff, out=diff)
        np.sum(diff, axis=-1, out=sads[k])
    flows = _CANDIDATES[sads.argmin(axis=0)]
    return flows, np.abs(flows).reshape(n, -1).max(axis=1) == radius


def _magnitudes(flows: np.ndarray) -> np.ndarray:
    return np.sqrt((flows.astype(np.float64) ** 2).sum(axis=-1))


def _chunk_oft(stack: np.ndarray) -> list[float]:
    """OFT of each clip of a checked float64 (N, F, H, W, C) stack: the mean of
    its top 5% (at least one) block-flow magnitudes."""
    out = []
    for mags in _magnitudes(_flow(stack)[0]):
        mags = np.sort(mags.reshape(-1))[::-1]
        k = max(1, math.ceil(TOP_FLOW_FRACTION * mags.size))
        out.append(float(np.mean(mags[:k])))
    return out


def estimate_flow(clip) -> tuple[np.ndarray, bool]:
    """Block-flow magnitude maps for every consecutive frame pair.

    Returns ((F-1, Hb, Wb) float64 magnitudes, saturated) where `saturated`
    reports whether any pair hit the search boundary.
    """
    flows, saturated = _flow(_as_array(clip)[None])
    return _magnitudes(flows[0]), bool(saturated[0])


def oft(clip) -> float:
    """Overall motion summary: mean of the top 5% (at least one) block-flow
    magnitudes across the clip."""
    return _chunk_oft(_as_array(clip)[None])[0]


def _ofts_in_chunks(arrays) -> list[float]:
    """`_chunk_oft` over checked clip arrays, taken in order in stacks of at
    most CHUNK consecutive arrays of one shape, so that at most one stack is
    held at a time."""
    out, chunk = [], []
    for arr in arrays:
        if chunk and (len(chunk) == CHUNK or arr.shape != chunk[0].shape):
            out += _chunk_oft(np.stack(chunk))
            chunk = []
        chunk.append(arr)
    if chunk:
        out += _chunk_oft(np.stack(chunk))
    return out


# ---------------------------------------------------------------------------
# exclusion rule and set-level reports
# ---------------------------------------------------------------------------

def is_motion_excluded(base_motion: float, treated_motion: float) -> bool:
    """Exclusion rule: the treated clip stalled (< 1 px/frame) while the base
    clip moved at least 1.5x faster; a treated 0 against a moving base counts."""
    if base_motion < 0 or treated_motion < 0:
        raise ContractError("motion summaries must be non-negative")
    if treated_motion >= STALL_THRESHOLD:
        return False
    if treated_motion == 0.0:
        return base_motion > 0.0
    return base_motion / treated_motion > DROP_RATIO


@dataclass
class MetricsReport:
    """Per-video metric rows plus set-level aggregates (absent when empty)."""
    rows: list
    aggregates: dict | None
    excluded: int | None

    def summary_line(self) -> str:
        if self.aggregates is None:
            return "no videos evaluated"
        agg = self.aggregates
        line = (f"n={len(self.rows)} flicker={agg['flicker']:.4f} sc={agg['sc']:.4f} "
                f"bc={agg['bc']:.4f} oft={agg['oft']:.3f}")
        if self.excluded is not None:
            line += f" ec={self.excluded}"
        return line


def evaluate_set(videos, baselines=None, alpha: float | None = None) -> MetricsReport:
    """Score every video; when `baselines` is given (index-aligned), also
    apply the exclusion rule.  `alpha`, None or an intensity in [0, 1], only
    annotates the report rows."""
    if alpha is not None and not is_intensity(alpha):
        raise ContractError(f"alpha must be None or a number in [0, 1], got {alpha!r}")
    if baselines is not None and len(baselines) != len(videos):
        raise ContractError(f"need index-aligned lists, got {len(videos)} videos "
                            f"and {len(baselines)} baselines")
    rows = []

    def checked_videos():
        # each video is checked and converted once, and scores its per-clip
        # metrics before the next is read, so the first bad clip raises first
        for i, video in enumerate(videos):
            meta = video.meta if isinstance(video, Clip) else {}
            arr = _as_array(video)
            blocks = _block_means(arr)
            subject = _variance_block_mask(blocks)
            rows.append({
                "id": i,
                "condition": meta.get("condition"),
                "seed": meta.get("seed"),
                "alpha": alpha,
                "flicker": _flicker(arr),
                "sc": _region_consistency(blocks, subject),
                "bc": _region_consistency(blocks, ~subject),
                "oft": None,
                "excluded": None,
            })
            yield arr

    def checked_baselines():
        for base in baselines:
            arr = _as_array(base)
            _block_grid(arr)  # refuse its frame size in turn, not when its chunk is scored
            yield arr

    motions = _ofts_in_chunks(checked_videos())
    for row, motion in zip(rows, motions):
        row["oft"] = motion
    if not rows:
        return MetricsReport(rows=[], aggregates=None, excluded=None)
    ec = None
    if baselines is not None:
        for row, motion in zip(rows, _ofts_in_chunks(checked_baselines())):
            row["excluded"] = is_motion_excluded(motion, row["oft"])
        ec = sum(row["excluded"] for row in rows)
    aggregates = {key: float(np.mean([row[key] for row in rows]))
                  for key in ("flicker", "sc", "bc", "oft")}
    return MetricsReport(rows=rows, aggregates=aggregates, excluded=ec)


def write_metrics_csv(path, report: MetricsReport) -> None:
    """One row per video plus an `aggregate` footer row; atomic write."""
    rows = [[row[col] for col in CSV_COLUMNS] for row in report.rows]
    if report.aggregates is not None:
        agg = report.aggregates
        rows.append(["aggregate", None, None, None, agg["flicker"], agg["sc"], agg["bc"],
                     agg["oft"], report.excluded])
    write_csv(path, CSV_COLUMNS, rows)
