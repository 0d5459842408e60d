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
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .fileio import atomic_write_bytes
from .video import Clip

BLOCK = 4
FLOW_RADIUS = 3
TOP_FLOW_FRACTION = 0.05
STALL_THRESHOLD = 1.0   # pixels/frame: treated clip is near-static below this
DROP_RATIO = 1.5        # and the base clip moved at least this much faster

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

def _block_means(arr: np.ndarray) -> np.ndarray:
    """(F, H, W, C) -> (F, H/B, W/B, C) by mean-pooling B x B blocks."""
    f, h, w, c = arr.shape
    if h % BLOCK or w % BLOCK:
        raise ContractError(f"frame size {h}x{w} must be divisible by block size {BLOCK}")
    return arr.reshape(f, h // BLOCK, BLOCK, w // BLOCK, BLOCK, c).mean(axis=(2, 4))


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


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 and nv == 0.0:
        return 1.0
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _region_consistency(blocks: np.ndarray, region: np.ndarray) -> float:
    """Mean consecutive-frame cosine of the (F, Hb, Wb, C) block means inside `region`."""
    if not region.any():
        raise ContractError("region mask selects no blocks")
    feats = blocks[:, region, :].reshape(blocks.shape[0], -1)
    sims = [_cosine(feats[i], feats[i + 1]) for i in range(blocks.shape[0] - 1)]
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

def _flow(arr: np.ndarray, radius: int) -> tuple[np.ndarray, bool]:
    """Block flow for every consecutive pair of a finite float64 (F, H, W, C) stack.

    Returns ((F-1, Hb, Wb, 2) integer (dy, dx), saturated).  One vectorised
    pass per candidate scores every block of every pair.  The next frames are
    padded with +inf, so an off-frame window scores +inf.  Window and
    reference are laid out as (F-1, Hb, Wb, BLOCK*BLOCK*C) in the block's
    row-major (y, x, c) order: summing that contiguous last axis adds in the
    same order as `.sum()` over one (BLOCK, BLOCK, C) block, so the SAD bits
    do not depend on the layout.  Candidates are ranked by (magnitude, dy, dx)
    and `argmin` keeps the first of equal SADs, the smallest displacement.
    """
    if radius < 0:
        raise ContractError(f"flow radius must be >= 0, got {radius}")
    f, h, w, c = arr.shape
    if h % BLOCK or w % BLOCK:
        raise ContractError(f"frame size {h}x{w} must be divisible by block size {BLOCK}")
    hb, wb = h // BLOCK, w // BLOCK

    def blocks(frames):
        return frames.reshape(f - 1, hb, BLOCK, wb, BLOCK, c).swapaxes(2, 3).reshape(f - 1, hb, wb, -1)

    ref = blocks(arr[:-1])
    padded = np.pad(arr[1:], ((0, 0), (radius, radius), (radius, radius), (0, 0)),
                    constant_values=np.inf)
    candidates = np.array(sorted(
        ((dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1])))
    sads = np.empty((len(candidates), f - 1, hb, wb))
    for k, (dy, dx) in enumerate(candidates):
        window = padded[:, radius + dy:radius + dy + h, radius + dx:radius + dx + w]
        sads[k] = np.abs(blocks(window) - ref).sum(axis=-1)
    flows = candidates[sads.argmin(axis=0)]
    return flows, bool(np.abs(flows).max() == radius)


def block_flow(prev: np.ndarray, nxt: np.ndarray,
               radius: int = FLOW_RADIUS) -> tuple[np.ndarray, bool]:
    """Per-block integer displacement from `prev` to `nxt` by exhaustive SAD.

    Returns ((Hb, Wb, 2) array of (dy, dx), saturated) where `saturated`
    reports whether any winning displacement sits on the search boundary.
    Candidates are ranked by (magnitude, dy, dx) and the first of equal SADs
    wins, so ties resolve to the smallest displacement.
    """
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    if prev.shape != nxt.shape or prev.ndim != 3:
        raise ContractError(f"flow needs two (H, W, C) frames, got {prev.shape} and {nxt.shape}")
    pair = np.stack([prev, nxt])
    if not np.isfinite(pair).all():
        raise ContractError("flow frames must be finite")
    flows, saturated = _flow(pair, radius)
    return flows[0], saturated


def estimate_flow(clip, radius: int = FLOW_RADIUS) -> tuple[np.ndarray, bool]:
    """Block-flow magnitude maps for every consecutive frame pair.

    Returns ((F-1, Hb, Wb) float64 magnitudes, saturated) where `saturated`
    reports whether any pair hit the search boundary.
    """
    flows, saturated = _flow(_as_array(clip), radius)
    return np.sqrt((flows.astype(np.float64) ** 2).sum(axis=-1)), saturated


def oft(clip) -> float:
    """Overall motion summary: mean of the top 5% (at least one) block-flow
    magnitudes across the clip."""
    mags = np.sort(estimate_flow(clip)[0].reshape(-1))[::-1]
    k = max(1, math.ceil(TOP_FLOW_FRACTION * mags.size))
    return float(np.mean(mags[:k]))


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
    apply the exclusion rule.  `alpha` only annotates the report rows."""
    if baselines is not None and len(baselines) != len(videos):
        raise ContractError(f"need index-aligned lists, got {len(videos)} videos "
                            f"and {len(baselines)} baselines")
    rows = []
    for i, video in enumerate(videos):
        meta = video.meta if isinstance(video, Clip) else {}
        # one check and pooling for flicker/SC/BC; the public `oft`, which
        # perfbench's tracer wraps by name, takes the clip and checks it itself
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
            "oft": oft(video),
            "excluded": None,
        })
    ec = None
    if baselines is not None and rows:
        for row, base in zip(rows, baselines):
            row["excluded"] = is_motion_excluded(oft(base), row["oft"])
        ec = sum(row["excluded"] for row in rows)
    if not rows:
        return MetricsReport(rows=[], aggregates=None, excluded=None)
    aggregates = {key: float(np.mean([row[key] for row in rows]))
                  for key in ("flicker", "sc", "bc", "oft")}
    return MetricsReport(rows=rows, aggregates=aggregates, excluded=ec)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_metrics_csv(path, report: MetricsReport) -> None:
    """One row per video plus an `aggregate` footer row; atomic write."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow([_csv_cell(row[col]) for col in CSV_COLUMNS])
    if report.aggregates is not None:
        agg = report.aggregates
        writer.writerow(["aggregate", "", "", "",
                         _csv_cell(agg["flicker"]), _csv_cell(agg["sc"]),
                         _csv_cell(agg["bc"]), _csv_cell(agg["oft"]),
                         _csv_cell(report.excluded)])
    atomic_write_bytes(path, buf.getvalue().encode())
