"""Metric tests against brute-force reimplementations and hand-built clips."""

import csv
import ctypes
import importlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ufolab import metrics
from ufolab.errors import ContractError
from ufolab.metrics import (
    CHUNK,
    MetricsReport,
    _block_means,
    _flow,
    _pairwise_sum,
    _region_consistency,
    consistency_score,
    estimate_flow,
    evaluate_set,
    is_motion_excluded,
    oft,
    temporal_flicker_score,
    write_metrics_csv,
)
from ufolab.synthdata import gen_moving_scene, make_static_video
from ufolab.video import Clip

from oracles import flow_oracle


def random_clip(seed, shape=(5, 16, 16, 1), lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


# ---------------------------------------------------------------------------
# brute-force oracles (independent, loop-based)
# ---------------------------------------------------------------------------

def flicker_oracle(arr):
    total, count = 0.0, 0
    for t in range(arr.shape[0] - 1):
        diff = np.abs(arr[t + 1] - arr[t])
        total += diff.sum()
        count += diff.size
    return 1.0 - total / count


def block_features_oracle(frame, region):
    feats = []
    for by in range(frame.shape[0] // 4):
        for bx in range(frame.shape[1] // 4):
            if region[by, bx]:
                for ch in range(frame.shape[2]):
                    feats.append(frame[by * 4:by * 4 + 4, bx * 4:bx * 4 + 4, ch].mean())
    return np.array(feats)


def consistency_oracle(arr, region):
    sims = []
    for t in range(arr.shape[0] - 1):
        u = block_features_oracle(arr[t], region)
        v = block_features_oracle(arr[t + 1], region)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 and nv == 0:
            sims.append(1.0)
        elif nu == 0 or nv == 0:
            sims.append(0.0)
        else:
            sims.append(float(u @ v / (nu * nv)))
    return float(np.mean(sims))


# ---------------------------------------------------------------------------
# flicker
# ---------------------------------------------------------------------------

def test_flicker_hand_values():
    arr = np.zeros((3, 8, 8, 1))
    arr[1] = 0.2
    arr[2] = 0.2
    # frame deltas: 0.2 then 0.0 -> mean 0.1
    assert abs(temporal_flicker_score(arr) - 0.9) < 1e-12
    static = np.full((4, 8, 8, 1), 0.5, dtype=np.float32)
    assert temporal_flicker_score(static) == 1.0


def test_flicker_matches_oracle_on_random_clips():
    for seed in range(10):
        arr = random_clip(seed)
        assert abs(temporal_flicker_score(arr) - flicker_oracle(arr)) < 1e-12


def test_flicker_shift_invariance():
    arr = random_clip(3, lo=0.1, hi=0.8)
    assert abs(temporal_flicker_score(arr + 0.1) - temporal_flicker_score(arr)) < 1e-12


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

def test_consistency_matches_oracle_with_explicit_masks():
    rng = np.random.default_rng(0)
    for seed in range(8):
        arr = random_clip(seed + 100)
        blocks = rng.integers(0, 2, size=(4, 4)).astype(bool)
        if not blocks.any():
            blocks[0, 0] = True
        if blocks.all():
            blocks[3, 3] = False
        mask = np.kron(blocks, np.ones((4, 4), dtype=bool))
        got = consistency_score(arr, "subject", mask=mask)
        assert abs(got - consistency_oracle(arr, blocks)) < 1e-12
        got_bg = consistency_score(arr, "background", mask=mask)
        assert abs(got_bg - consistency_oracle(arr, ~blocks)) < 1e-12


def cosine_chain_oracle(blocks, region):
    """The per-pair cosine chain `_region_consistency` replaced: both norms of
    every frame pair, and np.clip on the ratio."""
    def cosine(u, v):
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if nu == 0.0 and nv == 0.0:
            return 1.0
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))

    feats = blocks[:, region, :].reshape(blocks.shape[0], -1)
    return float(np.mean([cosine(feats[i], feats[i + 1]) for i in range(blocks.shape[0] - 1)]))


def test_region_consistency_matches_the_cosine_chain_bit_for_bit():
    rng = np.random.default_rng(21)
    for seed in range(40):
        blocks = _block_means(random_clip(seed, shape=(8, 16, 16, 2)))
        blocks[rng.random(8) < 0.3] = 0.0        # zero-norm frames, alone and in runs
        blocks[5] = (seed % 3 + 0.5) * blocks[4]  # parallel frames, a cosine at the clip bound
        if seed % 2:
            blocks[7] = -blocks[6]
        region = rng.random((4, 4)) < 0.5
        region[seed % 4, 0] = True
        got = _region_consistency(blocks, region)
        assert got.hex() == cosine_chain_oracle(blocks, region).hex(), seed
    zeros = np.zeros((3, 4, 4, 1))
    assert _region_consistency(zeros, np.ones((4, 4), dtype=bool)) == 1.0


def test_consistency_of_static_region_is_one():
    arr = np.tile(random_clip(5, shape=(1, 16, 16, 1)), (6, 1, 1, 1))
    mask = np.zeros((16, 16), dtype=bool)
    mask[:8, :8] = True
    assert abs(consistency_score(arr, "subject", mask=mask) - 1.0) < 1e-12
    assert abs(consistency_score(arr, "background", mask=mask) - 1.0) < 1e-12


def test_consistency_zero_feature_edges():
    arr = np.zeros((3, 8, 8, 1))
    arr[1, :4, :4, 0] = 0.5  # subject lights up only in the middle frame
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4, :4] = True
    # pairs: (zero, nonzero) -> 0 and (nonzero, zero) -> 0
    assert consistency_score(arr, "subject", mask=mask) == 0.0
    all_zero = np.zeros((3, 8, 8, 1))
    assert consistency_score(all_zero, "subject", mask=mask) == 1.0


def test_variance_fallback_targets_the_moving_region():
    # only the top-left 4x4 block changes over time
    arr = np.full((6, 16, 16, 1), 0.4)
    arr[:, :4, :4, 0] = np.linspace(0.1, 0.9, 6).reshape(6, 1, 1)
    got = consistency_score(arr, "subject")
    blocks = np.zeros((4, 4), dtype=bool)
    blocks[0, 0] = True
    # top-quartile of 16 blocks is 4 blocks; ties go to the lowest index, so
    # blocks (0,0),(0,1),(0,2),(0,3) are chosen -- verify against that rule
    blocks[0, 1] = blocks[0, 2] = blocks[0, 3] = True
    assert abs(got - consistency_oracle(arr, blocks)) < 1e-12
    got_bg = consistency_score(arr, "background")
    assert abs(got_bg - consistency_oracle(arr, ~blocks)) < 1e-12
    assert abs(got_bg - 1.0) < 1e-12  # outside the fallback subject is static


def test_consistency_mask_contracts():
    arr = random_clip(1)
    with pytest.raises(ContractError):
        consistency_score(arr, "subject", mask=np.zeros((8, 8), dtype=bool))  # wrong shape
    with pytest.raises(ContractError):
        consistency_score(arr, "subject", mask=np.zeros((16, 16), dtype=bool))  # empty region
    with pytest.raises(ContractError):
        consistency_score(arr, "background", mask=np.ones((16, 16), dtype=bool))  # empty complement
    with pytest.raises(ContractError):
        consistency_score(arr, "edges")  # unknown region
    with pytest.raises(ContractError):
        temporal_flicker_score(arr[:1])  # single frame
    with pytest.raises(ContractError):
        temporal_flicker_score(arr + 0.5)  # out of range


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def pair_flow(prev, nxt):
    """`estimate_flow` on the two-frame clip (prev, nxt): ((Hb, Wb) magnitudes, saturated)."""
    maps, saturated = estimate_flow(np.stack([prev, nxt]))
    return maps[0], saturated


def magnitudes(flow):
    return np.sqrt((flow.astype(np.float64) ** 2).sum(axis=-1))


def test_flow_recovers_known_translation():
    rng = np.random.default_rng(2)
    prev = rng.uniform(0, 1, size=(16, 16, 1))
    nxt = np.roll(prev, (1, 2), axis=(0, 1))
    mags, _ = pair_flow(prev, nxt)
    # interior blocks see the exact translated patch (SAD 0, unique)
    assert np.all(mags[:3, :3] == math.sqrt(5.0))


def test_flow_static_is_zero_and_unsaturated():
    frame = random_clip(4, shape=(1, 16, 16, 1))[0]
    mags, saturated = pair_flow(frame, frame)
    assert np.all(mags == 0.0) and not saturated
    clip = np.tile(frame, (5, 1, 1, 1))
    maps, sat = estimate_flow(clip)
    assert maps.shape == (4, 4, 4) and np.all(maps == 0.0) and not sat


def test_flow_saturates_and_caps_beyond_radius():
    rng = np.random.default_rng(5)
    prev = rng.uniform(0, 1, size=(16, 16, 1))
    nxt = np.roll(prev, 5, axis=1)  # translation beyond the search radius
    mags, saturated = pair_flow(prev, nxt)
    assert saturated
    assert mags.max() <= 3.0 * math.sqrt(2.0) + 1e-12


def test_flow_matches_bruteforce_oracle():
    for seed in range(6):
        rng = np.random.default_rng(seed + 200)
        prev = rng.uniform(0, 1, size=(16, 16, 1))
        if seed % 2:
            nxt = np.clip(np.roll(prev, (seed % 4 - 1, 1), axis=(0, 1))
                          + rng.normal(0, 0.02, size=prev.shape), 0, 1)
        else:
            nxt = rng.uniform(0, 1, size=(16, 16, 1))
        got, got_sat = pair_flow(prev, nxt)
        want, want_sat = flow_oracle(prev, nxt)
        assert np.array_equal(got, magnitudes(want)) and got_sat == want_sat


def tie_heavy_clips():
    """Clips full of equal SADs, static pairs, colour and out-of-radius motion."""
    rng = np.random.default_rng(31)
    levels = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    clips = [levels[rng.integers(0, 4, size=shape)]
             for shape in [(5, 16, 16, 1)] * 12 + [(3, 12, 20, 1)] * 4]
    clips.append(levels[rng.integers(0, 2, size=(4, 16, 16, 1))])  # two levels: more ties
    clips.append(levels[rng.integers(0, 4, size=(4, 16, 16, 3))])  # C = 3
    clips += [make_static_video(clips[0][0], 4).data, make_static_video(clips[-1][0], 3).data,
              make_static_video(gen_moving_scene(2, 4).data[0], 5).data]
    frame = rng.uniform(0, 1, size=(16, 16, 1))
    clips.append(np.stack([np.roll(frame, 5 * t, axis=1) for t in range(3)]))  # beyond the radius
    return clips


def test_flow_matches_oracle_bit_for_bit_on_tie_heavy_clips():
    for clip in tie_heavy_clips():
        pairs = [flow_oracle(clip[i], clip[i + 1]) for i in range(len(clip) - 1)]
        want_maps = np.stack([magnitudes(f) for f, _ in pairs])
        for i, ((_, want_sat), want) in enumerate(zip(pairs, want_maps)):
            got, got_sat = pair_flow(clip[i], clip[i + 1])
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got_sat == want_sat
        maps, saturated = estimate_flow(clip)
        assert maps.shape == want_maps.shape and np.array_equal(maps, want_maps)
        assert saturated == any(sat for _, sat in pairs)
    assert pair_flow(*tie_heavy_clips()[-1][:2])[1]  # the 5-pixel shift saturates


def test_stacked_flow_matches_oracle_pair_by_pair():
    # every clip of a stack, whatever its size, keeps the bits of its pairs scored alone
    clips = tie_heavy_clips()
    for shape in sorted({clip.shape for clip in clips}):
        group = [clip for clip in clips if clip.shape == shape]
        flows, saturated = _flow(np.stack(group).astype(np.float64))
        f, h, w, _ = shape
        assert flows.shape == (len(group), f - 1, h // 4, w // 4, 2)
        assert saturated.shape == (len(group),)
        for clip, got, got_sat in zip(group, flows, saturated):
            pairs = [flow_oracle(clip[i], clip[i + 1]) for i in range(f - 1)]
            assert np.array_equal(got, np.stack([flow for flow, _ in pairs]))
            assert got_sat == any(sat for _, sat in pairs)


def test_stacked_multichannel_flow_matches_oracle_pair_by_pair():
    # float64 values that float32 cannot hold, drawn from four levels for odd
    # clips (equal SADs whose sums round by order), a flat patch held over two
    # frames (exact ties) and a frame nudged by 1e-12 (near-ties), C = 2 and 3,
    # in a stack of more than CHUNK clips
    rng = np.random.default_rng(77)
    levels = np.array([0.1, 1.0 / 3.0, 0.7, 0.9])
    for c in (2, 3):
        stack = rng.uniform(0, 1, size=(CHUNK + 1, 4, 16, 16, c))
        stack[1::2] = levels[rng.integers(0, 4, size=stack[1::2].shape)]
        assert np.all(stack.astype(np.float32) != stack)
        stack[2, 1:3, 4:12, 2:14] = 0.5
        stack[5, 2] = np.clip(stack[5, 1] + rng.choice([-1e-12, 1e-12], size=(16, 16, c)), 0, 1)
        flows, saturated = _flow(stack)
        assert flows.shape == (CHUNK + 1, 3, 4, 4, 2) and saturated.shape == (CHUNK + 1,)
        for clip, got, got_sat in zip(stack, flows, saturated):
            pairs = [flow_oracle(clip[i], clip[i + 1]) for i in range(len(clip) - 1)]
            assert np.array_equal(got, np.stack([flow for flow, _ in pairs]))
            assert got_sat == any(sat for _, sat in pairs)


def equal_pair_clips():
    """Four-frame clips with equal consecutive frames, and the pairs that
    differ under `==`: a static clip, a repeated middle frame, a pair that
    differs only by the sign of zero and a pair one ulp apart in one pixel."""
    rng = np.random.default_rng(23)
    frame = rng.uniform(0, 1, size=(16, 16, 1))
    frame[:, :5] = 0.0
    signed = frame.copy()
    signed[:, :5] = -0.0
    nudged = frame.copy()
    nudged[6, 9, 0] = np.nextafter(nudged[6, 9, 0], 1.0)
    assert signed.tobytes() != frame.tobytes() and np.array_equal(signed, frame)
    assert not np.array_equal(nudged, frame) and np.allclose(nudged, frame, rtol=0, atol=1e-15)
    moving = gen_moving_scene(3, 8).data[:4].astype(np.float64)
    held = moving.copy()
    held[2] = held[1]
    clips = [np.stack([frame] * 4), held, np.stack([frame, signed, signed, frame]),
             np.stack([frame, frame, nudged, nudged])]
    return clips, [[], [0, 2], [], [1]]


def test_equal_frames_skip_the_search_and_match_the_oracle(monkeypatch):
    # a pair equal under `==` gets flow (0, 0) unsearched, exactly what the
    # search would give; one ulp is a move, the sign of a zero is not
    clips, moved = equal_pair_clips()
    calls, search = [], metrics._block_search

    def spy(stack, clips, frames):
        calls.append((stack[clips, frames], stack[clips, frames + 1]))
        return search(stack, clips, frames)

    monkeypatch.setattr(metrics, "_block_search", spy)
    flows, saturated = _flow(np.stack(clips))
    assert len(calls) == 1
    want = [(clip[t], clip[t + 1]) for clip, pairs in zip(clips, moved) for t in pairs]
    assert np.array_equal(calls[0][0], np.stack([prev for prev, _ in want]))
    assert np.array_equal(calls[0][1], np.stack([nxt for _, nxt in want]))
    for clip, got, got_sat in zip(clips, flows, saturated):
        pairs = [flow_oracle(clip[i], clip[i + 1]) for i in range(len(clip) - 1)]
        assert np.array_equal(got, np.stack([flow for flow, _ in pairs]))
        assert got_sat == any(sat for _, sat in pairs)
    calls.clear()
    still = np.stack([clips[0], clips[2], clips[0]])  # every pair equal: no search at all
    flows, saturated = _flow(still)
    assert calls == [] and flows.shape == (3, 3, 4, 4, 2)
    assert not flows.any() and not saturated.any()


@pytest.mark.parametrize("n", [16, 32, 48, 128, 144, 256, 1000])
def test_pairwise_sum_adds_as_numpy_sum_bit_for_bit(n):
    # the flow kernel's SADs keep the bits of `.sum()` over one block only while
    # `_pairwise_sum` adds in NumPy's order; a NumPy that reorders fails here
    rng = np.random.default_rng(n)
    values = rng.choice([-1.0, 1.0], size=(n, 256)) * np.exp2(rng.uniform(-40, 14, size=(n, 256)))
    want = np.sum(np.ascontiguousarray(values.T), axis=-1)
    got = _pairwise_sum(values.copy(), np.empty(256))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    left_to_right = np.zeros(256)
    for row in values:
        left_to_right += row
    assert not np.array_equal(left_to_right, want)  # the order matters on this data


def test_flow_contracts():
    frame = random_clip(9, shape=(1, 16, 16, 1))[0]
    for prev, nxt in [(frame[..., 0], frame[..., 0]), (frame[:14], frame[:14])]:
        with pytest.raises(ContractError):
            pair_flow(prev, nxt)
    bad = frame.copy()
    bad[3, 5, 0] = np.nan
    with pytest.raises(ContractError):
        pair_flow(frame, bad)


def test_flow_shift_invariance():
    rng = np.random.default_rng(7)
    prev = rng.uniform(0, 0.8, size=(16, 16, 1))
    nxt = rng.uniform(0, 0.8, size=(16, 16, 1))
    f1, _ = pair_flow(prev, nxt)
    f2, _ = pair_flow(prev + 0.1, nxt + 0.1)
    assert np.array_equal(f1, f2)


def test_oft_matches_sorting_oracle():
    for seed in range(4):
        clip = gen_moving_scene(seed * 5 % 36, seed)
        mags = estimate_flow(clip)[0].reshape(-1)
        k = max(1, math.ceil(0.05 * mags.size))
        want = float(np.sort(mags)[::-1][:k].mean())
        assert abs(oft(clip) - want) < 1e-12
    static = np.full((8, 16, 16, 1), 0.5)
    assert oft(static) == 0.0


def test_translating_object_registers_motion():
    clip = gen_moving_scene(0, seed=1)  # square, translate
    assert oft(clip) >= 1.0


# ---------------------------------------------------------------------------
# exclusion rule
# ---------------------------------------------------------------------------

def test_exclusion_truth_table():
    assert is_motion_excluded(2.0, 0.5)        # stalled and 4x drop
    assert is_motion_excluded(2.0, 0.0)        # hard stall
    assert not is_motion_excluded(0.0, 0.0)    # nothing moved to begin with
    assert not is_motion_excluded(2.0, 1.2)    # treated still moves
    assert not is_motion_excluded(1.2, 0.9)    # drop ratio 1.33 < 1.5
    assert not is_motion_excluded(0.9, 0.7)    # ratio 1.29 < 1.5
    assert is_motion_excluded(1.2, 0.79)       # 1.52 > 1.5
    assert is_motion_excluded(3.0, 0.9)        # 0.9 < 1 and 3.0/0.9 > 1.5
    assert not is_motion_excluded(1.2, 0.95)   # ratio 1.26 <= 1.5
    assert not is_motion_excluded(9.0, 1.5)    # fails the < 1 condition
    with pytest.raises(ContractError):
        is_motion_excluded(-1.0, 0.5)


def test_excluded_count_on_clip_lists():
    # EC as `evaluate`/`sweep` report it: evaluate_set against index-aligned baselines
    moving = [gen_moving_scene(0, s).data for s in range(3)]  # translate conditions
    static = [make_static_video(m[0], m.shape[0]).data for m in moving]
    report = evaluate_set(static, baselines=moving)
    assert [row["excluded"] for row in report.rows] == [True, True, True]
    assert report.excluded == 3
    report = evaluate_set(moving, baselines=moving)
    assert [row["excluded"] for row in report.rows] == [False, False, False]
    assert report.excluded == 0
    with pytest.raises(ContractError):
        evaluate_set(static[:2], baselines=moving)


# ---------------------------------------------------------------------------
# set-level report
# ---------------------------------------------------------------------------

def test_evaluate_set_rows_and_aggregates():
    videos = [gen_moving_scene(c, 7) for c in (0, 1, 2)]
    report = evaluate_set(videos, alpha=0.1)
    assert len(report.rows) == 3 and report.excluded is None
    for i, row in enumerate(report.rows):
        assert row["id"] == i and row["condition"] == (0, 1, 2)[i]
        assert row["seed"] == 7 and row["alpha"] == 0.1
        assert abs(row["flicker"] - temporal_flicker_score(videos[i])) < 1e-15
        assert abs(row["oft"] - oft(videos[i])) < 1e-15
        assert row["excluded"] is None
    for key in ("flicker", "sc", "bc", "oft"):
        want = np.mean([row[key] for row in report.rows])
        assert abs(report.aggregates[key] - want) < 1e-15


def test_evaluate_set_with_baselines_and_empty():
    videos = [gen_moving_scene(0, s) for s in range(3)]
    static = [make_static_video(v.data[0], v.frames) for v in videos]
    report = evaluate_set(static, baselines=videos)
    assert report.excluded == 3
    assert all(row["excluded"] for row in report.rows)
    assert all(row["flicker"] == 1.0 for row in report.rows)
    empty = evaluate_set([])
    assert empty.rows == [] and empty.aggregates is None and empty.excluded is None
    assert empty.summary_line() == "no videos evaluated"
    with pytest.raises(ContractError):
        evaluate_set(videos, baselines=videos[:1])


@pytest.mark.parametrize("alpha", [True, "x", math.nan, 7.0, -1])
def test_evaluate_set_refuses_an_alpha_outside_the_intensity_range(alpha):
    with pytest.raises(ContractError, match=r"alpha must be None or a number in \[0, 1\]"):
        evaluate_set([gen_moving_scene(0, 1)], alpha=alpha)


def per_clip_rows(videos, baselines, alpha):
    """The rows `evaluate_set` must give, from the public per-clip metrics."""
    rows = []
    for i, video in enumerate(videos):
        meta = video.meta if isinstance(video, Clip) else {}
        motion = oft(video)
        rows.append({"id": i, "condition": meta.get("condition"), "seed": meta.get("seed"),
                     "alpha": alpha, "flicker": temporal_flicker_score(video),
                     "sc": consistency_score(video, "subject"),
                     "bc": consistency_score(video, "background"), "oft": motion,
                     "excluded": None if baselines is None
                     else is_motion_excluded(oft(baselines[i]), motion)})
    return rows


def assert_report_is_per_clip(videos, baselines=None, alpha=None):
    report = evaluate_set(videos, baselines=baselines, alpha=alpha)
    assert report.rows == per_clip_rows(videos, baselines, alpha)
    for key in ("flicker", "sc", "bc", "oft"):
        assert report.aggregates[key] == float(np.mean([row[key] for row in report.rows]))
    want_ec = None if baselines is None else sum(row["excluded"] for row in report.rows)
    assert report.excluded == want_ec


@pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1])
def test_evaluate_set_scores_chunks_as_the_per_clip_metrics(n):
    moving = [gen_moving_scene(c, 40 + c) for c in range(n)]
    treated = [make_static_video(clip.data[0], clip.frames, meta=clip.meta) if c % 2 else clip
               for c, clip in enumerate(moving)]
    assert_report_is_per_clip(treated, moving, alpha=0.5)
    assert_report_is_per_clip(treated)


def test_evaluate_set_chunks_a_mixed_geometry_set():
    rng = np.random.default_rng(12)
    shapes = [(8, 16, 16, 1)] * 3 + [(4, 8, 12, 3)] * 2 + [(8, 16, 16, 1)] + [(4, 8, 12, 3)] * (CHUNK + 2)
    videos = [rng.uniform(0, 1, size=shape) for shape in shapes]
    videos[4] = make_static_video(videos[4][0], 4).data  # a static clip: ties everywhere
    assert_report_is_per_clip(videos, baselines=videos[::-1], alpha=1)


def clip_set(n):
    return [gen_moving_scene(c % 36, c).data.astype(np.float64) for c in range(n)]


def bad_values(clip):
    clip = clip.copy()
    clip[1, 2, 3, 0] = np.nan
    return clip


@pytest.mark.parametrize("first, then, message", [
    (bad_values, lambda clip: clip[0], "clip values must be finite"),
    (lambda clip: clip[:, :14, :14], bad_values, "frame size 14x14 must be divisible"),
    (lambda clip: clip[:, :4, :4], bad_values, "region mask selects no blocks"),
    (lambda clip: clip[:1], bad_values, "metrics need at least 2 frames"),
])
def test_first_bad_video_past_a_chunk_boundary_raises_its_own_error(first, then, message):
    videos = clip_set(2 * CHUNK)
    videos[CHUNK], videos[CHUNK + 1] = first(videos[CHUNK]), then(videos[CHUNK + 1])
    with pytest.raises(ContractError, match=message):
        evaluate_set(videos, baselines=clip_set(2 * CHUNK))


def test_first_bad_baseline_raises_its_own_error_after_the_videos():
    videos, baselines = clip_set(CHUNK + 2), clip_set(CHUNK + 2)
    baselines[1] = baselines[1][:, :14, :14]
    baselines[2] = bad_values(baselines[2])
    with pytest.raises(ContractError, match="frame size 14x14 must be divisible"):
        evaluate_set(videos, baselines=baselines)
    baselines[1] = baselines[1][:, :4, :4]  # one block: a flow, and no consistency to score
    with pytest.raises(ContractError, match="clip values must be finite"):
        evaluate_set(videos, baselines=baselines)
    videos[-1] = videos[-1] * 2.0  # a bad video is found before any baseline is read
    with pytest.raises(ContractError, match=r"lie in \[0, 1\]"):
        evaluate_set(videos, baselines=[None] * len(videos))


@pytest.mark.parametrize("score", [temporal_flicker_score, consistency_score, oft,
                                   lambda clip: evaluate_set([clip])])
@pytest.mark.parametrize("shape", [(2, 0, 4, 1), (2, 4, 4, 0)])
def test_a_clip_with_no_pixels_is_refused(score, shape):
    with pytest.raises(ContractError, match=r"clip has no pixels: shape \(2, "):
        score(np.zeros(shape))


def test_evaluate_set_scores_each_distinct_clip_once(monkeypatch):
    # a clip's OFT is keyed by its shape and bytes, across videos and
    # baselines, within one call only
    videos = clip_set(CHUNK + 3)
    baselines = [gen_moving_scene(c % 36, 100 + c).data.astype(np.float64) for c in range(CHUNK + 3)]
    videos[0] = baselines[0]                               # the same object
    videos[1] = baselines[1].astype(np.float32)            # an equal copy
    videos[CHUNK + 2] = videos[2].copy()                   # a repeat past the first stack
    baselines[4] = videos[6].copy()                        # equals a different video
    videos[5] = make_static_video(videos[5][0], 8).data
    baselines[7] = videos[7].reshape(16, 8, 16, 1)         # the same bytes in another shape
    assert oft(baselines[7]) != oft(videos[7])
    assert_report_is_per_clip(videos, baselines)
    keys = {(clip.shape, np.asarray(clip, np.float64).tobytes()) for clip in videos + baselines}
    assert len(keys) == 2 * len(videos) - 4
    stacks, chunk_oft = [], metrics._chunk_oft

    def spy(stack):
        assert len(stack) <= CHUNK
        stacks.append(len(stack))
        return chunk_oft(stack)

    monkeypatch.setattr(metrics, "_chunk_oft", spy)
    first = evaluate_set(videos, baselines)
    assert sum(stacks) == len(keys)
    assert evaluate_set(videos, baselines).rows == first.rows  # nothing kept from the first call
    assert sum(stacks) == 2 * len(keys)


def test_evaluate_set_memory_stays_below_a_stack_of_the_set():
    # scoring holds one chunk at a time, so its peak stays below the float64
    # stack of the treated clips alone, let alone of the whole set
    moving = [gen_moving_scene(c % 36, c) for c in range(128)]
    static = [make_static_video(clip.data[0], clip.frames) for clip in moving]
    stack_bytes = len(static) * static[0].data.size * 8
    tracemalloc.start()
    try:
        evaluate_set(static, baselines=moving)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the kept heap pages come from glibc's mallopt thresholds")
def test_warm_scoring_faults_in_almost_no_memory():
    # each chunk frees and allocates about 1 MB of flow buffers; with the freed
    # heap kept, a second pass over the set reuses the pages of the first.  A
    # fresh interpreter, so that only importing ufolab has set the thresholds.
    script = """
import resource
from ufolab import evaluate_set, gen_moving_scene, make_static_video
moving = [gen_moving_scene(c % 36, c) for c in range(64)]
static = [make_static_video(clip.data[0], clip.frames) for clip in moving]
evaluate_set(static, baselines=moving)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate_set(static, baselines=moving)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) < 200


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="reads glibc's mallinfo2 (glibc 2.33+)")
def test_importing_ufolab_keeps_arrays_on_the_heap():
    # under glibc's default 128 KiB mmap threshold a 4 MiB array gets its own
    # mapping; importing ufolab alone raises the threshold to 32 MiB
    script = """
import ufolab
import ctypes
import numpy as np
class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
before = mallinfo2().hblkhd
block = np.ones(1 << 19)
print(mallinfo2().hblkhd - before)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) == 0


def test_score_reference_holds_for_every_pool_clip(monkeypatch):
    # the benchmark's oracle: all 256 pool clips, moving and static, score the
    # committed reference values; OFT and EC to the bit, the rest within 1e-12
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    reference = json.loads(workloads.REFERENCE.read_text("utf-8"))
    moving = [workloads.pool_clip(j) for j in range(workloads.POOL_SIZE)]
    static = [make_static_video(c.data[0], c.frames, fps=c.fps, meta=c.meta) for c in moving]
    for kind, clips in (("moving", moving), ("static", static)):
        expected = [dict(zip(checks.REF_FIELDS, row)) for row in reference[kind]]
        assert checks.report_matches(evaluate_set(clips, baselines=moving), expected, kind) == []
    assert checks.selftest(reference, workloads.pool_clip) == []


def test_metrics_csv_round_trip(tmp_path):
    videos = [gen_moving_scene(c, 3) for c in (4, 5)]
    report = evaluate_set(videos, baselines=videos, alpha=0.2)
    out = tmp_path / "metrics.csv"
    write_metrics_csv(out, report)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # 2 videos + aggregate footer
    assert rows[0]["condition"] == "4" and rows[1]["alpha"] == "0.2"
    assert rows[0]["excluded"] in ("0", "1")
    footer = rows[-1]
    assert footer["id"] == "aggregate"
    assert abs(float(footer["flicker"]) - report.aggregates["flicker"]) < 1e-9
    assert footer["excluded"] == str(report.excluded)
    # rewriting produces identical bytes (deterministic formatting)
    first = out.read_bytes()
    write_metrics_csv(out, report)
    assert out.read_bytes() == first
    # empty report: header only
    write_metrics_csv(out, MetricsReport([], None, None))
    with open(out, newline="") as fh:
        assert fh.read().strip() == ",".join(
            ("id", "condition", "seed", "alpha", "flicker", "sc", "bc", "oft", "excluded"))
