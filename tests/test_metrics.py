"""Metric tests against brute-force reimplementations and hand-built clips."""

import csv
import math

import numpy as np
import pytest

from ufolab.errors import ContractError
from ufolab.metrics import (
    MetricsReport,
    block_flow,
    consistency_score,
    estimate_flow,
    evaluate_set,
    is_motion_excluded,
    oft,
    temporal_flicker_score,
    write_metrics_csv,
)
from ufolab.synthdata import gen_moving_scene, make_static_video

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

def test_flow_recovers_known_translation():
    rng = np.random.default_rng(2)
    prev = rng.uniform(0, 1, size=(16, 16, 1))
    nxt = np.roll(prev, (1, 2), axis=(0, 1))
    flow, _ = block_flow(prev, nxt)
    # interior blocks see the exact translated patch (SAD 0, unique)
    assert np.all(flow[:3, :3] == np.array([1, 2]))


def test_flow_static_is_zero_and_unsaturated():
    frame = random_clip(4, shape=(1, 16, 16, 1))[0]
    flow, saturated = block_flow(frame, frame)
    assert np.all(flow == 0) and not saturated
    clip = np.tile(frame, (5, 1, 1, 1))
    maps, sat = estimate_flow(clip)
    assert maps.shape == (4, 4, 4) and np.all(maps == 0.0) and not sat


def test_flow_saturates_and_caps_beyond_radius():
    rng = np.random.default_rng(5)
    prev = rng.uniform(0, 1, size=(16, 16, 1))
    nxt = np.roll(prev, 5, axis=1)  # translation beyond the search radius
    flow, saturated = block_flow(prev, nxt)
    assert saturated
    mags = np.sqrt((flow.astype(float) ** 2).sum(axis=-1))
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
        got, _ = block_flow(prev, nxt)
        assert np.array_equal(got, flow_oracle(prev, nxt)[0])


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
        for i, (want, want_sat) in enumerate(pairs):
            got, got_sat = block_flow(clip[i], clip[i + 1])
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got_sat == want_sat
        maps, saturated = estimate_flow(clip)
        want_maps = np.stack([np.sqrt((f.astype(np.float64) ** 2).sum(axis=-1)) for f, _ in pairs])
        assert maps.shape == want_maps.shape and np.array_equal(maps, want_maps)
        assert saturated == any(sat for _, sat in pairs)
    assert block_flow(*tie_heavy_clips()[-1][:2])[1]  # the 5-pixel shift saturates


def test_flow_contracts():
    frame = random_clip(9, shape=(1, 16, 16, 1))[0]
    for prev, nxt in [(frame, frame[:8]), (frame[..., 0], frame[..., 0]),
                      (frame[:14], frame[:14])]:
        with pytest.raises(ContractError):
            block_flow(prev, nxt)
    bad = frame.copy()
    bad[3, 5, 0] = np.nan
    with pytest.raises(ContractError):
        block_flow(frame, bad)
    with pytest.raises(ContractError):
        block_flow(frame, frame, radius=-1)


def test_flow_shift_invariance():
    rng = np.random.default_rng(7)
    prev = rng.uniform(0, 0.8, size=(16, 16, 1))
    nxt = rng.uniform(0, 0.8, size=(16, 16, 1))
    f1, _ = block_flow(prev, nxt)
    f2, _ = block_flow(prev + 0.1, nxt + 0.1)
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
