"""Synthetic clip generator tests."""

import itertools

import numpy as np
import pytest

from ufolab.errors import ContractError
from ufolab.synthdata import (
    DEFAULT_CONDITIONS,
    MOTIONS,
    NUM_CONDITIONS,
    PALETTES,
    SHAPES,
    STYLES,
    apply_style,
    clip_stream,
    describe_condition,
    gen_moving_scene,
    make_static_video,
    render_clip,
)


def test_condition_table_is_complete_and_bounded():
    seen = set()
    for cond in range(NUM_CONDITIONS):
        prog = describe_condition(cond)
        assert prog.condition_id == cond
        assert prog.shape in SHAPES and prog.motion in MOTIONS
        assert 0 <= prog.palette < len(PALETTES)
        seen.add((prog.shape, prog.motion, prog.palette))
    assert len(seen) == NUM_CONDITIONS  # every id is a distinct program
    for bad in (-1, NUM_CONDITIONS):
        with pytest.raises(ContractError):
            describe_condition(bad)


@pytest.mark.parametrize("cond,seed", [(True, 1), (2.7, 1), (2.0, 1), (-1, 1), (np.float64(2), 1),
                                       (3, False), (3, 1.5), (3, -1), (3, np.int64(-1))])
def test_condition_and_seed_must_be_integers_at_least_zero(cond, seed):
    # refused, not truncated, read as 0 or 1, or handed to NumPy's seeding
    with pytest.raises(ContractError, match="condition" if seed == 1 else "seed"):
        render_clip(cond, seed)
    if seed == 1:
        with pytest.raises(ContractError):
            describe_condition(cond)


def test_numpy_integer_condition_and_seed_render_the_same_bytes():
    clip, masks = render_clip(5, 123)
    for cond, seed in ((np.int64(5), np.int64(123)), (np.int32(5), np.uint32(123))):
        assert describe_condition(cond) == describe_condition(5)
        other, other_masks = render_clip(cond, seed)
        assert other.data.tobytes() == clip.data.tobytes()
        assert np.array_equal(other_masks, masks) and other.meta == clip.meta


def test_rendering_is_deterministic_per_condition_and_seed():
    a, ma = render_clip(5, 123)
    b, mb = render_clip(5, 123)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(ma, mb)
    c, _ = render_clip(5, 124)
    d, _ = render_clip(6, 123)
    assert not np.array_equal(a.data, c.data)
    assert not np.array_equal(a.data, d.data)


def test_clip_geometry_dtype_and_headroom():
    for cond in range(0, NUM_CONDITIONS, 5):
        clip, masks = render_clip(cond, 7)
        assert clip.data.shape == (8, 16, 16, 1)
        assert clip.data.dtype == np.float32
        assert masks.shape == (8, 16, 16) and masks.dtype == bool
        assert clip.data.min() >= 0.0
        assert clip.data.max() <= 0.9  # headroom for brightness-shift checks
        assert clip.meta["condition"] == cond


def test_geometry_an_oscillation_cannot_fit_is_a_contract_error():
    # square and disk oscillate with 3 clear pixels around a 5x5 extent; the
    # bar is 3 tall and 7 wide; the other motions fit any frame from 8x8 up
    need = {"square": (11, 11), "disk": (11, 11), "bar": (9, 13)}
    for cond in range(len(SHAPES) * len(MOTIONS)):
        prog = describe_condition(cond)
        h, w = need[prog.shape]
        for height, width in itertools.product(range(8, 17), repeat=2):
            if prog.motion != "oscillate" or (height >= h and width >= w):
                clip, _ = render_clip(cond, 1, height=height, width=width)
                assert clip.shape[1:3] == (height, width)
                continue
            with pytest.raises(ContractError) as err:
                render_clip(cond, 1, height=height, width=width)
            assert f"condition {cond} ({prog.shape}, oscillate)" in str(err.value)
            assert f"at least {h}x{w}, got {height}x{width}" in str(err.value)


def test_clip_stream_checks_its_pool_before_the_first_batch():
    with pytest.raises(ContractError, match="condition 5 .* at least 9x13, got 16x12"):
        clip_stream(2, seed=1, conditions=[0, 5], height=16, width=12)
    with pytest.raises(ContractError, match="condition 3 .* at least 11x11, got 8x8"):
        clip_stream(2, seed=1, conditions=[3], height=8, width=8)
    clips, _ = next(clip_stream(2, seed=1, conditions=[0, 1, 2, 6], height=8, width=8))
    assert clips.shape == (2, 8, 8, 8, 1)


def test_values_lie_on_the_inversion_grid():
    clip = gen_moving_scene(3, 17)
    scaled = clip.data.astype(np.float64) * 2.0 ** 24
    assert np.array_equal(scaled, np.rint(scaled))


def test_every_frame_contains_a_visible_object():
    for cond in range(NUM_CONDITIONS):
        clip, masks = render_clip(cond, 11)
        bg, fg = PALETTES[describe_condition(cond).palette]
        for t in range(8):
            assert masks[t].sum() >= 9  # at least a 3x3 footprint
            inside = clip.data[t, :, :, 0][masks[t]].mean()
            outside = clip.data[t, :, :, 0][~masks[t]].mean()
            assert inside - outside > 0.2 * (fg - bg)


def test_motion_programs_move_as_described():
    # translate: the mask centroid drifts by the same integer step every frame
    for seed in range(5):
        prog = describe_condition(0)
        assert prog.shape == "square" and prog.motion == "translate"
        _, masks = render_clip(0, seed)
        cys = [np.argwhere(m)[:, 0].mean() for m in masks]
        cxs = [np.argwhere(m)[:, 1].mean() for m in masks]
        dy = np.diff(cys)
        dx = np.diff(cxs)
        assert np.allclose(dy, dy[0], atol=1e-9) and np.allclose(dx, dx[0], atol=1e-9)
        assert abs(dy[0]) + abs(dx[0]) >= 1.0
    # grow: footprint is non-decreasing and at least doubles
    grow_cond = 2 * len(SHAPES)  # shape 0, motion index 2, palette 0
    assert describe_condition(grow_cond).motion == "grow"
    _, masks = render_clip(grow_cond, 3)
    areas = masks.sum(axis=(1, 2))
    assert np.all(np.diff(areas) >= 0) and areas[-1] >= 2 * areas[0]
    # oscillate: centroid returns near its start
    osc_cond = len(SHAPES)
    assert describe_condition(osc_cond).motion == "oscillate"
    _, masks = render_clip(osc_cond, 3)
    cys = [np.argwhere(m)[:, 0].mean() for m in masks]
    cxs = [np.argwhere(m)[:, 1].mean() for m in masks]
    assert abs(cys[0] - cys[-1]) + abs(cxs[0] - cxs[-1]) <= 2.0


def test_bar_shape_renders_wide_and_thin():
    bar_cond = SHAPES.index("bar")
    assert describe_condition(bar_cond).shape == "bar"
    _, masks = render_clip(bar_cond, 5)
    rows = np.argwhere(masks[0])[:, 0]
    cols = np.argwhere(masks[0])[:, 1]
    assert rows.max() - rows.min() == 2
    assert cols.max() - cols.min() == 6


def test_object_stays_inside_the_frame():
    for cond in range(NUM_CONDITIONS):
        for seed in range(4):
            _, masks = render_clip(cond, seed)
            assert not masks[:, 0, :].any() and not masks[:, -1, :].any()
            assert not masks[:, :, 0].any() and not masks[:, :, -1].any()


def test_background_is_static_between_frames():
    clip, masks = render_clip(1, 99)
    ever_object = masks.any(axis=0)
    frames = clip.data[:, :, :, 0]
    for t in range(1, 8):
        assert np.array_equal(frames[t][~ever_object], frames[0][~ever_object])


def test_jitter_zero_freezes_object_appearance():
    clip, masks = render_clip(0, 21, jitter=0.0)
    fills = [np.unique(clip.data[t, :, :, 0][masks[t]]) for t in range(8)]
    assert all(len(f) == 1 for f in fills)
    assert all(f[0] == fills[0][0] for f in fills)
    with pytest.raises(ContractError):
        render_clip(0, 21, jitter=0.2)


def test_make_static_video_duplicates_the_frame():
    frame = gen_moving_scene(4, 8).data[0]
    clip = make_static_video(frame, 8)
    assert clip.data.shape == (8, *frame.shape)
    for t in range(8):
        assert np.array_equal(clip.data[t], frame)
    assert np.abs(np.diff(clip.data, axis=0)).sum() == 0.0
    single = make_static_video(frame, 1)
    assert np.array_equal(single.data[0], frame)
    for bad in (0, 2.5, True):  # refused, not truncated or read as 1
        with pytest.raises(ContractError, match="frames"):
            make_static_video(frame, bad)
    with pytest.raises(ContractError):
        make_static_video(frame[:, :, 0], 4)


def test_invert_style_is_a_bitexact_involution():
    for cond in (0, 7, 22):
        clip = gen_moving_scene(cond, 31)
        once = apply_style(clip, "invert")
        twice = apply_style(once, "invert")
        assert not np.array_equal(once.data, clip.data)
        assert np.array_equal(twice.data, clip.data)
        assert once.meta["style"] == "invert"


def test_posterize_style_uses_four_levels():
    clip = gen_moving_scene(9, 2)
    styled = apply_style(clip, "posterize")
    levels = {np.float32(0.0), np.float32(1.0) / np.float32(3.0),
              np.float32(2.0) / np.float32(3.0), np.float32(1.0)}
    assert set(np.unique(styled.data)) <= levels


def test_grayscale_and_vignette_styles():
    clip = gen_moving_scene(10, 4)
    gray = apply_style(clip, "grayscale")
    assert np.ptp(gray.data, axis=-1).max() == 0.0  # equal channels
    vig = apply_style(clip, "vignette")
    assert vig.data.min() >= 0.0 and vig.data.max() <= 1.0
    # corners darker than the untouched center
    assert vig.data[0, 0, 0, 0] < clip.data[0, 0, 0, 0]
    with pytest.raises(ContractError):
        apply_style(clip, "sepia")
    assert set(STYLES) == {"invert", "posterize", "grayscale", "vignette"}


def test_clip_stream_is_reproducible_and_transformable():
    a_clips, a_conds = next(clip_stream(4, seed=5))
    b_clips, b_conds = next(clip_stream(4, seed=5))
    assert np.array_equal(a_clips, b_clips) and np.array_equal(a_conds, b_conds)
    assert a_clips.shape == (4, 8, 16, 16, 1) and a_clips.dtype == np.float32
    assert all(c in DEFAULT_CONDITIONS for c in a_conds)

    static_clips, static_conds = next(clip_stream(4, seed=5, static=True))
    assert np.array_equal(static_conds, a_conds)
    assert np.abs(np.diff(static_clips, axis=1)).max() == 0.0
    assert np.array_equal(static_clips[:, 0], a_clips[:, 0])  # same first frames

    inv_clips, _ = next(clip_stream(4, seed=5, style="invert"))
    assert np.array_equal(inv_clips, np.float32(1.0) - a_clips)

    stream = clip_stream(2, seed=9, conditions=[3])
    for _ in range(3):
        _, conds = next(stream)
        assert conds.tolist() == [3, 3]
    same = [(2, 5, range(4)), (np.int64(2), np.uint32(5), np.arange(4, dtype=np.int32)),
            (2, 5, (0, np.int64(1), 2, 3))]
    firsts = [next(clip_stream(b, seed=s, conditions=c)) for b, s, c in same]
    for clips, conds in firsts[1:]:
        assert clips.tobytes() == firsts[0][0].tobytes()
        assert conds.dtype == firsts[0][1].dtype and np.array_equal(conds, firsts[0][1])

    # refused when the stream is made, not truncated, read as 0 or 1, or left
    # to fail inside NumPy at the first batch
    for bad, match in (({"conditions": [2.7, True]}, r"condition ids \[2.7, True\]"),
                       ({"conditions": [2.0]}, "condition ids"),
                       ({"conditions": [-1, 36]}, r"condition ids \[-1, 36\]"),
                       ({"conditions": np.array([0.0, 1.0])}, "condition ids"),
                       ({"conditions": np.array([[0, 1]])}, "at least one id"),
                       ({"conditions": []}, "at least one id"), ({"conditions": 3}, "at least one id"),
                       ({"seed": True}, "seed"), ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
                       ({"batch_size": 0}, "batch_size"), ({"batch_size": True}, "batch_size"),
                       ({"batch_size": 2.0}, "batch_size"),
                       ({"style": "sepia"}, "unknown style 'sepia'"), ({"jitter": 0.5}, "jitter"),
                       ({"frames": 1}, "geometry"), ({"height": 7.5}, "geometry")):
        with pytest.raises(ContractError, match=match):
            clip_stream(**{"batch_size": 2, "seed": 1, **bad})
    with pytest.raises(TypeError, match="colour"):
        clip_stream(2, seed=1, colour=1)


def test_gen_moving_scene_matches_render_clip():
    assert np.array_equal(gen_moving_scene(4, 8).data, render_clip(4, 8)[0].data)
