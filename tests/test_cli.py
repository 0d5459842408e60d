"""End-to-end checks for the command-line surface: exit codes, artifact
layout, byte-level determinism, and the evaluate/sweep report formats.

All commands run in-process through ufolab.cli.main so exit codes and
stdout can be asserted directly.
"""

import csv
import shlex
import shutil
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ufolab.adapter import ADAPTER_MAGIC, init_adapter, load_adapter, save_adapter
from ufolab.cli import build_parser, main
from ufolab.config import OUTPUT_ROOT_ENV
from ufolab.fileio import read_container, write_container
from ufolab.model import ModelConfig, build_model, load_model, save_model
from ufolab.synthdata import gen_moving_scene, make_static_video
from ufolab.video import load_clip, save_clip

from oracles import poke_payload

CONFIG = textwrap.dedent("""\
    [model]
    frames = 2
    height = 16
    width = 16
    # no channels key: the clip renderer draws one channel
    patch = 8
    dim = 8
    heads = 2
    mlp_dim = 16
    blocks = 1
    cond_vocab = 16
    timesteps = 8

    [train]
    steps = {steps}
    batch_size = 2
    lr_peak = {lr}
    warmup_steps = 1
    alpha_train = {alpha_train}
    seed = {seed}

    [data]
    conditions = 0,1,2,3

    [paths]
    checkpoints = {ck}
    reports = {rp}
    """)


def write_config(path, ck, rp, steps=3, lr="3e-3", alpha_train="1.0", seed=5):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(CONFIG.format(steps=steps, lr=lr, alpha_train=alpha_train,
                                  seed=seed, ck=ck, rp=rp))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One trained tiny base plus one adapter of each kind, built via the CLI."""
    root = tmp_path_factory.mktemp("cliws")
    ck, rp = root / "ck", root / "rp"
    cfg = write_config(root / "exp.ini", ck, rp)
    assert main(["train-base", str(cfg)]) == 0
    base = ck / "base-seed5.ufom"
    assert main(["train-ufo", str(cfg), "--kind", "consistency",
                 "--base", str(base)]) == 0
    style_cfg = write_config(root / "style.ini", ck, rp, alpha_train="0.8", seed=6)
    assert main(["train-ufo", str(style_cfg), "--kind", "style",
                 "--base", str(base)]) == 0
    return SimpleNamespace(root=root, cfg=cfg, ck=ck, rp=rp, base=base,
                           ufo=ck / "ufo-consistency-seed5.ufoa",
                           ufo_style=ck / "ufo-style-seed6.ufoa")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rows_index(rows, name):
    return rows[0].index(name)


# ---------------------------------------------------------------- training


def test_missing_config_exits_2(tmp_path):
    assert main(["train-base", str(tmp_path / "nope.ini")]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "ck", tmp_path / "rp")
    cfg.write_text(cfg.read_text().replace("lr_peak", "learning_rate"))
    assert main(["train-base", str(cfg)]) == 2


@pytest.mark.parametrize("anchor, text, line", [
    ("[data]", "[data]\nresolution = 16", 23), ("[data]", "[data]\nframes = 2", 23),
    ("[paths]", "[eval]\nalphas = 0.0,0.1\n[paths]", 25),
    ("width = 16", "width = 16\nchannels = 1", 5)])
def test_removed_config_key_exits_2_with_its_line(tmp_path, capsys, anchor, text, line):
    # geometry comes from the model, clips have one channel and sweeps take
    # flags; these keys are gone
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "ck", tmp_path / "rp")
    cfg.write_text(cfg.read_text().replace(anchor, text))
    assert main(["train-base", str(cfg)]) == 2
    assert f"(line {line})" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "ck", tmp_path / "rp")
    cfg.write_bytes(cfg.read_bytes().replace(b"steps", b"st\xe9ps", 1))
    assert main(["train-base", str(cfg)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_config_path_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "f.txt").write_text("not a directory")
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "f.txt" / "sub", tmp_path / "rp")
    assert main(["train-base", str(cfg)]) == 2
    assert "[paths] checkpoints (line" in capsys.readouterr().err


def test_non_finite_loss_lambda_exits_2_and_writes_nothing(tmp_path, capsys):
    ck, rp = tmp_path / "ck", tmp_path / "rp"
    cfg = write_config(tmp_path / "exp.ini", ck, rp)
    cfg.write_text(cfg.read_text().replace("[train]\n", "[train]\nloss_lambda = nan\n"))
    assert main(["train-base", str(cfg)]) == 2
    assert "loss_lambda" in capsys.readouterr().err
    assert not any(p.is_file() for p in tmp_path.rglob("*") if p != cfg)


def test_negative_train_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    ck, rp = tmp_path / "ck", tmp_path / "rp"
    cfg = write_config(tmp_path / "exp.ini", ck, rp, seed=-1)
    assert main(["train-base", str(cfg)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not any(p.is_file() for p in tmp_path.rglob("*") if p != cfg)


def test_frame_too_small_for_a_condition_exits_2(tmp_path, capsys):
    # condition 3 oscillates a square, which needs 11x11; 8x8 passes ModelConfig
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "ck", tmp_path / "rp")
    cfg.write_text(cfg.read_text().replace("height = 16\nwidth = 16", "height = 8\nwidth = 8"))
    assert main(["train-base", str(cfg)]) == 2
    assert "condition 3 (square, oscillate) needs frames of at least 11x11, got 8x8" in (
        capsys.readouterr().err)


def test_train_base_outputs_and_loss_rows(workspace):
    assert workspace.base.exists()
    rows = read_rows(workspace.rp / "train-base-seed5.csv")
    assert rows[0] == ["step", "loss_simple", "loss_vlb", "lr"]
    assert len(rows) == 1 + 3  # header + one row per step


def test_train_base_fixed_seed_is_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        cfg = write_config(d / "exp.ini", d / "ck", d / "rp", steps=2)
        assert main(["train-base", str(cfg)]) == 0
        outs.append((d / "ck" / "base-seed5.ufom").read_bytes())
    assert outs[0] == outs[1]


def test_train_ufo_consistency_artifact(workspace):
    adapter = load_adapter(workspace.ufo)
    assert adapter.kind == "consistency"
    assert adapter.recommended_alpha == 0.1
    assert adapter.meta["alpha_train"] == 1.0  # consistency trains at full intensity
    assert adapter.meta["train_steps"] == 3
    assert (workspace.rp / "train-ufo-consistency-seed5.csv").exists()


def test_train_ufo_style_artifact(workspace):
    adapter = load_adapter(workspace.ufo_style)
    assert adapter.kind == "stylization"
    assert adapter.recommended_alpha == 0.8  # trained intensity is the recommendation
    assert adapter.meta["style"] == "invert"


def test_train_ufo_ignores_model_section(tmp_path, workspace):
    # the stream takes frames, size and vocabulary from --base, not from [model]
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "ck", tmp_path / "rp")
    cfg.write_text("[train]" + cfg.read_text().split("[train]", 1)[1])
    assert main(["train-ufo", str(cfg), "--kind", "consistency",
                 "--base", str(workspace.base)]) == 0
    out = tmp_path / "ck" / "ufo-consistency-seed5.ufoa"
    assert out.read_bytes() == workspace.ufo.read_bytes()


@pytest.mark.parametrize("command, vocab, conditions",
                         [("train-base", 4, "0,5"), ("train-ufo", 36, "0,20")])
def test_conditions_beyond_trained_models_vocab_exit_2(tmp_path, workspace, capsys,
                                                       command, vocab, conditions):
    # train-base checks its [model]; train-ufo checks the checkpoint's 16, not [model]'s 36
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "ck", tmp_path / "rp")
    cfg.write_text(cfg.read_text().replace("cond_vocab = 16", f"cond_vocab = {vocab}")
                   .replace("conditions = 0,1,2,3", f"conditions = {conditions}"))
    extra = ["--kind", "consistency", "--base", str(workspace.base)] \
        if command == "train-ufo" else []
    assert main([command, str(cfg), *extra]) == 2
    assert "cond_vocab" in capsys.readouterr().err
    assert not any((tmp_path / "ck").iterdir()) and not any((tmp_path / "rp").iterdir())


def test_train_ufo_corrupt_base_exits_4(tmp_path, workspace):
    bad = tmp_path / "bad.ufom"
    bad.write_bytes(b"UFOM" + b"\x00" * 64)
    assert main(["train-ufo", str(workspace.cfg), "--kind", "consistency",
                 "--base", str(bad)]) == 4


def test_train_diverged_exits_3(tmp_path):
    cfg = write_config(tmp_path / "exp.ini", tmp_path / "ck", tmp_path / "rp",
                       steps=30, lr="1e12")
    with np.errstate(all="ignore"):
        assert main(["train-base", str(cfg)]) == 3


# ---------------------------------------------------------------- generate


def test_generate_alpha_zero_matches_no_ufo(tmp_path, workspace):
    plain = tmp_path / "plain.vclip"
    zeroed = tmp_path / "zeroed.vclip"
    args = ["generate", "--base", str(workspace.base),
            "--condition", "3", "--seed", "9", "--steps", "4"]
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--ufo", str(workspace.ufo), "--alpha", "0",
                        "--out", str(zeroed)]) == 0
    assert plain.read_bytes() == zeroed.read_bytes()
    assert (tmp_path / "plain.vclip.json").read_bytes() \
        == (tmp_path / "zeroed.vclip.json").read_bytes()
    clip = load_clip(plain)
    assert clip.meta == {"condition": 3, "seed": 9}


def test_generate_count_mismatch_exits_2(tmp_path, workspace):
    base = ["generate", "--base", str(workspace.base), "--condition", "0",
            "--seed", "1", "--out", str(tmp_path / "x.vclip")]
    assert main(base + ["--ufo", str(workspace.ufo)]) == 2
    assert main(base + ["--alpha", "0.1"]) == 2


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_generate_steps_above_timesteps_exits_2(tmp_path, workspace, command):
    args = {"generate": ["--condition", "0", "--seed", "1", "--out", str(tmp_path / "x.vclip")],
            "sweep": ["--ufo", str(workspace.ufo), "--alphas", "0.1", "--seeds", "1",
                      "--out", str(tmp_path / "s")]}[command]
    assert main([command, "--base", str(workspace.base), "--steps", "9",  # model has T = 8
                 *args]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_negative_sample_seed_exits_2(tmp_path, workspace, capsys, command):
    args = {"generate": ["--condition", "0", "--seed", "-1", "--out", str(tmp_path / "x.vclip")],
            "sweep": ["--ufo", str(workspace.ufo), "--alphas", "0.1", "--seeds", "-3", "4",
                      "--out", str(tmp_path / "s")]}[command]
    assert main([command, "--base", str(workspace.base), *args]) == 2
    assert "seeds must be integers >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_generate_non_finite_artifact_exits_4(tmp_path, workspace, capsys):
    # the savers refuse non-finite weights, so damage good files' payloads
    model = load_model(workspace.base)
    names = list(model.params)
    nan_ufom, inf_ufoa = tmp_path / "nan.ufom", tmp_path / "inf.ufoa"
    shutil.copyfile(workspace.base, nan_ufom)
    poke_payload(nan_ufom, sum(model.params[n].size
                               for n in names[:names.index("head_eps.w")]), np.nan)
    first = next(iter(load_adapter(workspace.ufo).layers.values()))
    shutil.copyfile(workspace.ufo, inf_ufoa)
    poke_payload(inf_ufoa, first.v_det.size + first.v_cor.size, np.inf)  # its beta
    for base, ufo in ((nan_ufom, workspace.ufo), (workspace.base, inf_ufoa)):
        assert main(["generate", "--base", str(base), "--ufo", str(ufo), "--alpha", "0.5",
                     "--condition", "0", "--seed", "1", "--steps", "4",
                     "--out", str(tmp_path / "x.vclip")]) == 4
        assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "x.vclip").exists()


def test_generate_non_finite_sampler_state_exits_3(tmp_path, workspace, capsys):
    # head_sigma.b = 1e3 pushes the sampler's noise scale past float32 range
    model = load_model(workspace.base)
    model.params["head_sigma.b"].data[...] = 1e3
    save_model(model, tmp_path / "wild.ufom")
    with np.errstate(all="ignore"):
        assert main(["generate", "--base", str(tmp_path / "wild.ufom"), "--condition", "0",
                     "--seed", "1", "--steps", "4", "--out", str(tmp_path / "x.vclip")]) == 3
    assert "non-finite at step" in capsys.readouterr().err
    assert not (tmp_path / "x.vclip").exists()


def test_generate_composes_two_adapters(tmp_path, workspace):
    out = tmp_path / "styled.vclip"
    assert main(["generate", "--base", str(workspace.base),
                 "--ufo", str(workspace.ufo), "--alpha", "0.1",
                 "--ufo", str(workspace.ufo_style), "--alpha", "0.8",
                 "--condition", "1", "--seed", "4", "--steps", "4",
                 "--out", str(out)]) == 0
    plain = tmp_path / "plain.vclip"
    assert main(["generate", "--base", str(workspace.base), "--condition", "1",
                 "--seed", "4", "--steps", "4", "--out", str(plain)]) == 0
    assert not np.array_equal(load_clip(out).data, load_clip(plain).data)


def test_generate_foreign_adapter_exits_4(tmp_path, workspace):
    # wider trunk -> different architecture fingerprint
    other = build_model(ModelConfig(frames=2, height=16, width=16, channels=1,
                                    patch=8, dim=12, heads=2, mlp_dim=24,
                                    blocks=1, cond_vocab=16, timesteps=8),
                        seed=77)
    foreign = tmp_path / "foreign.ufoa"
    save_adapter(init_adapter(other, rank=2, seed=1), foreign)
    assert main(["generate", "--base", str(workspace.base),
                 "--ufo", str(foreign), "--alpha", "0.5",
                 "--condition", "0", "--seed", "1", "--steps", "4",
                 "--out", str(tmp_path / "x.vclip")]) == 4


def test_generate_adapter_with_a_boolean_alpha_exits_4(tmp_path, workspace, capsys):
    adapter = load_adapter(workspace.ufo)
    adapter.recommended_alpha = True  # saved as `"recommended_alpha": true`
    save_adapter(adapter, tmp_path / "bool.ufoa")
    assert main(["generate", "--base", str(workspace.base),
                 "--ufo", str(tmp_path / "bool.ufoa"), "--alpha", "0.5",
                 "--condition", "0", "--seed", "1", "--steps", "4",
                 "--out", str(tmp_path / "x.vclip")]) == 4
    assert "recommended_alpha" in capsys.readouterr().err


def test_output_root_env_anchors_relative_paths(tmp_path, workspace, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["generate", "--base", str(workspace.base), "--condition", "0",
                 "--seed", "2", "--steps", "2", "--out", "vids/a.vclip"]) == 0
    assert (tmp_path / "vids" / "a.vclip").exists()


# ---------------------------------------------------------------- evaluate


def save_clips(dirpath, clips):
    dirpath.mkdir(parents=True, exist_ok=True)
    for i, clip in enumerate(clips):
        save_clip(clip, dirpath / f"{i:03d}.vclip")


def test_evaluate_static_clips_score_flicker_one(tmp_path, capsys):
    clips = [make_static_video(gen_moving_scene(c, seed=c).data[0], frames=4)
             for c in range(3)]
    save_clips(tmp_path / "vids", clips)
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--videos", str(tmp_path / "vids"),
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r[0] for r in rows] == ["id", "0", "1", "2", "aggregate"]
    flicker_col = rows[0].index("flicker")
    assert all(r[flicker_col] == "1" for r in rows[1:])
    assert "flicker=1.0000" in capsys.readouterr().out


def test_evaluate_with_baseline_populates_exclusions(tmp_path):
    moving = [gen_moving_scene(c, seed=c, frames=6) for c in range(2)]
    frozen = [make_static_video(clip.data[0], frames=6) for clip in moving]
    save_clips(tmp_path / "vids", frozen)
    save_clips(tmp_path / "ref", moving)
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--videos", str(tmp_path / "vids"),
                 "--baseline", str(tmp_path / "ref"), "--out", str(out)]) == 0
    rows = read_rows(out)
    excl = rows[0].index("excluded")
    assert [r[excl] for r in rows[1:]] == ["1", "1", "2"]  # both dropped, EC = 2


def test_evaluate_alignment_mismatch_exits_2(tmp_path, capsys):
    clips = [make_static_video(gen_moving_scene(c, seed=c).data[0], frames=3)
             for c in range(2)]
    save_clips(tmp_path / "vids", clips)
    save_clips(tmp_path / "ref", clips[:1])
    assert main(["evaluate", "--videos", str(tmp_path / "vids"),
                 "--baseline", str(tmp_path / "ref"),
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert "2 videos and 1 baselines" in capsys.readouterr().err


def test_evaluate_empty_directory_writes_header_only(tmp_path, capsys):
    (tmp_path / "vids").mkdir()
    out = tmp_path / "reports" / "metrics.csv"  # a directory evaluate must create
    assert main(["evaluate", "--videos", str(tmp_path / "vids"),
                 "--out", str(out)]) == 0
    assert out.read_text() == "id,condition,seed,alpha,flicker,sc,bc,oft,excluded\n"
    assert "no videos evaluated" in capsys.readouterr().out


# ---------------------------------------------------------------- sweep


def test_sweep_reports_and_rerun_identical(tmp_path, workspace):
    out = tmp_path / "sweep"
    args = ["sweep", "--base", str(workspace.base), "--ufo", str(workspace.ufo),
            "--alphas", "0", "0.5", "--seeds", "3", "4", "--steps", "4",
            "--out", str(out)]
    assert main(args) == 0
    summary = read_rows(out / "summary.csv")
    assert summary[0] == ["alpha", "flicker", "sc", "bc", "ec"]
    assert [r[0] for r in summary[1:]] == ["0", "0.5"]
    per_alpha = read_rows(out / "alpha-0.5.csv")
    assert len(per_alpha) == 1 + 2 + 1  # header, one row per seed, aggregate
    assert per_alpha[1][rows_index(per_alpha, "alpha")] == "0.5"

    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_sweep_duplicate_seeds_exit_2(tmp_path, workspace):
    assert main(["sweep", "--base", str(workspace.base), "--ufo", str(workspace.ufo),
                 "--alphas", "0.1", "--seeds", "3", "3",
                 "--out", str(tmp_path / "s")]) == 2


def test_sweep_alphas_sharing_a_report_name_exit_2_before_sampling(tmp_path, workspace, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sweep sampled before refusing its arguments")

    monkeypatch.setattr("ufolab.cli.sample", no_sampling)
    # 0.5 twice, and 0.1234561 and 0.1234562 both write alpha-0.123456.csv
    assert main(["sweep", "--base", str(workspace.base), "--ufo", str(workspace.ufo),
                 "--alphas", "0.5", "0.5", "0.1234561", "0.1234562", "--seeds", "3", "4",
                 "--out", str(tmp_path / "s")]) == 2
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
def test_sweep_alpha_outside_0_1_exits_2_before_sampling(tmp_path, workspace, monkeypatch, capsys, alpha):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sweep sampled before refusing its arguments")

    monkeypatch.setattr("ufolab.cli.sample", no_sampling)
    assert main(["sweep", "--base", str(workspace.base), "--ufo", str(workspace.ufo),
                 "--alphas", "0.1", alpha, "--seeds", "3", "4", "--out", str(tmp_path / "s")]) == 2
    assert "intensity must be a number in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# ---------------------------------------------------------------- inspect


def test_inspect_prints_artifact_facts(workspace, tmp_path, capsys):
    assert main(["inspect", str(workspace.base)]) == 0
    assert "parameters:" in capsys.readouterr().out
    assert main(["inspect", str(workspace.ufo)]) == 0
    assert "kind=consistency" in capsys.readouterr().out

    clip = make_static_video(gen_moving_scene(0, seed=0).data[0], frames=2)
    save_clip(clip, tmp_path / "c.vclip")
    assert main(["inspect", str(tmp_path / "c.vclip")]) == 0
    assert "2x16x16x1" in capsys.readouterr().out

    (tmp_path / "x.bin").write_bytes(b"??")
    assert main(["inspect", str(tmp_path / "x.bin")]) == 2

    header, payload, _ = read_container(workspace.ufo, ADAPTER_MAGIC)
    write_container(tmp_path / "a.ufoa", ADAPTER_MAGIC, {**header, "meta": [1, 2]},
                    [np.frombuffer(payload, dtype="<f4")])
    assert main(["inspect", str(tmp_path / "a.ufoa")]) == 4
    assert "meta must be a JSON object" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["transmogrify"]) == 2
    capsys.readouterr()  # swallow argparse usage text


def readme_cli_commands():
    """Every `ufolab ...` line of the README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in joined.splitlines()
            if line.strip().startswith("ufolab ")]


def test_readme_cli_lines_parse():
    commands = readme_cli_commands()
    assert {argv[1] for argv in commands} == {
        "train-base", "train-ufo", "generate", "evaluate", "sweep", "inspect"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:  # argparse's exit 2
            pytest.fail(f"README CLI line does not parse: {shlex.join(argv)}")
