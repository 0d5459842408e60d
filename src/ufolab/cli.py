"""Command-line front end: training, generation, evaluation, sweeps.

Exit codes are a stable scripting contract: 0 success, 2 usage or
configuration problems, 3 numeric failures (diverged training), 4
compatibility failures (malformed container, fingerprint mismatch).
Every run is deterministic given its config and seeds, and every output file
is written atomically, so re-running a command overwrites outputs with
byte-identical content.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .adapter import compose, init_adapter, load_adapter, save_adapter
from .config import load_config, resolve_path
from .diffusion import DEFAULT_SAMPLE_STEPS, sample
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FingerprintError,
    FormatError,
    NumericError,
    is_intensity,
)
from .fileio import write_csv
from .metrics import evaluate_set, write_metrics_csv
from .model import build_model, fingerprint, load_model, save_model
from .synthdata import DEFAULT_CONDITIONS, STYLES, clip_stream
from .train import train_base, train_ufo_consistency, train_ufo_style
from .video import Clip, load_clip, save_clip

# data batches come from an independent generator stream; offsetting its seed
# keeps it decoupled from the trainer's own (t, eps) draws at the same seed
STREAM_SEED_OFFSET = 1_000_003

_KIND_BY_FLAG = {"consistency": "consistency", "style": "stylization"}


def _stream(cfg, model, **kw):
    """Training batches at the geometry and condition vocabulary of `model`."""
    mc = model.config
    over = [c for c in cfg.data.conditions if c >= mc.cond_vocab]
    if over:
        raise ConfigError(
            f"condition ids {over} exceed the model's cond_vocab {mc.cond_vocab}")
    return clip_stream(cfg.train.batch_size,
                       seed=cfg.train.seed + STREAM_SEED_OFFSET,
                       conditions=cfg.data.conditions,
                       frames=mc.frames, height=mc.height, width=mc.width,
                       jitter=cfg.data.jitter,
                       **kw)


def cmd_train_base(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg.model, seed=cfg.train.seed)
    ckpt = cfg.paths.checkpoints / f"base-seed{cfg.train.seed}.ufom"
    curve = cfg.paths.reports / f"train-base-seed{cfg.train.seed}.csv"
    train_base(model, _stream(cfg, model), cfg.train, log_path=curve)
    save_model(model, ckpt)
    print(f"checkpoint: {ckpt}")
    print(f"loss curve: {curve}")
    return 0


def cmd_train_ufo(args) -> int:
    cfg = load_config(args.config)
    model = load_model(resolve_path(args.base))
    kind = _KIND_BY_FLAG[args.kind]
    train_cfg = cfg.train
    adapter = init_adapter(model, rank=args.rank, seed=train_cfg.seed, kind=kind)
    curve = cfg.paths.reports / f"train-ufo-{args.kind}-seed{train_cfg.seed}.csv"
    if kind == "consistency":
        data = _stream(cfg, model, static=True)
        train_ufo_consistency(model, adapter, data, train_cfg, log_path=curve)
    else:
        data = _stream(cfg, model, style=args.style)
        adapter.meta["style"] = args.style
        train_ufo_style(model, adapter, data, train_cfg, log_path=curve)
    out = cfg.paths.checkpoints / f"ufo-{args.kind}-seed{train_cfg.seed}.ufoa"
    save_adapter(adapter, out)
    print(f"adapter: {out}")
    print(f"loss curve: {curve}")
    return 0


def _load_stack(model, ufo_paths, alphas):
    if len(ufo_paths) != len(alphas):
        raise ContractError(
            f"{len(ufo_paths)} --ufo files but {len(alphas)} --alpha values")
    if not ufo_paths:
        return None
    adapters = [load_adapter(resolve_path(p)) for p in ufo_paths]
    return compose(model, list(zip(adapters, alphas)))


def cmd_generate(args) -> int:
    model = load_model(resolve_path(args.base))
    stack = _load_stack(model, args.ufo, args.alpha)
    vids = sample(model, [args.condition], [args.seed], stack=stack, steps=args.steps)
    clip = Clip(vids[0], fps=model.config.fps,
                meta={"condition": int(args.condition), "seed": int(args.seed)})
    out = resolve_path(args.out)
    save_clip(clip, out)
    print(f"video: {out}")
    return 0


def _load_clips(flag, value):
    folder = resolve_path(value)
    if not folder.is_dir():
        raise ContractError(f"{flag} {folder} is not a directory")
    return [load_clip(p) for p in sorted(folder.glob("*.vclip"))]


def cmd_evaluate(args) -> int:
    videos = _load_clips("--videos", args.videos)
    baselines = None if args.baseline is None else _load_clips("--baseline", args.baseline)
    report = evaluate_set(videos, baselines=baselines)
    out = resolve_path(args.out)
    write_metrics_csv(out, report)
    print(report.summary_line())
    return 0


def cmd_sweep(args) -> int:
    model = load_model(resolve_path(args.base))
    adapter = load_adapter(resolve_path(args.ufo))
    seeds = args.seeds
    if len(set(seeds)) != len(seeds):
        raise ContractError("--seeds must be distinct (matched-seed protocol)")
    for alpha in args.alphas:
        if not is_intensity(alpha):
            raise ContractError(f"--alphas: intensity must be a number in [0, 1], got {alpha!r}")
    reports = [f"alpha-{alpha:g}.csv" for alpha in args.alphas]
    if len(set(reports)) != len(reports):
        raise ContractError(f"--alphas must give distinct report names, got {', '.join(reports)}")
    conditions = args.conditions if args.conditions else list(DEFAULT_CONDITIONS)
    conds = np.array([conditions[i % len(conditions)] for i in range(len(seeds))])
    outdir = resolve_path(args.out)  # created by the first report write

    def clips_at(alpha):
        stack = None if alpha == 0.0 else compose(model, [(adapter, alpha)])
        vids = sample(model, conds, seeds, stack=stack, steps=args.steps)
        return [Clip(v, fps=model.config.fps,
                     meta={"condition": int(c), "seed": int(s)})
                for v, c, s in zip(vids, conds, seeds)]

    # every alpha is scored against the matched-seed alpha=0 baseline
    baseline = clips_at(0.0)
    summary = []
    for alpha, name in zip(args.alphas, reports):
        videos = baseline if alpha == 0.0 else clips_at(alpha)
        report = evaluate_set(videos, baselines=baseline, alpha=alpha)
        write_metrics_csv(outdir / name, report)
        agg = report.aggregates
        summary.append((alpha, agg["flicker"], agg["sc"], agg["bc"], report.excluded))
        print(f"alpha={alpha:g} {report.summary_line()}")

    write_csv(outdir / "summary.csv", ("alpha", "flicker", "sc", "bc", "ec"), summary)
    print(f"summary: {outdir / 'summary.csv'}")
    return 0


def cmd_inspect(args) -> int:
    path = resolve_path(args.path)
    suffix = path.suffix.lower()
    if suffix == ".ufom":
        model = load_model(path)
        cfg = model.config
        print(f"model: {cfg.frames}x{cfg.height}x{cfg.width}x{cfg.channels} "
              f"dim={cfg.dim} blocks={cfg.blocks} T={cfg.timesteps} ({cfg.schedule})")
        print(f"parameters: {model.parameter_count()}")
        print(f"fingerprint: {fingerprint(model)}")
    elif suffix == ".ufoa":
        adapter = load_adapter(path)
        print(f"adapter: kind={adapter.kind} rank={adapter.rank} "
              f"recommended_alpha={adapter.recommended_alpha:g}")
        print(f"layers: {', '.join(adapter.layers)}")
        print(f"parameters: {adapter.parameter_count()}")
        print(f"fingerprint: {adapter.fingerprint}")
    elif suffix == ".vclip":
        clip = load_clip(path)
        f, h, w, c = clip.data.shape
        print(f"clip: {f}x{h}x{w}x{c} fps={clip.fps:g} meta={clip.meta}")
    else:
        raise ContractError(f"cannot inspect {path.name}: expected .ufom/.ufoa/.vclip")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ufolab",
        description="Toy diffusion video generator with intensity-controlled adapters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-base", help="train the base generator from a config")
    p.add_argument("config")
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("train-ufo", help="train an adapter against a frozen base")
    p.add_argument("config")
    p.add_argument("--kind", choices=sorted(_KIND_BY_FLAG), required=True)
    p.add_argument("--base", required=True, help="base model checkpoint (.ufom)")
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--style", choices=STYLES, default="invert",
                   help="restyling used for --kind style training data")
    p.set_defaults(func=cmd_train_ufo)

    p = sub.add_parser("generate", help="sample one video")
    p.add_argument("--base", required=True)
    p.add_argument("--ufo", action="append", default=[],
                   help="adapter file; repeat for composition")
    p.add_argument("--alpha", action="append", type=float, default=[],
                   help="intensity, one per --ufo")
    p.add_argument("--condition", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=DEFAULT_SAMPLE_STEPS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score a directory of .vclip files")
    p.add_argument("--videos", required=True)
    p.add_argument("--baseline", default=None,
                   help="index-aligned baseline directory for the exclusion rule")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="matched-seed intensity sweep with reports")
    p.add_argument("--base", required=True)
    p.add_argument("--ufo", required=True)
    p.add_argument("--alphas", type=float, nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--conditions", type=int, nargs="+", default=None)
    p.add_argument("--steps", type=int, default=DEFAULT_SAMPLE_STEPS)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="print header facts for a saved artifact")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors already exit with 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ContractError, DimensionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, FingerprintError) as exc:
        print(f"compatibility failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
