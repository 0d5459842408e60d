"""Train the committed experiment artifacts (bases + adapters) under assets/.

Each stage is one trainer call over its full budget, with one Adam and one
timestep/noise RNG for the whole run:

  base-a, base-b        train_base, 6000 steps, warm-up 500, lr 2e-4,
                        model/trainer seeds 11/22, moving-clip streams 1011/1022
  ufo-a-d1/d4/d64       train_ufo_consistency on base-a, ranks 1/4/64,
                        3000 steps, warm-up 200, lr 2e-3, seeds 44/33/55,
                        static-clip streams 1044/1033/1055
  ufo-b-d4              the same on base-b, rank 4, seed 66, stream 1066
  ufo-style             train_ufo_style on base-a, rank 4, seed 77, style
                        "invert", stream 1077 -> ufo-style-a.ufoa

Every PROBE_EVERY steps the interframe probe samples 16 fixed clips (with the
adapter at alpha = 1 for adapter stages) and logs their mean |frame
difference|.  It runs inside the data stream, before the next batch is
handed to the trainer; `sample` runs without a tape, with its own per-seed
RNGs, and touches no gradient or optimiser state, so an artifact's bytes are
the same with the probe on or off.

After each stage, assets/MANIFEST.json gets one entry per artifact: its
sha256, the stage config (model config, TrainConfig, stream seed and kind),
the loss summary, the wall time, the git revision, the NumPy version and the
number of threads the loaded OpenBLAS runs.  The revision is read once, when
the script starts, so it names the tree that trains every stage of the run.
Provenance lives there and never in the artifact headers, so the same code
and seeds still give the same artifact bytes.

Stages are resumable: a stage is skipped when its output file already exists.
Importing ufolab sets the OpenBLAS that NumPy calls to one thread.

Run everything:            python3 scripts/run_experiments.py
Run selected stages:       python3 scripts/run_experiments.py base-a ufo-a-d4
"""

import argparse
import dataclasses
import fcntl
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ufolab.adapter import compose, init_adapter  # noqa: E402
from ufolab.adapter import save_adapter  # noqa: E402
from ufolab.diffusion import sample  # noqa: E402
from ufolab.fileio import atomic_write_bytes  # noqa: E402
from ufolab.model import ModelConfig, build_model, load_model, save_model  # noqa: E402
from ufolab.synthdata import clip_stream  # noqa: E402
from ufolab.tensor import _openblas  # noqa: E402
from ufolab.train import TrainConfig, train_base, train_ufo_consistency, train_ufo_style  # noqa: E402

ASSETS = ROOT / "assets"
MANIFEST = "MANIFEST.json"
T0 = time.time()

BATCH = 8
BASE_TRAIN = dict(steps=6000, warmup_steps=500)
# the small adapter parameter set takes a hotter peak than the base
ADAPTER_TRAIN = dict(steps=3000, warmup_steps=200, lr_peak=2e-3)
PROBE_EVERY = 1500
PROBE_STEPS = 100

PROBE_CONDS = np.arange(16) % 36
PROBE_SEEDS = np.arange(16) + 900


@dataclasses.dataclass(frozen=True)
class Stage:
    out: str                  # artifact file name under the assets directory
    seed: int                 # model/adapter init seed and trainer seed
    stream_seed: int
    base: str | None = None   # base artifact an adapter is trained on
    rank: int = 0
    style: str | None = None  # stylization target; None trains consistency


STAGES = {
    "base-a": Stage("base-a.ufom", 11, 1011),
    "base-b": Stage("base-b.ufom", 22, 1022),
    "ufo-a-d4": Stage("ufo-a-d4.ufoa", 33, 1033, base="base-a.ufom", rank=4),
    "ufo-a-d1": Stage("ufo-a-d1.ufoa", 44, 1044, base="base-a.ufom", rank=1),
    "ufo-a-d64": Stage("ufo-a-d64.ufoa", 55, 1055, base="base-a.ufom", rank=64),
    "ufo-b-d4": Stage("ufo-b-d4.ufoa", 66, 1066, base="base-b.ufom", rank=4),
    "ufo-style": Stage("ufo-style-a.ufoa", 77, 1077, base="base-a.ufom", rank=4,
                       style="invert"),
}


def log(msg):
    print(f"[{time.time() - T0:7.0f}s] {msg}", flush=True)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def interframe(model, stack=None):
    vids = sample(model, PROBE_CONDS, PROBE_SEEDS, stack=stack, steps=PROBE_STEPS)
    return float(np.mean(np.abs(np.diff(vids, axis=1))))


def probed(data, every, probe):
    """Yield `data` unchanged, calling probe(done) before batch every+1, 2*every+1, ..."""
    for done in itertools.count():
        if every and done and done % every == 0:
            probe(done)
        yield next(data)


def train_stage(name, assets=ASSETS, steps=None, probe_every=PROBE_EVERY):
    """Run one stage in a single trainer call; returns (artifact path, manifest entry).

    `steps` overrides the stage budget (warm-up is cut to fit) for short check runs.
    """
    stage = STAGES[name]
    assets = Path(assets)
    budget = dict(ADAPTER_TRAIN if stage.base else BASE_TRAIN)
    if steps is not None:
        budget.update(steps=steps, warmup_steps=min(budget["warmup_steps"], steps))
    cfg = TrainConfig(batch_size=BATCH, seed=stage.seed, **budget)
    started = time.time()

    if stage.base is None:
        model = build_model(ModelConfig(), seed=stage.seed)
        stream_kind = "moving"
        data = clip_stream(BATCH, seed=stage.stream_seed)
        stack = None
    else:
        model = load_model(assets / stage.base)
        kind = "stylization" if stage.style else "consistency"
        adapter = init_adapter(model, rank=stage.rank, seed=stage.seed, kind=kind)
        if stage.style:
            stream_kind = f"style:{stage.style}"
            data = clip_stream(BATCH, seed=stage.stream_seed, style=stage.style)
            adapter.meta["style"] = stage.style
        else:
            stream_kind = "static"
            data = clip_stream(BATCH, seed=stage.stream_seed, static=True)
        stack = compose(model, [(adapter, 1.0)])

    probes = {}

    def probe(done):
        probes[str(done)] = interframe(model, stack)
        log(f"  {stage.out}: step {done}  interframe {probes[str(done)]:.5f}")

    data = probed(data, probe_every, probe)
    if stage.base is None:
        _, rows = train_base(model, data, cfg)
    elif stage.style:
        _, rows = train_ufo_style(model, adapter, data, cfg)
    else:
        _, rows = train_ufo_consistency(model, adapter, data, cfg)
    if probe_every and rows:
        probe(len(rows))

    out = assets / stage.out
    if stage.base is None:
        save_model(model, out)
    else:
        save_adapter(adapter, out)
    losses = [r["loss_simple"] for r in rows]
    entry = {
        "file": stage.out,
        "sha256": sha256_file(out),
        "stage": name,
        "kind": "base" if stage.base is None else adapter.kind,
        "base": stage.base,
        "base_sha256": None if stage.base is None else sha256_file(assets / stage.base),
        "rank": stage.rank or None,
        "model_config": dataclasses.asdict(model.config),
        "train_config": dataclasses.asdict(cfg),
        "stream": {"seed": stage.stream_seed, "kind": stream_kind},
        "steps": len(rows),
        "final_loss_simple": losses[-1] if losses else None,
        "last100_mean_loss_simple": float(np.mean(losses[-100:])) if losses else None,
        "first20_loss_simple": losses[:20],
        "probe_interframe": probes,
        "wall_s": round(time.time() - started, 1),
        **PROVENANCE,
    }
    log(f"saved {out}  L_simple final {entry['final_loss_simple']:.4f}  "
        f"last100 {entry['last100_mean_loss_simple']:.4f}")
    return out, entry


def blas_threads() -> int | None:
    """Threads the OpenBLAS that NumPy calls runs; None where it cannot be asked."""
    getter = _openblas("get")
    return None if getter is None else int(getter())


def provenance() -> dict:
    """Where and with what an artifact was made: kept out of its bytes."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True,
                             timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"git_revision": rev, "numpy": np.__version__, "blas_threads": blas_threads()}


# read before any stage trains, so it describes the tree that does the training
PROVENANCE = provenance()


def record(assets, entry) -> None:
    """Merge one entry into the manifest; a directory lock serialises parallel lanes."""
    fd = os.open(assets, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        path = assets / MANIFEST
        manifest = json.loads(path.read_text()) if path.exists() else {"artifacts": {}}
        manifest["artifacts"][entry["file"]] = entry
        manifest["artifacts"] = dict(sorted(manifest["artifacts"].items()))
        atomic_write_bytes(path, (json.dumps(manifest, indent=1) + "\n").encode())
    finally:
        os.close(fd)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("stages", nargs="*", metavar="stage",
                    help=f"stages to run (default: all of {', '.join(STAGES)})")
    ap.add_argument("--assets", type=Path, default=ASSETS, help="output directory")
    args = ap.parse_args(argv)
    unknown = [name for name in args.stages if name not in STAGES]
    if unknown:
        ap.error(f"unknown stage(s): {', '.join(unknown)}")
    args.assets.mkdir(parents=True, exist_ok=True)
    for name in args.stages or list(STAGES):
        out = args.assets / STAGES[name].out
        if out.exists():
            log(f"skip {name} ({out.name} exists)")
            continue
        log(f"stage {name}")
        _, entry = train_stage(name, args.assets)
        record(args.assets, entry)
    log("all stages complete")


if __name__ == "__main__":
    main()
