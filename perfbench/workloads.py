"""The three benchmark workloads: set-up, the timed loop and its checks.

Each workload is a closed loop with one caller in one process.  An operation
is a train step (``train``), a sampled alpha point (``sweep``) or a scored pass
over the corpus (``score``).  In a traced run every other operation (every
other pass for ``sweep`` and ``score``) runs with the tracer installed and the
rest run the unmodified code, so the two can be compared for the tracing
overhead.  Nothing here reaches below the public ufolab API.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from ufolab import (AdapterStack, Clip, ModelConfig, TrainConfig, build_model, clip_stream, compose,
                    evaluate_set, gen_moving_scene, init_adapter, load_adapter, load_clip, load_model,
                    make_static_video, sample, save_adapter, save_clip, save_model, train_base,
                    train_ufo_consistency, write_metrics_csv)
from ufolab.synthdata import DEFAULT_CONDITIONS, NUM_CONDITIONS

from checks import (REF_FIELDS, bits_differ, bits_equal, loss_decreased, losses_finite,
                    params_unchanged, report_matches, video_range)

TRAIN_BATCH = 8
TRAIN_MIN_STEPS = 100   # so that p90 has ten samples beyond it
SWEEP_CLIPS = 16
SWEEP_STEPS = 5         # at most the sampler's default 30; short, so a run holds several passes
SWEEP_POINTS = (("alpha-0.1", (("consistency", 0.1),)),
                ("alpha-1", (("consistency", 1.0),)),
                ("compose", (("consistency", 0.1), ("stylization", 1.0))))
POINT_LABELS = tuple(label for label, _ in SWEEP_POINTS)
ADAPTER_RANK = 4
SCORE_CLIPS = 64
POOL_SIZE = 256         # score corpora are drawn from this fixed, referenced pool
POOL_SEED = 90_000
REFERENCE = Path(__file__).with_name("score_reference.json")

_now = time.perf_counter
def sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def pool_clip(j: int) -> Clip:
    """Clip ``j`` of the score pool: every condition, fixed seeds, default geometry."""
    return gen_moving_scene(j % NUM_CONDITIONS, POOL_SEED + j)


def seeded_model(seed: int):
    """Default model whose zero-initialised heads get seeded non-zero draws."""
    model = build_model(ModelConfig(), seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in ("head_eps.w", "head_sigma.w"):
        p = model.params[name]
        p.data[...] = rng.normal(scale=0.02, size=p.shape).astype(p.data.dtype)
    return model


def seeded_adapter(model, seed: int, kind: str):
    """Rank-4 adapter whose zero correctors get seeded draws, so it changes the output."""
    adapter = init_adapter(model, rank=ADAPTER_RANK, seed=seed, kind=kind)
    rng = np.random.default_rng(seed + 1)
    for layer in adapter.layers.values():
        layer.v_cor.data[...] = rng.normal(scale=0.05, size=layer.v_cor.shape).astype(layer.v_cor.data.dtype)
    return adapter


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def p90(values) -> float:
    return float(statistics.quantiles(values, n=10)[-1]) if len(values) >= 2 else median(values)


class OpClock:
    """Times operations and, when asked, traces one."""

    def __init__(self, tally, tracer=None):
        self.tally, self.tracer = tally, tracer
        self.records: list[tuple[str, float, bool]] = []  # (kind, seconds, traced)
        self.current = None

    def begin(self, kind: str, traced: bool = False, group: int | None = None) -> int:
        op = self.tally.begin()
        traced = traced and self.tracer is not None
        sid = None
        if traced:
            self.tracer.install()
            self.tracer.op_id = op
            self.tracer.group = op if group is None else group
            sid = self.tracer.open("op." + kind)
        self.current = (kind, op, traced, sid, _now())
        return op

    def end(self) -> float:
        kind, _, traced, sid, t0 = self.current
        dt = _now() - t0
        if traced:
            self.tracer.close(sid)
            self.tracer.uninstall()
        self.records.append((kind, dt, traced))
        self.current = None
        return dt

    def fail_current(self, exc: BaseException) -> None:
        """Charge the operation in flight with ``exc`` and close it."""
        if self.current is not None:
            self.tally.charge(self.current[1], [f"{self.current[0]}: {type(exc).__name__}: {exc}"])
            self.end()

    @contextmanager
    def op(self, kind: str, traced: bool = False, group: int | None = None):
        op = self.begin(kind, traced, group)
        try:
            yield op
        except BaseException as exc:
            self.fail_current(exc)
            raise
        self.end()

    def times(self, *kinds: str, traced=None) -> list[float]:
        return [dt for k, dt, tr in self.records if k in kinds and (traced is None or tr == traced)]


def _stage(stages: dict, name: str, t0: float) -> float:
    t1 = _now()
    stages[name] = stages.get(name, 0.0) + (t1 - t0)
    return t1


# ---------------------------------------------------------------------------
# train: base steps, then adapter steps, at batch 8 from clip_stream
# ---------------------------------------------------------------------------

class StepStream:
    """The data stream handed to the trainer; each ``next`` starts a new timed step."""

    def __init__(self, inner, clock: OpClock, kind: str, trace: bool):
        self.inner, self.clock, self.kind, self.trace = inner, clock, kind, trace
        self.steps = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.clock.current is not None:
            self.clock.end()
        traced = self.trace and self.steps % 2 == 0
        self.steps += 1
        self.clock.begin(self.kind, traced)
        if not traced:
            return next(self.inner)
        tracer = self.clock.tracer
        sid = tracer.open("synthdata.batch")
        try:
            return next(self.inner)
        finally:
            tracer.close(sid)

    def finish(self) -> None:
        if self.clock.current is not None:
            self.clock.end()


def setup_train(seed: int, workdir: Path, stages: dict) -> dict:
    s = sub_seeds(seed, 4)
    t = _now()
    model = seeded_model(s[0] % 2**31)
    adapter = init_adapter(model, rank=ADAPTER_RANK, seed=s[1] % 2**31)
    t = _stage(stages, "build", t)
    conds = list(DEFAULT_CONDITIONS)
    streams = (clip_stream(TRAIN_BATCH, s[2], conditions=conds),
               clip_stream(TRAIN_BATCH, s[3], conditions=conds, static=True))
    _stage(stages, "data", t)
    return {"model": model, "adapter": adapter, "streams": streams, "seed": s[0] % 2**31}


def _train_steps(seconds: float, seed: int) -> int:
    """Steps that fill about ``seconds``, from two warm-up steps on a throwaway model."""
    times = []
    stream = clip_stream(TRAIN_BATCH, seed, conditions=list(DEFAULT_CONDITIONS))

    def timed():
        for item in stream:
            times.append(_now())
            yield item

    train_base(seeded_model(seed), timed(), TrainConfig(steps=3, lr_peak=1e-3, warmup_steps=0, seed=seed))
    times.append(_now())
    per_step = (times[-1] - times[1]) / 2
    return max(TRAIN_MIN_STEPS, round(seconds / per_step))


def run_train(ctx: dict, seconds: float, clock: OpClock) -> dict:
    tally, trace = clock.tally, clock.tracer is not None
    model, adapter = ctx["model"], ctx["adapter"]
    n = _train_steps(seconds, ctx["seed"])
    n_base, n_ufo = n // 2, n - n // 2
    for kind, steps, inner in (("base", n_base, ctx["streams"][0]), ("ufo", n_ufo, ctx["streams"][1])):
        stream = StepStream(inner, clock, kind, trace)
        first_op = tally.attempted
        before = {k: p.data.tobytes() for k, p in model.params.items()}
        try:
            if kind == "base":
                _, rows = train_base(model, stream, TrainConfig(
                    steps=steps, batch_size=TRAIN_BATCH, lr_peak=1e-3, warmup_steps=0, seed=ctx["seed"]))
            else:
                _, rows = train_ufo_consistency(model, adapter, stream, TrainConfig(
                    steps=steps, batch_size=TRAIN_BATCH, lr_peak=2e-3, warmup_steps=0, seed=ctx["seed"] + 1))
        except Exception as exc:
            clock.fail_current(exc)
            raise
        stream.finish()
        last_op = tally.attempted - 1
        for op, row in zip(range(first_op, last_op + 1), rows):
            tally.charge(op, losses_finite([row], kind))
        if kind == "base":
            tally.charge(last_op, loss_decreased(rows, "base"))
        else:
            tally.charge(last_op, params_unchanged(before, model.params, "ufo"))

    base, ufo = clock.times("base"), clock.times("ufo")
    steps_all = base + ufo
    human = [
        ("base_train_clips_per_s", TRAIN_BATCH * len(base) / sum(base), "1/s", len(base)),
        ("ufo_train_clips_per_s", TRAIN_BATCH * len(ufo) / sum(ufo), "1/s", len(ufo)),
        ("train_step_ms_p50", 1e3 * median(steps_all), "ms", len(steps_all)),
        ("train_step_ms_p90", 1e3 * p90(steps_all), "ms", len(steps_all)),
        ("base_step_ms_p50", 1e3 * median(base), "ms", len(base)),
        ("ufo_step_ms_p50", 1e3 * median(ufo), "ms", len(ufo)),
    ]
    return {"human": human, "work_per_s": TRAIN_BATCH * len(steps_all) / sum(steps_all)}


def train_op_ms(clock: OpClock, traced=None) -> float:
    """op_ms_mean on train: the mean step, base and adapter steps together."""
    return 1e3 * mean(clock.times("base", "ufo", traced=traced))


# ---------------------------------------------------------------------------
# sweep: load, sample the alpha = 0 baseline, then sample and score each point
# ---------------------------------------------------------------------------

def setup_sweep(seed: int, workdir: Path, stages: dict) -> dict:
    s = sub_seeds(seed, 4)
    t = _now()
    model = seeded_model(s[0] % 2**31)
    adapters = {"consistency": seeded_adapter(model, s[1] % 2**31, "consistency"),
                "stylization": seeded_adapter(model, s[2] % 2**31, "stylization")}
    t = _stage(stages, "build", t)
    paths = {"base": workdir / "base.ufom"}
    save_model(model, paths["base"])
    for kind, adapter in adapters.items():
        paths[kind] = workdir / f"{kind}.ufoa"
        save_adapter(adapter, paths[kind])
    _stage(stages, "write", t)
    conds = np.array([DEFAULT_CONDITIONS[i % len(DEFAULT_CONDITIONS)] for i in range(SWEEP_CLIPS)])
    first = np.random.default_rng(s[3]).integers(0, 2**30)
    seeds = first + 7919 * np.arange(SWEEP_CLIPS)
    return {"paths": paths, "model": model, "conds": conds, "seeds": seeds, "workdir": workdir}


def run_sweep(ctx: dict, seconds: float, clock: OpClock) -> dict:
    tally, trace = clock.tally, clock.tracer is not None
    conds, seeds, paths, out = ctx["conds"], ctx["seeds"], ctx["paths"], ctx["workdir"]
    sample(ctx["model"], conds, seeds, steps=1)  # warm-up: first-touch allocations
    sampled, loads = [], []  # sampling and load seconds
    t_start, passes = _now(), 0
    while True:
        traced = trace and passes % 2 == 0
        with clock.op("baseline", traced, passes) as op_base:
            t0 = _now()
            model = load_model(paths["base"])
            adapters = {k: load_adapter(paths[k]) for k in ("consistency", "stylization")}
            t1 = _now()
            base = sample(model, conds, seeds, steps=SWEEP_STEPS)
            sampled.append(_now() - t1)
            loads.append(t1 - t0)
            base_clips = [Clip(v, fps=model.config.fps, meta={"condition": int(c), "seed": int(s)})
                          for v, c, s in zip(base, conds, seeds)]
        tally.charge(op_base, video_range(base, "alpha=0 baseline"))
        for label, pairs in SWEEP_POINTS:
            with clock.op(label, traced, passes) as op:
                stack = compose(model, [(adapters[k], a) for k, a in pairs])
                t1 = _now()
                videos = sample(model, conds, seeds, stack=stack, steps=SWEEP_STEPS)
                sampled.append(_now() - t1)
                clips = [Clip(v, fps=model.config.fps, meta={"condition": int(c), "seed": int(s)})
                         for v, c, s in zip(videos, conds, seeds)]
                report = evaluate_set(clips, baselines=base_clips, alpha=pairs[0][1])
                write_metrics_csv(out / f"{label}.csv", report)
            tally.charge(op, video_range(videos, label) + bits_differ(videos, base, f"{label} vs alpha=0"))

        # matched-seed contracts, checked on one clip per pass outside the timed operations
        j = passes % SWEEP_CLIPS
        one = (conds[j:j + 1], seeds[j:j + 1])
        solo = sample(model, *one, steps=SWEEP_STEPS)
        tally.charge(op_base, bits_equal(solo[0], base[j], f"clip {j} sampled alone vs its batch row"))
        zero = sample(model, *one, stack=AdapterStack([(adapters["consistency"], 0.0)]), steps=SWEEP_STEPS)
        tally.charge(op_base, bits_equal(zero, solo, f"clip {j} alpha=0 stack vs stack=None"))
        pairs = SWEEP_POINTS[-1][1]  # the composition; ``op`` is still its operation
        orders = [sample(model, *one, steps=SWEEP_STEPS,
                         stack=compose(model, [(adapters[k], a) for k, a in order]))
                  for order in (pairs, pairs[::-1])]
        tally.charge(op, bits_equal(orders[0], orders[1], f"clip {j} composition order"))

        passes += 1
        elapsed = _now() - t_start
        if elapsed + 0.5 * elapsed / passes >= seconds and (passes >= 2 or not trace):
            break

    points = clock.times(*POINT_LABELS)
    clip_steps = len(sampled) * SWEEP_CLIPS * SWEEP_STEPS
    human = [
        ("sample_clip_steps_per_s", clip_steps / sum(sampled), "1/s", len(sampled)),
        ("sweep_point_s_p50", median(points), "s", len(points)),
        ("sweep_baseline_s_p50", median(clock.times("baseline")), "s", len(clock.times("baseline"))),
        ("sweep_load_ms_p50", 1e3 * median(loads), "ms", len(loads)),
    ]
    return {"human": human, "work_per_s": clip_steps / sum(sampled)}


def sweep_op_ms(clock: OpClock, traced=None) -> float:
    """op_ms_mean on sweep: the mean alpha point (sample plus score)."""
    return 1e3 * mean(clock.times(*POINT_LABELS, traced=traced))


# ---------------------------------------------------------------------------
# score: load the corpus, evaluate_set against baselines, write the CSV
# ---------------------------------------------------------------------------

def score_corpus(seed: int) -> tuple[list[int], list[bool]]:
    """Pool indices of the corpus and which treated clips are made static."""
    rng = np.random.default_rng(sub_seeds(seed, 1)[0])
    picks = rng.choice(POOL_SIZE, size=SCORE_CLIPS, replace=False)
    static = np.zeros(SCORE_CLIPS, dtype=bool)
    static[rng.choice(SCORE_CLIPS, size=SCORE_CLIPS // 2, replace=False)] = True
    return [int(p) for p in picks], [bool(s) for s in static]


def setup_score(seed: int, workdir: Path, stages: dict) -> dict:
    picks, static = score_corpus(seed)
    t = _now()
    bases = [pool_clip(j) for j in picks]
    treated = [make_static_video(c.data[0], c.frames, fps=c.fps, meta=c.meta) if st else c
               for c, st in zip(bases, static)]
    t = _stage(stages, "data", t)
    files = {"treated": [], "base": []}
    for i, (tc, bc) in enumerate(zip(treated, bases)):
        for kind, clip in (("treated", tc), ("base", bc)):
            path = workdir / f"{kind}-{i:02d}.vclip"
            save_clip(clip, path)
            files[kind].append(path)
    _stage(stages, "write", t)
    reference = json.loads(REFERENCE.read_text("utf-8"))
    expected = [dict(zip(REF_FIELDS, reference["static" if st else "moving"][j]))
                for j, st in zip(picks, static)]
    return {"files": files, "expected": expected, "workdir": workdir}


def run_score(ctx: dict, seconds: float, clock: OpClock) -> dict:
    tally, trace = clock.tally, clock.tracer is not None
    files = ctx["files"]
    warm = [load_clip(p) for p in files["treated"][:2]]
    evaluate_set(warm, baselines=warm)  # warm-up: first-call costs stay out of the first pass
    t_start, passes = _now(), 0
    while True:
        with clock.op("pass", trace and passes % 2 == 0) as op:
            treated = [load_clip(p) for p in files["treated"]]
            bases = [load_clip(p) for p in files["base"]]
            report = evaluate_set(treated, baselines=bases)
            write_metrics_csv(ctx["workdir"] / "report.csv", report)
        tally.charge(op, report_matches(report, ctx["expected"], f"score pass {passes}"))
        passes += 1
        elapsed = _now() - t_start
        if elapsed + 0.5 * elapsed / passes >= seconds and (passes >= 2 or not trace):
            break
    times = clock.times("pass")
    human = [
        ("score_clips_per_s", SCORE_CLIPS * len(times) / sum(times), "1/s", len(times)),
        ("score_pass_ms_p50", 1e3 * median(times), "ms", len(times)),
    ]
    return {"human": human, "work_per_s": SCORE_CLIPS * len(times) / sum(times)}


def score_op_ms(clock: OpClock, traced=None) -> float:
    """op_ms_mean on score: the mean scored pass."""
    return 1e3 * mean(clock.times("pass", traced=traced))


WORKLOADS = {
    "train": (setup_train, run_train, train_op_ms),
    "sweep": (setup_sweep, run_sweep, sweep_op_ms),
    "score": (setup_score, run_score, score_op_ms),
}
