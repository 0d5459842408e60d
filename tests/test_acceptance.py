"""Acceptance gate: one test per numbered criterion, each printing a visible
PASS/FAIL line with the measured values.

Criteria 1 and 4-8 run against the committed artifacts under assets/,
trained by scripts/run_experiments.py with one trainer call per stage (bases:
6000 steps, warm-up 500, lr 2e-4, seeds 11/22; adapters: 3000 steps, warm-up
200, lr 2e-3) and listed with their sha256 and training config in
assets/MANIFEST.json (checked by tests/test_assets.py); the rest are
self-contained.  Generation sets are cached per module so the matched-seed
grids are sampled once and shared between criteria: nine 32-clip x 100-step
grids in all, about 50 s each on a 2-core x86 box and the bulk of the
suite's 8.5-10 min.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import ufolab.tensor as T
from ufolab.adapter import (
    AdapterStack,
    compose,
    init_adapter,
    load_adapter,
    save_adapter,
    transfer,
)
from ufolab.diffusion import sample
from ufolab.errors import FormatError
from ufolab.metrics import (
    consistency_score,
    estimate_flow,
    evaluate_set,
    oft,
    temporal_flicker_score,
)
from ufolab.model import ModelConfig, build_model, forward, load_model, save_model
from ufolab.tensor import Tensor
from ufolab.video import Clip

from oracles import delta_identity_check, flow_oracle, one_layer_adapter

ASSETS = Path(__file__).resolve().parents[1] / "assets"

# matched-seed evaluation grid shared by the trend criteria
GRID_SEEDS = np.arange(32) + 500
GRID_CONDS = np.arange(32) % 16
GRID_STEPS = 100


@pytest.fixture(autouse=True)
def fresh_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


class Lab:
    """Lazy loader/cache for the committed artifacts and generation grids."""

    def __init__(self):
        self._models = {}
        self._adapters = {}
        self._videos = {}

    def model(self, key):
        if key not in self._models:
            self._models[key] = load_model(ASSETS / f"{key}.ufom")
        return self._models[key]

    def adapter(self, key):
        if key not in self._adapters:
            self._adapters[key] = load_adapter(ASSETS / f"{key}.ufoa")
        return self._adapters[key]

    def videos(self, base_key, adapter_key=None, alpha=0.0):
        """(32, F, H, W, C) matched-seed generations, cached.

        Alpha = 0 samples the bare base (no stack) whatever the adapter, so
        every alpha = 0 request shares the one (base, None, 0.0) grid.
        """
        if adapter_key is None or alpha == 0.0:
            adapter_key, alpha = None, 0.0
        key = (base_key, adapter_key, alpha)
        if key not in self._videos:
            model = self.model(base_key)
            stack = None
            if adapter_key is not None:
                stack = compose(model, [(self.adapter(adapter_key), alpha)])
            self._videos[key] = sample(model, GRID_CONDS, GRID_SEEDS,
                                       stack=stack, steps=GRID_STEPS)
        return self._videos[key]

    def clips(self, *args, **kwargs):
        vids = self.videos(*args, **kwargs)
        return [Clip(v, meta={"condition": int(c), "seed": int(s)})
                for v, c, s in zip(vids, GRID_CONDS, GRID_SEEDS)]


@pytest.fixture(scope="module")
def lab():
    return Lab()


def interframe(vids) -> float:
    return float(np.mean(np.abs(np.diff(np.asarray(vids), axis=1))))


def agg(clips, baselines=None, alpha=None):
    return evaluate_set(clips, baselines=baselines, alpha=alpha)


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_alpha_zero_exactness(lab, capsys):
    model = lab.model("base-a")
    stack = compose(model, [(lab.adapter("ufo-a-d4"), 0.0),
                            (lab.adapter("ufo-style-a"), 0.0)])
    rng = np.random.default_rng(42)
    conds = rng.integers(0, model.config.cond_vocab, size=100)
    seeds = rng.integers(0, 2**31, size=100)
    plain = sample(model, conds, seeds, stack=None, steps=10)
    adapted = sample(model, conds, seeds, stack=stack, steps=10)
    ok = np.array_equal(plain, adapted)
    announce(capsys, 1, "alpha-0 exactness over 100 seeds/conditions", ok,
             "bit-identical with composed trained adapters at alpha=0"
             if ok else f"max abs deviation {np.max(np.abs(plain - adapted))}")


# ---------------------------------------------------------------- criterion 2


def _random_entry(rng, n, m, d):
    return (rng.normal(size=(n, d)), rng.normal(size=(m, d)), float(rng.normal()))


def test_criterion_02_adapter_algebra(capsys):
    rng = np.random.default_rng(7)
    worst_delta = worst_affine = worst_compose = 0.0
    with T.no_grad():
        for case in range(1000):
            n, m, d = (int(v) for v in rng.integers(1, 9, size=3))
            w = rng.normal(size=(m, n))
            bias = rng.normal(size=m)
            v_det, v_cor, beta = _random_entry(rng, n, m, d)
            x_t, x_tn = rng.normal(size=n), rng.normal(size=n)
            a, b = rng.uniform(0, 0.5, size=2)

            worst_delta = max(worst_delta, delta_identity_check(
                x_t, x_tn, w, (v_det, v_cor, beta), float(a + b)))

            # the model's path: _linear hands x and x W^T + b to AdapterStack.apply
            x2 = Tensor(x_t.reshape(1, n))
            base_y = Tensor(x_t.reshape(1, n) @ w.T + bias)
            adapter = one_layer_adapter(v_det, v_cor, beta)

            def y(alpha):
                return AdapterStack([(adapter, alpha)]).apply("L", x2, base_y).data

            affine = np.max(np.abs((y(a) + y(b)) - (y(0.0) + y(a + b))))
            worst_affine = max(worst_affine, float(affine))

        for case in range(200):
            n, m, d = (int(v) for v in rng.integers(1, 6, size=3))
            x2 = Tensor(rng.normal(size=(3, n)))
            base_y = Tensor(rng.normal(size=(3, m)))
            pair = []
            for k in range(2):
                adapter = one_layer_adapter(*_random_entry(rng, n, m, d))
                pair.append((adapter, float(rng.uniform(0, 1))))
            fwd = AdapterStack(pair).apply("L", x2, base_y).data
            rev = AdapterStack(pair[::-1]).apply("L", x2, base_y).data
            worst_compose = max(worst_compose, float(np.max(np.abs(fwd - rev))))

    ok = worst_delta <= 1e-12 and worst_affine <= 1e-12 and worst_compose <= 1e-12
    announce(capsys, 2, "adapter algebra, 1000 float64 cases", ok,
             f"max residuals: delta {worst_delta:.2e}, affinity {worst_affine:.2e}, "
             f"composition order {worst_compose:.2e} (tolerance 1e-12)")


# ---------------------------------------------------------------- criterion 3


GRAD_TINY = ModelConfig(frames=2, height=4, width=4, channels=1, patch=2, dim=8,
                        heads=2, mlp_dim=16, blocks=1, cond_vocab=4, timesteps=5,
                        dtype="float64")


def test_criterion_03_gradient_correctness(capsys):
    model = build_model(GRAD_TINY, seed=3)
    rng = np.random.default_rng(4)
    for p in ("head_eps.w", "head_eps.b", "head_sigma.w", "head_sigma.b"):
        model.params[p].data[...] = rng.normal(size=model.params[p].shape) * 0.2
    adapter = init_adapter(model, rank=2, seed=5)
    for layer in adapter.layers.values():  # give the correctors signal too
        layer.v_cor.data[...] = rng.normal(size=layer.v_cor.shape) * 0.3
    adapter.set_trainable(True)
    stack = AdapterStack([(adapter, 0.7)])

    tensors = dict(model.params)
    tensors.update(adapter.parameters())
    shape = (2, GRAD_TINY.frames, GRAD_TINY.height, GRAD_TINY.width, GRAD_TINY.channels)

    worst = 0.0
    worst_name = ""
    for instance in range(50):
        case = np.random.default_rng(100 + instance)
        z_t = case.standard_normal(shape)
        eps_tgt = case.standard_normal(shape)
        v_tgt = case.standard_normal(shape)
        t = case.integers(1, GRAD_TINY.timesteps + 1, size=2)
        cond = case.integers(0, GRAD_TINY.cond_vocab, size=2)

        # a fully differentiable scalar touching both heads and every layer
        # (the training loss proper holds eps_hat fixed inside its vlb term,
        # which finite differences would see but the gradient must not)
        def loss():
            eps_hat, v = forward(model, z_t, t, cond, stack)
            return (T.tmean(T.square(eps_hat - Tensor(eps_tgt)))
                    + T.tmean(T.square(v - Tensor(v_tgt))))

        with T.new_tape() as tape:
            T.backward(loss(), tape)
        grads = {name: (p.grad.copy() if p.grad is not None else np.zeros(p.shape))
                 for name, p in tensors.items()}
        for p in tensors.values():
            p.grad = None

        for name, p in tensors.items():
            flat = p.data.reshape(-1)
            i = int(case.integers(0, flat.size))
            keep = flat[i]
            flat[i] = keep + 1e-6
            with T.new_tape():
                hi = loss().item()
            flat[i] = keep - 1e-6
            with T.new_tape():
                lo = loss().item()
            flat[i] = keep
            numeric = (hi - lo) / 2e-6
            analytic = grads[name].reshape(-1)[i]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            if rel > worst:
                worst, worst_name = rel, f"{name}[{i}]"

    ok = worst < 1e-5
    announce(capsys, 3, "gradient checks on every base and adapted layer", ok,
             f"worst relative error {worst:.2e} at {worst_name} over 50 instances "
             f"(tolerance 1e-5)")


# ---------------------------------------------------------------- criteria 4+5


def test_criterion_04_consistency_training_effect(lab, capsys):
    sets = {alpha: lab.clips("base-a", "ufo-a-d4", alpha)
            for alpha in (0.0, 0.1, 0.2, 1.0)}
    baseline = sets[0.0]
    means = {alpha: agg(clips, baselines=baseline, alpha=alpha).aggregates
             for alpha, clips in sets.items()}
    ladders = []
    for key in ("flicker", "sc", "bc"):
        vals = [means[a][key] for a in (0.0, 0.1, 0.2)]
        ladders.append(vals[2] > vals[1] > vals[0])
    if_0 = interframe(lab.videos("base-a"))
    if_1 = interframe(lab.videos("base-a", "ufo-a-d4", 1.0))
    ratio = if_1 / if_0
    still_ok = ratio < 0.1
    ok = all(ladders) and still_ok
    fmt = {k: "/".join(f"{means[a][k]:.4f}" for a in (0.0, 0.1, 0.2))
           for k in ("flicker", "sc", "bc")}
    announce(capsys, 4, "consistency-training effect over 32 matched seeds", ok,
             f"alpha 0/0.1/0.2 means — flicker {fmt['flicker']}, sc {fmt['sc']}, "
             f"bc {fmt['bc']} (strict increase: {all(ladders)}); "
             f"interframe alpha=1 {if_1:.5f} vs alpha=0 {if_0:.5f}, "
             f"ratio {ratio:.3f} (need < 0.1: {still_ok})")


def test_criterion_05_excluded_count_trend(lab, capsys):
    baseline = lab.clips("base-a")
    ec_01 = agg(lab.clips("base-a", "ufo-a-d4", 0.1), baselines=baseline).excluded
    ec_02 = agg(lab.clips("base-a", "ufo-a-d4", 0.2), baselines=baseline).excluded
    ok = ec_02 >= ec_01 >= 0
    announce(capsys, 5, "exclusion-count trend", ok,
             f"EC(0.2)={ec_02} >= EC(0.1)={ec_01} >= 0")


# ---------------------------------------------------------------- criterion 6


def flicker_mean(clips) -> float:
    return float(np.mean([temporal_flicker_score(c) for c in clips]))


def test_criterion_06_transferability(lab, capsys):
    base_b = lab.model("base-b")
    f0 = flicker_mean(lab.clips("base-b"))
    # adapter trained on A, applied to B (fingerprints match by construction)
    transfer(lab.adapter("ufo-a-d4"), base_b)
    f_transfer = flicker_mean(lab.clips("base-b", "ufo-a-d4", 0.1))
    f_retrain = flicker_mean(lab.clips("base-b", "ufo-b-d4", 0.1))
    gain_t, gain_r = f_transfer - f0, f_retrain - f0
    ok = gain_t >= 0.5 * gain_r
    announce(capsys, 6, "adapter transfer between independently trained bases", ok,
             f"flicker gain at alpha=0.1: transferred {gain_t:+.5f} vs "
             f"retrained {gain_r:+.5f} (need >= half)")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_parameter_economy(lab, capsys):
    adapter = lab.adapter("ufo-a-d4")
    base = lab.model("base-a")
    a_count, b_count = adapter.parameter_count(), base.parameter_count()
    by_formula = sum(v.v_det.shape[1] * (v.v_cor.shape[0] + v.v_det.shape[0]) + 1
                     for v in adapter.layers.values())
    ratio = a_count / b_count
    ok = a_count == by_formula and ratio < 0.02
    announce(capsys, 7, "parameter economy at d=4", ok,
             f"adapter {a_count} params vs base {b_count} "
             f"({100 * ratio:.2f}%, need < 2%)")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_rank_ablation_direction(lab, capsys):
    f0 = flicker_mean(lab.clips("base-a"))
    gains = {d: flicker_mean(lab.clips("base-a", f"ufo-a-d{d}", 0.1)) - f0
             for d in (1, 4, 64)}
    ok = gains[4] >= gains[1]
    announce(capsys, 8, "rank ablation direction", ok,
             f"flicker gain at alpha=0.1: d=1 {gains[1]:+.5f}, d=4 {gains[4]:+.5f} "
             f"(assert d4 >= d1); d=64 {gains[64]:+.5f} (reported only)")


# ---------------------------------------------------------------- criterion 9


def _random_model_config(rng) -> ModelConfig:
    dim = int(rng.choice([4, 8, 12]))
    heads = int(rng.choice([h for h in (1, 2, 4) if dim % h == 0]))
    size = int(rng.choice([4, 8]))
    return ModelConfig(frames=int(rng.integers(2, 4)), height=size, width=size,
                       channels=1, patch=int(rng.choice([1, 2, 4])),
                       dim=dim, heads=heads, mlp_dim=int(rng.choice([8, 16])),
                       blocks=int(rng.integers(1, 3)),
                       cond_vocab=int(rng.integers(2, 9)),
                       timesteps=int(rng.integers(3, 12)),
                       schedule=str(rng.choice(["cosine", "scaled_linear"])))


def test_criterion_09_serialization_suite(tmp_path, capsys):
    rng = np.random.default_rng(77)
    for case in range(100):
        cfg = _random_model_config(rng)
        model = build_model(cfg, seed=int(rng.integers(0, 2**31)))
        mpath = tmp_path / f"m{case}.ufom"
        save_model(model, mpath)
        loaded = load_model(mpath)
        save_model(loaded, tmp_path / "m2.ufom")
        assert mpath.read_bytes() == (tmp_path / "m2.ufom").read_bytes()

        adapter = init_adapter(model, rank=int(rng.integers(1, 6)),
                               seed=int(rng.integers(0, 2**31)),
                               kind=str(rng.choice(["consistency", "stylization"])))
        for layer in adapter.layers.values():
            layer.v_cor.data[...] = rng.normal(size=layer.v_cor.shape)
            layer.beta.data[...] = rng.normal()
        apath = tmp_path / f"a{case}.ufoa"
        save_adapter(adapter, apath)
        re_loaded = load_adapter(apath)
        save_adapter(re_loaded, tmp_path / "a2.ufoa")
        assert apath.read_bytes() == (tmp_path / "a2.ufoa").read_bytes()
        assert re_loaded.kind == adapter.kind
        assert re_loaded.recommended_alpha == adapter.recommended_alpha

    # corruption fixtures: bad magic, truncation, shape mismatch
    blob = (tmp_path / "m0.ufom").read_bytes()
    shape_tamper = re.sub(
        rb'("param_shapes":\[\[)(\d)', lambda m: m.group(1)
        + (b"9" if m.group(2) != b"9" else b"8"), blob, count=1)
    assert shape_tamper != blob
    for bad, path in ((b"X" + blob[1:], tmp_path / "bad1.ufom"),
                      (blob[:-5], tmp_path / "bad2.ufom"),
                      (shape_tamper, tmp_path / "bad3.ufom")):
        path.write_bytes(bad)
        with pytest.raises(FormatError):
            load_model(path)
    announce(capsys, 9, "serialization suite", True,
             "100 bit-exact round trips; corruption fixtures all rejected")


# --------------------------------------------------------------- criterion 10


def _flicker_oracle(arr):
    return 1.0 - np.mean(np.abs(np.diff(arr.astype(np.float64), axis=0)))


def _block_features(arr, block=4):
    f, h, w, _ = arr.shape
    hb, wb = h // block, w // block
    feats = arr[..., 0].reshape(f, hb, block, wb, block).mean(axis=(2, 4))
    return feats.reshape(f, -1)


def _consistency_oracle(arr, mask, block=4):
    arr = arr.astype(np.float64)
    f, h, w, _ = arr.shape
    hb, wb = h // block, w // block
    cover = mask.reshape(hb, block, wb, block).mean(axis=(1, 3)) >= 0.5
    idx = np.flatnonzero(cover.reshape(-1))
    feats = _block_features(arr)[:, idx]
    sims = []
    for a in range(f - 1):
        x, y = feats[a], feats[a + 1]
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx == 0.0 or ny == 0.0:
            sims.append(1.0 if nx == ny else 0.0)
        else:
            sims.append(float(np.dot(x, y) / (nx * ny)))
    return float(np.mean(sims))


def _flow_mags_oracle(prev, nxt):
    flow, _ = flow_oracle(prev, nxt)
    return np.hypot(flow[..., 0], flow[..., 1])


def _oft_oracle(arr):
    all_mags = np.concatenate(
        [_flow_mags_oracle(arr[i], arr[i + 1]).reshape(-1) for i in range(len(arr) - 1)])
    k = max(1, math.ceil(0.05 * all_mags.size))
    return float(np.mean(np.sort(all_mags)[::-1][:k]))


def _excluded_oracle(base_oft, treated_oft):
    if treated_oft >= 1.0:
        return False
    if treated_oft == 0.0:
        return base_oft > 0.0
    return base_oft / treated_oft > 1.5


def test_criterion_10_metrics_oracle_equivalence(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    ofts = []
    for case in range(50):
        f = int(rng.integers(3, 6))
        arr = rng.uniform(0, 1, size=(f, 16, 16, 1)).astype(np.float32)
        clip = Clip(arr)
        worst = max(worst, abs(temporal_flicker_score(clip) - _flicker_oracle(arr)))
        mask = np.kron(rng.uniform(size=(4, 4)) < 0.5,
                       np.ones((4, 4), dtype=bool))
        if mask.any() and not mask.all():
            worst = max(worst, abs(consistency_score(clip, "subject", mask=mask)
                                   - _consistency_oracle(arr, mask)))
            worst = max(worst, abs(consistency_score(clip, "background", mask=mask)
                                   - _consistency_oracle(arr, ~mask)))
        maps, _ = estimate_flow(clip)
        oracle_maps = np.stack([_flow_mags_oracle(arr[i], arr[i + 1])
                                for i in range(f - 1)])
        worst = max(worst, float(np.max(np.abs(maps - oracle_maps))))
        worst = max(worst, abs(oft(clip) - _oft_oracle(arr)))
        ofts.append(oft(clip))

    # EC: pair up the 50 clips' OFT values against a shuffled copy
    treated = list(reversed(ofts))
    flags = [_excluded_oracle(b, t) for b, t in zip(ofts, treated)]
    clip_pairs = rng.uniform(0, 1, size=(8, 4, 16, 16, 1)).astype(np.float32)
    base_clips = [Clip(v) for v in clip_pairs[:4]]
    treated_clips = [Clip(np.repeat(v[:1], 4, axis=0)) for v in clip_pairs[4:]]
    report = evaluate_set(treated_clips, baselines=base_clips)
    got_flags, got_ec = [row["excluded"] for row in report.rows], report.excluded
    want_flags = [_excluded_oracle(_oft_oracle(b.data), _oft_oracle(t.data))
                  for b, t in zip(base_clips, treated_clips)]
    ec_ok = list(got_flags) == want_flags and got_ec == sum(want_flags) and sum(flags) >= 0

    ok = worst <= 1e-12 and ec_ok
    announce(capsys, 10, "metrics oracle equivalence on 50 random clips", ok,
             f"max |metric - oracle| = {worst:.2e} (tolerance 1e-12); "
             f"EC rule agreement: {ec_ok}")
