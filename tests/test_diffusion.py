"""Loss and sampler tests.

The variational-term oracle below is written in plain numpy against the
schedule arrays; its Gaussian KL/NLL formulas are themselves validated by
numerical integration before being trusted.  `training_losses_oracle` is the
same loss as a chain of tensor ops, which the loss must match bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from oracles import training_losses_oracle

from ufolab import tensor as T
from ufolab.adapter import compose, init_adapter
from ufolab.diffusion import (
    respace_schedule,
    respace_timesteps,
    sample,
    training_losses,
)
from ufolab.errors import ContractError, NumericError
from ufolab.model import ModelConfig, build_model, forward
from ufolab.schedule import diffuse, make_schedule

TINY = ModelConfig(frames=2, height=4, width=4, channels=1, patch=2, dim=8,
                   heads=2, mlp_dim=16, blocks=1, cond_vocab=4, timesteps=10,
                   dtype="float64")


def gauss_kl(mu_q, logvar_q, mu_p, logvar_p):
    return 0.5 * (-1.0 + logvar_p - logvar_q + np.exp(logvar_q - logvar_p)
                  + (mu_q - mu_p) ** 2 * np.exp(-logvar_p))


def gauss_nll(x, mu, logvar):
    return 0.5 * (np.log(2 * np.pi) + logvar + (x - mu) ** 2 * np.exp(-logvar))


def test_oracle_formulas_against_numerical_integration():
    for mu_q, lv_q, mu_p, lv_p in [(0.0, 0.0, 0.5, -1.0), (1.2, -2.0, -0.3, 0.4)]:
        sd_q = np.exp(lv_q / 2)
        grid = np.linspace(mu_q - 10 * sd_q, mu_q + 10 * sd_q, 400001)
        q = np.exp(-((grid - mu_q) ** 2) / (2 * sd_q ** 2)) / np.sqrt(2 * np.pi * sd_q ** 2)
        log_p = -((grid - mu_p) ** 2) * np.exp(-lv_p) / 2 - 0.5 * (np.log(2 * np.pi) + lv_p)
        log_q = np.log(q)
        integral = np.trapezoid(q * (log_q - log_p), grid)
        assert abs(integral - gauss_kl(mu_q, lv_q, mu_p, lv_p)) < 1e-8
    # NLL is the negative log of the density by definition
    dens = np.exp(-gauss_nll(0.7, 0.2, -1.3))
    direct = np.exp(-((0.7 - 0.2) ** 2) * np.exp(1.3) / 2) / np.sqrt(2 * np.pi * np.exp(-1.3))
    assert abs(dens - direct) < 1e-12


def vlb_oracle(sched, z0, t, eps_hat, v, z_t):
    ti = t - 1
    bs = (z0.shape[0],) + (1,) * (z0.ndim - 1)
    frac = (v + 1.0) / 2.0
    logvar_p = (frac * np.log(sched.betas[ti]).reshape(bs)
                + (1 - frac) * sched.posterior_logvar[ti].reshape(bs))
    abar = sched.alpha_bar[ti].reshape(bs)
    x0 = (z_t - np.sqrt(1 - abar) * eps_hat) / np.sqrt(abar)
    c1, c2 = sched.mean_coef_x0[ti].reshape(bs), sched.mean_coef_zt[ti].reshape(bs)
    mean_p = c1 * x0 + c2 * z_t
    mean_q = c1 * z0 + c2 * z_t
    logvar_q = sched.posterior_logvar[ti].reshape(bs)
    kl = gauss_kl(mean_q, logvar_q, mean_p, logvar_p)
    nll = gauss_nll(z0, mean_p, logvar_p)
    mask = (t == 1).astype(float).reshape(bs)
    return np.mean(mask * nll + (1 - mask) * kl)


def batch(seed, model, batch_size=3):
    rng = np.random.default_rng(seed)
    cfg = model.config
    shape = (batch_size, cfg.frames, cfg.height, cfg.width, cfg.channels)
    z0 = rng.uniform(0, 1, size=shape)
    eps = rng.standard_normal(shape)
    t = rng.integers(1, cfg.timesteps + 1, size=batch_size)
    cond = rng.integers(0, cfg.cond_vocab, size=batch_size)
    return z0, eps, t, cond


def test_fresh_model_losses_have_closed_form():
    model = build_model(TINY, seed=0)
    z0, eps, t, cond = batch(1, model)
    t[0] = 1  # exercise the NLL branch too
    out = training_losses(model, z0, t, cond, eps)
    # zero heads: eps_hat = 0 so L_simple is exactly mean(eps^2)
    assert abs(out["l_simple"].item() - np.mean(eps ** 2)) < 1e-12
    z_t = diffuse(z0, t, eps, model.sched)
    want = vlb_oracle(model.sched, z0, t, np.zeros_like(z0), np.zeros_like(z0), z_t)
    assert abs(out["l_vlb"].item() - want) < 1e-12
    assert abs(out["loss"].item() -
               (out["l_simple"].item() + 0.001 * out["l_vlb"].item())) < 1e-15


def test_losses_match_oracle_with_trained_heads():
    model = build_model(TINY, seed=2)
    rng = np.random.default_rng(3)
    for p in ("head_eps.w", "head_eps.b", "head_sigma.w", "head_sigma.b"):
        model.params[p].data[...] = rng.normal(size=model.params[p].shape) * 0.3
    z0, eps, t, cond = batch(4, model)
    t[1] = 1
    out = training_losses(model, z0, t, cond, eps)
    z_t = diffuse(z0, t, eps, model.sched)
    eps_hat, v = forward(model, z_t, t, cond)
    assert abs(out["l_simple"].item() - np.mean((eps_hat.data - eps) ** 2)) < 1e-12
    want = vlb_oracle(model.sched, z0, t, eps_hat.data, v.data, z_t)
    assert abs(out["l_vlb"].item() - want) < 1e-12


def test_vlb_gradient_reaches_only_the_variance_head():
    model = build_model(TINY, seed=5)
    rng = np.random.default_rng(6)
    for p in ("head_eps.w", "head_sigma.w"):
        model.params[p].data[...] = rng.normal(size=model.params[p].shape) * 0.3
    z0, eps, t, cond = batch(7, model)

    with T.recording():
        T.backward(training_losses(model, z0, t, cond, eps)["l_vlb"])
    eps_w, sig_w = model.params["head_eps.w"], model.params["head_sigma.w"]
    assert np.all(eps_w.grad == 0.0), "detached noise estimate leaked gradient"
    assert np.any(sig_w.grad != 0.0)

    # the total loss gives the eps head exactly the L_simple gradient
    for p in model.params.values():
        p.grad = None
    with T.recording():
        T.backward(training_losses(model, z0, t, cond, eps)["l_simple"])
    simple_grad = eps_w.grad.copy()
    for p in model.params.values():
        p.grad = None
    with T.recording():
        T.backward(training_losses(model, z0, t, cond, eps)["loss"])
    assert np.array_equal(eps_w.grad, simple_grad)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("adapted", [False, True])
def test_loss_and_gradients_match_the_tensor_chain_bit_for_bit(dtype, adapted):
    cfg = dataclasses.replace(TINY, height=8, width=8, dim=16, heads=4, mlp_dim=32,
                              blocks=2, timesteps=20, dtype=dtype)
    model = build_model(cfg, seed=9)
    rng = np.random.default_rng(10)
    for p in ("head_eps.w", "head_sigma.w", "head_sigma.b"):
        model.params[p].data[...] = rng.normal(size=model.params[p].shape) * 0.3
    stack, leaves = None, model.params
    if adapted:  # a rank-4 stack at alpha = 1, trained with the base frozen
        adapter = init_adapter(model, rank=4, seed=11)
        for layer in adapter.layers.values():
            layer.v_cor.data[...] = rng.normal(size=layer.v_cor.shape) * 0.2
        for p in model.params.values():
            p.requires_grad = False
        adapter.set_trainable(True)
        stack, leaves = compose(model, [(adapter, 1.0)]), adapter.parameters()
    z0, eps, t, cond = batch(12, model, batch_size=4)
    for t in (t, np.array([1, 7, 1, 1])):  # the second batch takes the NLL branch thrice
        seen = []
        for losses in (training_losses, training_losses_oracle):
            for p in leaves.values():
                p.grad = None
            with T.recording() as tape:
                out = losses(model, z0, t, cond, eps, stack=stack)
                nodes = len(tape)  # backward consumes the tape
                T.backward(out["loss"])
            seen.append(({k: (x.dtype, x.data.tobytes()) for k, x in out.items()},
                         {k: (p.grad.dtype, p.grad.tobytes()) for k, p in leaves.items()},
                         nodes))
        assert seen[0] == seen[1], t
        assert any(np.any(p.grad != 0.0) for p in leaves.values())


def test_loss_shape_contract():
    model = build_model(TINY, seed=0)
    z0, eps, t, cond = batch(8, model)
    with pytest.raises(ContractError):
        training_losses(model, z0, t, cond, eps[:2])


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

def test_respace_timesteps_properties():
    cases = [(total, steps) for total in range(1, 201) for steps in range(1, total + 2)]
    for total, steps in cases + [(100, 150), (1000, 30)]:
        ts = respace_timesteps(total, steps)
        assert len(ts) == min(steps, total)
        assert np.all(np.diff(ts) > 0), (total, steps)
        assert ts[-1] == total
        assert ts[0] >= 1
    assert respace_timesteps(100, 2).tolist() == [1, 100]
    assert respace_timesteps(100, 1).tolist() == [100]
    assert respace_timesteps(5, 9).tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(ContractError):
        respace_timesteps(100, 0)


def test_respace_full_chain_recovers_original_betas():
    sched = make_schedule("cosine", 50)
    sub = respace_schedule(sched, np.arange(1, 51))
    assert np.allclose(sub.betas, sched.betas, atol=1e-12)
    assert np.allclose(sub.alpha_bar, sched.alpha_bar, atol=1e-12)


def test_respaced_alpha_bar_subsets_original():
    sched = make_schedule("cosine", 100)
    ts = respace_timesteps(100, 30)
    sub = respace_schedule(sched, ts)
    assert np.allclose(sub.alpha_bar, sched.alpha_bar[ts - 1], atol=1e-12)


def test_sampler_shape_range_and_determinism():
    model = build_model(TINY, seed=1)
    out1 = sample(model, cond=[0, 2], seeds=[5, 6], steps=4)
    out2 = sample(model, cond=[0, 2], seeds=[5, 6], steps=4)
    assert out1.shape == (2, 2, 4, 4, 1)
    assert out1.min() >= 0.0 and out1.max() <= 1.0
    assert np.array_equal(out1, out2)
    assert not np.array_equal(out1[0], out1[1])


def test_sampler_videos_do_not_depend_on_batch_composition():
    model = build_model(TINY, seed=1)
    ab = sample(model, cond=[1, 3], seeds=[11, 22], steps=5)
    ba = sample(model, cond=[3, 1], seeds=[22, 11], steps=5)
    solo = sample(model, cond=[1], seeds=[11], steps=5)
    assert np.array_equal(ab[0], ba[1])
    assert np.array_equal(ab[1], ba[0])
    assert np.array_equal(ab[0], solo[0])

    # at the default size a batch of 16 runs the heads' GEMMs over 8192 rows,
    # where a flattened batch makes BLAS switch kernels; seeded heads (a fresh
    # model's are zero) and a live rank-4 stack make any switch show
    model = build_model(ModelConfig(), seed=2)
    rng = np.random.default_rng(5)
    for p in ("head_eps.w", "head_sigma.w"):
        model.params[p].data[...] = rng.normal(size=model.params[p].shape) * 0.2
    adapter = init_adapter(model, rank=4, seed=6)
    for layer in adapter.layers.values():
        layer.v_cor.data[...] = rng.normal(size=layer.v_cor.shape) * 0.2
    conds, seeds = np.arange(16) % 36, np.arange(16) + 100
    for stack in (None, compose(model, [(adapter, 1.0)])):
        full = sample(model, conds, seeds, stack=stack, steps=2)
        for b in (1, 3):
            assert np.array_equal(sample(model, conds[:b], seeds[:b], stack=stack, steps=2),
                                  full[:b]), (b, stack is not None)


def test_sampler_zero_intensity_stack_matches_base_bits():
    model = build_model(TINY, seed=4)
    rng = np.random.default_rng(8)
    for p in ("head_eps.w", "head_sigma.w"):
        model.params[p].data[...] = rng.normal(size=model.params[p].shape) * 0.2
    adapter = init_adapter(model, rank=2, seed=7)
    for layer in adapter.layers.values():
        layer.v_cor.data[...] = rng.normal(size=layer.v_cor.shape) * 0.2
    base = sample(model, cond=[1, 2], seeds=[3, 4], steps=6)
    zero = sample(model, cond=[1, 2], seeds=[3, 4], steps=6,
                  stack=compose(model, [(adapter, 0.0)]))
    act = sample(model, cond=[1, 2], seeds=[3, 4], steps=6,
                 stack=compose(model, [(adapter, 0.7)]))
    assert np.array_equal(base, zero)
    assert not np.array_equal(base, act)


def test_sampler_seed_contract():
    model = build_model(TINY, seed=0)
    with pytest.raises(ContractError):
        sample(model, cond=[1, 2], seeds=[3], steps=2)
    for bad in ([-1], [2.7], [True], np.array([True])):
        with pytest.raises(ContractError, match="seeds"):
            sample(model, cond=[1], seeds=bad, steps=2)
    assert np.array_equal(sample(model, cond=[1], seeds=np.array([3], dtype=np.int32), steps=2),
                          sample(model, cond=[1], seeds=[3], steps=2))
    with pytest.raises(ContractError, match=r"at least one \(condition, seed\) pair"):
        sample(model, cond=[], seeds=[], steps=2)


def test_sampler_rejects_more_steps_than_timesteps():
    model = build_model(TINY, seed=0)  # T = 10
    assert sample(model, cond=[1], seeds=[3], steps=10).shape == (1, 2, 4, 4, 1)
    with pytest.raises(ContractError, match="exceeds"):
        sample(model, cond=[1], seeds=[3], steps=11)
    for bad in (True, 2.0):  # a bool is no step count, nor is a float
        with pytest.raises(ContractError, match="steps"):
            sample(model, cond=[1], seeds=[3], steps=bad)


def test_sampler_raises_numeric_error_on_non_finite_state():
    model = build_model(TINY, seed=0)
    model.params["head_sigma.b"].data[...] = 1e5  # the noise scale overflows float64
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="step 1 of 4"):
        sample(model, cond=[1], seeds=[3], steps=4)
