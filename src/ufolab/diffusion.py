"""Training losses and the ancestral sampler.

The loss is the standard hybrid for a learnable covariance: a plain MSE on
the noise estimate plus a small variational term (KL against the forward
posterior per step, Gaussian NLL at t = 1, both in nats).  Inside the
variational term the noise estimate is detached, so its gradient reaches
only the variance head; the posterior means are NumPy, from per-clip
coefficients, and only the log-variance is taped.  The sampler walks a
re-spaced sub-chain of the training schedule; every generated video is a
pure function of (weights, adapter stack, condition id, seed, step count)
and does not depend on what else shares its batch.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError, check_ids, is_number
from .model import DiffusionModel, forward
from .schedule import Schedule, derive_schedule, diffuse
from .tensor import Tensor

LAMBDA_VLB = 0.001
DEFAULT_SAMPLE_STEPS = 30
_LOG_2PI = math.log(2.0 * math.pi)


def training_losses(model: DiffusionModel, z0: np.ndarray, t: np.ndarray,
                    cond: np.ndarray, eps: np.ndarray, stack=None,
                    lambda_vlb: float = LAMBDA_VLB) -> dict:
    """Hybrid loss for one batch; caller supplies the noise draw `eps`.

    Returns {"loss", "l_simple", "l_vlb"} as scalar tensors sharing one graph.
    """
    sched = model.sched
    dt = model.config.np_dtype
    z0 = np.asarray(z0, dtype=dt)
    eps = np.asarray(eps, dtype=dt)
    t = np.asarray(t)
    z_t = diffuse(z0, t, eps, sched)

    eps_hat, v = forward(model, z_t, t, cond, stack)
    l_simple = T.tmean(T.square(T.sub(eps_hat, Tensor(eps))))

    ti = t - 1
    bshape = (z0.shape[0],) + (1,) * (z0.ndim - 1)

    def per_clip(values):
        return np.asarray(values, dtype=dt).reshape(bshape)

    def full_batch(values):  # elementwise tensor ops take equal shapes only
        return Tensor(np.broadcast_to(per_clip(values), z0.shape).copy())

    # posterior means from the *detached* noise estimate (p) and from z0 (q)
    abar = sched.alpha_bar[ti]
    x0_hat = z_t * per_clip(1.0 / np.sqrt(abar)) \
        - eps_hat.data * per_clip(np.sqrt(1.0 - abar) / np.sqrt(abar))
    mean_p = x0_hat * per_clip(sched.mean_coef_x0[ti]) + z_t * per_clip(sched.mean_coef_zt[ti])
    mean_q = (sched.mean_coef_x0[ti].reshape(bshape) * z0
              + sched.mean_coef_zt[ti].reshape(bshape) * z_t).astype(dt)  # summed in float64
    sq_kl = np.square(mean_q - mean_p)
    sq_nll = np.square(z0 - mean_p)

    # interpolated log-variance, driven by the sigma head only
    frac = T.mul(T.add(v, 1.0), 0.5)
    log_beta = full_batch(np.log(sched.betas[ti]))
    logvar_q = full_batch(sched.posterior_logvar[ti])
    logvar_p = T.add(T.mul(frac, log_beta), T.mul(T.sub(1.0, frac), logvar_q))

    kl = T.mul(T.add(T.add(T.sub(logvar_p, logvar_q), -1.0),
                     T.add(T.exp(T.sub(logvar_q, logvar_p)),
                           T.mul(sq_kl, T.exp(T.neg(logvar_p))))), 0.5)
    nll = T.mul(T.add(T.add(logvar_p, _LOG_2PI),
                      T.mul(sq_nll, T.exp(T.neg(logvar_p)))), 0.5)

    is_first = full_batch(t == 1)
    per_elem = T.add(T.mul(is_first, nll), T.mul(1.0 - is_first.data, kl))
    l_vlb = T.tmean(per_elem)

    loss = T.add(l_simple, T.mul(l_vlb, float(lambda_vlb)))
    return {"loss": loss, "l_simple": l_simple, "l_vlb": l_vlb}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def respace_timesteps(total: int, steps: int) -> np.ndarray:
    """`steps` strictly increasing timesteps in [1, total], always ending at total."""
    if not is_number(steps, int) or steps < 1:
        raise ContractError(f"steps must be a positive integer, got {steps!r}")
    if steps >= total:
        return np.arange(1, total + 1)
    if steps == 1:
        return np.array([total])
    # consecutive points lie (total - 1) / (steps - 1) > 1 apart, so rounding
    # cannot make two of them collide
    return np.rint(np.linspace(1.0, float(total), steps)).astype(int)


def respace_schedule(sched: Schedule, ts: np.ndarray) -> Schedule:
    """Schedule over the sub-chain `ts`: beta_k = 1 - abar(t_k)/abar(t_{k-1})."""
    abar = sched.alpha_bar[np.asarray(ts) - 1]
    abar_prev = np.concatenate(([1.0], abar[:-1]))
    return derive_schedule(sched.kind, 1.0 - abar / abar_prev)


def sample(model: DiffusionModel, cond, seeds, stack=None,
           steps: int = DEFAULT_SAMPLE_STEPS) -> np.ndarray:
    """Generate one video per (condition, seed) pair; returns (B, F, H, W, C) in [0, 1].

    At least one pair is needed, seeds must be integers >= 0 and `steps` may
    not exceed the model's timesteps (ContractError).  A state that turns NaN
    or infinite raises NumericError naming the step.
    """
    cfg = model.config
    cond = np.atleast_1d(np.asarray(cond))
    seeds = np.atleast_1d(np.asarray(seeds))
    if cond.shape != seeds.shape or cond.ndim != 1:
        raise ContractError(f"cond {cond.shape} and seeds {seeds.shape} must be equal-length 1-D")
    if cond.size == 0:
        raise ContractError("sample needs at least one (condition, seed) pair, got none")
    check_ids(seeds, "seeds")
    batch = cond.shape[0]
    dt = cfg.np_dtype
    shape = (cfg.frames, cfg.height, cfg.width, cfg.channels)

    ts = respace_timesteps(cfg.timesteps, steps)
    if steps > cfg.timesteps:
        raise ContractError(f"steps {steps} exceeds the model's {cfg.timesteps} timesteps")
    sub = respace_schedule(model.sched, ts)
    k_steps = len(ts)

    rngs = [np.random.default_rng(int(s)) for s in seeds]
    z = np.stack([r.standard_normal(shape) for r in rngs]).astype(dt)

    for k in range(k_steps - 1, -1, -1):
        t_model = np.full(batch, ts[k], dtype=int)
        eps_hat, v = forward(model, z, t_model, cond, stack)
        eps_np, v_np = eps_hat.data, v.data

        abar = float(sub.alpha_bar[k])
        x0 = (z - math.sqrt(1.0 - abar) * eps_np) / math.sqrt(abar)
        np.clip(x0, 0.0, 1.0, out=x0)
        mean = float(sub.mean_coef_x0[k]) * x0 + float(sub.mean_coef_zt[k]) * z
        if k == 0:
            z = mean
        else:
            frac = (v_np + 1.0) * 0.5
            logvar = frac * math.log(float(sub.betas[k])) \
                + (1.0 - frac) * float(sub.posterior_logvar[k])
            noise = np.stack([r.standard_normal(shape) for r in rngs]).astype(dt)
            z = mean + np.exp(0.5 * logvar) * noise
        if not np.isfinite(z).all():
            raise NumericError(f"sampler state became non-finite at step "
                               f"{k_steps - k} of {k_steps} (t={ts[k]})")

    return np.clip(z, 0.0, 1.0)
