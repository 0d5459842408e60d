"""Training losses and the ancestral sampler.

The loss is the standard hybrid for a learnable covariance: a plain MSE on
the noise estimate plus a small variational term (KL against the forward
posterior per step, Gaussian NLL at t = 1, both in nats).  Inside the
variational term the noise estimate is detached, so its gradient reaches
only the variance head.  The sampler walks a re-spaced sub-chain of the
training schedule; every generated video is a pure function of
(weights, adapter stack, condition id, seed, step count) and does not depend
on what else shares its batch.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError, is_number
from .model import DiffusionModel, forward
from .schedule import Schedule, derive_schedule, diffuse
from .tensor import Tensor

LAMBDA_VLB = 0.001
DEFAULT_SAMPLE_STEPS = 30
_LOG_2PI = math.log(2.0 * math.pi)


def _bcast(values: np.ndarray, shape: tuple, dtype) -> Tensor:
    """Per-batch scalars expanded to the full batch shape as a constant."""
    arr = np.asarray(values, dtype=dtype).reshape((-1,) + (1,) * (len(shape) - 1))
    return Tensor(np.ascontiguousarray(np.broadcast_to(arr, shape)))


def training_losses(model: DiffusionModel, z0: np.ndarray, t: np.ndarray,
                    cond: np.ndarray, eps: np.ndarray, stack=None,
                    lambda_vlb: float = LAMBDA_VLB) -> dict:
    """Hybrid loss for one batch; caller supplies the noise draw `eps`.

    Returns {"loss", "l_simple", "l_vlb"} as scalar tensors sharing one graph.
    """
    cfg = model.config
    sched = model.sched
    dt = cfg.np_dtype
    z0 = np.asarray(z0, dtype=dt)
    eps = np.asarray(eps, dtype=dt)
    t = np.asarray(t)
    z_t = diffuse(z0, t, eps, sched)

    eps_hat, v = forward(model, z_t, t, cond, stack)
    l_simple = T.tmean(T.square(T.sub(eps_hat, Tensor(eps))))

    ti = t - 1
    full = z0.shape
    bshape = (full[0],) + (1,) * (z0.ndim - 1)
    # interpolated log-variance, driven by the sigma head only
    frac = T.mul(T.add(v, 1.0), 0.5)
    log_beta = _bcast(np.log(sched.betas[ti]), full, dt)
    log_post = _bcast(sched.posterior_logvar[ti], full, dt)
    logvar_p = T.add(T.mul(frac, log_beta), T.mul(T.sub(1.0, frac), log_post))

    # posterior mean from the *detached* noise estimate
    abar = sched.alpha_bar[ti]
    rec_a = _bcast(1.0 / np.sqrt(abar), full, dt)
    rec_b = _bcast(np.sqrt(1.0 - abar) / np.sqrt(abar), full, dt)
    zt_t = Tensor(z_t)
    x0_hat = T.sub(T.mul(zt_t, rec_a), T.mul(eps_hat.detach(), rec_b))
    c_x0 = _bcast(sched.mean_coef_x0[ti], full, dt)
    c_zt = _bcast(sched.mean_coef_zt[ti], full, dt)
    mean_p = T.add(T.mul(x0_hat, c_x0), T.mul(zt_t, c_zt))

    # true forward posterior q(z_{t-1} | z_t, z0)
    mean_q = sched.mean_coef_x0[ti].reshape(bshape) * z0 \
        + sched.mean_coef_zt[ti].reshape(bshape) * z_t
    logvar_q = _bcast(sched.posterior_logvar[ti], full, dt)

    diff_kl = T.sub(Tensor(mean_q.astype(dt)), mean_p)
    kl = T.mul(T.add(T.add(T.sub(logvar_p, logvar_q), -1.0),
                     T.add(T.exp(T.sub(logvar_q, logvar_p)),
                           T.mul(T.square(diff_kl), T.exp(T.neg(logvar_p))))), 0.5)

    diff_nll = T.sub(Tensor(z0), mean_p)
    nll = T.mul(T.add(T.add(logvar_p, _LOG_2PI),
                      T.mul(T.square(diff_nll), T.exp(T.neg(logvar_p)))), 0.5)

    is_first = _bcast((t == 1).astype(np.float64), full, dt)
    per_elem = T.add(T.mul(is_first, nll), T.mul(T.sub(1.0, is_first), kl))
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

    Seeds must be integers >= 0 and `steps` may not exceed the model's
    timesteps (ContractError).  A state that turns NaN or infinite raises
    NumericError naming the step.
    """
    cfg = model.config
    cond = np.atleast_1d(np.asarray(cond))
    seeds = np.atleast_1d(np.asarray(seeds))
    if cond.shape != seeds.shape or cond.ndim != 1:
        raise ContractError(f"cond {cond.shape} and seeds {seeds.shape} must be equal-length 1-D")
    if not np.issubdtype(seeds.dtype, np.integer) or (seeds < 0).any():
        raise ContractError(f"seeds must be integers >= 0, got {seeds.tolist()}")
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
