"""Forward-process noise schedules and their posterior coefficients.

Arrays are indexed by t-1 for t in [1, T]; alpha_bar_prev[0] is exactly 1.
Betas are clipped to at most 0.999 and everything downstream is re-derived
from the clipped betas, so alpha_bar stays strictly positive even when the
raw cosine curve reaches zero at t = T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_ids, is_number

SCHEDULE_KINDS = ("cosine", "scaled_linear")
_MAX_BETA = 0.999
_COSINE_S = 0.008


@dataclass(frozen=True)
class Schedule:
    kind: str
    steps: int
    betas: np.ndarray            # (T,)
    alphas: np.ndarray           # (T,) = 1 - betas
    alpha_bar: np.ndarray        # (T,) cumulative products
    alpha_bar_prev: np.ndarray   # (T,) shifted, leading 1.0
    posterior_var: np.ndarray    # (T,) beta_t * (1 - abar_{t-1}) / (1 - abar_t)
    posterior_logvar: np.ndarray  # (T,) log of posterior_var with var[0] backfilled
    mean_coef_x0: np.ndarray     # (T,) beta_t * sqrt(abar_{t-1}) / (1 - abar_t)
    mean_coef_zt: np.ndarray     # (T,) (1 - abar_{t-1}) * sqrt(alpha_t) / (1 - abar_t)


def make_schedule(kind: str, steps: int) -> Schedule:
    """Build a schedule of `steps` diffusion steps of the given kind."""
    if kind not in SCHEDULE_KINDS:
        raise ContractError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULE_KINDS}")
    if not is_number(steps, int) or steps < 2:
        raise ContractError(f"schedule needs at least 2 steps, got {steps!r}")

    if kind == "cosine":
        # squared-cosine cumulative curve; betas from successive ratios
        t = np.arange(steps + 1, dtype=np.float64)
        f = np.cos(((t / steps + _COSINE_S) / (1.0 + _COSINE_S)) * np.pi / 2.0) ** 2
        abar_raw = f / f[0]
        betas = 1.0 - abar_raw[1:] / abar_raw[:-1]
    else:
        scale = 1000.0 / steps
        betas = np.linspace(1e-4 * scale, 0.02 * scale, steps, dtype=np.float64)
    return derive_schedule(kind, np.clip(betas, 1e-12, _MAX_BETA))


def derive_schedule(kind: str, betas: np.ndarray) -> Schedule:
    """Derive every downstream array from a beta sequence (also used when
    re-spacing a schedule onto a sampling sub-chain)."""
    betas = np.asarray(betas, dtype=np.float64)
    steps = betas.shape[0]
    alphas = 1.0 - betas
    alpha_bar = np.cumprod(alphas)
    alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))

    one_minus = 1.0 - alpha_bar
    posterior_var = betas * (1.0 - alpha_bar_prev) / one_minus
    # t=1 posterior variance is exactly 0 (abar_prev = 1); backfill with the
    # t=2 value before taking logs, as is standard for sampling code
    var_safe = np.array(posterior_var, copy=True)
    var_safe[0] = posterior_var[1] if steps > 1 else betas[0]
    posterior_logvar = np.log(var_safe)
    mean_coef_x0 = betas * np.sqrt(alpha_bar_prev) / one_minus
    mean_coef_zt = (1.0 - alpha_bar_prev) * np.sqrt(alphas) / one_minus

    for arr in (betas, alphas, alpha_bar, alpha_bar_prev, posterior_var,
                posterior_logvar, mean_coef_x0, mean_coef_zt):
        arr.setflags(write=False)
    return Schedule(kind, steps, betas, alphas, alpha_bar, alpha_bar_prev,
                    posterior_var, posterior_logvar, mean_coef_x0, mean_coef_zt)


def diffuse(z0: np.ndarray, t: np.ndarray, eps: np.ndarray, sched: Schedule) -> np.ndarray:
    """Forward-noise clean latents: z_t = sqrt(abar_t) z0 + sqrt(1-abar_t) eps.

    `t` holds 1-based step indices, one per leading-batch element.
    """
    t = check_ids(t, "t", 1, sched.steps + 1, (z0.shape[0],))
    if z0.shape != eps.shape:
        raise ContractError(f"z0 shape {z0.shape} and eps shape {eps.shape} differ")
    abar = sched.alpha_bar[t - 1].astype(z0.dtype)
    bshape = (z0.shape[0],) + (1,) * (z0.ndim - 1)
    a = np.sqrt(abar).reshape(bshape)
    b = np.sqrt(1.0 - abar).reshape(bshape)
    return a * z0 + b * eps
