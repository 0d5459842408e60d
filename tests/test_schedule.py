"""Noise-schedule tests. The cosine oracle below recomputes alpha_bar straight
from the squared-cosine definition, independently of the implementation."""

import numpy as np
import pytest

from ufolab.errors import ContractError
from ufolab.schedule import diffuse, make_schedule


def cosine_alpha_bar_oracle(steps: int) -> np.ndarray:
    s = 0.008
    f = lambda u: np.cos(((u / steps + s) / (1 + s)) * np.pi / 2) ** 2
    raw = np.array([f(t) / f(0) for t in range(steps + 1)])
    betas = np.clip(1 - raw[1:] / raw[:-1], 1e-12, 0.999)
    return np.cumprod(1 - betas)


def test_unknown_kind_and_tiny_steps_rejected():
    with pytest.raises(ContractError):
        make_schedule("linear", 10)
    with pytest.raises(ContractError):
        make_schedule("cosine", 1)


def test_cosine_matches_independent_oracle():
    sched = make_schedule("cosine", 100)
    assert np.allclose(sched.alpha_bar, cosine_alpha_bar_oracle(100), atol=1e-12)


def test_scaled_linear_endpoints():
    sched = make_schedule("scaled_linear", 100)
    # endpoints scale with 1000/steps: 1e-4*10 and 0.02*10
    assert abs(sched.betas[0] - 1e-3) < 1e-15
    assert abs(sched.betas[-1] - 0.2) < 1e-15
    sched1000 = make_schedule("scaled_linear", 1000)
    assert abs(sched1000.betas[0] - 1e-4) < 1e-18
    assert abs(sched1000.betas[-1] - 0.02) < 1e-18


@pytest.mark.parametrize("kind", ["cosine", "scaled_linear"])
def test_reference_length_endpoint_bounds(kind):
    sched = make_schedule(kind, 100)
    assert sched.alpha_bar[0] > 0.99   # first step keeps the signal
    assert sched.alpha_bar[-1] < 0.05  # last step is almost pure noise


@pytest.mark.parametrize("kind", ["cosine", "scaled_linear"])
@pytest.mark.parametrize("steps", [2, 3, 10, 100, 537, 1000])
def test_schedule_invariants_across_lengths(kind, steps):
    sched = make_schedule(kind, steps)
    assert sched.betas.shape == (steps,)
    assert np.all(sched.betas > 0) and np.all(sched.betas <= 0.999)
    assert np.allclose(sched.alphas, 1 - sched.betas)
    assert np.all(sched.alpha_bar > 0) and np.all(sched.alpha_bar < 1)
    assert np.all(np.diff(sched.alpha_bar) < 0)  # strictly decreasing
    assert sched.alpha_bar_prev[0] == 1.0
    assert np.array_equal(sched.alpha_bar_prev[1:], sched.alpha_bar[:-1])
    direct_var = sched.betas * (1 - sched.alpha_bar_prev) / (1 - sched.alpha_bar)
    assert np.allclose(sched.posterior_var, direct_var, atol=1e-15)
    assert np.isclose(sched.posterior_logvar[0], np.log(sched.posterior_var[1]))
    assert np.all(np.isfinite(sched.posterior_logvar))


@pytest.mark.parametrize("kind", ["cosine", "scaled_linear"])
def test_posterior_mean_interpolates_constant_signal(kind):
    # for z0 = c and z_t = sqrt(abar_t) c the posterior mean must be sqrt(abar_prev) c
    sched = make_schedule(kind, 50)
    c = 0.7
    mean = sched.mean_coef_x0 * c + sched.mean_coef_zt * np.sqrt(sched.alpha_bar) * c
    assert np.allclose(mean, np.sqrt(sched.alpha_bar_prev) * c, atol=1e-12)


def test_diffuse_matches_direct_formula_and_keeps_dtype():
    sched = make_schedule("cosine", 100)
    rng = np.random.default_rng(0)
    z0 = rng.uniform(0, 1, size=(3, 2, 4, 4, 1)).astype(np.float32)
    eps = rng.normal(size=z0.shape).astype(np.float32)
    t = np.array([1, 50, 100])
    zt = diffuse(z0, t, eps, sched)
    abar = sched.alpha_bar[t - 1].astype(np.float32).reshape(-1, 1, 1, 1, 1)
    ref = np.sqrt(abar) * z0 + np.sqrt(1 - abar) * eps
    assert zt.dtype == np.float32
    assert np.allclose(zt, ref, atol=1e-7)
    # t = 1 keeps nearly all of the signal
    z1 = diffuse(z0, np.ones(3, dtype=int), np.zeros_like(eps), sched)
    assert np.max(np.abs(z1 - np.sqrt(sched.alpha_bar[0]) * z0)) < 1e-6


def test_diffuse_contract_errors():
    sched = make_schedule("cosine", 10)
    z = np.zeros((2, 4), dtype=np.float32)
    with pytest.raises(ContractError):
        diffuse(z, np.array([0, 1]), z, sched)  # below range
    with pytest.raises(ContractError):
        diffuse(z, np.array([1, 11]), z, sched)  # above range
    with pytest.raises(ContractError):
        diffuse(z, np.array([1.0, 2.0]), z, sched)  # non-integer
    with pytest.raises(ContractError, match=r"^t must be integers in \[1, 10\] of shape \(2,\)"):
        diffuse(z, np.array([True, True]), z, sched)  # a bool array is no timestep
    ones = np.ones_like(z)
    assert np.array_equal(diffuse(ones, np.array([1, 9], dtype=np.int32), ones, sched),
                          diffuse(ones, np.array([1, 9]), ones, sched))
    with pytest.raises(ContractError):
        diffuse(z, np.array([1]), z, sched)  # wrong batch length
    with pytest.raises(ContractError):
        diffuse(z, np.array([1, 2]), np.zeros((2, 5), dtype=np.float32), sched)
