"""Test oracles: reference computations the suite checks ufolab against.

They are not library API.  `finite_diff_check` compares reverse-mode
gradients with central differences; `delta_identity_check` checks the
difference decomposition of the adapted layer on the path the model runs,
`AdapterStack.apply`; `one_layer_adapter` wraps float64 arrays as a
one-layer adapter for that path.  `flow_oracle` is the per-block,
per-candidate block-matching loop that the vectorised flow must reproduce
bit for bit.  `gelu_oracle`, `softmax_oracle` and `layernorm_oracle` are
the plain-expression formulas, forward and vjp, that the in-place kernels
of `ufolab.tensor` must reproduce bit for bit; `attention_oracle` is the
unfused chain of tensor ops that `T.attention` replaces.
`training_losses_oracle` is the hybrid loss with every posterior term pushed
through the tensor ops as a full-batch constant; `diffusion.training_losses`
must give its loss and gradients bit for bit.  `poke_payload` damages a
saved container the way the savers never would, for the loaders' tests.
"""

import hashlib
import json
import struct
from collections import OrderedDict
from pathlib import Path
from typing import Callable

import numpy as np

from ufolab import tensor as T
from ufolab.adapter import AdapterLayer, AdapterStack, UfoAdapter
from ufolab.diffusion import LAMBDA_VLB
from ufolab.errors import ContractError, DimensionError
from ufolab.model import forward
from ufolab.schedule import diffuse
from ufolab.tensor import Tensor


def finite_diff_check(f: Callable[[Tensor], Tensor], x, eps: float = 1e-6) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` must be deterministic (two forward passes are compared bit-for-bit)
    and is reduced to a scalar with fixed weights when it returns a vector.
    Returns ``max_i |analytic_i - numeric_i| / (|numeric_i| + eps)``.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    base = np.asarray(x.data, dtype=np.float64)

    def reduced(arr: np.ndarray) -> Tensor:
        leaf = Tensor(arr, requires_grad=True, dtype=np.float64)
        out = f(leaf)
        if not isinstance(out, Tensor):
            raise ContractError("finite_diff_check: f must return a Tensor")
        if out.data.size != 1:
            w = np.linspace(1.0, 2.0, out.data.size).reshape(out.shape)
            out = T.tsum(T.mul(out, Tensor(w, dtype=np.float64)))
        return leaf, out

    _, y1 = reduced(base)
    _, y2 = reduced(base)
    if not np.array_equal(y1.data, y2.data):
        raise ContractError("finite_diff_check: f is not deterministic across repeated calls")

    with T.recording() as tape:
        leaf, y = reduced(base)
        T.backward(y, tape)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        bump = np.array(flat, copy=True)
        bump[i] = flat[i] + eps
        _, hi = reduced(bump.reshape(base.shape))
        bump[i] = flat[i] - eps
        _, lo = reduced(bump.reshape(base.shape))
        num_flat[i] = (hi.item() - lo.item()) / (2.0 * eps)

    err = np.abs(analytic - numeric) / (np.abs(numeric) + eps)
    return float(err.max()) if err.size else 0.0


def one_layer_adapter(v_det, v_cor, beta) -> UfoAdapter:
    """A float64 adapter holding one layer "L": v_det (n, d), v_cor (m, d), scalar beta."""
    layer = AdapterLayer(Tensor(np.asarray(v_det, dtype=np.float64)),
                         Tensor(np.asarray(v_cor, dtype=np.float64)),
                         Tensor(np.asarray(beta, dtype=np.float64)))
    return UfoAdapter(layer.v_det.shape[1], "fp", OrderedDict([("L", layer)]))


def delta_identity_check(x_t, x_tn, w, entry, alpha) -> float:
    """Residual of the adapted-difference decomposition.

    For two inputs the output difference must split into the base part and
    the correction part:  Δy = W Δx + αβ·v_cor (v_detᵀ x_t − v_detᵀ x_tn).
    The left side runs `AdapterStack.apply` on the float64 base outputs
    x W^T; the right side is plain float64 NumPy.  Returns max |LHS − RHS|.
    """
    def as64(t):
        return np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64)

    v_det, v_cor, beta = entry
    x_t, x_tn, w = as64(x_t), as64(x_tn), as64(w)
    v_det, v_cor, beta = as64(v_det), as64(v_cor), as64(beta)
    if x_t.shape != x_tn.shape:
        raise DimensionError(f"inputs must share a shape, got {x_t.shape} vs {x_tn.shape}")
    stack = AdapterStack([(one_layer_adapter(v_det, v_cor, beta), alpha)])

    def adapted(x):
        x2 = x.reshape(-1, x.shape[-1])
        return stack.apply("L", Tensor(x2), Tensor(x2 @ w.T)).data.reshape(
            x.shape[:-1] + (w.shape[0],))

    lhs = adapted(x_t) - adapted(x_tn)
    rhs = ((x_t - x_tn) @ w.T
           + float(alpha) * beta * ((x_t @ v_det) - (x_tn @ v_det)) @ v_cor.T)
    return float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0


def flow_oracle(prev, nxt, radius: int = 3) -> tuple[np.ndarray, bool]:
    """Exhaustive block matching, one 4x4 block and one candidate at a time.

    Returns ((Hb, Wb, 2) integer (dy, dx) from `prev` to `nxt`, saturated).
    The SAD covers every channel; candidates are scanned in (dy² + dx², dy, dx)
    order and replaced only on a strictly smaller SAD, so ties keep the
    smallest displacement.  `saturated` is whether any winner has
    max(|dy|, |dx|) == radius.
    """
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    h, w, _ = prev.shape
    candidates = sorted(
        ((dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))
    flow = np.zeros((h // 4, w // 4, 2), dtype=int)
    saturated = False
    for by in range(h // 4):
        for bx in range(w // 4):
            y0, x0 = by * 4, bx * 4
            ref = prev[y0:y0 + 4, x0:x0 + 4]
            best, best_sad = None, np.inf
            for dy, dx in candidates:
                yy, xx = y0 + dy, x0 + dx
                if yy < 0 or xx < 0 or yy + 4 > h or xx + 4 > w:
                    continue
                sad = float(np.abs(nxt[yy:yy + 4, xx:xx + 4] - ref).sum())
                if sad < best_sad:
                    best, best_sad = (dy, dx), sad
            flow[by, bx] = best
            saturated = saturated or max(abs(best[0]), abs(best[1])) == radius
    return flow, saturated


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu_oracle(x, g):
    """(y, dx) of the tanh-approximated gelu at x for the output gradient g."""
    x2 = x * x
    u = _GELU_C * (x + _GELU_A * (x2 * x))
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)
    du = _GELU_C * (1.0 + (3.0 * _GELU_A) * x2)
    return y, g * (0.5 * (1.0 + t) + (0.5 * x) * ((1.0 - t * t) * du))


def softmax_oracle(x, g):
    """(y, dx) of the softmax over the last axis of x for the output gradient g."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=-1, keepdims=True)
    dot = np.sum(g * y, axis=-1, keepdims=True)
    return y, y * (g - dot)


def layernorm_oracle(x, gamma, beta, g, eps: float = 1e-5):
    """(y, dx, dgamma, dbeta) of layer normalization over the last axis of x."""
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma + beta
    lead = tuple(range(g.ndim - 1))
    dgamma = np.sum(g * xhat, axis=lead)
    dbeta = np.sum(g, axis=lead)
    gg = g * gamma
    dx = inv * (gg - np.mean(gg, axis=-1, keepdims=True)
                - xhat * np.mean(gg * xhat, axis=-1, keepdims=True))
    return y, dx, dgamma, dbeta


def attention_oracle(q, k, v, heads: int, scale: float, g, needs=(True, True, True)):
    """(y, dq, dk, dv) of multi-head attention as a chain of tensor ops.

    q, k and v are (clips, groups, length, dim) arrays; the chain splits the
    heads, multiplies by a contiguous kᵀ, scales, takes the softmax, multiplies
    by v and merges the heads.  The partials are what each op's vjp hands on
    for the output gradient g; an input whose `needs` entry is False gets None.
    """
    b, grp, length, dim = q.shape
    hd = dim // heads

    def split(x):  # (b, g, L, dim) -> (b, g, heads, L, hd)
        return T.transpose(T.reshape(x, (b, grp, length, heads, hd)), (0, 1, 3, 2, 4))

    leaves = [Tensor(x, requires_grad=need) for x, need in zip((q, k, v), needs)]
    with T.recording() as tape:
        qh, kh, vh = (split(x) for x in leaves)
        att = T.softmax(T.mul(T.matmul(qh, T.transpose(kh, (0, 1, 2, 4, 3))), scale))
        out = T.reshape(T.transpose(T.matmul(att, vh), (0, 1, 3, 2, 4)), (b, grp, length, dim))
    flowing = {id(out): g}  # each op's output has one consumer, so partials never add
    for node in reversed(tape.nodes):
        for inp, part in zip(node.inputs, node.vjp(flowing.pop(id(node.output)))):
            if part is not None and inp.requires_grad:
                flowing[id(inp)] = part
    return (out.data,) + tuple(flowing.get(id(x)) for x in leaves)


def _bcast(values, shape: tuple, dtype) -> Tensor:
    """Per-batch scalars expanded to the full batch shape as a constant."""
    arr = np.asarray(values, dtype=dtype).reshape((-1,) + (1,) * (len(shape) - 1))
    return Tensor(np.ascontiguousarray(np.broadcast_to(arr, shape)))


def training_losses_oracle(model, z0, t, cond, eps, stack=None, lambda_vlb=LAMBDA_VLB) -> dict:
    """{"loss", "l_simple", "l_vlb"} of the hybrid loss, every term a tensor op."""
    sched = model.sched
    dt = model.config.np_dtype
    z0 = np.asarray(z0, dtype=dt)
    eps = np.asarray(eps, dtype=dt)
    t = np.asarray(t)
    z_t = diffuse(z0, t, eps, sched)

    eps_hat, v = forward(model, z_t, t, cond, stack)
    l_simple = T.tmean(T.square(T.sub(eps_hat, Tensor(eps))))

    ti = t - 1
    full = z0.shape
    bshape = (full[0],) + (1,) * (z0.ndim - 1)
    frac = T.mul(T.add(v, 1.0), 0.5)
    log_beta = _bcast(np.log(sched.betas[ti]), full, dt)
    log_post = _bcast(sched.posterior_logvar[ti], full, dt)
    logvar_p = T.add(T.mul(frac, log_beta), T.mul(T.sub(1.0, frac), log_post))

    abar = sched.alpha_bar[ti]
    rec_a = _bcast(1.0 / np.sqrt(abar), full, dt)
    rec_b = _bcast(np.sqrt(1.0 - abar) / np.sqrt(abar), full, dt)
    zt_t = Tensor(z_t)
    x0_hat = T.sub(T.mul(zt_t, rec_a), T.mul(Tensor(eps_hat.data), rec_b))
    c_x0 = _bcast(sched.mean_coef_x0[ti], full, dt)
    c_zt = _bcast(sched.mean_coef_zt[ti], full, dt)
    mean_p = T.add(T.mul(x0_hat, c_x0), T.mul(zt_t, c_zt))

    mean_q = sched.mean_coef_x0[ti].reshape(bshape) * z0 \
        + sched.mean_coef_zt[ti].reshape(bshape) * z_t
    logvar_q = _bcast(sched.posterior_logvar[ti], full, dt)

    diff_kl = T.sub(Tensor(mean_q.astype(dt)), mean_p)
    kl = T.mul(T.add(T.add(T.sub(logvar_p, logvar_q), -1.0),
                     T.add(T.exp(T.sub(logvar_q, logvar_p)),
                           T.mul(T.square(diff_kl), T.exp(T.neg(logvar_p))))), 0.5)

    diff_nll = T.sub(Tensor(z0), mean_p)
    nll = T.mul(T.add(T.add(logvar_p, np.log(2.0 * np.pi)),
                      T.mul(T.square(diff_nll), T.exp(T.neg(logvar_p)))), 0.5)

    is_first = _bcast((t == 1).astype(np.float64), full, dt)
    per_elem = T.add(T.mul(is_first, nll), T.mul(T.sub(1.0, is_first), kl))
    l_vlb = T.tmean(per_elem)

    loss = T.add(l_simple, T.mul(l_vlb, float(lambda_vlb)))
    return {"loss": loss, "l_simple": l_simple, "l_vlb": l_vlb}


def poke_payload(path, index: int, value: float) -> None:
    """Overwrite float32 number `index` of a saved .ufom/.ufoa payload with
    `value` and update the header's payload checksum to match, so the file
    is intact apart from that value."""
    blob = bytearray(Path(path).read_bytes())
    (hlen,) = struct.unpack("<I", blob[5:9])
    at = 9 + hlen + 4 * index
    blob[at:at + 4] = np.asarray([value], dtype="<f4").tobytes()
    old = json.loads(blob[9:9 + hlen])["payload_sha256"]
    new = hashlib.sha256(bytes(blob[9 + hlen:])).hexdigest()
    blob[9:9 + hlen] = bytes(blob[9:9 + hlen]).replace(old.encode(), new.encode())
    Path(path).write_bytes(bytes(blob))
