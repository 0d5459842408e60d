"""Test oracles: reference computations the suite checks ufolab against.

They are not library API.  `finite_diff_check` compares reverse-mode
gradients with central differences; `delta_identity_check` checks the
difference decomposition of the adapted layer on the path the model runs,
`AdapterStack.apply`; `one_layer_adapter` wraps float64 arrays as a
one-layer adapter for that path.  `flow_oracle` is the per-block,
per-candidate block-matching loop that the vectorised flow must reproduce
bit for bit.  `poke_payload` damages a saved container the way the savers
never would, for the loaders' tests.
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
from ufolab.errors import ContractError, DimensionError
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

    with T.new_tape():
        _, y1 = reduced(base)
    with T.new_tape():
        _, y2 = reduced(base)
    if not np.array_equal(y1.data, y2.data):
        raise ContractError("finite_diff_check: f is not deterministic across repeated calls")

    with T.new_tape() as tape:
        leaf, y = reduced(base)
        T.backward(y, tape)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        bump = np.array(flat, copy=True)
        bump[i] = flat[i] + eps
        with T.new_tape():
            _, hi = reduced(bump.reshape(base.shape))
        bump[i] = flat[i] - eps
        with T.new_tape():
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
        with T.no_grad():
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
