"""Unit tests for the reverse-mode tensor core.

Expected values are either worked out by hand (and shown in comments) or
checked against central finite differences in float64.
"""

import importlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ufolab import tensor as T
from ufolab.diffusion import training_losses
from ufolab.errors import ContractError, DimensionError
from ufolab.model import ModelConfig, build_model, forward
from ufolab.tensor import Tensor, backward

from oracles import (attention_oracle, finite_diff_check, gelu_oracle, layernorm_oracle,
                     softmax_oracle)


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_matmul_hand_expanded():
    # [[1,2],[3,4]] @ [[5],[6]] -> [[1*5+2*6],[3*5+4*6]] = [[17],[39]]
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = T.matmul(a, b)
    assert out.numpy().tolist() == [[17.0], [39.0]]


def test_integer_input_is_promoted_to_float():
    x = Tensor([[1, 2], [3, 4]])
    assert x.dtype == np.float64


def test_elementwise_values():
    x = Tensor([1.0, -2.0, 0.5])
    assert np.allclose(T.add(x, 1.0).numpy(), [2.0, -1.0, 1.5])
    assert np.allclose(T.mul(2.0, x).numpy(), [2.0, -4.0, 1.0])
    assert np.allclose(T.sub(x, x).numpy(), [0.0, 0.0, 0.0])
    assert np.allclose(T.square(x).numpy(), [1.0, 4.0, 0.25])


def test_softmax_rows_normalize_and_shift_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 9))
    y = T.softmax(Tensor(x)).numpy()
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    y2 = T.softmax(Tensor(x + 100.0)).numpy()
    assert np.allclose(y, y2, atol=1e-12)


def test_layernorm_matches_direct_formula():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    g = rng.normal(size=6)
    b = rng.normal(size=6)
    out = T.layernorm(Tensor(x), Tensor(g), Tensor(b)).numpy()
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    ref = (x - mu) / np.sqrt(var + 1e-5) * g + b
    assert np.allclose(out, ref, atol=1e-12)


def test_gelu_reference_points():
    x = Tensor([0.0, 10.0, -10.0])
    y = T.gelu(x).numpy()
    assert y[0] == 0.0
    assert abs(y[1] - 10.0) < 1e-6
    assert abs(y[2]) < 1e-6


# ---------------------------------------------------------------------------
# in-place kernels: the same bits as the plain-expression oracles
# ---------------------------------------------------------------------------

def _taped(op, *tensors):
    """Run `op` on a tape and return its output with its node's vjp closure."""
    with T.recording() as tape:
        out = op(*tensors)
    return out, tape.nodes[-1].vjp


def _kernel_case(shape, dtype, transposed_g):
    """Input and output gradient of `shape`; a transposed g is a strided view,
    as `transpose`'s vjp hands to the first layernorm of each block."""
    rng = np.random.default_rng(11)
    x = (3.0 * rng.standard_normal(shape)).astype(dtype)
    if transposed_g:
        swapped = (shape[0], shape[2], shape[1]) + shape[3:]
        g = np.transpose(rng.standard_normal(swapped).astype(dtype), (0, 2, 1, 3))
    else:
        g = rng.standard_normal(shape).astype(dtype)
    return x, g


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.strides == want.strides
    assert np.array_equal(got, want)


KERNEL_CASES = [((8, 8, 64, 256), False), ((8, 8, 64, 256), True), ((2, 3, 4, 1), True)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,transposed_g", KERNEL_CASES)
def test_gelu_and_softmax_match_their_oracles_bit_for_bit(dtype, shape, transposed_g):
    x, g = _kernel_case(shape, dtype, transposed_g)
    x_before, g_before = x.copy(), g.copy()
    for op, oracle in ((T.gelu, gelu_oracle), (T.softmax, softmax_oracle)):
        out, vjp = _taped(op, Tensor(x, requires_grad=True))
        (dx,) = vjp(g)
        y_ref, dx_ref = oracle(x, g)
        _same_bits(out.data, y_ref)
        _same_bits(dx, dx_ref)
        _same_bits(vjp(g)[0], dx_ref)  # the kept forward state is intact
        assert np.array_equal(x, x_before) and np.array_equal(g, g_before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,transposed_g", KERNEL_CASES)
def test_layernorm_matches_its_oracle_bit_for_bit(dtype, shape, transposed_g):
    x, g = _kernel_case(shape, dtype, transposed_g)
    rng = np.random.default_rng(12)
    gamma = (1.0 + rng.standard_normal(shape[-1])).astype(dtype)
    beta = rng.standard_normal(shape[-1]).astype(dtype)
    before = [arr.copy() for arr in (x, g, gamma, beta)]
    out, vjp = _taped(T.layernorm, *(Tensor(arr, requires_grad=True) for arr in (x, gamma, beta)))
    y_ref, *grads_ref = layernorm_oracle(x, gamma, beta, g)
    _same_bits(out.data, y_ref)
    for _ in range(2):  # a second call sees the same kept forward state
        for part, ref in zip(vjp(g), grads_ref):
            _same_bits(part, ref)
    for arr, orig in zip((x, g, gamma, beta), before):
        assert np.array_equal(arr, orig)


# spatial and temporal attention at the default size, a length of 1, one head
ATTENTION_CASES = [((8, 8, 64, 64), 4), ((8, 64, 8, 64), 4), ((2, 3, 1, 8), 2), ((2, 3, 5, 8), 1)]


@pytest.mark.parametrize("needs", list(itertools.product((False, True), repeat=3)))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,heads", ATTENTION_CASES)
def test_attention_matches_its_oracle_bit_for_bit(shape, heads, dtype, needs):
    rng = np.random.default_rng(13)
    q, k, v, g = (rng.standard_normal(shape).astype(dtype) for _ in range(4))
    before = [arr.copy() for arr in (q, k, v, g)]
    scale = 1.0 / math.sqrt(shape[-1] // heads)
    y_ref, *grads_ref = attention_oracle(q, k, v, heads, scale, g, needs)
    with T.recording() as tape:
        out = T.attention(*(Tensor(x, requires_grad=n) for x, n in zip((q, k, v), needs)),
                          heads, scale)
    _same_bits(out.data, y_ref)
    assert len(tape) == any(needs)
    for _ in range(2 * any(needs)):  # a second call sees the same kept forward state
        for part, ref in zip(tape.nodes[0].vjp(g), grads_ref):
            if ref is None:
                assert part is None
            else:
                _same_bits(part, ref)
    for arr, orig in zip((q, k, v, g), before):
        assert np.array_equal(arr, orig)


def test_attention_refuses_mismatched_shapes_and_heads():
    x = Tensor(np.zeros((2, 3, 4, 8)))
    with pytest.raises(DimensionError, match="equal 4-D"):
        T.attention(x, x, Tensor(np.zeros((2, 3, 5, 8))), 2, 1.0)
    with pytest.raises(DimensionError, match="heads 3 must divide dim 8"):
        T.attention(x, x, x, 3, 1.0)


def test_take_rows_values_and_duplicate_grad():
    table = leaf([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    with T.recording():
        out = T.take_rows(table, np.array([0, 0, 2]))
        backward(T.tsum(out))
    assert out.numpy().tolist() == [[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]]
    # row 0 selected twice, row 1 never, row 2 once
    assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
    assert T.take_rows(table, np.array([2, 0], dtype=np.int32)).numpy().tolist() == [[5.0, 6.0], [1.0, 2.0]]
    for bad in (np.array([True, False]), np.array([0.0]), np.array([3]), np.array([-1])):
        with pytest.raises(ContractError, match="take_rows ids"):
            T.take_rows(table, bad)


def test_expand_and_reduction_shapes():
    x = leaf([[1.0], [2.0]])  # (2, 1)
    with T.recording():
        y = T.expand(x, (3, 2, 5))
        backward(T.tsum(y))
    assert y.shape == (3, 2, 5)
    # every element copied 3 * 5 = 15 times
    assert x.grad.tolist() == [[15.0], [15.0]]


# ---------------------------------------------------------------------------
# shape discipline
# ---------------------------------------------------------------------------

def test_suffix_broadcast_allowed_only_on_trailing_dims():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones(3))
    assert T.add(a, b).shape == (2, 3)
    with pytest.raises(DimensionError) as err:
        T.add(Tensor(np.ones((3, 2))), b)
    assert "(3, 2)" in str(err.value) and "(3,)" in str(err.value)


def test_no_numpy_style_inner_broadcast():
    with pytest.raises(DimensionError):
        T.mul(Tensor(np.ones((2, 1, 4))), Tensor(np.ones((2, 3, 4))))


def test_matmul_shape_errors_name_both_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 4))))
    with pytest.raises(DimensionError) as err:
        T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(DimensionError) as err:
        T.linear(Tensor(np.ones((2, 5))), Tensor(np.ones((4, 5))), Tensor(np.ones(3)))
    assert "(3,)" in str(err.value) and "(4, 5)" in str(err.value)


def test_linear_clips_match_each_clip_alone_bit_for_bit():
    # one GEMM per clip: a clip's rows never depend on how many clips share the call
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16, 512, 64)).astype(np.float32)
    w = rng.normal(size=(4, 64)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    for bias in (None, Tensor(b)):
        full = T.linear(Tensor(x), Tensor(w), bias).data
        assert full.shape == (16, 512, 4)
        for i in range(16):
            assert np.array_equal(T.linear(Tensor(x[i:i + 1]), Tensor(w), bias).data[0], full[i])


def test_reshape_and_transpose_validation():
    with pytest.raises(DimensionError):
        T.reshape(Tensor(np.ones((2, 3))), (4, 2))
    with pytest.raises(DimensionError):
        T.transpose(Tensor(np.ones((2, 3))), (0, 0))


# ---------------------------------------------------------------------------
# reverse pass semantics
# ---------------------------------------------------------------------------

def test_sum_of_squares_gradient_is_2x():
    x = leaf([1.0, 2.0, 3.0])
    with T.recording():
        backward(T.tsum(T.square(x)))
    assert x.grad.tolist() == [2.0, 4.0, 6.0]


def test_backward_rejects_non_scalar():
    x = leaf([1.0, 2.0])
    y = T.square(x)
    with pytest.raises(ContractError):
        backward(y)


def test_disconnected_loss_warns_and_zeroes():
    x = leaf([1.0, 2.0])
    stray = Tensor(np.array(5.0), requires_grad=True)
    with T.recording(), pytest.warns(RuntimeWarning):
        _ = T.square(x)  # recorded but unrelated to the loss below
        backward(stray)
    assert x.grad.tolist() == [0.0, 0.0]


def test_tape_is_dropped_when_recording_closes():
    x = leaf([1.0, 2.0])
    with T.recording() as tape:
        loss = T.tsum(T.square(x))
        assert len(tape) == 2 and T.active_tape() is tape
    assert len(T.active_tape()) == 0
    with pytest.warns(RuntimeWarning, match="not connected"):
        backward(loss)
    assert x.grad is None  # nothing recorded anymore


def test_nested_recording_restores_the_outer_tape():
    x = leaf([1.0, 2.0])
    with T.recording() as outer:
        y = T.square(x)
        with T.recording() as inner:
            T.neg(x)
            assert T.active_tape() is inner and len(inner) == 1
        assert T.active_tape() is outer and len(outer) == 1
        backward(T.tsum(y))
    assert x.grad.tolist() == [2.0, 4.0]


def test_gradients_accumulate_until_cleared():
    x = leaf([1.0, 2.0])
    with T.recording():
        backward(T.tsum(T.square(x)))
    first = x.grad.copy()
    with T.recording():
        backward(T.tsum(T.square(x)))
    assert np.array_equal(x.grad, 2.0 * first)


def test_shared_input_gradients_add():
    x = leaf([2.0])
    with T.recording():
        y = T.mul(x, x)  # x used twice -> d/dx = 2x = 4
        backward(T.tsum(y))
    assert x.grad.tolist() == [4.0]


def test_detach_blocks_gradient():
    x = leaf([3.0])
    with T.recording():
        y = T.mul(Tensor(x.data), x)  # only the second factor carries gradient
        backward(T.tsum(y))
    assert x.grad.tolist() == [3.0]


def test_ops_outside_recording_keep_no_graph():
    x = leaf([1.0, 2.0])
    y = T.square(x)
    assert not y.requires_grad
    assert len(T.active_tape()) == 0


def test_forwards_outside_recording_keep_no_graph():
    # each default-size forward used to leave 206 nodes on a process-wide tape
    model = build_model(ModelConfig(), seed=0)
    cfg = model.config
    z = np.zeros((2, cfg.frames, cfg.height, cfg.width, cfg.channels), dtype=np.float32)
    for _ in range(3):
        eps, v = forward(model, z, np.array([1, 50]), np.array([0, 3]))
        assert not eps.requires_grad and not v.requires_grad
    assert len(T.active_tape()) == 0


def test_grad_dtype_follows_parameter_dtype():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with T.recording():
        backward(T.tsum(T.square(x)))
    assert x.grad.dtype == np.float32


def test_backward_frees_each_gradient_once_its_node_has_run():
    # a batch-2 training loss on the default model; holding every intermediate
    # gradient to the end of the pass peaks near 0.7x the tape's output bytes
    cfg = ModelConfig()
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    shape = (2, cfg.frames, cfg.height, cfg.width, cfg.channels)
    z0 = rng.random(shape).astype(np.float32)
    eps = rng.standard_normal(shape).astype(np.float32)
    with T.recording() as tape:
        loss = training_losses(model, z0, np.array([3, 70]), np.array([0, 1]), eps)["loss"]
        held = sum(node.output.data.nbytes for node in tape.nodes)
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 0.35 * held, peak / held


def test_training_tape_keeps_no_attention_scores():
    # the unfused chain left the (L, L) scores, their scaled copy and the head
    # split/merge copies on the tape, and gelu kept x² for its vjp
    cfg = ModelConfig()
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    shape = (2, cfg.frames, cfg.height, cfg.width, cfg.channels)
    z0 = rng.random(shape).astype(np.float32)
    eps = rng.standard_normal(shape).astype(np.float32)
    with T.recording() as tape:
        training_losses(model, z0, np.array([3, 70]), np.array([0, 1]), eps)
    # a (heads, L, L) block of scores; (L, L) alone would match the (sites, dim) activations
    scores = {(cfg.heads, n, n) for n in (cfg.frames, cfg.sites)}
    assert [n.output.shape for n in tape.nodes if n.output.shape[-3:] in scores] == []
    ops = [n.vjp.__qualname__.split(".")[0] for n in tape.nodes]
    assert ops.count("attention") == 2 * cfg.blocks  # temporal and spatial, per block
    for node in (n for n, op in zip(tape.nodes, ops) if op == "gelu"):
        held = [c.cell_contents for c in node.vjp.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(held) == 2 and any(arr is node.inputs[0].data for arr in held)


def test_repeated_backward_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with T.recording():
            backward(T.tmean(T.square(T.gelu(T.matmul(x, w)))))
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_add_is_associative_to_float_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (rng.normal(size=7) for _ in range(3))
        lhs = T.add(T.add(Tensor(a), Tensor(b)), Tensor(c)).numpy()
        rhs = T.add(Tensor(a), T.add(Tensor(b), Tensor(c))).numpy()
        assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_finite_diff_each_primitive():
    rng = np.random.default_rng(42)
    w = rng.normal(size=(4, 3))
    lin = np.random.default_rng(7)  # linear's fixed operands; leaves `rng`'s draws as they were
    xl, wl, w12 = lin.normal(size=(2, 5, 4)), lin.normal(size=(5, 2)), lin.normal(size=(12, 4))
    cases = [
        lambda x: T.tsum(T.square(x)),
        lambda x: T.tmean(T.mul(x, x), axis=0),
        lambda x: T.tsum(T.exp(T.mul(0.3, x))),
        lambda x: T.tsum(T.gelu(x)),
        lambda x: T.softmax(x),  # reduced with fixed weights by the checker
        lambda x: T.tsum(T.square(T.matmul(x, Tensor(w)))),
        lambda x: T.tsum(T.add(T.transpose(x), 1.0)),
        lambda x: T.tsum(T.square(T.reshape(x, (12,)))),
        lambda x: T.tsum(T.square(T.expand(T.reshape(x, (3, 1, 4)), (3, 5, 4)))),
        lambda x: T.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))),
        # linear, with x as input (no bias), as weight and as bias
        lambda x: T.tsum(T.square(T.linear(T.reshape(x, (2, 3, 2)), Tensor(wl)))),
        lambda x: T.tsum(T.square(T.linear(Tensor(xl), x, Tensor(w[0])))),
        lambda x: T.tsum(T.square(T.linear(Tensor(xl), Tensor(w12), T.reshape(x, (12,))))),
    ]
    for i, f in enumerate(cases):
        x = rng.normal(size=(3, 4))
        err = finite_diff_check(f, x, eps=1e-6)
        assert err < 1e-6, f"case {i}: finite-difference mismatch {err}"


def test_finite_diff_composite_network():
    rng = np.random.default_rng(9)
    w1 = Tensor(rng.normal(size=(5, 8)) * 0.4)
    b1 = Tensor(rng.normal(size=8) * 0.1)
    w2 = Tensor(rng.normal(size=(8, 4)) * 0.4)
    g = Tensor(np.abs(rng.normal(size=8)) + 0.5)
    b = Tensor(rng.normal(size=8) * 0.1)
    tgt = Tensor(rng.normal(size=(6, 4)))

    def net(x):
        h = T.gelu(T.add(T.matmul(x, w1), b1))
        h = T.layernorm(h, g, b)
        p = T.softmax(T.matmul(h, w2))
        return T.tmean(T.square(T.sub(p, tgt)))

    err = finite_diff_check(net, rng.normal(size=(6, 5)), eps=1e-6)
    assert err < 1e-6


def test_finite_diff_rejects_bad_eps_and_nondeterminism():
    with pytest.raises(ContractError):
        finite_diff_check(lambda x: T.tsum(x), np.ones(3), eps=0.0)

    def noisy(x):
        return T.tsum(T.mul(x, Tensor(np.random.normal(size=x.shape))))

    with pytest.raises(ContractError):
        finite_diff_check(noisy, np.ones(3), eps=1e-6)


def test_finite_diff_reduces_vector_outputs():
    # identity map: reduction weights make the check sensitive per-coordinate
    err = finite_diff_check(lambda x: T.mul(x, x), np.array([1.0, -2.0, 3.0]), eps=1e-6)
    assert err < 1e-7


# ---------------------------------------------------------------------------
# names the benchmark wraps
# ---------------------------------------------------------------------------

def test_perfbench_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps ufolab functions by name, `tsum` among them,
    # which src/ never calls; building its patch table looks each one up, so
    # a deleted or renamed name fails here rather than only in a traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    add = T.add
    patched = {name for _, name, _, _ in tracing.Tracer()._patches}
    assert set(tracing.TENSOR_OPS) <= patched
    assert T.add is add  # the constructor builds the table; only install() patches
