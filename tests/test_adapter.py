"""Adapter math, composition semantics, fingerprint gating, and UFOA I/O."""

from collections import OrderedDict

import numpy as np
import pytest

from ufolab.adapter import (
    AdapterLayer,
    AdapterStack,
    UfoAdapter,
    adapter_digest,
    compose,
    default_targets,
    init_adapter,
    load_adapter,
    save_adapter,
    transfer,
)
from ufolab.errors import ContractError, DimensionError, FingerprintError, FormatError, NumericError
from ufolab.model import ModelConfig, adaptable_layers, build_model, forward, load_model, save_model
from ufolab.tensor import Tensor
from ufolab.train import TrainConfig
from ufolab.video import Clip

from oracles import delta_identity_check, one_layer_adapter, poke_payload

TINY = ModelConfig(frames=2, height=4, width=4, channels=1, patch=2, dim=8,
                   heads=2, mlp_dim=16, blocks=1, cond_vocab=4, timesteps=5)


def random_adapter(model, seed, rank=2, scale=0.1):
    """An adapter with non-trivial correctors (fresh ones are exact no-ops)."""
    adapter = init_adapter(model, rank=rank, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for layer in adapter.layers.values():
        layer.v_cor.data[...] = (rng.normal(size=layer.v_cor.shape) * scale).astype(
            layer.v_cor.data.dtype)
    adapter.set_trainable(False)
    return adapter


def adapted(w, x, v_det, v_cor, beta, alpha, bias=None) -> np.ndarray:
    """The adapted affine map on input `x`, run through AdapterStack.apply:
    the base term x W^T + b is computed here in float64, as the model's
    `_linear` computes it before it hands the same (clips, ..., n) input to
    the stack; 2-D rows are read as one-row clips."""
    y = x @ np.asarray(w).T + (0.0 if bias is None else bias)
    stack = AdapterStack([(one_layer_adapter(v_det, v_cor, beta), alpha)])
    return stack.apply("L", Tensor(x), Tensor(y)).numpy()


def test_worked_example():
    # identity weights, detector on x1, corrector on y2, alpha*beta = 1:
    # x = [3, 5] -> y = [3, 5 + 3] = [3, 8]
    y = adapted(np.eye(2), np.array([[3.0, 5.0]]),
                v_det=np.array([[1.0], [0.0]]),
                v_cor=np.array([[0.0], [1.0]]),
                beta=1.0, alpha=1.0)
    assert y.tolist() == [[3.0, 8.0]]


def test_misfit_adapter_shapes_raise_dimension_error():
    x, y = Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2)))
    misfits = (
        ((2, 1), (2, 1), np.ones((1, 3))),   # input wider than the detector
        ((3, 1), (2, 1), np.ones((1, 2))),   # detector does not fit the input
        ((2, 1), (2, 2), np.ones((1, 2))),   # detector and corrector ranks differ
        ((2, 1), (3, 1), np.ones((1, 2))),   # corrector does not fit the output
    )
    for det_shape, cor_shape, rows in misfits:
        stack = AdapterStack([(one_layer_adapter(np.ones(det_shape), np.ones(cor_shape),
                                                 1.0), 1.0)])
        with pytest.raises(DimensionError):
            stack.apply("L", Tensor(rows), y)
    # at alpha = 0 the term is skipped, so nothing is checked (or computed)
    skipped = AdapterStack([(one_layer_adapter(np.ones((3, 1)), np.ones((2, 1)), 1.0), 0.0)])
    assert skipped.apply("L", x, y) is y


def test_alpha_zero_is_exact_base_map():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 6))
    x = rng.normal(size=(10, 6))
    b = rng.normal(size=4)
    base = (x @ w.T) + b
    y = adapted(w, x, rng.normal(size=(6, 3)), rng.normal(size=(4, 3)),
                beta=2.0, alpha=0.0, bias=b)
    assert np.array_equal(y, base)


def test_adapter_term_is_linear_in_alpha_and_additive():
    rng = np.random.default_rng(1)
    for case in range(30):
        n, m, d = rng.integers(1, 8, size=3)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(5, n))
        vd, vc = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        beta = float(rng.normal())
        y0 = adapted(w, x, vd, vc, beta, 0.0)
        y1 = adapted(w, x, vd, vc, beta, 1.0)
        for alpha in (0.25, 0.5, 0.9):
            ya = adapted(w, x, vd, vc, beta, alpha)
            assert np.max(np.abs((ya - y0) - alpha * (y1 - y0))) < 1e-12
        # the delta is exactly what the defining formula says
        delta = (x @ vd) @ vc.T * beta
        assert np.max(np.abs((y1 - y0) - delta)) < 1e-12


def test_single_vector_and_batch_agree():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 5))
    x = rng.normal(size=(4, 5))
    vd, vc = rng.normal(size=(5, 2)), rng.normal(size=(3, 2))
    batched = adapted(w, x, vd, vc, 0.7, 0.6)
    rows = [adapted(w, x[i:i + 1], vd, vc, 0.7, 0.6)[0] for i in range(4)]
    assert np.allclose(batched, np.stack(rows), atol=1e-14)


def test_stack_alpha_zero_matches_no_stack_bit_for_bit():
    model = build_model(TINY, seed=7)
    rng = np.random.default_rng(3)
    model.params["head_eps.w"].data[...] = rng.normal(
        size=model.params["head_eps.w"].shape).astype(np.float32) * 0.1
    adapter = random_adapter(model, seed=5)
    z = rng.normal(size=(2, 2, 4, 4, 1)).astype(np.float32)
    t, c = np.array([1, 4]), np.array([0, 2])
    base_eps, base_v = forward(model, z, t, c)
    eps0, v0 = forward(model, z, t, c, stack=compose(model, [(adapter, 0.0)]))
    eps1, _ = forward(model, z, t, c, stack=compose(model, [(adapter, 0.5)]))
    assert np.array_equal(base_eps.data, eps0.data)
    assert np.array_equal(base_v.data, v0.data)
    assert not np.array_equal(base_eps.data, eps1.data)  # the adapter does act


def test_fresh_adapter_is_no_op_at_any_intensity():
    model = build_model(TINY, seed=8)
    rng = np.random.default_rng(4)
    model.params["head_eps.w"].data[...] = rng.normal(
        size=model.params["head_eps.w"].shape).astype(np.float32) * 0.1
    fresh = init_adapter(model, rank=3, seed=0)
    z = rng.normal(size=(1, 2, 4, 4, 1)).astype(np.float32)
    t, c = np.array([2]), np.array([1])
    base, _ = forward(model, z, t, c)
    adapted, _ = forward(model, z, t, c, stack=compose(model, [(fresh, 1.0)]))
    assert np.array_equal(base.data, adapted.data)


def test_composition_is_order_invariant_to_the_bit():
    model = build_model(TINY, seed=9)
    a1 = random_adapter(model, seed=11)
    a2 = random_adapter(model, seed=22)
    rng = np.random.default_rng(6)
    z = rng.normal(size=(2, 2, 4, 4, 1)).astype(np.float32)
    t, c = np.array([3, 1]), np.array([2, 0])
    e12, v12 = forward(model, z, t, c, stack=compose(model, [(a1, 0.4), (a2, 0.8)]))
    e21, v21 = forward(model, z, t, c, stack=compose(model, [(a2, 0.8), (a1, 0.4)]))
    assert np.array_equal(e12.data, e21.data)
    assert np.array_equal(v12.data, v21.data)


def test_composition_adds_per_layer_correction_terms():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 4))
    base = x @ rng.normal(size=(4, 4)).T
    total = base.copy()
    pairs = []
    for seed, alpha in ((1, 0.3), (2, 0.9)):
        r = np.random.default_rng(seed)
        vd, vc, beta = r.normal(size=(4, 2)), r.normal(size=(4, 2)), r.normal()
        total += alpha * beta * (x @ vd) @ vc.T
        layer = AdapterLayer(Tensor(vd), Tensor(vc), Tensor(np.asarray(beta)))
        pairs.append((UfoAdapter(2, "fp", {"L": layer}), alpha))
    y = AdapterStack(pairs).apply("L", Tensor(x), Tensor(base))
    assert np.max(np.abs(y.numpy() - total)) < 1e-12


def test_parameter_count_formula():
    model = build_model(ModelConfig(), seed=0)
    adapter = init_adapter(model, rank=4)
    # six temporal-attention layers of 64x64, so 6 * (4 * (64 + 64) + 1)
    assert list(adapter.layers) == default_targets(model)
    assert len(adapter.layers) == 6
    assert adapter.parameter_count() == 6 * (4 * 128 + 1) == 3078
    assert adapter.parameter_count() / model.parameter_count() < 0.02
    wide = init_adapter(model, rank=4, targets=[n for n, _, _ in adaptable_layers(model)])
    expected = sum(4 * (m + n) + 1 for _, m, n in adaptable_layers(model))
    assert wide.parameter_count() == expected


def test_fingerprint_gates_attachment():
    model = build_model(TINY, seed=0)
    other = build_model(ModelConfig(frames=2, height=4, width=4, channels=1, patch=2,
                                    dim=8, heads=2, mlp_dim=32, blocks=1,
                                    cond_vocab=4, timesteps=5), seed=0)
    adapter = init_adapter(model, rank=2)
    # the default targets keep their shapes; the wider MLP still changes the fingerprint
    with pytest.raises(FingerprintError, match="outside the adapted layers"):
        compose(other, [(adapter, 0.5)])
    # same architecture from a different seed accepts the adapter (transfer)
    twin = build_model(TINY, seed=999)
    compose(twin, [(adapter, 0.5)])
    with pytest.raises(FingerprintError):
        compose(model, [(adapter, 0.1), (init_adapter(other, rank=2), 0.1)])


def test_intensity_domain():
    model = build_model(TINY, seed=0)
    adapter = init_adapter(model, rank=1)
    for bad in (-0.1, 1.0001, float("nan")):
        with pytest.raises(ContractError):
            AdapterStack([(adapter, bad)])


def test_adapter_kind_defaults_and_validation():
    model = build_model(TINY, seed=0)
    a = init_adapter(model, rank=1)
    assert a.kind == "consistency" and a.recommended_alpha == 0.1
    b = init_adapter(model, rank=1, kind="stylization")
    assert b.kind == "stylization" and b.recommended_alpha == 1.0
    with pytest.raises(ContractError):
        init_adapter(model, rank=1, kind="sepia")
    for bad in (True, "0.5"):  # a bool is not read as 1.0, nor a string as a number
        with pytest.raises(ContractError, match="recommended_alpha"):
            UfoAdapter(1, a.fingerprint, a.layers, recommended_alpha=bad)


def build_record(record, **fields):
    """`record` built from its defaults, with UfoAdapter and Clip given the fields they lack."""
    if record is UfoAdapter:
        fields = {"rank": 1, "fingerprint": "fp", "layers": OrderedDict(), **fields}
    elif record is Clip:
        fields = {"data": np.zeros((1, 2, 2, 1), dtype=np.float32), **fields}
    return record(**fields)


NUMERIC_FIELDS = (
    [(ModelConfig, name, int) for name in ("frames", "height", "width", "channels", "patch", "dim",
                                           "heads", "mlp_dim", "blocks", "cond_vocab", "timesteps")]
    + [(ModelConfig, "fps", float), (Clip, "fps", float)]
    + [(TrainConfig, name, int) for name in ("steps", "batch_size", "warmup_steps", "seed")]
    + [(TrainConfig, name, float) for name in ("lr_peak", "alpha_train", "loss_lambda")]
    + [(UfoAdapter, "rank", int), (UfoAdapter, "recommended_alpha", float)])


@pytest.mark.parametrize("record, name, kind", NUMERIC_FIELDS,
                         ids=[f"{r.__name__}.{n}" for r, n, _ in NUMERIC_FIELDS])
def test_numeric_fields_refuse_bools_strings_and_fractional_integers(record, name, kind):
    build_record(record)  # the defaults construct
    for bad in (True, "3") + ((2.5,) if kind is int else ()):
        with pytest.raises(ContractError, match=name):
            build_record(record, **{name: bad})


def test_intensity_and_rank_follow_the_same_rule():
    model = build_model(TINY, seed=0)
    a = init_adapter(model, rank=1)
    with pytest.raises(ContractError, match="rank"):
        build_record(UfoAdapter, rank=0)
    for bad in (True, "0.5", 1.5, float("nan")):
        with pytest.raises(ContractError, match="intensity"):
            AdapterStack([(a, bad)])
    assert AdapterStack([(a, 1)]).entries[0][1] == 1.0  # an int intensity is a number
    for bad in (True, 0, 2.5):
        with pytest.raises(ContractError, match="rank"):
            init_adapter(model, rank=bad)


def test_adapter_round_trip_is_bit_exact(tmp_path):
    model = build_model(ModelConfig(), seed=0)
    adapter = random_adapter(model, seed=42, rank=4)
    adapter.kind = "stylization"
    adapter.recommended_alpha = 0.75
    adapter.meta = {"train_steps": 3000, "alpha_train": 1.0}
    p1, p2 = tmp_path / "a1.ufoa", tmp_path / "a2.ufoa"
    save_adapter(adapter, p1)
    loaded = load_adapter(p1)
    assert loaded.rank == 4 and loaded.fingerprint == adapter.fingerprint
    assert loaded.kind == "stylization" and loaded.recommended_alpha == 0.75
    assert list(loaded.layers) == list(adapter.layers)
    for name, layer in adapter.layers.items():
        assert np.array_equal(loaded.layers[name].v_det.data, layer.v_det.data)
        assert np.array_equal(loaded.layers[name].v_cor.data, layer.v_cor.data)
        assert np.array_equal(loaded.layers[name].beta.data, layer.beta.data)
        assert not loaded.layers[name].v_det.requires_grad
    assert loaded.meta == adapter.meta
    assert adapter_digest(loaded) == adapter_digest(adapter)
    save_adapter(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_adapter_loader_rejects_damage(tmp_path):
    model = build_model(TINY, seed=0)
    adapter = random_adapter(model, seed=1)
    path = tmp_path / "a.ufoa"
    save_adapter(adapter, path)
    blob = bytearray(path.read_bytes())

    path.write_bytes(b"UFOM" + bytes(blob[4:]))
    with pytest.raises(FormatError) as err:
        load_adapter(path)
    assert err.value.offset == 0

    path.write_bytes(bytes(blob[:-2]))
    with pytest.raises(FormatError):
        load_adapter(path)

    flipped = bytearray(blob)
    flipped[-1] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(FormatError):
        load_adapter(path)


def test_delta_decomposition_residual_tiny():
    rng = np.random.default_rng(12)
    for case in range(40):
        n, m, d = rng.integers(1, 7, size=3)
        w = rng.normal(size=(m, n))
        entry = (rng.normal(size=(n, d)), rng.normal(size=(m, d)),
                 rng.normal())
        x_t = rng.normal(size=n)
        x_tn = rng.normal(size=n)
        alpha = float(rng.uniform(0, 1))
        assert delta_identity_check(x_t, x_tn, w, entry, alpha) <= 1e-12
        # identical inputs -> zero difference on both sides
        assert delta_identity_check(x_t, x_t, w, entry, alpha) == 0.0


def test_delta_decomposition_alpha_zero_is_pure_base():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(3, 5))
    entry = (rng.normal(size=(5, 2)), rng.normal(size=(3, 2)), 1.7)
    x_t, x_tn = rng.normal(size=5), rng.normal(size=5)
    # the correction term vanishes; only base-matmul reordering noise remains
    assert delta_identity_check(x_t, x_tn, w, entry, 0.0) <= 1e-12
    with pytest.raises(DimensionError):
        delta_identity_check(x_t, rng.normal(size=4), w, entry, 0.5)


def test_transfer_same_weights_is_bit_identical(tmp_path):
    source = build_model(TINY, seed=6)
    adapter = random_adapter(source, seed=7)
    path = tmp_path / "m.ufom"
    save_model(source, path)
    target = load_model(path)

    stack_src = compose(source, [(adapter, 0.6)])
    stack_tgt = transfer(adapter, target, alpha=0.6)
    rng = np.random.default_rng(8)
    z = rng.normal(size=(2,) + (TINY.frames, TINY.height, TINY.width, TINY.channels))
    t, c = np.array([1, 3]), np.array([0, 2])
    eps_a, _ = forward(source, z, t, c, stack_src)
    eps_b, _ = forward(target, z, t, c, stack_tgt)
    assert np.array_equal(eps_a.data, eps_b.data)


def test_transfer_defaults_to_recommended_alpha():
    model = build_model(TINY, seed=9)
    adapter = random_adapter(model, seed=10)
    adapter.recommended_alpha = 0.25
    stack = transfer(adapter, model)
    assert stack.entries[0][1] == 0.25


def test_transfer_mismatch_names_offending_layer():
    small = build_model(TINY, seed=11)
    adapter = random_adapter(small, seed=12)
    bigger = build_model(ModelConfig(frames=2, height=4, width=4, channels=1,
                                     patch=2, dim=12, heads=2, mlp_dim=16,
                                     blocks=1, cond_vocab=4, timesteps=5), seed=13)
    # transfer is compose with a default alpha: both name the first misfit layer
    for build_stack in (lambda: transfer(adapter, bigger),
                             lambda: compose(bigger, [(adapter, 0.5)])):
        with pytest.raises(FingerprintError) as err:
            build_stack()
        assert "block0.tattn.q" in str(err.value)


def test_savers_refuse_non_finite_weights_and_write_nothing(tmp_path):
    model = build_model(TINY, seed=0)
    adapter = random_adapter(model, seed=1)
    next(iter(adapter.layers.values())).beta.data[...] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        save_adapter(adapter, tmp_path / "a.ufoa")
    model.params["head_eps.w"].data[0, 0] = np.inf
    with pytest.raises(NumericError, match="non-finite"):
        save_model(model, tmp_path / "m.ufom")
    assert not any(tmp_path.iterdir())


def test_adapter_loader_rejects_non_finite_weights(tmp_path):
    model = build_model(TINY, seed=0)
    adapter = random_adapter(model, seed=1)
    first = next(iter(adapter.layers.values()))
    for bad in (np.nan, np.inf):
        path = tmp_path / "a.ufoa"
        save_adapter(adapter, path)
        poke_payload(path, first.v_det.size, bad)  # the first layer's v_cor[0, 0]
        with pytest.raises(FormatError, match="non-finite"):
            load_adapter(path)
