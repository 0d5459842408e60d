"""Model construction, forward contract, fingerprint, and checkpoint tests."""

import numpy as np
import pytest

from ufolab import tensor as T
from ufolab.errors import ContractError, DimensionError, FormatError
from ufolab.fileio import read_container, write_container
from ufolab.model import (
    MODEL_MAGIC,
    ModelConfig,
    adaptable_layers,
    build_model,
    fingerprint,
    forward,
    load_model,
    save_model,
)
from ufolab.tensor import Tensor

from oracles import finite_diff_check, poke_payload

TINY = ModelConfig(frames=2, height=4, width=4, channels=1, patch=2, dim=8,
                   heads=2, mlp_dim=16, blocks=1, cond_vocab=4, timesteps=5,
                   dtype="float64")


def expected_param_count(cfg: ModelConfig) -> int:
    # independent arithmetic straight from the architecture description
    sites = (cfg.height // cfg.patch) * (cfg.width // cfg.patch)
    pdim = cfg.patch * cfg.patch * cfg.channels
    total = cfg.dim * pdim + cfg.dim                      # patch embed
    total += cfg.frames * sites * cfg.dim                 # positions
    total += cfg.timesteps * cfg.dim + cfg.cond_vocab * cfg.dim
    per_attn = 4 * (cfg.dim * cfg.dim + cfg.dim)
    per_mlp = (cfg.mlp_dim * cfg.dim + cfg.mlp_dim) + (cfg.dim * cfg.mlp_dim + cfg.dim)
    per_block = 3 * 2 * cfg.dim + 2 * per_attn + per_mlp
    total += cfg.blocks * per_block
    total += 2 * cfg.dim                                  # final layernorm
    total += 2 * (pdim * cfg.dim + pdim)                  # both heads
    return total


def test_default_parameter_count():
    model = build_model(ModelConfig(), seed=0)
    assert model.parameter_count() == expected_param_count(ModelConfig()) == 175944


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(height=15)  # patch must divide
    with pytest.raises(ContractError):
        ModelConfig(dim=30, heads=4)
    with pytest.raises(ContractError):
        ModelConfig(schedule="bogus")
    with pytest.raises(ContractError, match="timesteps"):
        ModelConfig(timesteps=1)  # a schedule needs two steps
    for fps in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ContractError, match="fps"):
            ModelConfig(fps=fps)


@pytest.mark.parametrize("name", list(ModelConfig.__dataclass_fields__))
def test_from_dict_refuses_every_json_kind_in_every_field(name):
    # no field accepts these, and each refusal is a FormatError, never a TypeError
    for value in (None, True, "x", [1], {"a": 1}, float("nan"), float("inf")):
        with pytest.raises(FormatError, match="model config"):
            ModelConfig.from_dict({name: value})


def test_forward_shapes_and_zero_head_output():
    model = build_model(TINY, seed=1)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 2, 4, 4, 1))
    eps, v = forward(model, z, np.array([1, 3, 5]), np.array([0, 1, 3]))
    assert eps.shape == (3, 2, 4, 4, 1) and v.shape == (3, 2, 4, 4, 1)
    # zero-initialized heads: a fresh model predicts exactly zero
    assert np.all(eps.data == 0.0) and np.all(v.data == 0.0)


def test_forward_is_deterministic():
    model = build_model(TINY, seed=2)
    for p in ("head_eps.w", "head_sigma.w"):
        model.params[p].data[...] = np.random.default_rng(9).normal(
            size=model.params[p].shape) * 0.1
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, 2, 4, 4, 1))
    t, c = np.array([2, 4]), np.array([1, 2])
    e1, v1 = forward(model, z, t, c)
    e2, v2 = forward(model, z, t, c)
    assert np.array_equal(e1.data, e2.data) and np.array_equal(v1.data, v2.data)


def test_forward_contract_errors():
    model = build_model(TINY, seed=0)
    z = np.zeros((2, 2, 4, 4, 1))
    good_t, good_c = np.array([1, 1]), np.array([0, 0])
    with pytest.raises(DimensionError):
        forward(model, np.zeros((2, 2, 4, 5, 1)), good_t, good_c)
    with pytest.raises(ContractError):
        forward(model, z, np.array([0, 1]), good_c)  # t below range
    with pytest.raises(ContractError):
        forward(model, z, np.array([1, 6]), good_c)  # t above range
    with pytest.raises(ContractError):
        forward(model, z, good_t, np.array([0, 4]))  # cond out of vocab
    with pytest.raises(ContractError):
        forward(model, z, np.array([1]), good_c)  # wrong batch length
    # ids are integer arrays: a bool array is refused, an int32 one accepted
    for t, c, name in ((np.array([True, True]), good_c, "t"), (good_t, np.array([False, True]), "cond")):
        with pytest.raises(ContractError, match=rf"^{name} must be integers .* of shape \(2,\)"):
            forward(model, z, t, c)
    want = forward(model, z, good_t, good_c)[0].numpy()
    got = forward(model, z, good_t.astype(np.int32), good_c.astype(np.int32))[0].numpy()
    assert got.tobytes() == want.tobytes()


def test_gradients_match_finite_differences_through_whole_network():
    model = build_model(TINY, seed=3)
    rng = np.random.default_rng(4)
    for p in ("head_eps.w", "head_eps.b", "head_sigma.w"):
        model.params[p].data[...] = rng.normal(size=model.params[p].shape) * 0.2
    z = rng.normal(size=(2, 2, 4, 4, 1))
    t, c = np.array([2, 5]), np.array([1, 3])
    tgt = rng.normal(size=(2, 2, 4, 4, 1))

    def loss_wrt(pname):
        keep = model.params[pname]

        def f(x):
            model.params[pname] = x
            try:
                eps, v = forward(model, z, t, c)
                return T.add(T.tmean(T.square(T.sub(eps, Tensor(tgt)))), T.tmean(T.square(v)))
            finally:
                model.params[pname] = keep

        return f

    # the standard checker on the position table (well-conditioned gradients)
    err = finite_diff_check(loss_wrt("pos_emb"), model.params["pos_emb"].data, eps=1e-6)
    assert err < 1e-6, f"pos_emb: finite-difference mismatch {err}"

    # deeper parameters have near-zero coordinates that swamp a per-coordinate
    # relative metric, so compare sampled coordinates on an absolute scale
    for pname in ("block0.tattn.q.w", "block0.sattn.proj.w", "block0.mlp.fc1.b",
                  "block0.ln2.g", "t_table", "head_eps.w"):
        f = loss_wrt(pname)
        base = model.params[pname].data.copy()
        with T.recording() as tape:
            leaf = Tensor(base, requires_grad=True)
            T.backward(f(leaf), tape)
        flat = base.reshape(-1)
        picks = np.random.default_rng(hash(pname) % 2**32).choice(
            flat.size, size=min(10, flat.size), replace=False)
        for i in picks:
            bump = flat.copy()
            bump[i] = flat[i] + 1e-6
            hi = f(Tensor(bump.reshape(base.shape))).item()
            bump[i] = flat[i] - 1e-6
            lo = f(Tensor(bump.reshape(base.shape))).item()
            numeric = (hi - lo) / 2e-6
            analytic = leaf.grad.reshape(-1)[i]
            assert abs(analytic - numeric) < 1e-7, (
                f"{pname}[{i}]: analytic {analytic} vs numeric {numeric}")


def test_fingerprint_tracks_architecture_not_weights():
    a = fingerprint(build_model(ModelConfig(), seed=0))
    b = fingerprint(build_model(ModelConfig(), seed=123))
    assert a == b and len(a) == 64 and int(a, 16) >= 0
    wider = fingerprint(ModelConfig(mlp_dim=512))
    assert wider != a
    # adaptable registry lists every block affine with its shape
    layers = adaptable_layers(ModelConfig())
    assert ("block0.tattn.q", 64, 64) in layers
    assert ("block1.mlp.fc1", 256, 64) in layers
    assert len(layers) == 2 * (8 + 2)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = build_model(ModelConfig(), seed=11)
    p1, p2 = tmp_path / "m1.ufom", tmp_path / "m2.ufom"
    save_model(model, p1)
    loaded = load_model(p1)
    assert loaded.config == model.config
    for name, t in model.params.items():
        assert np.array_equal(loaded.params[name].data, t.data), name
        assert loaded.params[name].requires_grad
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_damage(tmp_path):
    model = build_model(ModelConfig(), seed=1)
    path = tmp_path / "m.ufom"
    save_model(model, path)
    blob = bytearray(path.read_bytes())

    path.write_bytes(b"UFOA" + bytes(blob[4:]))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.offset == 0

    flipped = bytearray(blob)
    flipped[-3] ^= 0x40
    path.write_bytes(bytes(flipped))
    with pytest.raises(FormatError):
        load_model(path)

    # a well-formed container whose registry disagrees with the architecture
    path.write_bytes(bytes(blob))
    header, payload, at = read_container(path, MODEL_MAGIC)
    header["param_shapes"][0] = [1, 1]
    write_container(path, MODEL_MAGIC, header, [np.zeros(1, dtype=np.float32)])
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("config", [5, {"fps": -3.0}, {"timesteps": 1}, {"fps": True},
                                    {"blocks": True}],
                         ids=["not-an-object", "negative-fps", "one-timestep", "boolean-fps",
                              "boolean-blocks"])
def test_checkpoint_rejects_bad_config_header(tmp_path, config):
    model = build_model(ModelConfig(frames=2, height=4, width=4, patch=2, dim=8, heads=2,
                                    mlp_dim=16, blocks=1, cond_vocab=4), seed=1)
    path = tmp_path / "m.ufom"
    save_model(model, path)
    header, payload, _ = read_container(path, MODEL_MAGIC)
    header["config"] = {**header["config"], **config} if isinstance(config, dict) else config
    write_container(path, MODEL_MAGIC, header, [np.frombuffer(payload, dtype="<f4")])
    with pytest.raises(FormatError, match="model config"):
        load_model(path)


def test_checkpoint_rejects_non_finite_weights(tmp_path):
    model = build_model(ModelConfig(), seed=1)
    names = list(model.params)
    at = sum(model.params[n].size for n in names[:names.index("block1.mlp.fc2.w")])
    path = tmp_path / "m.ufom"
    save_model(model, path)
    poke_payload(path, at + 3 * model.params["block1.mlp.fc2.w"].shape[1] + 5, np.nan)
    with pytest.raises(FormatError, match="'block1.mlp.fc2.w' holds non-finite"):
        load_model(path)
