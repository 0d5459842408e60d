"""Clip container and binary-container tests."""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufolab import video
from ufolab.adapter import ADAPTER_MAGIC, UfoAdapter, init_adapter, load_adapter, save_adapter
from ufolab.errors import ContractError, FormatError, NumericError
from ufolab.fileio import atomic_write_bytes, read_container, unpack_arrays, write_container
from ufolab.model import ModelConfig, build_model, load_model, save_model
from ufolab.video import Clip, load_clip, save_clip


def make_clip(seed=0, shape=(4, 8, 8, 1)):
    rng = np.random.default_rng(seed)
    return Clip(rng.uniform(0, 1, size=shape).astype(np.float32), fps=8.0,
                meta={"seed": seed, "condition": 3})


# ---------------------------------------------------------------------------
# clips
# ---------------------------------------------------------------------------

def test_clip_validation():
    with pytest.raises(ContractError):
        Clip(np.zeros((4, 8, 8), dtype=np.float32))  # not 4-D
    with pytest.raises(ContractError):
        Clip(np.full((1, 2, 2, 1), 1.5, dtype=np.float32))  # out of range
    with pytest.raises(ContractError):
        Clip(np.full((1, 2, 2, 1), np.nan, dtype=np.float32))
    with pytest.raises(ContractError):
        Clip(np.zeros((1, 2, 2, 1), dtype=np.float32), fps=0.0)


@pytest.mark.parametrize("fps", [float("inf"), float("nan"), True])
def test_clip_refuses_non_finite_or_boolean_fps(fps):
    with pytest.raises(ContractError, match="fps"):
        Clip(np.zeros((1, 2, 2, 1), dtype=np.float32), fps=fps)


@pytest.mark.parametrize("key, text, complaint", [
    ("fps", "Infinity", "fps"), ("fps", "NaN", "fps"), ("fps", "true", "fps"),
    ("fps", "0", "fps"), ("fps", '"8"', "fps"), ("frames", "true", "geometry")])
def test_sidecar_refuses_non_finite_or_boolean_numbers(tmp_path, key, text, complaint):
    # one frame, so `"frames": true` would read as 1 and match the payload
    path = tmp_path / "c.vclip"
    save_clip(make_clip(shape=(1, 4, 4, 1)), path)
    side = tmp_path / "c.vclip.json"
    doc = json.loads(side.read_text())
    doc[key] = "@"
    side.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(FormatError, match=complaint):
        load_clip(path)


def test_clip_round_trip_is_bit_exact(tmp_path):
    clip = make_clip(7)
    p1, p2 = tmp_path / "a.vclip", tmp_path / "b.vclip"
    save_clip(clip, p1)
    loaded = load_clip(p1)
    assert np.array_equal(loaded.data, clip.data)
    assert loaded.data.flags.writeable  # a copy, not a view of the file's bytes
    assert loaded.fps == clip.fps and loaded.meta == clip.meta
    save_clip(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.vclip.json").read_bytes() == (tmp_path / "b.vclip.json").read_bytes()


def test_clip_loader_rejects_damage(tmp_path):
    clip = make_clip(1)
    path = tmp_path / "c.vclip"
    save_clip(clip, path)

    (tmp_path / "orphan.vclip").write_bytes(b"\x00" * 16)
    with pytest.raises(FormatError):
        load_clip(tmp_path / "orphan.vclip")  # no sidecar

    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # truncate payload
    with pytest.raises(FormatError) as err:
        load_clip(path)
    assert err.value.offset == len(blob) - 8
    path.write_bytes(blob)

    side = tmp_path / "c.vclip.json"
    good = side.read_text()
    side.write_text(good[:-5])
    with pytest.raises(FormatError):
        load_clip(path)
    doc = json.loads(good)
    del doc["fps"]
    side.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_clip(path)
    side.write_text(good)

    bad = np.frombuffer(blob, dtype="<f4").copy()
    bad[3] = 2.25  # out-of-range sample
    path.write_bytes(bad.tobytes())
    with pytest.raises(FormatError):
        load_clip(path)


@pytest.mark.parametrize("failing", ["payload", "sidecar"])
def test_a_save_that_stops_midway_leaves_no_stale_pairing(tmp_path, monkeypatch, failing):
    # the payload and the sidecar are two renames; a save that fails between
    # them must not pair a payload with the previous save's sidecar
    path = tmp_path / "c.vclip"
    save_clip(make_clip(1), path)
    real_write = video.atomic_write_bytes

    def write(target, blob):
        if str(target).endswith(".json") == (failing == "sidecar"):
            raise OSError("disk full")
        real_write(target, blob)

    monkeypatch.setattr(video, "atomic_write_bytes", write)
    with pytest.raises(OSError):
        save_clip(make_clip(2), path)
    with pytest.raises(FormatError, match="missing sidecar"):
        load_clip(path)
    monkeypatch.undo()
    save_clip(make_clip(2), path)
    assert np.array_equal(load_clip(path).data, make_clip(2).data)


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------

def test_container_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(3, 4)).astype(np.float32),
              rng.normal(size=(7,)).astype(np.float32),
              np.float32(0.25).reshape(())]
    header = {"names": ["w", "b", "s"], "shapes": [[3, 4], [7], []]}
    path = tmp_path / "x.bin"
    write_container(path, b"UFOT", header, arrays)
    got_header, payload, at = read_container(path, b"UFOT")
    assert got_header["names"] == ["w", "b", "s"]
    out = unpack_arrays(payload, at, zip(header["names"], header["shapes"]))
    for name, ref in zip(header["names"], arrays):
        assert np.array_equal(out[name], np.asarray(ref, dtype=np.float32))


def test_container_corruption_offsets(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, b"UFOT", {"names": ["w"], "shapes": [[2, 2]]},
                    [np.ones((2, 2), dtype=np.float32)])
    blob = bytearray(path.read_bytes())

    path.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError) as err:
        read_container(path, b"UFOT")
    assert err.value.offset == 0

    path.write_bytes(bytes(blob[:4]) + b"\x09" + bytes(blob[5:]))
    with pytest.raises(FormatError) as err:
        read_container(path, b"UFOT")
    assert err.value.offset == 4

    path.write_bytes(bytes(blob[:12]))  # ends inside the header
    with pytest.raises(FormatError) as err:
        read_container(path, b"UFOT")
    assert err.value.offset == 12

    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF  # damage one payload byte
    path.write_bytes(bytes(flipped))
    with pytest.raises(FormatError) as err:
        read_container(path, b"UFOT")
    assert "checksum" in str(err.value)

    path.write_bytes(bytes(blob))
    header, payload, at = read_container(path, b"UFOT")
    with pytest.raises(FormatError):
        unpack_arrays(payload, at, [("w", (2, 3))])  # wants more bytes than exist
    with pytest.raises(FormatError):
        unpack_arrays(payload, at, [("w", (1, 2))])  # leaves trailing bytes


def test_container_refuses_non_finite_arrays_and_writes_nothing(tmp_path):
    path = tmp_path / "x.bin"
    for bad in (np.nan, np.inf, 1e39):  # 1e39 overflows the float32 payload
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"arrays \[1\]"):
            write_container(path, b"UFOT", {}, [np.zeros(3), np.array([0.0, bad])])
        assert not any(tmp_path.iterdir())


def test_atomic_writes_from_two_threads_to_one_path(tmp_path):
    path = tmp_path / "shared.bin"
    blobs = [bytes([i]) * 4096 for i in (1, 2)]
    errors = []

    def writer(blob):
        try:
            for _ in range(300):
                atomic_write_bytes(path, blob)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(blob,)) for blob in blobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_bytes() in blobs
    assert [p.name for p in tmp_path.iterdir()] == ["shared.bin"]  # no temp file left


# ---------------------------------------------------------------------------
# damaged artifacts
# ---------------------------------------------------------------------------

FUZZ_MODEL = ModelConfig(frames=2, height=4, width=4, channels=1, patch=2, dim=8,
                         heads=2, mlp_dim=16, blocks=1, cond_vocab=4, timesteps=5)
LOADERS = {"m.ufom": load_model, "a.ufoa": load_adapter,
           "c.vclip": load_clip, "c.vclip.json": load_clip}
# bytes that change a value's type, sign or size, or the document's structure
PICKS = st.one_of(st.sampled_from(b'0129-.e"[]{},:tn\x00\x80\xff'), st.integers(0, 255))


@pytest.mark.parametrize("names, shapes, floats", [
    (["L"], [[10**20, 4]], 4),               # OverflowError sizing the array
    (["L"], [[True, 4]], 6),                 # loaded as a one-row layer
    ([["L"]], [[2, 4]], 7),                  # TypeError: a list is no name
    (["L", "L"], [[2, 4], [2, 4]], 14)],     # loaded, one layer silently lost
    ids=["huge", "bool", "list-name", "repeated"])
def test_adapter_loader_refuses_malformed_registry(tmp_path, names, shapes, floats):
    header = {"kind": "consistency", "recommended_alpha": 0.1, "rank": 1,
              "fingerprint": "x", "layer_names": names, "layer_shapes": shapes}
    path = tmp_path / "a.ufoa"
    write_container(path, ADAPTER_MAGIC, header, [np.zeros(floats)])
    with pytest.raises(FormatError):
        load_adapter(path)


@pytest.mark.parametrize("alpha", [True, False, "0.1", None, 1.5, -0.1])
def test_adapter_loader_refuses_a_recommended_alpha_that_is_no_number(tmp_path, alpha):
    # true loaded as 1.0 before; a well-formed registry, so only the alpha is wrong
    header = {"kind": "consistency", "recommended_alpha": alpha, "rank": 1,
              "fingerprint": "x", "layer_names": ["L"], "layer_shapes": [[2, 4]]}
    path = tmp_path / "a.ufoa"
    write_container(path, ADAPTER_MAGIC, header, [np.zeros(7)])
    with pytest.raises(FormatError, match="recommended_alpha"):
        load_adapter(path)


@pytest.mark.parametrize("key, value", [
    ("kind", "sepia"), ("kind", None), ("rank", 0), ("rank", True), ("rank", 2.5), ("rank", "1")])
def test_adapter_loader_reports_the_adapters_contract_error(tmp_path, key, value):
    # UfoAdapter makes these checks; the loader reports them as damage
    header = {"kind": "consistency", "recommended_alpha": 0.1, "rank": 1,
              "fingerprint": "x", "layer_names": ["L"], "layer_shapes": [[2, 4]], key: value}
    path = tmp_path / "a.ufoa"
    write_container(path, ADAPTER_MAGIC, header, [np.zeros(7)])
    with pytest.raises(FormatError, match=key):
        load_adapter(path)


def write_with_meta(tmp_path, **meta):
    """A minimal .ufoa and a one-frame .vclip whose header and sidecar carry
    `meta=...` when it is given and no meta at all otherwise."""
    header = {"kind": "consistency", "recommended_alpha": 0.1, "rank": 1,
              "fingerprint": "x", "layer_names": ["L"], "layer_shapes": [[2, 4]], **meta}
    adapter, clip = tmp_path / "a.ufoa", tmp_path / "c.vclip"
    write_container(adapter, ADAPTER_MAGIC, header, [np.zeros(7)])
    save_clip(make_clip(shape=(1, 4, 4, 1)), clip)
    side = tmp_path / "c.vclip.json"
    doc = json.loads(side.read_text())
    del doc["meta"]
    side.write_text(json.dumps({**doc, **meta}))
    return adapter, clip


@pytest.mark.parametrize("meta", [[1, 2], "oops", 5, None])
def test_meta_that_is_no_json_object_is_refused(tmp_path, meta):
    with pytest.raises(ContractError, match="meta must be a JSON object"):
        Clip(np.zeros((1, 2, 2, 1), dtype=np.float32), meta=meta)
    with pytest.raises(ContractError, match="meta must be a JSON object"):
        UfoAdapter(1, "x", {}, meta=meta)
    adapter, clip = write_with_meta(tmp_path, meta=meta)
    with pytest.raises(FormatError, match="meta must be a JSON object"):
        load_adapter(adapter)
    with pytest.raises(FormatError, match="meta must be a JSON object"):
        load_clip(clip)


def test_missing_meta_loads_as_empty(tmp_path):
    adapter, clip = write_with_meta(tmp_path)
    assert load_adapter(adapter).meta == {} and load_clip(clip).meta == {}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A small saved model, adapter and clip, plus a directory to damage copies in."""
    root = tmp_path_factory.mktemp("artifacts")
    model = build_model(FUZZ_MODEL, seed=0)
    save_model(model, root / "m.ufom")
    save_adapter(init_adapter(model, rank=2, seed=1), root / "a.ufoa")
    save_clip(make_clip(shape=(2, 4, 4, 1)), root / "c.vclip")
    (root / "work").mkdir()
    return root


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_damaged_artifact_loads_or_raises_format_error(artifacts, name, data):
    blob = (artifacts / name).read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        blob = bytearray(blob)
        # half the edits land in the first 1 KiB, where the headers are
        spots = st.integers(0, min(len(blob), 1024) - 1) | st.integers(0, len(blob) - 1)
        for at, byte in data.draw(st.lists(st.tuples(spots, PICKS), min_size=1, max_size=6),
                                  label="edits"):
            blob[at] = byte
    work = artifacts / "work"
    for part in ("c.vclip", "c.vclip.json"):
        (work / part).write_bytes((artifacts / part).read_bytes())
    (work / name).write_bytes(bytes(blob))
    try:
        LOADERS[name](work / name.removesuffix(".json"))
    except FormatError:
        pass
