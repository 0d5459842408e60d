"""Clip container and binary-container tests."""

import json
import sys
import threading

import numpy as np
import pytest

from ufolab.errors import ContractError, FormatError, NumericError
from ufolab.fileio import atomic_write_bytes, read_container, unpack_arrays, write_container
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


def test_clip_round_trip_is_bit_exact(tmp_path):
    clip = make_clip(7)
    p1, p2 = tmp_path / "a.vclip", tmp_path / "b.vclip"
    save_clip(clip, p1)
    loaded = load_clip(p1)
    assert np.array_equal(loaded.data, clip.data)
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
