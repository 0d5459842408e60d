"""Binary container shared by model checkpoints and adapter files.

Layout: 4 magic bytes, 1 version byte, uint32 little-endian header length,
UTF-8 JSON header, then concatenated float32 little-endian array payloads in
header-registry order.  The header carries a sha256 of the payload so a
flipped byte anywhere is detected on load.  All writes go through a
temp-file-plus-rename so readers never observe a partial file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError

CONTAINER_VERSION = 1
_HEADER_AT = 9  # magic(4) + version(1) + header length(4)


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write `blob` to `path` atomically (temp file in the same directory).

    Each write creates its own temp file, so concurrent writers of one path
    never share one; the last rename wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp.{os.urandom(8).hex()}")
    try:
        with open(tmp, "xb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a header and rows as "\n"-terminated CSV, atomically.  A cell
    that is None is empty, a bool is 1 or 0, a float has 12 significant
    digits, and anything else is its str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(value) for value in row] for row in rows)
    atomic_write_bytes(path, buf.getvalue().encode())


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path, magic: bytes, header: dict, arrays) -> None:
    """Serialize `arrays` (float32, registry order) under a JSON header.

    A NaN or infinite value (after the cast to float32) raises NumericError
    before anything is written: the loaders would refuse the file.
    """
    arrays = [np.ascontiguousarray(a, dtype="<f4") for a in arrays]
    bad = [i for i, a in enumerate(arrays) if not np.isfinite(a).all()]
    if bad:
        raise NumericError(f"refusing to write {path}: arrays {bad} (registry order) "
                           "hold non-finite values")
    payload = b"".join(a.tobytes() for a in arrays)
    header = dict(header)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    hbytes = canonical_json(header)
    blob = magic + bytes([CONTAINER_VERSION]) + struct.pack("<I", len(hbytes)) + hbytes + payload
    atomic_write_bytes(path, blob)


def read_container(path, magic: bytes) -> tuple[dict, bytes, int]:
    """Return (header, payload, payload_offset); raise FormatError on damage."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != magic:
        raise FormatError(f"expected magic {magic!r}, found {blob[:4]!r}", offset=0)
    if len(blob) < 5:
        raise FormatError("file ends before version byte", offset=4)
    if blob[4] != CONTAINER_VERSION:
        raise FormatError(f"unsupported container version {blob[4]}", offset=4)
    if len(blob) < _HEADER_AT:
        raise FormatError("file ends inside header length field", offset=5)
    (hlen,) = struct.unpack("<I", blob[5:_HEADER_AT])
    if len(blob) < _HEADER_AT + hlen:
        raise FormatError("file ends inside JSON header", offset=len(blob))
    try:
        header = json.loads(blob[_HEADER_AT:_HEADER_AT + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON: {exc}", offset=_HEADER_AT) from None
    if not isinstance(header, dict):
        raise FormatError("header JSON must be an object", offset=_HEADER_AT)
    payload_at = _HEADER_AT + hlen
    payload = blob[payload_at:]
    digest = header.get("payload_sha256")
    if not isinstance(digest, str):
        raise FormatError("header is missing the payload checksum", offset=_HEADER_AT)
    if hashlib.sha256(payload).hexdigest() != digest:
        raise FormatError("payload checksum mismatch", offset=payload_at)
    return header, payload, payload_at


def unpack_arrays(payload: bytes, payload_at: int, specs) -> dict[str, np.ndarray]:
    """Slice `payload` into named float32 arrays per (name, shape) specs.

    A stored weight that is NaN or infinite is damage, not data: FormatError.
    """
    out: dict[str, np.ndarray] = {}
    cursor = 0
    for name, shape in specs:
        shape = tuple(int(s) for s in shape)
        nbytes = math.prod(shape) * 4
        chunk = payload[cursor:cursor + nbytes]
        if len(chunk) < nbytes:
            raise FormatError(f"payload ends inside array '{name}'",
                              offset=payload_at + cursor + len(chunk))
        arr = np.frombuffer(chunk, dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"array '{name}' holds non-finite values",
                              offset=payload_at + cursor)
        out[name] = arr.astype(np.float32, copy=True)
        cursor += nbytes
    if cursor != len(payload):
        raise FormatError(f"{len(payload) - cursor} trailing bytes after last array",
                          offset=payload_at + cursor)
    return out
