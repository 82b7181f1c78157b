"""Versioned binary checkpoint container.

Layout: 4-byte magic, u32 version, u64 header length, UTF-8 JSON header,
then the raw payload: every entry's float64 data little-endian, in header
order.  The header carries a flat config echo, the entry catalog
(name, shape), a free-form extra dict (step counter, RNG state, best metric),
and a SHA-256 of the payload so corruption is caught before use.
Round-trips are bit-exact: arrays are dumped and restored byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"DTSN"
VERSION = 1


def save_checkpoint(path, arrays: dict, config: dict, extra: dict | None = None):
    """Write atomically: a crash mid-write leaves any earlier file at `path` intact."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim:  # ascontiguousarray would promote 0-d to 1-d
            a = np.ascontiguousarray(a)
        entries.append({"name": name, "shape": list(a.shape)})
        blobs.append(a.astype("<f8", copy=False).tobytes())
    payload = b"".join(blobs)
    header = {
        "config": config,
        "entries": entries,
        "extra": extra or {},
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(hb)))
            f.write(hb)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Returns (arrays, config, extra); verifies magic, version, checksum."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint header: {e}") from None
    payload = raw[16 + hlen:]
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise DataError(f"{path}: checkpoint payload fails its checksum")
    arrays = {}
    off = 0
    for ent in header["entries"]:
        shape = tuple(ent["shape"])
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=off).reshape(shape)
        arrays[ent["name"]] = arr.astype(np.float64)
        off += 8 * n
    if off != len(payload):
        raise DataError(f"{path}: payload size mismatch ({len(payload)} vs {off} expected)")
    return arrays, header["config"], header["extra"]
