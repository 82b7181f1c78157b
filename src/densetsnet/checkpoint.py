"""Versioned binary checkpoint container.

Layout: 4-byte magic, u32 version, u64 header length, the 32-byte SHA-256
of the header bytes, UTF-8 JSON header, then the raw payload: every entry's
float64 data little-endian, in header order.  The header carries a flat
config echo, the entry catalog (name, shape), a free-form extra dict (step
counter, RNG state, best metric), and a SHA-256 of the payload.  With both
digests, an edit or corruption anywhere in the file is caught before use,
also one that leaves the header valid JSON.  Version 1 files, which lack the
header digest, still load.  Round-trips are bit-exact: arrays are dumped and
restored byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"DTSN"
VERSION = 2
_PREAMBLE = {1: 16, 2: 48}  # bytes before the header, by version
_HEADER_KEYS = {"config": dict, "entries": list, "extra": dict, "sha256": str}


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
            f.write(hashlib.sha256(hb).digest())
            f.write(hb)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Returns (arrays, config, extra); verifies magic, version, checksums.

    A path that cannot be read and any malformed file raise DataError naming
    the path: the header is checked for its keys and types and every entry
    for a sane shape before the payload is read.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"{path}: cannot read checkpoint ({e.strerror or e})") from None
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < 8:
        raise DataError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version not in _PREAMBLE:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    start = _PREAMBLE[version]
    if len(raw) < start:
        raise DataError(f"{path}: truncated checkpoint ({len(raw)} bytes, "
                        f"version {version} header needs {start})")
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    hb = raw[start:start + hlen]
    if version >= 2 and hashlib.sha256(hb).digest() != raw[16:48]:
        raise DataError(f"{path}: checkpoint header fails its checksum")
    try:
        header = json.loads(hb.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint header: {e}") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: corrupt checkpoint header: not a JSON object")
    for key, kind in _HEADER_KEYS.items():
        if not isinstance(header.get(key), kind):
            raise DataError(f"{path}: corrupt checkpoint header: missing or malformed {key!r}")
    payload = raw[start + hlen:]
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise DataError(f"{path}: checkpoint payload fails its checksum")
    arrays = {}
    off = 0
    for ent in header["entries"]:
        name, shape = _entry(path, ent)
        n = math.prod(shape)
        if off + 8 * n > len(payload):
            raise DataError(f"{path}: payload size mismatch (entry {name!r} runs past "
                            f"the {len(payload)}-byte payload)")
        try:  # a zero-size shape can still have dims numpy cannot hold
            arr = np.frombuffer(payload, dtype="<f8", count=n, offset=off).reshape(shape)
        except ValueError as e:
            raise DataError(f"{path}: entry {name!r} has an impossible shape ({e})") from None
        arrays[name] = arr.astype(np.float64)
        off += 8 * n
    if off != len(payload):
        raise DataError(f"{path}: payload size mismatch ({len(payload)} vs {off} expected)")
    return arrays, header["config"], header["extra"]


def _entry(path, ent):
    """(name, shape) of one header entry, or DataError."""
    if isinstance(ent, dict):
        name, shape = ent.get("name"), ent.get("shape")
        if (isinstance(name, str) and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            return name, tuple(shape)
    raise DataError(f"{path}: corrupt checkpoint header: malformed entry")
