"""Checkpoint container: bit-exact round trips and corruption detection."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from densetsnet import checkpoint
from densetsnet.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from densetsnet.errors import DataError

from helpers import FUZZ, corrupt_bytes


def _sample_arrays(rng):
    return {
        "p/a": rng.standard_normal((3, 4)),
        "p/b": rng.standard_normal(7),
        "m/a": rng.standard_normal((3, 4)),
        "scalar": np.array(3.75),
    }


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = _sample_arrays(rng)
    config = {"depth": 4, "variant": "dense_ts", "lr": 5e-4}
    extra = {"step": 123, "rng_state": {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}}}
    p = tmp_path / "c.dtsn"
    save_checkpoint(p, arrays, config, extra)
    back, cfg2, extra2 = load_checkpoint(p)
    assert set(back) == set(arrays)
    for k in arrays:
        assert back[k].tobytes() == np.asarray(arrays[k], dtype="<f8").tobytes(), k
    assert cfg2 == config
    assert extra2["step"] == 123


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    arrays = _sample_arrays(rng)
    p1 = tmp_path / "a.dtsn"
    p2 = tmp_path / "b.dtsn"
    save_checkpoint(p1, arrays, {"k": 1}, {"step": 5})
    save_checkpoint(p2, arrays, {"k": 1}, {"step": 5})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.dtsn"
    p.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(p)


def test_bad_version_rejected(tmp_path):
    p = tmp_path / "v.dtsn"
    p.write_bytes(MAGIC + struct.pack("<I", VERSION + 9) + struct.pack("<Q", 2) + b"{}")
    with pytest.raises(DataError, match="version"):
        load_checkpoint(p)


def test_flipped_payload_byte_caught(tmp_path):
    rng = np.random.default_rng(2)
    p = tmp_path / "c.dtsn"
    save_checkpoint(p, _sample_arrays(rng), {}, {})
    raw = bytearray(p.read_bytes())
    raw[-3] ^= 0x40
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum"):
        load_checkpoint(p)


def test_truncated_payload_caught(tmp_path):
    rng = np.random.default_rng(3)
    p = tmp_path / "t.dtsn"
    save_checkpoint(p, _sample_arrays(rng), {}, {})
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        load_checkpoint(p)


def test_scalar_and_empty_shapes(tmp_path):
    p = tmp_path / "s.dtsn"
    save_checkpoint(p, {"x": np.array(1.5), "y": np.zeros((0, 3))}, {}, {})
    back, _, _ = load_checkpoint(p)
    assert back["x"].shape == () and float(back["x"]) == 1.5
    assert back["y"].shape == (0, 3)


def test_edited_header_digit_is_data_error(tmp_path):
    """A header edit that stays valid JSON must not load as a different config."""
    p = tmp_path / "c.dtsn"
    save_checkpoint(p, _sample_arrays(np.random.default_rng(6)), {"depth": 4}, {"step": 1})
    raw = p.read_bytes()
    assert raw.count(b'"depth": 4') == 1
    p.write_bytes(raw.replace(b'"depth": 4', b'"depth": 7'))
    with pytest.raises(DataError, match="header"):
        load_checkpoint(p)


def test_version_1_file_still_loads(tmp_path):
    """Version 1 has no header digest: magic, version, header length, header, payload."""
    arrays = _sample_arrays(np.random.default_rng(7))
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays.values())
    header = {"config": {"depth": 4}, "extra": {"step": 3},
              "entries": [{"name": k, "shape": list(np.shape(a))} for k, a in arrays.items()],
              "sha256": hashlib.sha256(payload).hexdigest()}
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    p = tmp_path / "v1.dtsn"
    p.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(hb)) + hb + payload)
    back, cfg, extra = load_checkpoint(p)
    assert cfg == {"depth": 4} and extra == {"step": 3}
    for k, a in arrays.items():
        assert back[k].tobytes() == np.asarray(a, dtype="<f8").tobytes(), k


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    good = _sample_arrays(rng)
    p = tmp_path / "c.dtsn"
    save_checkpoint(p, good, {"k": 1}, {"step": 1})
    before = p.read_bytes()

    def crash(fd):
        raise OSError("disk went away")
    monkeypatch.setattr(checkpoint.os, "fsync", crash)
    with pytest.raises(OSError, match="disk went away"):
        save_checkpoint(p, _sample_arrays(rng), {"k": 2}, {"step": 2})

    assert p.read_bytes() == before
    back, cfg, extra = load_checkpoint(p)
    assert cfg == {"k": 1} and extra["step"] == 1
    assert [q.name for q in tmp_path.iterdir()] == ["c.dtsn"]


# ---------------------------------------------------------------------------
# corrupt files: only DataError may escape, so the CLI exits 3
# ---------------------------------------------------------------------------

def _write_raw(p, header, payload=b""):
    hb = json.dumps(header).encode("utf-8")
    p.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(hb))
                  + hashlib.sha256(hb).digest() + hb + payload)


def _header(payload, entries):
    return {"config": {}, "entries": entries, "extra": {},
            "sha256": hashlib.sha256(payload).hexdigest()}


def test_truncated_header_is_data_error(tmp_path):
    p = tmp_path / "c.dtsn"
    save_checkpoint(p, _sample_arrays(np.random.default_rng(4)), {}, {})
    p.write_bytes(p.read_bytes()[:10])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(p)


def test_header_not_a_dict_is_data_error(tmp_path):
    p = tmp_path / "c.dtsn"
    _write_raw(p, [1, 2])
    with pytest.raises(DataError, match="header"):
        load_checkpoint(p)


def test_header_without_checksum_is_data_error(tmp_path):
    p = tmp_path / "c.dtsn"
    header = _header(b"", [])
    del header["sha256"]
    _write_raw(p, header)
    with pytest.raises(DataError, match="sha256"):
        load_checkpoint(p)


def test_entry_larger_than_payload_is_data_error(tmp_path):
    p = tmp_path / "c.dtsn"
    payload = np.arange(2.0).astype("<f8").tobytes()
    _write_raw(p, _header(payload, [{"name": "x", "shape": [100]}]), payload)
    with pytest.raises(DataError, match="payload"):
        load_checkpoint(p)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "c.dtsn"
    save_checkpoint(p, _sample_arrays(np.random.default_rng(5)), {"depth": 4, "lr": 5e-4},
                    {"step": 12, "best_val": None})
    return p, p.read_bytes()


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_raises_only_data_error(valid_checkpoint, data):
    p, raw = valid_checkpoint
    p.write_bytes(corrupt_bytes(data, raw))
    try:
        load_checkpoint(p)
    except DataError:
        pass
