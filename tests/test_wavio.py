"""WAV persistence: quantization bounds and format policing."""

import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from densetsnet.errors import DataError
from densetsnet.wavio import SAMPLE_RATE, wav_frames, wav_read, wav_write

from helpers import FUZZ, corrupt_bytes


def test_write_read_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.integers(-32768, 32768, 5000).astype(np.float64) / 32768.0
    p = tmp_path / "x.wav"
    wav_write(p, x)
    back = wav_read(p)
    assert np.array_equal(back.samples, x)
    with wave.open(str(p), "rb") as w:
        assert w.getframerate() == SAMPLE_RATE == 16000


def test_second_generation_is_stable(tmp_path):
    # after one quantization pass the file re-encodes to itself
    rng = np.random.default_rng(1)
    p1 = tmp_path / "a.wav"
    p2 = tmp_path / "b.wav"
    wav_write(p1, rng.uniform(-0.9, 0.9, 3000))
    first = wav_read(p1)
    wav_write(p2, first.samples)
    assert np.array_equal(wav_read(p2).samples, first.samples)


def test_quantization_within_one_lsb(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.99, 0.99, 4000)
    p = tmp_path / "q.wav"
    wav_write(p, x)
    err = np.max(np.abs(wav_read(p).samples - x))
    assert err <= 0.5 / 32768.0 + 1e-12


def test_clipping_at_full_scale(tmp_path):
    p = tmp_path / "c.wav"
    wav_write(p, np.array([2.0, -2.0, 1.0, -1.0]))
    back = wav_read(p).samples
    assert back[0] == 32767 / 32768.0
    assert back[1] == -1.0
    assert back[2] == 32767 / 32768.0  # +1.0 rounds past int16 max, clips
    assert back[3] == -1.0


def test_write_rejects_bad_input(tmp_path):
    with pytest.raises(DataError):
        wav_write(tmp_path / "x.wav", np.zeros((2, 10)))
    with pytest.raises(DataError):
        wav_write(tmp_path / "x.wav", np.array([np.nan]))


def test_write_to_an_unwritable_path_names_it(tmp_path):
    for path in (tmp_path / "missing_dir" / "x.wav", tmp_path):
        with pytest.raises(DataError, match=str(path)):
            wav_write(path, np.zeros(8))


def test_read_rejects_stereo(tmp_path):
    p = tmp_path / "st.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(np.zeros(200, dtype="<i2").tobytes())
    with pytest.raises(DataError, match="mono"):
        wav_read(p)


def test_read_rejects_wrong_rate(tmp_path):
    p = tmp_path / "hz.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(44100)
        w.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(DataError, match="16000"):
        wav_read(p)


def test_read_rejects_wrong_width(tmp_path):
    p = tmp_path / "w8.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(16000)
        w.writeframes(bytes(100))
    with pytest.raises(DataError, match="16-bit"):
        wav_read(p)


def test_wav_frames_reads_the_header_after_the_same_check(tmp_path):
    p = tmp_path / "x.wav"
    wav_write(p, np.zeros(1234))
    assert wav_frames(p) == 1234
    for channels, width, rate, says in ((2, 2, 16000, "mono"), (1, 1, 16000, "16-bit"),
                                        (1, 2, 8000, "16000 Hz")):
        bad = tmp_path / f"{channels}_{width}_{rate}.wav"
        with wave.open(str(bad), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(rate)
            w.writeframes(bytes(200))
        with pytest.raises(DataError, match=says):
            wav_frames(bad)
    garbage = tmp_path / "junk.wav"
    garbage.write_bytes(b"RIFFjunkjunkjunk")
    with pytest.raises(DataError, match="not a readable WAV"):
        wav_frames(garbage)


def test_read_of_a_path_that_is_not_a_readable_file_names_it(tmp_path):
    for path in (tmp_path / "missing.wav", tmp_path):
        for read in (wav_read, wav_frames):
            with pytest.raises(DataError, match=f"{path}: cannot read"):
                read(path)


def test_read_rejects_garbage(tmp_path):
    p = tmp_path / "junk.wav"
    p.write_bytes(b"RIFFjunkjunkjunk")
    with pytest.raises(DataError):
        wav_read(p)


# ---------------------------------------------------------------------------
# corrupt files: only DataError may escape, so the CLI exits 3
# ---------------------------------------------------------------------------

def test_read_rejects_odd_byte_data_chunk(tmp_path):
    p = tmp_path / "odd.wav"
    wav_write(p, np.linspace(-0.5, 0.5, 200))
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(DataError, match="sample"):
        wav_read(p)


@pytest.fixture(scope="module")
def valid_wav(tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "x.wav"
    wav_write(p, np.sin(np.arange(24) * 0.3) * 0.5)  # header is half the file
    return p, p.read_bytes()


@FUZZ
@given(data=st.data())
def test_fuzzed_wav_raises_only_data_error(valid_wav, data):
    p, raw = valid_wav
    p.write_bytes(corrupt_bytes(data, raw))
    try:
        wav_read(p)
    except DataError:
        pass
