"""WAV persistence: 16-bit PCM mono at SAMPLE_RATE (16 kHz), nothing else.

Floats map to ints as round(x * 32768) clipped to the int16 range, and back
as i / 32768, so write-then-read of a file we produced is bit-exact and
quantization error against a float source stays within one LSB.
"""

from __future__ import annotations

import wave

import numpy as np

from .dsp import AudioClip
from .errors import DataError

# The one sample rate the package reads, writes, synthesizes and enhances at.
SAMPLE_RATE = 16000
_SCALE = 32768.0


def _read(path, data: bool):
    """(frame count, the data chunk's bytes or None) of a WAV file whose
    header says mono, 16-bit PCM at SAMPLE_RATE."""
    try:
        with wave.open(str(path), "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            n = w.getnframes()
            if channels != 1:
                raise DataError(f"{path}: expected mono, got {channels} channels; downmix first")
            if width != 2:
                raise DataError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
            if rate != SAMPLE_RATE:
                raise DataError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz; "
                                "resample first")
            return n, (w.readframes(n) if data else None)
    except (wave.Error, EOFError) as e:
        raise DataError(f"{path}: not a readable WAV file ({e})") from None
    except RuntimeError:  # wave's bare error for a chunk seek past its RIFF chunk
        raise DataError(f"{path}: not a readable WAV file (a chunk size runs past "
                        "its RIFF chunk)") from None
    except OSError as e:  # a directory, a file without read permission, ...
        raise DataError(f"{path}: cannot read ({e.strerror or e})") from None


def wav_read(path) -> AudioClip:
    _, raw = _read(path, data=True)
    if len(raw) % 2:
        raise DataError(f"{path}: data chunk ends mid-sample ({len(raw)} bytes); "
                        "the file is truncated")
    ints = np.frombuffer(raw, dtype="<i2")
    return AudioClip(ints.astype(np.float64) / _SCALE)


def wav_frames(path) -> int:
    """Sample count of a WAV file, read from its header alone after the
    same format check as ``wav_read``."""
    return _read(path, data=False)[0]


def wav_write(path, samples):
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise DataError(f"can only write mono 1-d signals, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise DataError("refusing to write non-finite samples")
    ints = np.clip(np.round(samples * _SCALE), -32768, 32767).astype("<i2")
    try:
        with open(path, "wb") as f, wave.open(f, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(SAMPLE_RATE)
            w.writeframes(ints.tobytes())
    except OSError as e:
        raise DataError(f"{path}: cannot write ({e.strerror or e})") from None
