"""Differentiable STFT front-end: framing, windowed real DFT, overlap-add
inverse, and the waveform-consistency projection.

The real DFT is an explicit cosine/sine matrix product (400x201 at the default
size), so the adjoint is literally the transposed matmul and gradient flow
through synthesis-then-analysis is exact to rounding.  Frames are centered via
reflect padding by n_fft/2; T = 1 + floor(len / hop).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _make, complex_magnitude, mul_const
from .errors import ConfigError, DataError, ShapeError


def periodic_hann(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 400
    win_length: int = 400
    hop: int = 100
    sample_rate: int = 16000
    # magnitude feature exponent for the network input; 1.0 disables it
    compression: float = 1.0
    window: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (0 < self.hop <= self.win_length <= self.n_fft):
            raise ConfigError(
                f"need 0 < hop <= win_length <= n_fft, got {self.hop}/{self.win_length}/{self.n_fft}")
        if self.n_fft % 2:
            raise ConfigError(f"n_fft must be even, got {self.n_fft}")
        if self.compression <= 0:
            raise ConfigError(f"compression exponent must be positive, got {self.compression}")
        w = self.window
        if w is None:
            w = periodic_hann(self.win_length)
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.win_length,):
            raise ConfigError(f"window length {w.shape} != win_length {self.win_length}")
        if self.win_length < self.n_fft:
            lpad = (self.n_fft - self.win_length) // 2
            w = np.pad(w, (lpad, self.n_fft - self.win_length - lpad))
        object.__setattr__(self, "window", w)
        # overlap-added squared window must be flat on interior samples,
        # otherwise per-sample normalization would color the reconstruction
        dev = cola_deviation(w, self.hop)
        if dev > 1e-10:
            raise ConfigError(f"window fails constant-overlap-add at hop {self.hop} (dev {dev:.2e})")

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    @property
    def pad(self) -> int:
        return self.n_fft // 2

    def frame_count(self, n_samples: int) -> int:
        return 1 + n_samples // self.hop

    def _key(self):
        return (self.n_fft, self.win_length, self.hop, self.window.tobytes())


def cola_deviation(window: np.ndarray, hop: int) -> float:
    """Max deviation of the overlap-added squared window from its mean,
    measured over one interior period."""
    n = window.shape[0]
    reps = 2 * (n // hop) + 4
    sq = np.broadcast_to(window * window, (1, reps, n))
    interior = _overlap_add(sq, hop, n + reps * hop)[0, n:reps * hop]
    if interior.size == 0:
        raise ConfigError("window/hop combination leaves no interior samples for the COLA check")
    return float(np.max(np.abs(interior - interior.mean())))


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError(f"clip must be mono 1-d, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("clip contains non-finite samples")

    def __len__(self):
        return self.samples.shape[0]


@dataclass
class ComplexSpec:
    """Magnitude/phase view of a one-sided spectrum, (B, T, F) each."""
    mag: Tensor
    phase: Tensor

    def __post_init__(self):
        if self.mag.shape != self.phase.shape:
            raise ShapeError(f"mag {self.mag.shape} vs phase {self.phase.shape}")
        if np.any(self.mag.data < 0):
            raise DataError("magnitudes must be non-negative")


def wrap_phase(p: np.ndarray) -> np.ndarray:
    """Wrap radians into (-pi, pi]."""
    out = np.mod(p + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


# Per-config basis cache: cosine/sine analysis matrices and inverse weights.
# Nothing is kept per signal length.
_BASIS: dict = {}


def _basis(cfg: StftConfig):
    key = cfg._key()
    hit = _BASIS.get(key)
    if hit is None:
        n, f = cfg.n_fft, cfg.n_bins
        grid = 2.0 * np.pi * np.outer(np.arange(n), np.arange(f)) / n
        cos = np.cos(grid)
        sin = np.sin(grid)
        rho = np.full(f, 2.0)
        rho[0] = 1.0
        rho[-1] = 1.0
        hit = (cos, sin, cos * rho / n, sin * rho / n)
        _BASIS[key] = hit
    return hit


def _frame_index(t: int, hop: int, n: int):
    return np.arange(t)[:, None] * hop + np.arange(n)[None, :]


def _overlap_add(frames: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    """Sum frames (B, T, N) placed ``hop`` apart into (B, out_len)."""
    b, t, n = frames.shape
    # zero-extended to a width of g hops, the frames r, r + g, r + 2g, ...
    # tile without overlap, so each residue r is one strided add
    g = -(-n // hop)
    width = g * hop
    if width != n:
        frames = np.pad(frames, ((0, 0), (0, 0), (0, width - n)))
    out = np.zeros((b, max(out_len, (t - 1) * hop + width)), dtype=frames.dtype)
    for r in range(min(g, t)):
        sub = frames[:, r::g, :]
        tr = sub.shape[1]
        out[:, r * hop: r * hop + tr * width] += sub.reshape(b, tr * width)
    return out[:, :out_len]


def _check_len(n_samples: int, cfg: StftConfig):
    if n_samples < cfg.win_length:
        raise DataError(f"clip of {n_samples} samples is shorter than one window ({cfg.win_length})")


def stft_pair(x: Tensor, cfg: StftConfig):
    """Windowed real DFT of (B, L) -> re, im of shape (B, T, F)."""
    if x.ndim != 2:
        raise ShapeError(f"stft input must be (B, L), got rank {x.ndim}")
    b, length = x.shape
    _check_len(length, cfg)
    pad = cfg.pad
    hop = cfg.hop
    n = cfg.n_fft
    t = cfg.frame_count(length)
    cos, sin, _, _ = _basis(cfg)
    w = cfg.window

    xp = np.pad(x.data, ((0, 0), (pad, pad)), mode="reflect")
    idx = _frame_index(t, hop, n)
    fw = xp[:, idx] * w
    flat = fw.reshape(b * t, n)
    re = (flat @ cos).reshape(b, t, cfg.n_bins)
    im = -(flat @ sin).reshape(b, t, cfg.n_bins)

    def fold_pad(gxp):
        gx = gxp[:, pad:pad + length].copy()
        gx[:, 1:pad + 1] += gxp[:, :pad][:, ::-1]
        gx[:, length - 1 - pad:length - 1] += gxp[:, pad + length:][:, ::-1]
        return gx

    def bwd_through(basis, window):
        def bwd(g):
            gfw = (g.reshape(b * t, -1) @ basis.T).reshape(b, t, n) * window
            return (fold_pad(_overlap_add(gfw, hop, length + 2 * pad)),)
        return bwd

    # im = -(frames @ sin), so its backward negates the window: an exact sign flip
    return _make(re, (x,), bwd_through(cos, w)), _make(im, (x,), bwd_through(sin, -w))


def istft_pair(re: Tensor, im: Tensor, cfg: StftConfig, out_len: int) -> Tensor:
    """Overlap-add synthesis back to (B, out_len), window-sum normalized."""
    if re.shape != im.shape or re.ndim != 3:
        raise ShapeError(f"istft inputs must match as (B, T, F), got {re.shape} and {im.shape}")
    b, t, f = re.shape
    if f != cfg.n_bins:
        raise ShapeError(f"istft got F={f}, config expects {cfg.n_bins}")
    if t != cfg.frame_count(out_len):
        raise ShapeError(f"istft got T={t} frames but out_len {out_len} implies {cfg.frame_count(out_len)}")
    _check_len(out_len, cfg)
    pad = cfg.pad
    hop = cfg.hop
    n = cfg.n_fft
    _, _, cos_inv, sin_inv = _basis(cfg)
    w = cfg.window
    padded = out_len + 2 * pad
    sq = np.broadcast_to(w * w, (1, t, n))
    norm = np.maximum(_overlap_add(sq, hop, padded)[0, pad:pad + out_len], 1e-10)

    frames = (re.data.reshape(b * t, f) @ cos_inv.T
              - im.data.reshape(b * t, f) @ sin_inv.T).reshape(b, t, n)
    acc = _overlap_add(frames * w, hop, padded)
    out = acc[:, pad:pad + out_len] / norm

    idx = _frame_index(t, hop, n)

    def bwd(g):
        gacc = np.zeros((b, padded), dtype=g.dtype)
        gacc[:, pad:pad + out_len] = g / norm
        gfw = gacc[:, idx] * w
        flat = gfw.reshape(b * t, n)
        return (flat @ cos_inv).reshape(b, t, f), -(flat @ sin_inv).reshape(b, t, f)

    return _make(out, (re, im), bwd)


def stft(x, cfg: StftConfig) -> ComplexSpec:
    """Full analysis to a magnitude/phase pair; phase carries no gradient."""
    if isinstance(x, AudioClip):
        x = Tensor(x.samples[None, :])
    re, im = stft_pair(x, cfg)
    mag = complex_magnitude(re, im)
    phase = Tensor(wrap_phase(np.arctan2(im.data, re.data)))
    return ComplexSpec(mag=mag, phase=phase)


def istft(spec: ComplexSpec, cfg: StftConfig, out_len: int) -> Tensor:
    """Synthesis from a magnitude/phase pair; differentiable w.r.t. the magnitude."""
    phase = spec.phase.data
    return istft_pair(mul_const(spec.mag, np.cos(phase)), mul_const(spec.mag, np.sin(phase)),
                      cfg, out_len)


def consistency_project(est_mag: Tensor, noisy_phase, cfg: StftConfig, out_len: int) -> Tensor:
    """Magnitude after synthesis-then-analysis with the given (fixed) phase.

    The result is the closest realizable magnitude: spectra that came from an
    actual waveform pass through unchanged, anything else gets pulled onto
    that set.  Differentiable w.r.t. est_mag only.
    """
    if not isinstance(noisy_phase, Tensor):
        noisy_phase = Tensor(noisy_phase)
    x = istft(ComplexSpec(est_mag, noisy_phase), cfg, out_len)
    return complex_magnitude(*stft_pair(x, cfg))


def power_compress(mag: Tensor, exponent: float) -> Tensor:
    """Elementwise mag**p feature compression; gradient clamped at zero input."""
    if exponent == 1.0:
        return mag
    d = np.maximum(mag.data, 0.0)
    out = d ** exponent

    def bwd(g):
        safe = np.maximum(d, 1e-12)
        slope = np.where(d > 1e-12, exponent * safe ** (exponent - 1.0), 0.0)
        return (g * slope,)
    return _make(out, (mag,), bwd)
