"""Training objectives: the consistency-magnitude loss, the learned quality
discriminator with its target labels, and the combined generator objective.

The magnitude loss is ``mag_mse(clean, consistency_project(estimate, ...))``:
the trainer pushes the estimate through synthesis-then-analysis first, so
the network is penalized for (magnitude, borrowed-phase) pairs no waveform
can realize.
The discriminator predicts a normalized quality score for a (reference,
estimate) magnitude pair; the generator can then be pulled toward estimates
the discriminator scores highly (weight lambda2, off by default).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .evaluation import SSNR_CEIL_DB, SSNR_FLOOR_DB, ssnr
from .model import norm_hardswish_2d
from .params import ParamStore


def mag_mse(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"magnitude shapes differ: {a.shape} vs {b.shape}")
    return ad.mean_all(ad.square(ad.sub(a, b)))


def generator_loss(lambda1: float, lambda2: float, l_mag: Tensor,
                   l_metric: Tensor | None = None) -> Tensor:
    out = ad.mul_const(l_mag, lambda1)
    if lambda2 > 0:
        if l_metric is None:
            raise ConfigError("lambda2 > 0 requires a metric loss term")
        out = ad.add(out, ad.mul_const(l_metric, lambda2))
    return out


class Discriminator:
    """Predicts a (0,1) quality score for a stacked (reference, estimate)
    magnitude pair.  Four stride-2 conv stages then a pooled affine.  The
    final stage skips normalization so very small maps stay usable."""

    CHANNELS = (2, 8, 16, 32, 64)

    def __init__(self, seed: int = 0):
        self.store = ParamStore(rng=np.random.default_rng(seed))
        self.stages = []
        chans = self.CHANNELS
        for i in range(len(chans) - 1):
            cin, cout = chans[i], chans[i + 1]
            w = self.store.uniform_fan_in(f"d/stage{i + 1}/w", (3, 3, cin, cout), 9 * cin)
            b = self.store.zeros(f"d/stage{i + 1}/b", (cout,))
            if i < len(chans) - 2:
                g = self.store.ones(f"d/stage{i + 1}/norm_g", (cout,))
                be = self.store.zeros(f"d/stage{i + 1}/norm_b", (cout,))
            else:
                g = be = None
            self.stages.append((w, b, g, be))
        self.head_w = self.store.uniform_fan_in("d/head/w", (chans[-1], 1), chans[-1])
        self.head_b = self.store.zeros("d/head/b", (1,))

    def forward(self, x_m: Tensor, x_hat: Tensor) -> Tensor:
        if x_m.shape != x_hat.shape or x_m.ndim != 3:
            raise ShapeError(f"discriminator wants two (B, T, F) maps, got {x_m.shape} / {x_hat.shape}")
        b, t, f = x_m.shape
        h = ad.concat_last([ad.reshape(x_m, (b, t, f, 1)), ad.reshape(x_hat, (b, t, f, 1))])
        for w, bias, g, be in self.stages:
            h = ad.conv2d(h, w, bias, stride=(2, 2))
            h = ad.hardswish(h) if g is None else norm_hardswish_2d(h, g, be)
        pooled = ad.mean(ad.mean(h, axis=1), axis=2)
        score = ad.conv2d_pointwise(pooled, self.head_w, self.head_b)
        return ad.sigmoid(ad.reshape(score, (b,)))


def discriminator_loss(disc: Discriminator, x_m: Tensor, x_consis: Tensor, q) -> Tensor:
    """Teach D that (clean, clean) scores 1 and (clean, estimate) scores q."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    b = x_m.shape[0]
    if q.shape[0] != b:
        raise ShapeError(f"need one label per batch item, got {q.shape[0]} for batch {b}")
    d_clean = disc.forward(x_m, x_m)
    d_est = disc.forward(x_m, x_consis)
    ones = Tensor(np.ones(b))
    term1 = ad.mean_all(ad.square(ad.sub(d_clean, ones)))
    term2 = ad.mean_all(ad.square(ad.sub(d_est, Tensor(q))))
    return ad.add(term1, term2)


def metric_loss(disc: Discriminator, x_m: Tensor, x_consis: Tensor) -> Tensor:
    d = disc.forward(x_m, x_consis)
    ones = Tensor(np.ones(d.shape[0]))
    return ad.mean_all(ad.square(ad.sub(d, ones)))


# The quality score in [0, 1] behind the discriminator's targets and the
# validation and report quality columns.  It stands in for PESQ, which the
# package does not implement (PESQ would map to (pesq + 0.5) / 5): segmental
# SNR through a logistic pinned so identical signals score exactly 1.

_Q_MID = 15.0
_Q_TAU = 6.0


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def proxy_quality(clean, est) -> float:
    s = ssnr(clean, est)
    lo = _logistic((SSNR_FLOOR_DB - _Q_MID) / _Q_TAU)
    hi = _logistic((SSNR_CEIL_DB - _Q_MID) / _Q_TAU)
    q = (_logistic((s - _Q_MID) / _Q_TAU) - lo) / (hi - lo)
    return float(np.clip(q, 0.0, 1.0))
