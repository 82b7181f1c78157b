"""Objectives: fixed points, scalar re-computation oracles, discriminator
behavior, and the built-in quality proxy."""

import math

import numpy as np
import pytest

import densetsnet.autodiff as ad
from densetsnet.autodiff import Tensor, backward
from densetsnet.dsp import AudioClip, StftConfig, consistency_project, stft
from densetsnet.errors import ConfigError, ShapeError
from densetsnet.losses import (Discriminator, discriminator_loss, generator_loss, mag_mse,
                               metric_loss, proxy_quality)

CFG = StftConfig()


def consistency_loss(clean_mag, est_mag, noisy_phase, out_len):
    """The training loss, as ``train`` builds it."""
    return mag_mse(clean_mag, consistency_project(est_mag, noisy_phase, CFG, out_len))


def test_mag_mse_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 5, 7))
    b = rng.standard_normal((2, 5, 7))
    got = mag_mse(Tensor(a), Tensor(b)).item()
    assert abs(got - np.mean((a - b) ** 2)) < 1e-14
    with pytest.raises(ShapeError):
        mag_mse(Tensor(a), Tensor(b[:, :4]))


def test_consistency_loss_zero_at_clean_fixed_point():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1600) * 0.3
    spec = stft(Tensor(x[None, :]), CFG)
    loss = consistency_loss(spec.mag, Tensor(spec.mag.data.copy()), spec.phase, 1600)
    assert loss.item() < 1e-12


def test_consistency_loss_penalizes_unrealizable_pairs():
    # same magnitudes but a phase borrowed from a different signal: the
    # projection moves the estimate, so the loss is strictly positive
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1600) * 0.3
    y = rng.standard_normal(1600) * 0.3
    sx = stft(Tensor(x[None, :]), CFG)
    sy = stft(Tensor(y[None, :]), CFG)
    loss = consistency_loss(sx.mag, Tensor(sx.mag.data.copy()), sy.phase, 1600)
    assert loss.item() > 1e-6


def test_consistency_loss_gradient_flows_to_estimate():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(800) * 0.3
    spec = stft(Tensor(x[None, :]), CFG)
    est = Tensor(np.abs(rng.standard_normal(spec.mag.shape)), requires_grad=True)
    loss = consistency_loss(spec.mag, est, spec.phase, 800)
    backward(loss)
    assert est.grad is not None and np.any(est.grad != 0)


def test_generator_loss_combination():
    l_mag = Tensor(np.array(0.25))
    l_met = Tensor(np.array(0.5))
    assert abs(generator_loss(2.0, 0.0, l_mag).item() - 0.5) < 1e-15
    got = generator_loss(1.0, 200.0, l_mag, l_met).item()
    assert abs(got - (0.25 + 200.0 * 0.5)) < 1e-12
    with pytest.raises(ConfigError):
        generator_loss(1.0, 0.5, l_mag, None)


def test_discriminator_output_range_and_shape():
    rng = np.random.default_rng(4)
    disc = Discriminator(seed=0)
    xm = np.abs(rng.standard_normal((3, 16, 33)))
    xh = np.abs(rng.standard_normal((3, 16, 33)))
    d = disc.forward(Tensor(xm), Tensor(xh))
    assert d.shape == (3,)
    assert np.all(d.data > 0) and np.all(d.data < 1)
    with pytest.raises(ShapeError):
        disc.forward(Tensor(xm), Tensor(xh[:2]))


def test_discriminator_batch_permutation():
    rng = np.random.default_rng(5)
    disc = Discriminator(seed=1)
    xm = np.abs(rng.standard_normal((4, 12, 20)))
    xh = np.abs(rng.standard_normal((4, 12, 20)))
    d = disc.forward(Tensor(xm), Tensor(xh)).data
    perm = np.array([2, 0, 3, 1])
    dp = disc.forward(Tensor(xm[perm]), Tensor(xh[perm])).data
    assert np.max(np.abs(dp - d[perm])) < 1e-12


def test_discriminator_loss_matches_hand_computation():
    rng = np.random.default_rng(6)
    disc = Discriminator(seed=2)
    xm = Tensor(np.abs(rng.standard_normal((2, 10, 16))))
    xc = Tensor(np.abs(rng.standard_normal((2, 10, 16))))
    q = np.array([0.3, 0.9])
    got = discriminator_loss(disc, xm, xc, q).item()
    d_cc = disc.forward(xm, xm).data
    d_ce = disc.forward(xm, xc).data
    want = np.mean((d_cc - 1.0) ** 2) + np.mean((d_ce - q) ** 2)
    assert abs(got - want) < 1e-12
    with pytest.raises(ShapeError):
        discriminator_loss(disc, xm, xc, np.array([0.5]))


def test_metric_loss_matches_hand_computation():
    rng = np.random.default_rng(7)
    disc = Discriminator(seed=3)
    xm = Tensor(np.abs(rng.standard_normal((2, 10, 16))))
    xc = Tensor(np.abs(rng.standard_normal((2, 10, 16))))
    got = metric_loss(disc, xm, xc).item()
    d = disc.forward(xm, xc).data
    assert abs(got - np.mean((d - 1.0) ** 2)) < 1e-12


def test_discriminator_gradient_flows():
    rng = np.random.default_rng(8)
    disc = Discriminator(seed=4)
    xm = Tensor(np.abs(rng.standard_normal((1, 12, 16))))
    xc = Tensor(np.abs(rng.standard_normal((1, 12, 16))), requires_grad=True)
    backward(metric_loss(disc, xm, xc))
    assert xc.grad is not None and np.any(xc.grad != 0)
    for name, t in disc.store.items():
        assert t.grad is not None, name


def test_metric_loss_perfect_scores_vanish():
    # if D already outputs 1 the metric loss is 0; check the algebra by
    # feeding the formula rather than a real network
    d = Tensor(np.ones(4))
    loss = ad.mean_all(ad.square(ad.sub(d, Tensor(np.ones(4)))))
    assert loss.item() == 0.0


def _q_oracle(s):
    # independent recomputation of the proxy mapping
    def logistic(v):
        return 1.0 / (1.0 + math.exp(-v))
    lo = logistic((-10.0 - 15.0) / 6.0)
    hi = logistic((35.0 - 15.0) / 6.0)
    q = (logistic((s - 15.0) / 6.0) - lo) / (hi - lo)
    return min(max(q, 0.0), 1.0)


def test_proxy_quality_identity_is_one():
    rng = np.random.default_rng(9)
    x = AudioClip(rng.standard_normal(8000) * 0.3)
    assert proxy_quality(x, x) == 1.0


def test_proxy_quality_zero_estimate():
    rng = np.random.default_rng(10)
    clean = AudioClip(rng.standard_normal(8000) * 0.3)
    est = AudioClip(np.zeros(8000))
    got = proxy_quality(clean, est)
    assert abs(got - _q_oracle(0.0)) < 1e-12  # zero estimate scores 0 dB per frame
    assert got < 0.1


def test_proxy_quality_monotone_in_noise_level():
    rng = np.random.default_rng(11)
    clean = rng.standard_normal(8000) * 0.3
    noise = rng.standard_normal(8000)
    prev = -1.0
    for scale in (0.3, 0.1, 0.03, 0.01, 0.003):
        q = proxy_quality(AudioClip(clean), AudioClip(clean + scale * noise))
        assert q >= prev, scale
        prev = q
    assert prev > 0.9  # nearly clean scores near the top


def test_proxy_quality_tracks_ssnr_formula():
    from densetsnet.evaluation import ssnr
    rng = np.random.default_rng(12)
    clean = AudioClip(rng.standard_normal(6000) * 0.3)
    est = AudioClip(clean.samples + 0.05 * rng.standard_normal(6000))
    s = ssnr(clean, est)
    assert abs(proxy_quality(clean, est) - _q_oracle(s)) < 1e-12


def test_lambda2_zero_keeps_graph_clear_of_discriminator():
    # with the metric weight off the generator objective must not touch D
    l_mag = Tensor(np.array(0.3), requires_grad=True)
    out = generator_loss(1.0, 0.0, l_mag, l_metric=None)
    assert out._parents == (l_mag,)
