"""STFT front-end: analysis against np.fft, perfect reconstruction, exact
adjoints, and the consistency projection."""

import numpy as np
import pytest

import densetsnet.autodiff as ad
from densetsnet.autodiff import Tensor, backward, grad_check
from densetsnet.dsp import (AudioClip, ComplexSpec, StftConfig, cola_deviation,
                            consistency_project, istft, istft_pair,
                            periodic_hann, power_compress,
                            stft, stft_pair, wrap_phase)
from densetsnet.errors import ConfigError, DataError, ShapeError

from helpers import istft_ref, snr_db, stft_ref

CFG = StftConfig()


def test_periodic_hann_formula():
    w = periodic_hann(8)
    want = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8)
    assert np.allclose(w, want)
    assert w[0] == 0.0
    # periodic variant: no endpoint duplication, w[n/2] is the peak
    assert w[4] == 1.0


def test_default_window_satisfies_cola():
    assert cola_deviation(CFG.window, CFG.hop) < 1e-10


def test_non_cola_window_rejected():
    bad = np.ones(400)
    bad[0] = 0.3  # breaks the flat overlap
    with pytest.raises(ConfigError):
        StftConfig(window=bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        StftConfig(hop=0)
    with pytest.raises(ConfigError):
        StftConfig(hop=500)
    with pytest.raises(ConfigError):
        StftConfig(n_fft=401, win_length=401)
    with pytest.raises(ConfigError):
        StftConfig(compression=0.0)


def test_stft_matches_fft_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1600) * 0.3
    re, im = stft_pair(Tensor(x[None, :]), CFG)
    want = stft_ref(x, CFG.n_fft, CFG.hop, CFG.window)
    assert re.shape == (1, 17, 201)
    assert np.max(np.abs(re.data[0] - want.real)) < 1e-10
    assert np.max(np.abs(im.data[0] - want.imag)) < 1e-10


def test_istft_matches_fft_oracle():
    rng = np.random.default_rng(1)
    spec = stft_ref(rng.standard_normal(1200), CFG.n_fft, CFG.hop, CFG.window)
    re = Tensor(spec.real[None])
    im = Tensor(spec.imag[None])
    got = istft_pair(re, im, CFG, 1200).data[0]
    want = istft_ref(spec, 1200, CFG.n_fft, CFG.hop, CFG.window)
    assert np.max(np.abs(got - want)) < 1e-10


def test_round_trip_many_seeds():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(CFG.win_length, 32000))
        x = rng.standard_normal(n) * 0.3
        re, im = stft_pair(Tensor(x[None, :]), CFG)
        y = istft_pair(re, im, CFG, n).data[0]
        assert snr_db(x, y) > 60.0, seed


def test_round_trip_non_multiple_length():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1234)
    re, im = stft_pair(Tensor(x[None, :]), CFG)
    y = istft_pair(re, im, CFG, 1234).data[0]
    assert y.shape == (1234,)
    assert snr_db(x, y) > 60.0


# n_fft is not a multiple of hop here, so overlap-add zero-extends each
# frame to one before tiling
CFG_512 = StftConfig(n_fft=512, win_length=400, hop=100)


def test_non_multiple_nfft_matches_fft_oracles_and_round_trips():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(1937) * 0.3
    re, im = stft_pair(Tensor(x[None, :]), CFG_512)
    want = stft_ref(x, CFG_512.n_fft, CFG_512.hop, CFG_512.window)
    assert re.shape == (1, 20, 257)
    assert np.max(np.abs(re.data[0] - want.real)) < 1e-10
    assert np.max(np.abs(im.data[0] - want.imag)) < 1e-10
    spec = stft_ref(rng.standard_normal(1937), CFG_512.n_fft, CFG_512.hop, CFG_512.window)
    got = istft_pair(Tensor(spec.real[None]), Tensor(spec.imag[None]), CFG_512, 1937).data[0]
    want = istft_ref(spec, 1937, CFG_512.n_fft, CFG_512.hop, CFG_512.window)
    assert np.max(np.abs(got - want)) < 1e-10
    y = istft_pair(re, im, CFG_512, 1937).data[0]
    assert snr_db(x, y) > 60.0


def test_non_multiple_nfft_adjoints():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((2, 1111)), requires_grad=True)
    re, im = stft_pair(x, CFG_512)
    y = istft_pair(re, im, CFG_512, 1111)
    probe = rng.standard_normal(y.shape)
    backward(ad.sum_all(ad.mul_const(y, probe)))
    # synthesis after analysis is the identity on waveforms, and so is its adjoint
    assert np.max(np.abs(y.data - x.data)) < 1e-10
    assert np.max(np.abs(x.grad - probe)) < 1e-10


def test_istft_keeps_no_per_length_state():
    """Nothing allocated in dsp.py outlives an istft call once the
    per-config basis is built: no cache grows with each new clip length."""
    import tracemalloc

    import densetsnet.dsp as dsp

    def synth(n):
        spec = Tensor(np.zeros((1, CFG.frame_count(n), CFG.n_bins)))
        istft_pair(spec, spec, CFG, n)
    synth(CFG.win_length)  # builds the basis
    tracemalloc.start()
    try:
        for n in (1600, 2345, 4000, 16001):
            synth(n)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live = snap.filter_traces([tracemalloc.Filter(True, dsp.__file__)]).statistics("lineno")
    # numpy may hold a freed block of a few bytes in its small-block cache;
    # one cached window sum would be 8 * (1600 + 400) bytes
    assert sum(stat.size for stat in live) < 1024, live


def test_sine_concentrates_on_expected_bin():
    # 400 Hz at 16 kHz with a 400-point dft: bin = 400 * 400 / 16000 = 10
    t = np.arange(8000) / 16000
    x = np.sin(2 * np.pi * 400 * t)
    spec = stft(Tensor(x[None, :]), CFG)
    mid = spec.mag.data[0, 40]
    assert int(np.argmax(mid)) == 10


def test_stft_rejects_short_and_wrong_rank():
    with pytest.raises(DataError):
        stft_pair(Tensor(np.zeros((1, 100))), CFG)
    with pytest.raises(ShapeError):
        stft_pair(Tensor(np.zeros(800)), CFG)


def test_istft_frame_count_contract():
    re = Tensor(np.zeros((1, 9, 201)))
    with pytest.raises(ShapeError):
        istft_pair(re, re, CFG, 1600)  # 1600 samples implies 17 frames


def test_adjoint_identity_stft():
    # <A x, y> == <x, A^T y>; A^T is what backward applies
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 900)), requires_grad=True)
    re, im = stft_pair(x, CFG)
    yr = rng.standard_normal(re.shape)
    yi = rng.standard_normal(im.shape)
    lhs = float((re.data * yr).sum() + (im.data * yi).sum())
    loss = ad.add(ad.sum_all(ad.mul_const(re, yr)), ad.sum_all(ad.mul_const(im, yi)))
    backward(loss)
    rhs = float((x.data * x.grad).sum())
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-10


def test_adjoint_identity_istft():
    rng = np.random.default_rng(4)
    t = CFG.frame_count(900)
    re = Tensor(rng.standard_normal((1, t, 201)), requires_grad=True)
    im = Tensor(rng.standard_normal((1, t, 201)), requires_grad=True)
    y = istft_pair(re, im, CFG, 900)
    probe = rng.standard_normal(y.shape)
    backward(ad.sum_all(ad.mul_const(y, probe)))
    lhs = float((y.data * probe).sum())
    rhs = float((re.data * re.grad).sum() + (im.data * im.grad).sum())
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-10


def test_frame_parseval_against_fft():
    # one-sided dft energy bookkeeping, checked through the analysis matrices
    rng = np.random.default_rng(5)
    frame = rng.standard_normal(CFG.n_fft)
    spec = np.fft.rfft(frame)
    rho = np.full(CFG.n_bins, 2.0)
    rho[0] = rho[-1] = 1.0
    energy_spec = float((rho * np.abs(spec) ** 2).sum()) / CFG.n_fft
    assert abs(energy_spec - float((frame ** 2).sum())) < 1e-8


def test_wrap_phase_range_and_branch():
    p = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi, 0.1])
    w = wrap_phase(p)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert w[1] == np.pi and w[2] == np.pi
    assert abs(w[3] - np.pi) < 1e-12
    assert abs(w[5] - 0.1) < 1e-15


def test_projection_fixed_point_on_genuine_spectra():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(1600) * 0.3
    spec = stft(Tensor(x[None, :]), CFG)
    proj = consistency_project(spec.mag, spec.phase, CFG, 1600)
    assert np.max(np.abs(proj.data - spec.mag.data)) < 1e-8


def test_projection_idempotent_with_rederived_phase():
    # one synthesis/analysis pass lands on a realizable spectrum; projecting
    # that spectrum (with its own phase) must change nothing
    rng = np.random.default_rng(7)
    mag = np.abs(rng.standard_normal((1, 17, 201)))  # not a genuine spectrum
    phase = rng.uniform(-np.pi, np.pi, (1, 17, 201))
    re = Tensor(mag * np.cos(phase))
    im = Tensor(mag * np.sin(phase))
    x1 = istft_pair(re, im, CFG, 1600)
    re1, im1 = stft_pair(x1, CFG)
    mag1 = np.hypot(re1.data, im1.data)
    phase1 = np.arctan2(im1.data, re1.data)
    p = consistency_project(Tensor(mag1), phase1, CFG, 1600)
    assert np.max(np.abs(p.data - mag1)) < 1e-8


def test_projection_contracts_arbitrary_magnitudes():
    rng = np.random.default_rng(8)
    mag = np.abs(rng.standard_normal((1, 17, 201)))
    phase = rng.uniform(-np.pi, np.pi, (1, 17, 201))
    p1 = consistency_project(Tensor(mag), phase, CFG, 1600)
    assert np.max(np.abs(p1.data - mag)) > 1e-3  # the projection actually moved it


def test_projection_gradient():
    rng = np.random.default_rng(9)
    mag = Tensor(np.abs(rng.standard_normal((1, 5, 201))) + 0.1, requires_grad=True)
    phase = rng.uniform(-np.pi, np.pi, (1, 5, 201))
    target = np.abs(rng.standard_normal((1, 5, 201)))

    def f():
        p = consistency_project(mag, phase, CFG, 400)
        return ad.mean_all(ad.square(ad.sub(p, Tensor(target))))

    # spot-check a handful of coordinates by central differences
    backward(f())
    g = mag.grad.copy()
    idxs = [(0, 0, 10), (0, 2, 100), (0, 4, 200), (0, 3, 55)]
    for idx in idxs:
        orig = mag.data[idx]
        mag.data[idx] = orig + 1e-5
        fp = f().item()
        mag.data[idx] = orig - 1e-5
        fm = f().item()
        mag.data[idx] = orig
        fd = (fp - fm) / 2e-5
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1.0) < 1e-4, idx


def test_projection_rejects_negative_magnitude():
    mag = Tensor(np.full((1, 5, 201), -0.1))
    with pytest.raises(DataError):
        consistency_project(mag, np.zeros((1, 5, 201)), CFG, 400)


def test_projection_phase_shape_contract():
    mag = Tensor(np.zeros((1, 5, 201)))
    with pytest.raises(ShapeError):
        consistency_project(mag, np.zeros((1, 4, 201)), CFG, 400)


def test_power_compress_identity_and_grad():
    rng = np.random.default_rng(10)
    mag = Tensor(np.abs(rng.standard_normal((2, 3, 5))), requires_grad=True)
    assert power_compress(mag, 1.0) is mag
    out = power_compress(mag, 0.5)
    assert np.allclose(out.data, np.sqrt(mag.data))
    z = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
    backward(ad.sum_all(power_compress(z, 0.5)))
    assert np.all(np.isfinite(z.grad))  # clamped, not infinite


def test_compression_exponent_grad_check():
    rng = np.random.default_rng(11)
    mag = Tensor(np.abs(rng.standard_normal((1, 4, 6))) + 0.2, requires_grad=True)
    assert grad_check(lambda: ad.mean_all(power_compress(mag, 0.3)), [mag]) < 1e-6


def test_audio_clip_validation():
    with pytest.raises(DataError):
        AudioClip(np.zeros((2, 100)))
    with pytest.raises(DataError):
        AudioClip(np.array([1.0, np.nan]))


def test_complex_spec_validation():
    with pytest.raises(DataError):
        ComplexSpec(Tensor(np.full((1, 2, 3), -1.0)), Tensor(np.zeros((1, 2, 3))))
    with pytest.raises(ShapeError):
        ComplexSpec(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 4))))


def test_istft_of_stft_object_api():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(2000) * 0.2
    spec = stft(Tensor(x[None, :]), CFG)
    y = istft(spec, CFG, 2000).data[0]
    assert snr_db(x, y) > 60.0
