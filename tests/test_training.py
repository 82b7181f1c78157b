"""Optimizer, dataset, batching, and training-loop tests.

The AdamW oracle lives in helpers.adamw_ref (plain-float recurrence).  Train
loops here run a shrunken model (dense_channel=2, depth=1) on short segments
so the whole module stays in the seconds range.
"""

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from densetsnet import (
    AdamW,
    ConfigError,
    DataError,
    DatasetSpec,
    ModelConfig,
    NumericalError,
    PairedDataset,
    StftConfig,
    Tensor,
    TrainConfig,
    load_checkpoint,
    make_batch,
    save_checkpoint,
    synth_dataset,
    train,
    wav_read,
    wav_write,
)
from densetsnet import losses as losses_mod
from densetsnet import model as model_mod
from densetsnet import training
from densetsnet.params import ParamStore
from densetsnet.training import (CURVE_COLUMNS, _paired_segment,
                                 config_echo, configs_from_echo)

from helpers import (adamw_ref, mvgb_forward_composed, norm_hardswish_2d_composed,
                     read_curves_csv, stft_ref)

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"batch_size": 0},
    {"lr": 0.0},
    {"max_steps": 0},
    {"beta1": 1.0},
    {"beta2": -0.1},
    {"eval_every": 0},
    {"checkpoint_every": 0},
    {"segment_samples": 0},
    {"valid_fraction": 1.0},
    {"lambda1": 0.0, "lambda2": 0.0},
    {"lambda1": -1.0},
    {"lambda2": -0.5},
])
def test_train_config_rejects(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw)


def test_train_config_defaults_valid():
    cfg = TrainConfig()
    assert cfg.lambda1 == 1.0 and cfg.lambda2 == 0.0
    TrainConfig(lambda1=0.0, lambda2=1.0)  # one zero weight is fine


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def _store_from(arrays):
    store = ParamStore()
    for name, a in arrays.items():
        store.add(name, np.array(a))
    return store


def test_adamw_first_step_closed_form():
    # t=1 bias correction cancels the (1-b) factors exactly, so the update
    # is g/(|g|+eps) regardless of the betas.
    p0 = np.array([0.5, -1.5, 2.0])
    g = np.array([0.3, -0.2, 0.0])
    store = _store_from({"w": p0})
    store["w"].grad = g.copy()
    lr, wd, eps = 1e-3, 0.01, 1e-8
    opt = AdamW(store, TrainConfig(lr=lr, beta1=0.8, beta2=0.99, eps=eps, weight_decay=wd))
    opt.step()
    expected = p0 - lr * (g / (np.abs(g) + eps) + wd * p0)
    np.testing.assert_allclose(store["w"].data, expected, rtol=1e-14)
    assert opt.t == 1


def test_adamw_matches_reference_over_steps():
    rng = np.random.default_rng(11)
    shapes = {"a/w": (3, 2), "a/b": (4,)}
    init = {k: rng.standard_normal(s) for k, s in shapes.items()}
    store = _store_from(init)
    lr, b1, b2, eps, wd = 3e-3, 0.85, 0.97, 1e-8, 0.02
    opt = AdamW(store, TrainConfig(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd))

    ref_p = {k: v.copy() for k, v in init.items()}
    ref_m = {k: np.zeros_like(v) for k, v in init.items()}
    ref_v = {k: np.zeros_like(v) for k, v in init.items()}
    for t in range(1, 8):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        for k in shapes:
            store[k].grad = grads[k].copy()
        opt.step()
        for k in shapes:
            for idx in np.ndindex(shapes[k]):
                p, m, v = adamw_ref(ref_p[k][idx], grads[k][idx],
                                    ref_m[k][idx], ref_v[k][idx],
                                    t, lr, b1, b2, eps, wd)
                ref_p[k][idx] = p
                ref_m[k][idx] = m
                ref_v[k][idx] = v
        for k in shapes:
            np.testing.assert_allclose(store[k].data, ref_p[k], rtol=1e-12)
            np.testing.assert_allclose(opt.m[k], ref_m[k], rtol=1e-12)
            np.testing.assert_allclose(opt.v[k], ref_v[k], rtol=1e-12)


def test_adamw_missing_grad_still_decays():
    p0 = np.array([1.0, -2.0, 0.25])
    store = _store_from({"w": p0})
    store["w"].grad = None
    lr, wd = 1e-2, 0.1
    opt = AdamW(store, TrainConfig(lr=lr, weight_decay=wd))
    opt.step()
    np.testing.assert_allclose(store["w"].data, p0 - lr * wd * p0, rtol=1e-15)
    assert np.all(opt.m["w"] == 0.0) and np.all(opt.v["w"] == 0.0)


def test_adamw_state_round_trip():
    rng = np.random.default_rng(7)
    init = {"x": rng.standard_normal((2, 3))}
    store_a = _store_from(init)
    store_b = _store_from(init)
    opt_a = AdamW(store_a, TrainConfig(lr=1e-3))
    opt_b = AdamW(store_b, TrainConfig(lr=1e-3))
    grads = [rng.standard_normal((2, 3)) for _ in range(5)]
    for g in grads[:3]:
        store_a["x"].grad = g.copy()
        opt_a.step()
    st = {k: v.copy() for k, v in opt_a.state_arrays("o").items()}
    assert set(st) == {"om/x", "ov/x"}

    # transplant params + moments + t into the fresh optimizer
    store_b["x"].data = store_a["x"].data.copy()
    opt_b.load_state(st, "o", opt_a.t)
    assert opt_b.t == 3
    for g in grads[3:]:
        store_a["x"].grad = g.copy()
        store_b["x"].grad = g.copy()
        opt_a.step()
        opt_b.step()
    np.testing.assert_array_equal(store_a["x"].data, store_b["x"].data)


# ---------------------------------------------------------------------------
# segments and batches
# ---------------------------------------------------------------------------

def test_paired_segment_offset_range_and_coverage():
    rng = np.random.default_rng(0)
    c = np.arange(30.0)
    n = np.arange(30.0) + 100.0
    seen = set()
    for _ in range(500):
        cs, ns, off = _paired_segment(c, n, 21, rng)
        assert 0 <= off <= 9
        assert cs[0] == off and ns[0] == off + 100.0
        assert cs.shape == (21,)
        seen.add(off)
    assert seen == set(range(10))


def test_paired_segment_none_rng_pad_and_exact():
    c = np.arange(5.0)
    n = np.arange(5.0) * 2
    cs, ns, off = _paired_segment(c, n, 3, None)
    assert off == 0 and np.array_equal(cs, c[:3])

    cs, ns, off = _paired_segment(c, n, 8, np.random.default_rng(0))
    assert off == 0
    assert np.array_equal(cs, np.pad(c, (0, 3)))
    assert np.array_equal(ns, np.pad(n, (0, 3)))

    cs, ns, off = _paired_segment(c, n, 5, np.random.default_rng(0))
    assert off == 0 and np.array_equal(cs, c) and np.array_equal(ns, n)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    synth_dataset(4, seed=0, out_dir=d, duration_s=1.0)
    return d


@pytest.fixture(scope="module")
def dataset(synth_dir):
    return PairedDataset(DatasetSpec(str(synth_dir / "clean"), str(synth_dir / "noisy")))


def test_make_batch_shapes_ids_and_determinism(dataset):
    cfg = StftConfig()
    b = make_batch(dataset, np.random.default_rng(4), 3, 2000, cfg)
    t_frames = 1 + 2000 // cfg.hop
    assert b.noisy_mag.data.shape == (3, t_frames, 201)
    assert b.noisy_phase.data.shape == (3, t_frames, 201)
    assert b.clean_mag.data.shape == (3, t_frames, 201)
    assert b.clean.shape == (3, 2000)
    assert np.all(b.noisy_mag.data >= 0.0)
    assert np.all((b.noisy_phase.data > -np.pi - 1e-12) & (b.noisy_phase.data <= np.pi + 1e-12))
    for ident in b.ids:
        name, off = ident.rsplit("@", 1)
        assert name in dataset.train_names
        assert 0 <= int(off) <= 16000 - 2000

    b2 = make_batch(dataset, np.random.default_rng(4), 3, 2000, cfg)
    assert b2.ids == b.ids
    np.testing.assert_array_equal(b2.noisy_mag.data, b.noisy_mag.data)


def _noisy_segment(dataset, ident, seg):
    name, off = ident.rsplit("@", 1)
    return dataset.load(name)[1].samples[int(off):int(off) + seg]


def test_make_batch_matches_reference_stft(dataset):
    cfg = StftConfig()
    b = make_batch(dataset, np.random.default_rng(9), 2, 2000, cfg)
    for i in range(2):
        spec = stft_ref(_noisy_segment(dataset, b.ids[i], 2000), cfg.n_fft, cfg.hop)
        np.testing.assert_allclose(b.noisy_mag.data[i], np.abs(spec), atol=1e-10)
        spec_c = stft_ref(b.clean[i], cfg.n_fft, cfg.hop)
        np.testing.assert_allclose(b.clean_mag.data[i], np.abs(spec_c), atol=1e-10)


def test_batch_segments_align_with_source(dataset):
    from densetsnet.dsp import stft
    cfg = StftConfig()
    b = make_batch(dataset, np.random.default_rng(2), 2, 2000, cfg)
    for i, ident in enumerate(b.ids):
        name, off = ident.rsplit("@", 1)
        off = int(off)
        np.testing.assert_array_equal(b.clean[i], dataset.load(name)[0].samples[off:off + 2000])
    noisy = np.stack([_noisy_segment(dataset, ident, 2000) for ident in b.ids])
    np.testing.assert_array_equal(b.noisy_mag.data, stft(Tensor(noisy), cfg).mag.data)


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

def test_synth_dataset_manifest_and_snr(tmp_path):
    out = synth_dataset(3, seed=5, out_dir=tmp_path / "d", duration_s=1.0)
    assert out["pairs"] == 3
    lines = Path(out["manifest"]).read_text().strip().splitlines()
    assert lines[0] == "name,snr_db,f0_hz"
    assert len(lines) == 4
    for ln in lines[1:]:
        name, snr_s, f0_s = ln.split(",")
        f0 = float(f0_s)
        assert 90.0 <= f0 <= 280.0
        c = wav_read(tmp_path / "d" / "clean" / name).samples
        n = wav_read(tmp_path / "d" / "noisy" / name).samples
        assert len(c) == len(n) == 16000
        assert np.max(np.abs(c)) <= 1.0 and np.max(np.abs(n)) <= 1.0
        noise = n - c
        meas = 10.0 * np.log10(np.sum(c ** 2) / np.sum(noise ** 2))
        # 16-bit quantization perturbs the measurement slightly
        assert abs(meas - float(snr_s)) < 0.1
        assert 0.0 <= float(snr_s) <= 15.0


def test_synth_dataset_deterministic(tmp_path):
    synth_dataset(2, seed=3, out_dir=tmp_path / "a", duration_s=0.5)
    synth_dataset(2, seed=3, out_dir=tmp_path / "b", duration_s=0.5)
    for sub in ("clean", "noisy"):
        for name in ("utt000.wav", "utt001.wav"):
            ba = (tmp_path / "a" / sub / name).read_bytes()
            bb = (tmp_path / "b" / sub / name).read_bytes()
            assert ba == bb
    ma = (tmp_path / "a" / "manifest.csv").read_text()
    mb = (tmp_path / "b" / "manifest.csv").read_text()
    assert ma == mb


# ---------------------------------------------------------------------------
# paired dataset
# ---------------------------------------------------------------------------

def test_dataset_split_disjoint_and_complete(tmp_path):
    synth_dataset(6, seed=1, out_dir=tmp_path, duration_s=0.5)
    ds = PairedDataset(DatasetSpec(str(tmp_path / "clean"), str(tmp_path / "noisy"),
                                   valid_fraction=0.34))
    assert len(ds.valid_names) == 2
    assert len(ds.train_names) == 4
    assert not set(ds.train_names) & set(ds.valid_names)
    assert sorted(ds.train_names + ds.valid_names) == [f"utt{i:03d}.wav" for i in range(6)]

    ds0 = PairedDataset(DatasetSpec(str(tmp_path / "clean"), str(tmp_path / "noisy"),
                                    valid_fraction=0.0))
    assert ds0.valid_names == [] and len(ds0.train_names) == 6


def test_dataset_single_pair_shares_split(tmp_path):
    synth_dataset(1, seed=0, out_dir=tmp_path, duration_s=0.5)
    ds = PairedDataset(DatasetSpec(str(tmp_path / "clean"), str(tmp_path / "noisy")))
    assert ds.train_names == ds.valid_names == ["utt000.wav"]


def test_dataset_missing_counterpart(tmp_path):
    synth_dataset(2, seed=0, out_dir=tmp_path, duration_s=0.5)
    (tmp_path / "noisy" / "utt001.wav").unlink()
    with pytest.raises(DataError, match="utt001.wav"):
        PairedDataset(DatasetSpec(str(tmp_path / "clean"), str(tmp_path / "noisy")))


def test_dataset_empty_dir(tmp_path):
    (tmp_path / "clean").mkdir()
    (tmp_path / "noisy").mkdir()
    with pytest.raises(DataError):
        PairedDataset(DatasetSpec(str(tmp_path / "clean"), str(tmp_path / "noisy")))


def test_dataset_length_mismatch_on_load(tmp_path):
    synth_dataset(1, seed=0, out_dir=tmp_path, duration_s=0.5)
    wav_write(tmp_path / "noisy" / "utt000.wav", np.zeros(1234))
    ds = PairedDataset(DatasetSpec(str(tmp_path / "clean"), str(tmp_path / "noisy")))
    with pytest.raises(DataError, match="samples"):
        ds.load("utt000.wav")


def test_dataset_caches_loads(dataset):
    name = dataset.train_names[0]
    first = dataset.load(name)
    assert dataset.load(name) is first


# ---------------------------------------------------------------------------
# config echo
# ---------------------------------------------------------------------------

def test_config_echo_round_trip():
    mc = ModelConfig(dense_channel=6, depth=3, variant="classic_ts",
                     classic_channel=8, drop=("CA", "lke"), mask_beta=1.5)
    sc = StftConfig(n_fft=512, win_length=512, hop=128, compression=0.5)
    tc = TrainConfig(batch_size=3, lr=2e-4, lambda2=0.05, seed=9)
    echo = config_echo(mc, sc, tc)
    mc2, sc2 = configs_from_echo(echo)
    assert mc2 == mc
    assert sc2.n_fft == sc.n_fft and sc2.hop == sc.hop
    assert sc2.compression == sc.compression
    for k in ("batch_size", "lr", "lambda2", "seed", "use_consistency"):
        assert echo[k] == getattr(tc, k)
    # echoed drop is normalized, so it survives a second round trip unchanged
    assert echo["drop"] == ["ca", "lke"]


def test_config_echo_old_checkpoint_keys_take_defaults(dataset, tmp_path):
    # echoes written before compression and drop existed still load and resume
    cfg = _tiny_train_cfg(max_steps=2, checkpoint_every=2)
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    arrays, echo, extra = load_checkpoint(res.checkpoints[0])
    del echo["compression"], echo["drop"]
    old = tmp_path / "old.dtsn"
    save_checkpoint(old, arrays, echo, extra)
    mc, sc = configs_from_echo(echo)
    assert sc.compression == 1.0 and mc.drop == ()
    assert mc == TINY_MODEL
    rr = train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=3, checkpoint_every=3),
               dataset, tmp_path, resume=old)
    assert len(rr.losses) == 1


def test_resume_from_an_echo_with_a_key_the_config_no_longer_has(dataset, tmp_path):
    # checkpoints written while StftConfig had a sample_rate field echo it;
    # they still load and resume, as only the running config's keys compare
    cfg = _tiny_train_cfg(max_steps=2, checkpoint_every=2)
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    arrays, echo, extra = load_checkpoint(res.checkpoints[0])
    echo["sample_rate"] = 16000
    old = tmp_path / "old.dtsn"
    save_checkpoint(old, arrays, echo, extra)
    assert configs_from_echo(echo)[0] == TINY_MODEL
    rr = train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=3, checkpoint_every=3),
               dataset, tmp_path, resume=old)
    assert len(rr.losses) == 1


def test_enhance_waveforms_matches_explicit_chain():
    from densetsnet.dsp import ComplexSpec, istft, stft_pair
    from densetsnet.model import build_model
    from densetsnet.training import enhance_waveforms

    cfg = StftConfig()
    model = build_model(TINY_MODEL, cfg, seed=1)
    noisy = np.random.default_rng(5).standard_normal(3000) * 0.2
    re, im = stft_pair(Tensor(noisy[None, :]), cfg)
    _, enh = model.forward(Tensor(np.hypot(re.data, im.data)))
    phase = np.arctan2(im.data, re.data)
    ref = istft(ComplexSpec(Tensor(enh.data), Tensor(phase)), cfg, len(noisy)).data[0]

    enh_mag, est = enhance_waveforms(model, noisy, cfg)
    assert isinstance(enh_mag, np.ndarray) and isinstance(est, np.ndarray)
    np.testing.assert_array_equal(enh_mag, enh.data)
    assert est.shape == noisy.shape
    np.testing.assert_allclose(est, ref, rtol=0, atol=1e-12)


def test_enhance_memory_is_a_few_feature_maps():
    """Inference records no tape, so its traced peak is a small multiple of
    the widest feature map (B*T*F*depth*dense_channel float64s); recording
    the tape took about 117 of them."""
    import tracemalloc
    from densetsnet.model import build_model
    from densetsnet.training import enhance_waveforms

    cfg, mcfg = StftConfig(), ModelConfig()
    model = build_model(mcfg, cfg, seed=0)
    enhance_waveforms(model, np.zeros(4000), cfg)  # fill the STFT basis cache
    noisy = np.random.default_rng(2).standard_normal(16000) * 0.1
    widest = cfg.frame_count(len(noisy)) * cfg.n_bins * mcfg.depth * mcfg.dense_channel * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        enhance_waveforms(model, noisy, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 12 * widest, f"peak {peak / widest:.1f} x the widest map"


def test_float32_enhance_memory_is_half_the_float64_maps():
    """A float32 model runs the trunk on float32 maps, so the traced peak is
    about half that of the float64 sibling above, in the same unit (widest
    float64 maps): 3.1 against 6.0.  An upcast anywhere in the forward puts
    it back up; numpy's default rfft scale alone, which runs a float32 input
    through float64 buffers, gave 5.9."""
    import tracemalloc
    from densetsnet.model import build_model
    from densetsnet.training import enhance_waveforms

    cfg, mcfg = StftConfig(), ModelConfig()
    model = build_model(mcfg, cfg, seed=0)
    model.store.astype(np.float32)
    enhance_waveforms(model, np.zeros(4000), cfg)  # fill the STFT basis cache
    noisy = np.random.default_rng(2).standard_normal(16000) * 0.1
    widest = cfg.frame_count(len(noisy)) * cfg.n_bins * mcfg.depth * mcfg.dense_channel * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        enh, _ = enhance_waveforms(model, noisy, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert enh.dtype == np.float32
    assert peak <= 5.5 * widest, f"peak {peak / widest:.1f} x the widest float64 map"


def test_float32_enhance_of_an_8s_clip_peaks_at_about_three_maps():
    """Under no_grad each gaze view runs over chunks of rows and writes into
    one preallocated map, so the traced float32 peak on a long clip is about
    three widest float32 maps (B*T*F*depth*dense_channel float32s): 3.19 at
    8 s and 3.06 at 60 s (~6 MiB per audio second), against 7.42 when each
    view ran over the whole map."""
    import tracemalloc
    from densetsnet.model import build_model
    from densetsnet.training import enhance_waveforms

    cfg, mcfg = StftConfig(), ModelConfig()
    model = build_model(mcfg, cfg, seed=0)
    model.store.astype(np.float32)
    enhance_waveforms(model, np.zeros(4000), cfg)  # fill the STFT basis cache
    noisy = np.random.default_rng(2).standard_normal(8 * 16000) * 0.1
    widest = cfg.frame_count(len(noisy)) * cfg.n_bins * mcfg.depth * mcfg.dense_channel * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        enhance_waveforms(model, noisy, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * widest, f"peak {peak / widest:.2f} x the widest float32 map"
    assert peak <= model.enhance_peak_bytes(cfg.frame_count(len(noisy)))


def _traced_training_step(mcfg):
    """Traced (peak, held) of the second of two training steps of model
    ``mcfg`` on 1 x 1 s, in widest maps of the default model
    (B*T*F*depth*dense_channel float64s); the step holds its last loss, as a
    training loop does."""
    import tracemalloc
    from densetsnet.autodiff import backward
    from densetsnet.dsp import consistency_project, stft
    from densetsnet.losses import mag_mse
    from densetsnet.model import build_model

    cfg = StftConfig()
    model = build_model(mcfg, cfg, seed=0)
    opt = AdamW(model.store, TrainConfig())
    rng = np.random.default_rng(4)
    clean = rng.standard_normal((1, 16000)) * 0.1
    noisy = clean + rng.standard_normal((1, 16000)) * 0.05
    nspec = stft(Tensor(noisy), cfg)
    clean_mag = stft(Tensor(clean), cfg).mag
    default = ModelConfig()
    widest = cfg.frame_count(16000) * cfg.n_bins * default.depth * default.dense_channel * 8

    def step():
        model.store.zero_grad()
        _, enh = model.forward(nspec.mag)
        loss = mag_mse(clean_mag, consistency_project(enh, nspec.phase, cfg, 16000))
        backward(loss)
        opt.step()
        return loss

    loss = step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = step()
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.data)
    return peak / widest, held / widest


@pytest.fixture(scope="module")
def traced_training_step():
    """``_traced_training_step`` of the default model."""
    return _traced_training_step(ModelConfig())


def test_training_step_memory_is_one_tape(traced_training_step):
    """Backward frees the graph as it walks it and writes grads only on the
    leaves, so a training step peaks at about one tape and leaves none of it
    behind.  Keeping every interior grad and the whole graph alive until the
    next step took about 222 maps at the peak and 221 after the step."""
    peak, held = traced_training_step
    assert peak <= 105, f"peak {peak:.1f} x the widest map"
    assert held <= 1, f"{held:.2f} widest maps held after the step"


def test_training_step_tape_holds_only_what_backward_reads(traced_training_step):
    """The graph links to results through records, not tensors, so a map
    that no closure reads is freed as soon as the forward drops it, and
    learnable_sigmoid at beta 1 saves one sigmoid, not a copy next to it.
    The gaze block's fused ops keep the normalized input where the
    composed ops kept the norm's input, its output, the 2c-channel product
    and x * ch, and drop the three 1x1 convs' inputs that backward can
    rebuild: hardswish(affine(xhat)), the LSG product and g * ch * sp.
    The large-kernel and spatial fused ops also take in the depthwise conv
    next to each: the first keeps no gate map and no gate spectrum, and
    the second no depthwise output.
    Links that kept every result alive peaked at 97.9 maps, the composed
    ops at 78.2, the first fused ops at 54.1, the next at 41.1, and these
    at 30.0."""
    peak, _ = traced_training_step
    assert peak <= 32, f"peak {peak:.1f} x the widest map"


@pytest.mark.parametrize("drop", [("ca",), ("lsg",), ("lke",), ("ca", "lsg")],
                         ids=["drop_ca", "drop_lsg", "drop_lke", "drop_ca_lsg"])
def test_no_ablation_step_peaks_above_the_full_block(drop, traced_training_step):
    """Dropping a view takes work out of the gaze block, so it must not add
    to the tape.  A dropped channel or spatial view gates the one fused tail
    with a constant 1; when those ablations ran on the composed mul and
    conv instead, drop=ca peaked at 43.0 maps against the full block's 41.1.
    With the depthwise convs fused, the full block peaks at 30.0 maps, and
    drop ca, lsg, lke and ca+lsg at 29.8, 25.8, 25.0 and 25.8."""
    full, _ = traced_training_step
    peak, held = _traced_training_step(ModelConfig(drop=drop))
    assert peak <= full, f"peak {peak:.2f} against {full:.2f} widest maps"
    assert held <= 1, f"{held:.2f} widest maps held after the step"


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

TINY_MODEL = ModelConfig(dense_channel=2, depth=1)


def _tiny_train_cfg(**kw):
    base = dict(batch_size=1, max_steps=4, eval_every=2, checkpoint_every=4,
                segment_samples=2000, lambda2=0.0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def test_train_smoke_curves_checkpoint_result(dataset, tmp_path):
    cfg = _tiny_train_cfg()
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)

    text = Path(res.curves_path).read_text().splitlines()
    assert text[0].startswith("#") and "proxy" in text[0]
    assert text[1] == ",".join(CURVE_COLUMNS)
    rows = read_curves_csv(res.curves_path)
    assert [r["step"] for r in rows] == ["1", "2", "3", "4"]
    for r in rows:
        assert r["l_metric"] == "0" and r["l_disc"] == "0"
        assert np.isfinite(float(r["l_mag_consis"]))
    assert rows[0]["val_mag_error"] == "" and rows[2]["val_mag_error"] == ""
    assert rows[1]["val_mag_error"] != "" and rows[3]["val_quality"] != ""

    assert len(res.losses) == 4
    np.testing.assert_allclose([float(r["l_mag_consis"]) for r in rows], res.losses,
                               rtol=1e-9)
    assert set(res.final_val) == {"val_mag_error", "val_quality"}
    assert 0.0 <= res.final_val["val_quality"] <= 1.0

    assert res.checkpoints == [str(tmp_path / "ckpt_step4.dtsn")]
    arrays, echo, extra = load_checkpoint(res.checkpoints[0])
    assert echo == config_echo(TINY_MODEL, StftConfig(), cfg)
    assert extra["step"] == 4 and extra["opt_t"] == 4
    p_names = {k[2:] for k in arrays if k.startswith("p/")}
    assert p_names == set(res.model.store.names())
    for k in res.model.store.names():
        np.testing.assert_array_equal(arrays[f"p/{k}"], res.model.store[k].data)


def test_train_without_validation_clips_skips_validation(synth_dir, tmp_path):
    # valid_fraction=0 leaves no validation split: no nan in curves or
    # final_val (np.mean of nothing), and the log says validation is off
    ds = PairedDataset(DatasetSpec(str(synth_dir / "clean"), str(synth_dir / "noisy"),
                                   valid_fraction=0.0))
    assert ds.valid_names == []
    lines = []
    res = train(TINY_MODEL, StftConfig(),
                _tiny_train_cfg(max_steps=2, eval_every=1, valid_fraction=0.0), ds,
                tmp_path, log=lines.append)
    assert res.final_val == {}
    rows = read_curves_csv(res.curves_path)
    assert [(r["val_mag_error"], r["val_quality"]) for r in rows] == [("", "")] * 2
    assert any("skipping validation" in ln for ln in lines), lines
    assert not any("nan" in ln for ln in lines), lines


def test_train_refuses_a_valid_fraction_that_disagrees_with_the_split(dataset, tmp_path):
    """The split comes from the dataset, the echo from the train config: a
    run that validates on 0.1 of the clips must not record 0.3 in every
    checkpoint, so train names both values and starts nothing."""
    assert dataset.spec.valid_fraction == 0.1
    with pytest.raises(ConfigError, match=r"valid_fraction 0\.3.*0\.1"):
        train(TINY_MODEL, StftConfig(), _tiny_train_cfg(valid_fraction=0.3), dataset,
              tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_loss_study_needs_validation_clips(synth_dir, tmp_path):
    ds = PairedDataset(DatasetSpec(str(synth_dir / "clean"), str(synth_dir / "noisy"),
                                   valid_fraction=0.0))
    with pytest.raises(ConfigError, match="validation"):
        training.loss_study(ds, StftConfig(), _tiny_train_cfg(max_steps=1), tmp_path)
    assert not list(tmp_path.iterdir())


def test_loss_study_reports_an_unusable_output_path(dataset, tmp_path):
    taken = tmp_path / "taken"
    taken.write_bytes(b"")
    with pytest.raises(DataError, match="taken: cannot create directory"):
        training.loss_study(dataset, StftConfig(), _tiny_train_cfg(max_steps=1), taken)
    assert taken.read_bytes() == b""


@pytest.mark.parametrize("model_cfg, lambda2", [
    (ModelConfig(), 0.0),
    (ModelConfig(drop=("lke",)), 0.0),
    (ModelConfig(drop=("ca",)), 0.0),
    (ModelConfig(drop=("lsg",)), 0.0),
    (ModelConfig(drop=("ca", "lsg")), 0.0),
    (ModelConfig(variant="classic_ts"), 0.5),
    (ModelConfig(lke_kernel=7, lsg_kernel=9), 0.0),
], ids=["dense_ts", "drop_lke", "drop_ca", "drop_lsg", "drop_ca_lsg", "classic_ts_metric",
        "lke7_lsg9"])
def test_fused_ops_train_bit_for_bit_like_the_composed_ops(model_cfg, lambda2, dataset,
                                                          tmp_path, monkeypatch):
    """Two steps with the fused gaze block and norm-hardswish against the
    same steps with the composed ops: equal curves (losses, metric and
    discriminator losses, validation) and equal checkpoints, parameters,
    discriminator and optimizer state alike.  ``lke7_lsg9`` swaps the two
    depthwise convs' routes: the large-kernel one runs on taps and the
    spatial one by FFT."""
    cfg = _tiny_train_cfg(max_steps=2, eval_every=2, checkpoint_every=2, lambda2=lambda2)
    fused = train(model_cfg, StftConfig(), cfg, dataset, tmp_path / "fused")
    monkeypatch.setattr(model_mod, "mvgb_forward", mvgb_forward_composed)
    monkeypatch.setattr(model_mod, "norm_hardswish_2d", norm_hardswish_2d_composed)
    monkeypatch.setattr(losses_mod, "norm_hardswish_2d", norm_hardswish_2d_composed)
    composed = train(model_cfg, StftConfig(), cfg, dataset, tmp_path / "composed")
    assert fused.losses == composed.losses
    assert Path(fused.curves_path).read_text() == Path(composed.curves_path).read_text()
    got, _, _ = load_checkpoint(fused.checkpoints[-1])
    want, _, _ = load_checkpoint(composed.checkpoints[-1])
    assert set(got) == set(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_train_deterministic_per_seed(dataset, tmp_path):
    cfg = _tiny_train_cfg(max_steps=3, checkpoint_every=3)
    r1 = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path / "a")
    r2 = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path / "b")
    assert r1.losses == r2.losses
    r3 = train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=3, checkpoint_every=3, seed=4),
               dataset, tmp_path / "c")
    assert r3.losses != r1.losses


def test_train_rejects_segment_shorter_than_window(dataset, tmp_path):
    cfg = _tiny_train_cfg(segment_samples=300)
    with pytest.raises(ConfigError, match="window"):
        train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)


@pytest.mark.parametrize("lambda2", [0.0, 0.05])
def test_train_resume_bit_exact(lambda2, dataset, tmp_path):
    """A run resumed from its step-3 checkpoint ends where an uninterrupted
    one does, with and without the discriminator and its optimizer."""
    full = _tiny_train_cfg(max_steps=6, eval_every=2, checkpoint_every=3, lambda2=lambda2)
    ra = train(TINY_MODEL, StftConfig(), full, dataset, tmp_path / "a")

    half = _tiny_train_cfg(max_steps=3, eval_every=2, checkpoint_every=3, lambda2=lambda2)
    rb1 = train(TINY_MODEL, StftConfig(), half, dataset, tmp_path / "b")
    assert rb1.losses == ra.losses[:3]
    ckpt = tmp_path / "b" / "ckpt_step3.dtsn"
    assert str(ckpt) in rb1.checkpoints

    rb2 = train(TINY_MODEL, StftConfig(), full, dataset, tmp_path / "b", resume=ckpt)
    assert rb2.losses == ra.losses[3:]

    rows = read_curves_csv(tmp_path / "b" / "curves.csv")
    assert [r["step"] for r in rows] == ["1", "2", "3", "4", "5", "6"]

    aa, _, ea = load_checkpoint(tmp_path / "a" / "ckpt_step6.dtsn")
    ab, _, eb = load_checkpoint(tmp_path / "b" / "ckpt_step6.dtsn")
    assert ea["step"] == eb["step"] == 6
    assert set(aa) == set(ab)
    for k in aa:
        np.testing.assert_array_equal(aa[k], ab[k])


def test_train_resume_rejects_max_steps_below_the_checkpoint(dataset, tmp_path):
    """Resuming a step-2 checkpoint with max_steps 1 used to run no step and
    return as if it had trained; it names both numbers instead.  At
    max_steps equal to the checkpoint's step there is nothing left to run."""
    res = train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=2), dataset, tmp_path)
    ckpt = res.checkpoints[0]
    with pytest.raises(ConfigError, match=r"max_steps 1 .* step 2"):
        train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=1), dataset, tmp_path,
              resume=ckpt)
    again = train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=2), dataset, tmp_path,
                  resume=ckpt)
    assert again.losses == []


def test_train_resume_rejects_another_split(synth_dir, dataset, tmp_path):
    """The dataset seed, or the clips in the directories, pick the split: a
    resume on another split would silently validate or train on other
    clips, so it fails.  A checkpoint written before the split was recorded
    resumes as before."""
    res = train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=1), dataset, tmp_path)
    ckpt = res.checkpoints[0]
    longer = _tiny_train_cfg(max_steps=2)
    reseeded = PairedDataset(DatasetSpec(str(synth_dir / "clean"), str(synth_dir / "noisy"),
                                         seed=7))
    assert reseeded.valid_names != dataset.valid_names
    with pytest.raises(ConfigError, match=r"validated on \['utt002.wav'\].*utt000.wav"):
        train(TINY_MODEL, StftConfig(), longer, reseeded, tmp_path, resume=ckpt)
    fewer = PairedDataset(dataset.spec)
    fewer.train_names = fewer.train_names[1:]
    with pytest.raises(ConfigError, match="training clips"):
        train(TINY_MODEL, StftConfig(), longer, fewer, tmp_path, resume=ckpt)

    arrays, echo, extra = load_checkpoint(ckpt)
    del extra["split"]
    old = tmp_path / "old.dtsn"
    save_checkpoint(old, arrays, echo, extra)
    assert len(train(TINY_MODEL, StftConfig(), longer, reseeded, tmp_path, resume=old).losses) == 1


def test_train_resume_rejects_config_mismatch(dataset, tmp_path):
    cfg = _tiny_train_cfg(max_steps=2, checkpoint_every=2)
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    with pytest.raises(ConfigError, match="dense_channel"):
        train(ModelConfig(dense_channel=4, depth=1), StftConfig(), cfg, dataset,
              tmp_path, resume=res.checkpoints[0])


def test_train_resume_rejects_every_changed_key(dataset, tmp_path):
    cfg = _tiny_train_cfg(max_steps=2, checkpoint_every=2)
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    changed_model = ModelConfig(dense_channel=2, depth=1, mask_beta=1.0)
    with pytest.raises(ConfigError) as ei:
        train(changed_model, StftConfig(compression=0.3), cfg, dataset, tmp_path,
              resume=res.checkpoints[0])
    msg = str(ei.value)
    assert "compression" in msg and "mask_beta" in msg
    assert "dense_channel" not in msg


def test_train_resume_allows_schedule_keys(dataset, tmp_path):
    cfg = _tiny_train_cfg(max_steps=2, checkpoint_every=2)
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    longer = _tiny_train_cfg(max_steps=3, eval_every=3, checkpoint_every=3)
    rr = train(TINY_MODEL, StftConfig(), longer, dataset, tmp_path, resume=res.checkpoints[0])
    assert len(rr.losses) == 1


def test_train_resume_does_not_duplicate_curve_rows(dataset, tmp_path):
    cfg = _tiny_train_cfg(max_steps=4, eval_every=2, checkpoint_every=2)
    train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path,
          resume=tmp_path / "ckpt_step2.dtsn")
    text = (tmp_path / "curves.csv").read_text().splitlines()
    assert text[0].startswith("#") and text[1] == ",".join(CURVE_COLUMNS)
    rows = read_curves_csv(tmp_path / "curves.csv")
    assert [r["step"] for r in rows] == ["1", "2", "3", "4"]


def test_train_writes_step_timing_and_resume_keeps_earlier_rows(dataset, tmp_path):
    """timing.csv has one row per step with CPU and wall seconds, the peak
    RSS so far, and the step's kernel seconds and minor page faults; a
    resumed run keeps the rows up to its checkpoint, as it does in
    curves.csv, and curves.csv keeps its columns."""
    cfg = _tiny_train_cfg(max_steps=4, eval_every=2, checkpoint_every=2)
    train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    first = (tmp_path / "timing.csv").read_text().splitlines()
    assert first[0] == ",".join(training.TIMING_COLUMNS) == \
        "step,cpu_s,wall_s,peak_rss_mb,sys_s,minor_faults"
    assert [ln.split(",")[0] for ln in first[1:]] == ["1", "2", "3", "4"]
    for ln in first[1:]:
        _, cpu_s, wall_s, peak_mb, sys_s, faults = ln.split(",")
        assert float(cpu_s) > 0 and float(wall_s) > 0 and float(peak_mb) > 10
        assert 0 <= float(sys_s) <= float(cpu_s) and int(faults) >= 0

    train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path,
          resume=tmp_path / "ckpt_step2.dtsn")
    again = (tmp_path / "timing.csv").read_text().splitlines()
    assert again[:3] == first[:3]
    assert [ln.split(",")[0] for ln in again[1:]] == ["1", "2", "3", "4"]
    assert (tmp_path / "curves.csv").read_text().splitlines()[1] == ",".join(CURVE_COLUMNS)


def test_resume_gives_an_older_step_log_the_current_header(dataset, tmp_path):
    """A timing.csv begun before the sys_s and minor_faults columns keeps its
    rows up to the checkpoint under the header of the rows appended now."""
    cfg = _tiny_train_cfg(max_steps=3, eval_every=2, checkpoint_every=2)
    train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    path = tmp_path / "timing.csv"
    old = [",".join(ln.split(",")[:4]) for ln in path.read_text().splitlines()]
    path.write_text("\n".join(old) + "\n")
    train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path, resume=tmp_path / "ckpt_step2.dtsn")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(training.TIMING_COLUMNS)
    assert lines[1:3] == old[1:3]
    assert [len(ln.split(",")) for ln in lines[1:]] == [4, 4, len(training.TIMING_COLUMNS)]


# Run in a fresh interpreter, so the heap starts as glibc leaves it, with
# segments and a step count of the smoke shape (batch 1 x 4000 samples).
HEAP_SCRIPT = textwrap.dedent("""
    import sys
    from densetsnet import (DatasetSpec, ModelConfig, PairedDataset, StftConfig,
                            TrainConfig, synth_dataset, train)
    root = sys.argv[1]
    synth_dataset(4, seed=0, out_dir=root + "/data", duration_s=1.0)
    ds = PairedDataset(DatasetSpec(root + "/data/clean", root + "/data/noisy",
                                   valid_fraction=0.25))
    cfg = TrainConfig(batch_size=1, segment_samples=4000, max_steps=7, valid_fraction=0.25)
    train(ModelConfig(), StftConfig(), cfg, ds, root + "/run")
""")

# Median minor faults of a smoke step from step 3 on.  Measured on a 2-vCPU
# x86 VM (glibc 2.36): 23K-29K per step when glibc trims the freed tape and
# the next forward faults it in again, and 1-131 with the heap held.
HELD_HEAP_FAULTS = 2000


def _subprocess_env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for k, v in overrides.items():
        if v is None:
            env.pop(k, None)
        else:
            env[k] = v
    return env


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are glibc's")
def test_train_keeps_its_heap_between_steps(tmp_path):
    proc = subprocess.run([sys.executable, "-c", HEAP_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=_subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "run" / "timing.csv").read_text().splitlines()
    col = training.TIMING_COLUMNS.index("minor_faults")
    faults = [int(ln.split(",")[col]) for ln in rows[1:]]
    assert len(faults) == 7
    assert np.median(faults[2:]) < HELD_HEAP_FAULTS, faults


def _no_libc(name):
    raise OSError("cannot open the C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                         ids=["no-libc", "no-mallopt"])
def test_hold_heap_is_a_no_op_without_mallopt(monkeypatch, cdll):
    """No C library to open, or one without ``mallopt`` (as off glibc):
    the helper returns quietly."""
    monkeypatch.setattr(training.ctypes, "CDLL", cdll)
    assert training._hold_heap() is None


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_importing_the_package_runs_one_blas_thread_unless_set(preset, expected):
    """Importing densetsnet before numpy pins OpenBLAS to one thread, and a
    count already in the environment wins."""
    script = "import os, densetsnet; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = _subprocess_env(OPENBLAS_NUM_THREADS=preset, OMP_NUM_THREADS=None,
                          MKL_NUM_THREADS=None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_train_logs_validation_clip_count(dataset, tmp_path):
    lines = []
    train(TINY_MODEL, StftConfig(), _tiny_train_cfg(max_steps=1), dataset, tmp_path,
          log=lines.append)
    n = min(training.VALID_CLIPS, len(dataset.valid_names))
    assert f"validating on {n} of {len(dataset.valid_names)} clips" in lines


def test_train_aborts_on_nonfinite_loss(dataset, tmp_path, monkeypatch):
    monkeypatch.setattr(training, "mag_mse",
                        lambda target, est: Tensor(np.float64("nan")))
    cfg = _tiny_train_cfg(max_steps=2)
    with pytest.raises(NumericalError, match="step 1"):
        train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    dump = json.loads((tmp_path / "abort_dump.json").read_text())
    assert dump["step"] == 1
    assert dump["failed"] == "generator loss"
    assert len(dump["batch_ids"]) == 1 and "@" in dump["batch_ids"][0]


def test_train_metric_discriminator_path(dataset, tmp_path):
    cfg = _tiny_train_cfg(max_steps=2, eval_every=2, checkpoint_every=2, lambda2=0.05)
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    rows = read_curves_csv(res.curves_path)
    assert any(float(r["l_metric"]) != 0.0 for r in rows)
    assert any(float(r["l_disc"]) != 0.0 for r in rows)
    arrays, _, extra = load_checkpoint(res.checkpoints[0])
    assert any(k.startswith("dp/") for k in arrays)
    assert any(k.startswith("dm/") for k in arrays)
    assert extra["disc_opt_t"] == 2


def test_train_without_consistency_runs(dataset, tmp_path):
    cfg = _tiny_train_cfg(max_steps=2, use_consistency=False)
    res = train(TINY_MODEL, StftConfig(), cfg, dataset, tmp_path)
    assert len(res.losses) == 2 and all(np.isfinite(v) for v in res.losses)


def test_adamw_zero_grad_zero_decay_is_noop():
    p0 = np.array([0.7, -0.3])
    store = _store_from({"w": p0})
    store["w"].grad = np.zeros(2)
    opt = AdamW(store, TrainConfig(lr=1e-2, weight_decay=0.0))
    opt.step()
    np.testing.assert_array_equal(store["w"].data, p0)


def test_adamw_quadratic_first_step_is_lr_sized():
    # f(w) = w^2/2 at w=1: bias correction makes the first step a unit step
    store = _store_from({"w": np.array([1.0])})
    store["w"].grad = np.array([1.0])
    lr = 5e-4
    opt = AdamW(store, TrainConfig(lr=lr, weight_decay=0.0))
    opt.step()
    assert abs(store["w"].data[0] - (1.0 - lr)) < 1e-8


def test_adamw_equals_adam_without_decay():
    rng = np.random.default_rng(21)
    p = rng.standard_normal(6)
    store = _store_from({"w": p})
    lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
    opt = AdamW(store, TrainConfig(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0))

    # plain Adam, written out independently
    ref = p.copy()
    m = np.zeros(6)
    v = np.zeros(6)
    for t in range(1, 6):
        g = rng.standard_normal(6)
        store["w"].grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(store["w"].data, ref, rtol=1e-12)


def test_make_batch_two_second_shape(tmp_path):
    synth_dataset(1, seed=2, out_dir=tmp_path, duration_s=2.5)
    ds = PairedDataset(DatasetSpec(str(tmp_path / "clean"), str(tmp_path / "noisy")))
    b = make_batch(ds, np.random.default_rng(0), 2, 32000, StftConfig())
    assert b.noisy_mag.data.shape == (2, 321, 201)
    assert b.clean_mag.data.shape == (2, 321, 201)
    offs = [int(i.rsplit("@", 1)[1]) for i in b.ids]
    assert all(0 <= o <= 40000 - 32000 for o in offs)


def test_paired_segment_offsets_roughly_uniform():
    rng = np.random.default_rng(6)
    c = np.zeros(30)
    counts = np.zeros(10, dtype=int)
    for _ in range(10_000):
        _, _, off = _paired_segment(c, c, 21, rng)
        counts[off] += 1
    assert counts.sum() == 10_000
    # each offset expects 1000 draws; a 150-count deviation is ~5 sigma
    assert np.all(np.abs(counts - 1000) < 150)


def test_training_loss_reaches_every_parameter(dataset):
    from densetsnet.autodiff import backward
    from densetsnet.dsp import consistency_project
    from densetsnet.losses import mag_mse
    from densetsnet.model import build_model

    stft_cfg = StftConfig()
    model = build_model(TINY_MODEL, stft_cfg, seed=0)
    batch = make_batch(dataset, np.random.default_rng(3), 1, 2000, stft_cfg)
    model.store.zero_grad()
    _, enh = model.forward(batch.noisy_mag)
    x_out = consistency_project(enh, batch.noisy_phase, stft_cfg, 2000)
    backward(mag_mse(batch.clean_mag, x_out))
    for name, p in model.store.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name
