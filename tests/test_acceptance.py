"""Release acceptance gate: ten checks, one printed verdict line each.

Each test asserts at its pinned tolerance and prints a PASS/FAIL line with
the measured numbers to the real stdout, so the verdicts stay visible in a
captured pytest run.  The overfit smoke (06) dominates the runtime; the
rest finishes in seconds.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from densetsnet import (
    ComplexSpec,
    DatasetSpec,
    ModelConfig,
    PairedDataset,
    StftConfig,
    Tensor,
    TrainConfig,
    build_model,
    compare_variants,
    consistency_project,
    grad_check,
    istft,
    load_checkpoint,
    loss_study,
    save_checkpoint,
    ssnr,
    stft,
    stft_pair,
    synth_dataset,
    train,
    wav_read,
)
from densetsnet import autodiff as ad
from densetsnet.cli import main
from densetsnet.dsp import cola_deviation
from densetsnet.losses import mag_mse
from densetsnet.model import RESIDUAL_GAIN

from helpers import channel_scale, simple_gate, snr_db, sum_all


# Frozen expectations: the parameter count comes from an independent
# per-layer accounting of the default configuration, the MAC count from the
# same accounting at t=321 frames, f=201 bins (a 2 s clip at 16 kHz).
GOLDEN_PARAMS = 9910
GOLDEN_MACS = 496_288_008
PARAM_BAND = (8_000, 20_000)
MACS_REFERENCE = 356_000_000
MACS_TOL = 0.5

TINY_STFT = StftConfig(n_fft=16, win_length=16, hop=4)


def _gate(num: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] acceptance {num:02d} {label}"
    if detail:
        line += f" :: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def ds4(tmp_path_factory):
    d = tmp_path_factory.mktemp("accept_data")
    synth_dataset(4, seed=0, out_dir=d, duration_s=1.0)
    return PairedDataset(DatasetSpec(str(d / "clean"), str(d / "noisy")))


# ---------------------------------------------------------------------------
# 01: gradient correctness, op level and whole model
# ---------------------------------------------------------------------------

def test_01_gradient_correctness():
    rng = np.random.default_rng(0)

    def leaf(*shape, scale=0.8):
        return Tensor(scale * rng.standard_normal(shape), requires_grad=True)

    worst = {}

    # elementwise and reduction ops
    x = leaf(2, 7, 3)
    y = leaf(2, 7, 3)
    worst["arith"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.mul(ad.add(x, y), ad.sub(x, y)))), [x, y],
        step=1e-5)
    s = leaf(2, 5, 4)
    worst["sigmoid"] = grad_check(lambda: sum_all(ad.sigmoid(s)), [s], step=1e-5)
    h = leaf(2, 5, 4)  # |values| < 2.5 keeps clear of the hinge corners
    worst["hardswish"] = grad_check(lambda: ad.mean_all(ad.hardswish(h)), [h], step=1e-5)
    g = leaf(2, 5, 6)
    worst["simple_gate"] = grad_check(lambda: ad.mean_all(simple_gate(g)), [g], step=1e-5)
    cs_x, cs_a = leaf(2, 5, 3), leaf(3)
    worst["channel_scale"] = grad_check(
        lambda: ad.mean_all(channel_scale(cs_x, cs_a)), [cs_x, cs_a], step=1e-5)
    ls_x, ls_a = leaf(2, 6, 5), leaf(5)
    worst["learnable_sigmoid"] = grad_check(
        lambda: ad.mean_all(ad.learnable_sigmoid(ls_x, ls_a, beta=2.0)), [ls_x, ls_a],
        step=1e-5)
    mc = leaf(3, 4, 2)
    arr = rng.standard_normal((3, 4, 2))
    worst["mul_const"] = grad_check(
        lambda: ad.mean_all(ad.mul_const(ad.mul_const(mc, 1.7), arr)), [mc], step=1e-5)

    # shape ops
    r = leaf(2, 3, 4)
    worst["reshape+transpose"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.transpose(ad.reshape(r, (2, 12, 1)), (1, 0, 2)))),
        [r], step=1e-5)
    c1, c2 = leaf(2, 4, 3), leaf(2, 4, 2)
    carr = rng.standard_normal((2, 4, 5))
    worst["concat_last"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.mul_const(ad.concat_last([c1, c2]), carr))),
        [c1, c2], step=1e-5)
    sp = leaf(2, 3, 6)
    worst["mean"] = grad_check(
        lambda: ad.mean_all(ad.mul(ad.mean(sp, axis=1), ad.mean(sp, axis=2))), [sp], step=1e-5)
    re_, im_ = leaf(2, 4, 3), leaf(2, 4, 3)
    re_.data += np.sign(re_.data)  # keep |z| away from the origin cusp
    worst["complex_magnitude"] = grad_check(
        lambda: ad.mean_all(ad.complex_magnitude(re_, im_)), [re_, im_], step=1e-5)

    # convolutions and normalization
    cx, cw, cb = leaf(2, 9, 4), leaf(5, 4, 6, scale=0.4), leaf(6)
    worst["conv1d_dense"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.conv1d(cx, cw, cb))), [cx, cw, cb], step=1e-5)
    tx, tw, tb = leaf(2, 9, 3), leaf(3, 1, 3, scale=0.4), leaf(3)
    worst["conv1d_depthwise_taps"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.conv1d(tx, tw, tb, groups=3))), [tx, tw, tb],
        step=1e-5)
    dx, dw, db = leaf(1, 40, 3), leaf(31, 1, 3, scale=0.2), leaf(3)
    worst["conv1d_depthwise_fft"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.conv1d(dx, dw, db, groups=3))),
        [dx, dw, db], step=1e-5)
    px, pw, pb = leaf(2, 4, 5, 3), leaf(3, 4, scale=0.5), leaf(4)
    worst["conv2d_pointwise"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.conv2d_pointwise(px, pw, pb))),
        [px, pw, pb], step=1e-5)
    qx, qw, qb = leaf(1, 7, 6, 2), leaf(3, 3, 2, 3, scale=0.4), leaf(3)
    worst["conv2d_strided"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.conv2d(qx, qw, qb, stride=(2, 2)))),
        [qx, qw, qb], step=1e-5)
    ex, ew, eb = leaf(1, 7, 5, 2), leaf(3, 3, 2, 3, scale=0.4), leaf(3)
    worst["conv2d_dilated"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.conv2d(ex, ew, eb, dilation=(2, 1)))),
        [ex, ew, eb], step=1e-5)
    nx, ng, nb = leaf(2, 6, 3), leaf(3), leaf(3)
    worst["instance_norm"] = grad_check(
        lambda: ad.mean_all(ad.square(ad.instance_norm(nx, ng, nb))),
        [nx, ng, nb], step=1e-5)

    op_worst = max(worst.values())

    # whole tiny model: every parameter perturbed
    model = build_model(ModelConfig(dense_channel=2, depth=2), TINY_STFT, seed=1)
    mag = np.abs(rng.standard_normal((1, 8, 9))) + 0.05

    def model_loss():
        _, enh = model.forward(Tensor(mag))
        return ad.mean_all(ad.square(enh))

    model_err = grad_check(model_loss, model.store.tensors(), step=1e-5)

    ok = op_worst < 1e-4 and model_err < 1e-4
    _gate(1, "gradient correctness", ok,
          f"worst op rel err {op_worst:.2e}, whole-model rel err {model_err:.2e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# 02: analysis/synthesis fidelity
# ---------------------------------------------------------------------------

def test_02_round_trip_fidelity():
    cfg = StftConfig()  # 400/400/100
    dev = cola_deviation(cfg.window, cfg.hop)

    # independent overlap-add flatness check over one interior period
    sq = cfg.window * cfg.window
    acc = np.zeros(cfg.n_fft + 8 * cfg.hop)
    for m in range(8):
        acc[m * cfg.hop: m * cfg.hop + cfg.n_fft] += sq
    interior = acc[cfg.n_fft: cfg.n_fft + cfg.hop]
    dev2 = float(np.max(np.abs(interior - np.mean(interior))))

    rng = np.random.default_rng(2)
    n = 32000
    worst = np.inf
    for _ in range(100):
        x = 0.3 * rng.standard_normal(n)
        spec = stft(Tensor(x[None, :]), cfg)
        back = istft(spec, cfg, n).data[0]
        worst = min(worst, snr_db(x, back))

    ok = worst > 60.0 and dev <= 1e-10 and dev2 <= 1e-10
    _gate(2, "analysis/synthesis fidelity", ok,
          f"min round-trip SNR {worst:.1f} dB over 100 clips (need > 60), "
          f"overlap-add deviation {max(dev, dev2):.1e} (need <= 1e-10)")


# ---------------------------------------------------------------------------
# 03: projection fixed point
# ---------------------------------------------------------------------------

def test_03_projection_fixed_point():
    cfg = StftConfig()
    rng = np.random.default_rng(3)
    x = 0.3 * rng.standard_normal(8000)
    re, im = stft_pair(Tensor(x[None, :]), cfg)
    mag = np.hypot(re.data, im.data)
    phase = np.arctan2(im.data, re.data)

    proj = consistency_project(Tensor(mag), Tensor(phase), cfg, 8000)
    ident = float(np.max(np.abs(proj.data - mag)))

    loss = mag_mse(Tensor(mag), proj)  # the training loss, as train builds it
    at_fixed_point = float(loss.data)

    ok = ident < 1e-8 and at_fixed_point < 1e-12
    _gate(3, "projection fixed point", ok,
          f"identity deviation {ident:.2e} (tol 1e-8), "
          f"loss at clean fixed point {at_fixed_point:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 04: dense channel law and residual form
# ---------------------------------------------------------------------------

def test_04_channel_law_and_residual():
    rng = np.random.default_rng(4)
    checked = 0
    for c in (2, 4, 8):
        for depth in range(1, 7):
            model = build_model(ModelConfig(dense_channel=c, depth=depth),
                                TINY_STFT, seed=depth)
            assert [lay.cin for lay in model.layers] == [c * (i + 1) for i in range(depth)]
            mag = np.abs(rng.standard_normal((1, 4, 9))) + 0.02
            _, _, parts = model.forward(Tensor(mag), parts=True)
            assert np.array_equal(
                parts["trunk"].data,
                RESIDUAL_GAIN * parts["a_last"].data + parts["lifted"].data)
            checked += 1
    _gate(4, "dense channel law and residual form", checked == 18,
          f"{checked}/18 (channel, depth) configs: input widths follow c*(i+1), "
          f"output is exactly {RESIDUAL_GAIN}*branch + lifted input")


# ---------------------------------------------------------------------------
# 05: size accounting
# ---------------------------------------------------------------------------

def test_05_size_accounting(capsys):
    model = build_model(ModelConfig(), StftConfig(), seed=0)
    params = model.count_params()
    macs = model.count_macs(t=321, f=201)
    ratio = macs / MACS_REFERENCE

    rc = main(["inspect"])
    out = capsys.readouterr().out
    cli_ok = rc == 0 and "within band" in out and "within tolerance" in out

    ok = (params == GOLDEN_PARAMS
          and PARAM_BAND[0] <= params <= PARAM_BAND[1]
          and macs == GOLDEN_MACS
          and abs(ratio - 1.0) <= MACS_TOL
          and cli_ok)
    _gate(5, "size accounting", ok,
          f"params {params} (golden {GOLDEN_PARAMS}, band {PARAM_BAND[0]}-{PARAM_BAND[1]}), "
          f"MACs/2s {macs} (golden {GOLDEN_MACS}, {ratio:.2f}x of {MACS_REFERENCE // 10**6}M, "
          f"tol +/-50%), inspect output consistent")


# ---------------------------------------------------------------------------
# 06: overfit smoke
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_06_overfit_smoke(tmp_path):
    data = tmp_path / "pair"
    synth_dataset(1, seed=0, out_dir=data, duration_s=3.0)
    ds = PairedDataset(DatasetSpec(str(data / "clean"), str(data / "noisy")))

    # single pair, short segments, batch 1: fits the wall-clock budget while
    # keeping the full-width model
    cfg = TrainConfig(batch_size=1, max_steps=2000, eval_every=400,
                      checkpoint_every=2000, segment_samples=4000,
                      lambda2=0.0, seed=0)
    t0 = time.monotonic()
    res = train(ModelConfig(), StftConfig(), cfg, ds, tmp_path / "run")
    minutes = (time.monotonic() - t0) / 60.0

    first = res.losses[0]
    tail = float(np.mean(res.losses[-10:]))
    drop = 1.0 - tail / first

    clean = wav_read(data / "clean" / "utt000.wav").samples
    noisy = wav_read(data / "noisy" / "utt000.wav").samples
    re, im = stft_pair(Tensor(noisy[None, :]), StftConfig())
    mag = np.hypot(re.data, im.data)
    phase = np.arctan2(im.data, re.data)
    with ad.no_grad():  # nothing reads the tape of this 3 s clip
        _, enh = res.model.forward(Tensor(mag))
    est = istft(ComplexSpec(enh, Tensor(phase)), StftConfig(), len(noisy)).data[0]
    gain = ssnr(clean, est) - ssnr(clean, noisy)

    ok = drop >= 0.90 and gain >= 3.0 and minutes < 10.0
    _gate(6, "overfit smoke", ok,
          f"loss drop {100 * drop:.1f}% (need >= 90%), segmental SNR gain "
          f"{gain:.2f} dB (need >= 3), {minutes:.1f} min (budget 10)")


# ---------------------------------------------------------------------------
# 07: variant comparison harness
# ---------------------------------------------------------------------------

def test_07_variant_comparison(ds4, tmp_path):
    cfg = TrainConfig(batch_size=1, max_steps=30, eval_every=10,
                      checkpoint_every=30, segment_samples=2000,
                      lambda2=0.0, seed=0)
    results = compare_variants(ds4, StftConfig(), cfg, tmp_path)

    headers = []
    for variant in ("dense_ts", "classic_ts"):
        curves = tmp_path / variant / "curves.csv"
        assert curves.exists()
        lines = curves.read_text().splitlines()
        headers.append(lines[1])
        assert len([ln for ln in lines if not ln.startswith("#")]) == 31  # header + 30 rows
        assert len(results[variant].losses) == 30
    summary = (tmp_path / "comparison.csv").read_text()
    ahead = [ln for ln in summary.splitlines() if ln.startswith("#")]

    ok = (headers[0] == headers[1]
          and "dense_ts," in summary and "classic_ts," in summary
          and len(ahead) == 1)
    _gate(7, "variant comparison harness", ok,
          f"both variants trained 30 steps with identical curve columns; "
          f"observation: {ahead[0].lstrip('# ') if ahead else 'missing'}")


# ---------------------------------------------------------------------------
# 08: loss-weight sweep harness
# ---------------------------------------------------------------------------

def test_08_loss_weight_sweep(ds4, tmp_path):
    cfg = TrainConfig(batch_size=1, max_steps=10, eval_every=5,
                      checkpoint_every=10, segment_samples=2000, seed=0)
    results = loss_study(ds4, StftConfig(), cfg, tmp_path)

    text = (tmp_path / "loss_study.csv").read_text().splitlines()
    assert text[0] == "p,error_mag,error_pha,error_com,final_l_mag"
    rows = [ln.split(",") for ln in text[1:] if not ln.startswith("#")]
    note = [ln for ln in text if ln.startswith("#")]
    mags = {float(r[0]): float(r[1]) for r in rows}

    finite = all(np.isfinite(list(mags.values())))
    ok = (set(results) == {0.0, 1.0, 200.0} and set(mags) == {0.0, 1.0, 200.0}
          and finite and len(note) == 1)
    _gate(8, "loss-weight sweep harness", ok,
          f"P in (0, 1, 200) all completed; error_mag {mags.get(0.0):.4g}/"
          f"{mags.get(1.0):.4g}/{mags.get(200.0):.4g}; {note[0].lstrip('# ') if note else ''}")


# ---------------------------------------------------------------------------
# 09: ablation machinery
# ---------------------------------------------------------------------------

def test_09_ablations(ds4, tmp_path):
    rng = np.random.default_rng(9)
    base = ModelConfig(dense_channel=2, depth=1)
    errs = {}
    for branch in ("lke", "ca", "lsg"):
        cfg = ModelConfig(dense_channel=2, depth=1, drop=(branch,))
        model = build_model(cfg, TINY_STFT, seed=2)
        mag = np.abs(rng.standard_normal((1, 4, 9))) + 0.05

        def loss():
            _, enh = model.forward(Tensor(mag))
            return ad.mean_all(ad.square(enh))

        errs[branch] = grad_check(loss, model.store.tensors(), step=1e-5)

        tc = TrainConfig(batch_size=1, max_steps=3, eval_every=3, checkpoint_every=3,
                         segment_samples=2000, lambda2=0.0, seed=0)
        res = train(cfg, StftConfig(), tc, ds4, tmp_path / branch)
        assert len(res.losses) == 3 and all(np.isfinite(v) for v in res.losses)

    tc = TrainConfig(batch_size=1, max_steps=3, eval_every=3, checkpoint_every=3,
                     segment_samples=2000, lambda2=0.0, seed=0, use_consistency=False)
    res = train(base, StftConfig(), tc, ds4, tmp_path / "noconsis")
    no_consis_ok = len(res.losses) == 3 and all(np.isfinite(v) for v in res.losses)

    worst = max(errs.values())
    ok = worst < 1e-4 and no_consis_ok
    _gate(9, "ablation machinery", ok,
          "dropped branches " + ", ".join(f"{k} (grad err {v:.1e})" for k, v in errs.items())
          + "; raw-magnitude objective trains (tol 1e-4)")


# ---------------------------------------------------------------------------
# 10: determinism and persistence
# ---------------------------------------------------------------------------

def test_10_determinism_persistence(ds4, tmp_path):
    model_cfg = ModelConfig(dense_channel=2, depth=1)
    cfg = TrainConfig(batch_size=1, max_steps=4, eval_every=2, checkpoint_every=2,
                      segment_samples=2000, lambda2=0.0, seed=5)

    r1 = train(model_cfg, StftConfig(), cfg, ds4, tmp_path / "a")
    r2 = train(model_cfg, StftConfig(), cfg, ds4, tmp_path / "b")
    seeded_identical = r1.losses == r2.losses

    # container round trip is bit-exact and re-serialization reproduces bytes
    arrays, echo, extra = load_checkpoint(tmp_path / "a" / "ckpt_step4.dtsn")
    bit_exact = all(np.array_equal(arrays[f"p/{k}"], r1.model.store[k].data)
                    for k in r1.model.store.names())
    save_checkpoint(tmp_path / "resaved.dtsn", arrays, echo, extra)
    resaved = (Path(tmp_path / "resaved.dtsn").read_bytes()
               == Path(tmp_path / "a" / "ckpt_step4.dtsn").read_bytes())

    half = TrainConfig(batch_size=1, max_steps=2, eval_every=2, checkpoint_every=2,
                       segment_samples=2000, lambda2=0.0, seed=5)
    rh = train(model_cfg, StftConfig(), half, ds4, tmp_path / "c")
    rr = train(model_cfg, StftConfig(), cfg, ds4, tmp_path / "c",
               resume=tmp_path / "c" / "ckpt_step2.dtsn")
    resumed_identical = rh.losses + rr.losses == r1.losses

    ok = seeded_identical and bit_exact and resaved and resumed_identical
    _gate(10, "determinism and persistence", ok,
          f"seeded reruns identical: {seeded_identical}; checkpoint bit-exact: {bit_exact}; "
          f"re-serialization byte-identical: {resaved}; resumed run matches straight run: "
          f"{resumed_identical}")
