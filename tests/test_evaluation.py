"""Metrics: segmental SNR edge cases, spectral errors against np.fft
recomputation, and report CSV integrity."""

import numpy as np
import pytest

from densetsnet.dsp import AudioClip, StftConfig, wrap_phase
from densetsnet.errors import DataError
from densetsnet.evaluation import (SSNR_CEIL_DB, SSNR_FLOOR_DB, EvalReport,
                                   evaluate_dir, evaluate_pair,
                                   spectral_errors, ssnr)
from densetsnet.wavio import wav_write

from helpers import read_report_csv, stft_ref

CFG = StftConfig()


def test_ssnr_identical_hits_ceiling():
    rng = np.random.default_rng(0)
    x = AudioClip(rng.standard_normal(8000) * 0.3)
    assert ssnr(x, x) == SSNR_CEIL_DB


def test_ssnr_zero_estimate_is_zero_db():
    rng = np.random.default_rng(1)
    clean = rng.standard_normal(4096) * 0.3
    assert ssnr(clean, np.zeros(4096)) == 0.0


def test_ssnr_all_silent_returns_zero():
    assert ssnr(np.zeros(4096), np.zeros(4096)) == 0.0


def test_ssnr_floor_clamp():
    rng = np.random.default_rng(2)
    clean = rng.standard_normal(4096) * 0.01
    est = clean + rng.standard_normal(4096) * 10.0
    assert ssnr(clean, est) == SSNR_FLOOR_DB


def test_ssnr_matches_manual_frame_loop():
    rng = np.random.default_rng(3)
    clean = rng.standard_normal(3000) * 0.3
    est = clean + rng.standard_normal(3000) * 0.05
    vals = []
    energies = []
    for s in range(0, 3000 - 512 + 1, 256):
        cc = clean[s:s + 512]
        dd = cc - est[s:s + 512]
        energies.append(cc @ cc)
        vals.append(10 * np.log10((cc @ cc) / (dd @ dd)))
    energies = np.array(energies)
    keep = energies > 1e-6 * energies.max()
    want = float(np.mean(np.clip(np.array(vals)[keep], -10, 35)))
    assert abs(ssnr(clean, est) - want) < 1e-12


def test_ssnr_short_clip_single_frame():
    rng = np.random.default_rng(4)
    clean = rng.standard_normal(100)
    est = clean + 0.1 * rng.standard_normal(100)
    got = ssnr(clean, est)
    want = float(np.clip(10 * np.log10((clean @ clean) / np.sum((clean - est) ** 2)), -10, 35))
    assert abs(got - want) < 1e-12


def test_ssnr_silent_frames_excluded():
    rng = np.random.default_rng(5)
    loud = rng.standard_normal(1024) * 0.5
    clean = np.concatenate([loud, np.zeros(1024)])
    est = clean + 1e-3 * rng.standard_normal(2048)
    # exact-zero clean frames carry no weight; the average stays near the
    # loud-region SNR instead of being dragged by 0/noise frames
    assert ssnr(clean, est) > 30.0


def test_ssnr_length_mismatch():
    with pytest.raises(DataError):
        ssnr(np.zeros(100), np.zeros(99))


def test_error_mag_matches_fft_recompute():
    rng = np.random.default_rng(6)
    clean = rng.standard_normal(1600) * 0.3
    est = clean + 0.1 * rng.standard_normal(1600)
    em, _, _ = spectral_errors(clean, est, CFG)
    sc = stft_ref(clean, CFG.n_fft, CFG.hop, CFG.window)
    se = stft_ref(est, CFG.n_fft, CFG.hop, CFG.window)
    want = float(np.mean((np.abs(sc) - np.abs(se)) ** 2))
    assert abs(em - want) < 1e-12


def test_error_com_matches_fft_recompute():
    rng = np.random.default_rng(7)
    clean = rng.standard_normal(1600) * 0.3
    est = clean + 0.1 * rng.standard_normal(1600)
    _, _, ecom = spectral_errors(clean, est, CFG)
    sc = stft_ref(clean, CFG.n_fft, CFG.hop, CFG.window)
    se = stft_ref(est, CFG.n_fft, CFG.hop, CFG.window)
    want = float(np.mean(np.abs(sc - se) ** 2) / np.mean(np.abs(sc) ** 2))
    assert abs(ecom - want) < 1e-10


def test_identical_signals_have_zero_errors():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1600) * 0.3
    em, ep, ec = spectral_errors(x, x.copy(), CFG)
    assert em == 0.0 and ep == 0.0 and ec == 0.0


def test_sign_flip_phase_error_is_pi():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(1600) * 0.3
    em, ep, ec = spectral_errors(x, -x, CFG)
    assert em < 1e-20               # magnitudes agree exactly
    assert abs(ep - np.pi) < 1e-9   # every active bin is half a turn off
    assert ec > 0


def test_phase_error_weighting_ignores_silent_bins():
    # a pure tone: only bins near the tone carry weight, so corrupting the
    # estimate with tiny wide-band noise barely moves the phase error
    t = np.arange(4000) / 16000
    clean = 0.4 * np.sin(2 * np.pi * 1000 * t)
    est = clean + 1e-8 * np.sin(2 * np.pi * 3000 * t)
    _, ep, _ = spectral_errors(clean, est, CFG)
    assert ep < 1e-4


def test_wrap_phase_anti_wrap_in_error():
    # phases differing by ~2 pi are the same angle
    p = np.array([0.1])
    assert abs(wrap_phase(p + 2 * np.pi) - p) < 1e-12


def test_evaluate_pair_row_contents():
    rng = np.random.default_rng(10)
    clean = AudioClip(rng.standard_normal(1600) * 0.3)
    row = evaluate_pair(clean, clean, CFG)
    assert row["ssnr_db"] == 35.0
    assert row["quality"] == 1.0
    assert row["error_mag"] == 0.0


def test_report_csv_mean_recompute(tmp_path):
    rng = np.random.default_rng(11)
    report = EvalReport()
    for i in range(5):
        clean = AudioClip(rng.standard_normal(1600) * 0.3)
        est = AudioClip(clean.samples + 0.05 * rng.standard_normal(1600))
        row = evaluate_pair(clean, est, CFG)
        row["name"] = f"utt{i}.wav"
        report.rows.append(row)
    report.exclusions.append(("broken.wav", "missing enhanced file"))
    path = tmp_path / "report.csv"
    report.write_csv(path)

    rows = read_report_csv(path)
    data = [r for r in rows if not r["name"].startswith(("MEAN", "EXCLUDED"))]
    mean_row = next(r for r in rows if r["name"] == "MEAN")
    assert len(data) == 5
    for metric in EvalReport.METRICS:
        recomputed = np.mean([float(r[metric]) for r in data])
        assert abs(float(mean_row[metric]) - recomputed) < 1e-9, metric
    assert any(r["name"] == "EXCLUDED:broken.wav" for r in rows)


def test_evaluate_dir_pairs_and_exclusions(tmp_path):
    rng = np.random.default_rng(12)
    (tmp_path / "clean").mkdir()
    (tmp_path / "enh").mkdir()
    for i in range(3):
        x = rng.standard_normal(1600) * 0.2
        wav_write(tmp_path / "clean" / f"utt{i}.wav", x)
        if i < 2:
            wav_write(tmp_path / "enh" / f"utt{i}.wav", x + 0.01 * rng.standard_normal(1600))
    report = evaluate_dir(tmp_path / "clean", tmp_path / "enh", CFG, csv_path=tmp_path / "r.csv")
    assert len(report.rows) == 2
    assert report.exclusions == [("utt2.wav", "missing enhanced file")]
    assert (tmp_path / "r.csv").exists()


def test_evaluate_dir_empty_raises(tmp_path):
    (tmp_path / "clean").mkdir()
    (tmp_path / "enh").mkdir()
    with pytest.raises(DataError):
        evaluate_dir(tmp_path / "clean", tmp_path / "enh", CFG, tmp_path / "r.csv")


def test_evaluate_dir_bad_file_becomes_exclusion(tmp_path):
    rng = np.random.default_rng(13)
    (tmp_path / "clean").mkdir()
    (tmp_path / "enh").mkdir()
    wav_write(tmp_path / "clean" / "a.wav", rng.standard_normal(1600) * 0.2)
    (tmp_path / "enh" / "a.wav").write_bytes(b"not a wav file")
    report = evaluate_dir(tmp_path / "clean", tmp_path / "enh", CFG, tmp_path / "r.csv")
    assert report.rows == []
    assert len(report.exclusions) == 1 and report.exclusions[0][0] == "a.wav"


def test_ssnr_tracks_constructed_snr():
    # broadband pair built at a known energy ratio: with 512-sample frames the
    # per-frame ratios concentrate tightly around the global one
    rng = np.random.default_rng(14)
    clean = 0.2 * rng.standard_normal(8192)
    target_db = 12.0
    noise = rng.standard_normal(8192)
    noise *= np.sqrt(np.sum(clean ** 2) / (np.sum(noise ** 2) * 10.0 ** (target_db / 10.0)))
    est = clean + noise
    assert abs(ssnr(clean, est) - target_db) < 0.5


def test_ssnr_scale_invariant():
    rng = np.random.default_rng(15)
    clean = 0.1 * rng.standard_normal(4096)
    est = clean + 0.02 * rng.standard_normal(4096)
    base = ssnr(clean, est)
    assert abs(ssnr(7.0 * clean, 7.0 * est) - base) < 1e-9
    assert abs(ssnr(0.05 * clean, 0.05 * est) - base) < 1e-9


def test_phase_error_bounded_by_pi():
    for seed in range(5):
        rng = np.random.default_rng(20 + seed)
        a = 0.3 * rng.standard_normal(2000)
        b = 0.3 * rng.standard_normal(2000)
        _, ep, _ = spectral_errors(a, b, CFG)
        assert 0.0 <= ep <= np.pi


def test_evaluate_dir_identical_is_perfect(tmp_path):
    rng = np.random.default_rng(16)
    (tmp_path / "clean").mkdir()
    (tmp_path / "enh").mkdir()
    for i in range(2):
        x = 0.2 * rng.standard_normal(2000)
        wav_write(tmp_path / "clean" / f"u{i}.wav", x)
        wav_write(tmp_path / "enh" / f"u{i}.wav", x)
    report = evaluate_dir(tmp_path / "clean", tmp_path / "enh", CFG, tmp_path / "r.csv")
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["ssnr_db"] == SSNR_CEIL_DB
        assert row["error_mag"] == 0.0 and row["error_com"] == 0.0
        assert row["error_pha"] == 0.0
        assert row["quality"] == 1.0
