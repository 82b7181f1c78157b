"""Objective quality measures: segmental SNR and spectral distances.

Conventions (fixed here, documented in every report header):
  - SSNR: 32 ms frames, 16 ms hop, per-frame SNR clamped to [-10, 35] dB,
    frames whose clean energy sits below 1e-6 of the loudest frame are
    treated as silence and excluded from the average.
  - Phase error: anti-wrapped absolute difference, weighted by clean
    magnitude, silent bins excluded.  Group-delay weighting is an equally
    defensible convention; numbers are meant for relative comparison only.
  - Quality: ``losses.proxy_quality``, segmental SNR through a logistic.
    It stands in for PESQ, which the package does not implement.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .dsp import AudioClip, StftConfig, stft_pair, wrap_phase
from .errors import DataError

SSNR_FRAME = 512  # 32 ms at 16 kHz
SSNR_HOP = 256
SSNR_FLOOR_DB = -10.0
SSNR_CEIL_DB = 35.0
SILENCE_RATIO = 1e-6

PHASE_CONVENTION = ("phase error = clean-magnitude-weighted mean of anti-wrapped "
                    "absolute phase difference, silent bins excluded")


def _samples(x) -> np.ndarray:
    if isinstance(x, AudioClip):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def ssnr(clean, est) -> float:
    """Mean per-frame SNR in dB, clamped to [-10, 35], silence excluded."""
    c = _samples(clean)
    e = _samples(est)
    if c.shape != e.shape:
        raise DataError(f"ssnr length mismatch: clean {c.shape[0]} vs est {e.shape[0]}")
    frame = min(c.shape[0], SSNR_FRAME)  # a clip shorter than a frame is one frame
    ec, en = [], []
    for s in range(0, c.shape[0] - frame + 1, SSNR_HOP):
        cc = c[s:s + frame]
        dd = cc - e[s:s + frame]
        ec.append(float(cc @ cc))
        en.append(float(dd @ dd))
    ec = np.asarray(ec)
    en = np.asarray(en)
    active = ec > SILENCE_RATIO * ec.max() if ec.max() > 0 else np.zeros_like(ec, dtype=bool)
    if not np.any(active):
        return 0.0
    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(np.where(en > 0, ec / np.maximum(en, 1e-300), np.inf))
    snr = np.clip(snr[active], SSNR_FLOOR_DB, SSNR_CEIL_DB)
    return float(snr.mean())


def _spec(sig: np.ndarray, cfg: StftConfig):
    re, im = stft_pair(Tensor(sig[None, :]), cfg)
    return re.data[0], im.data[0]


def spectral_errors(clean, est, cfg: StftConfig):
    """(error_mag, error_pha, error_com) over aligned STFTs."""
    c = _samples(clean)
    e = _samples(est)
    if c.shape != e.shape:
        raise DataError(f"spectral_errors length mismatch: {c.shape[0]} vs {e.shape[0]}")
    cr, ci = _spec(c, cfg)
    er, ei = _spec(e, cfg)
    cmag = np.hypot(cr, ci)
    emag = np.hypot(er, ei)

    error_mag = float(np.mean((cmag - emag) ** 2))

    dphase = np.abs(wrap_phase(np.arctan2(ci, cr) - np.arctan2(ei, er)))
    energy = cmag * cmag
    active = energy > SILENCE_RATIO * energy.max() if energy.max() > 0 else np.zeros_like(energy, dtype=bool)
    if np.any(active):
        w = cmag[active]
        error_pha = float((w * dphase[active]).sum() / w.sum())
    else:
        error_pha = 0.0

    cpow = np.mean(cr * cr + ci * ci)
    diff = np.mean((cr - er) ** 2 + (ci - ei) ** 2)
    error_com = float(diff / cpow) if cpow > 0 else float(diff)
    return error_mag, error_pha, error_com


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)       # dicts: name + metric values
    exclusions: list = field(default_factory=list)  # (name, reason)

    METRICS = ("ssnr_db", "error_mag", "error_pha", "error_com", "quality")

    def means(self) -> dict:
        out = {}
        for m in self.METRICS:
            vals = [r[m] for r in self.rows]
            out[m] = float(np.mean(vals)) if vals else float("nan")
        return out

    def write_csv(self, path):
        means = self.means()
        try:
            with open(path, "w", newline="") as f:
                f.write(f"# {PHASE_CONVENTION}\n")
                f.write("# quality column: built-in proxy oracle (not PESQ)\n")
                wr = csv.writer(f)
                wr.writerow(["name", *self.METRICS])
                for r in self.rows:
                    wr.writerow([r["name"]] + [f"{r[m]:.17g}" for m in self.METRICS])
                wr.writerow(["MEAN"] + [f"{means[m]:.17g}" for m in self.METRICS])
                for name, reason in self.exclusions:
                    wr.writerow([f"EXCLUDED:{name}", reason, "", "", "", ""])
        except OSError as e:
            raise DataError(f"{path}: cannot write ({e.strerror or e})") from None


def evaluate_pair(clean_clip: AudioClip, est_clip: AudioClip, cfg: StftConfig) -> dict:
    from .losses import proxy_quality  # losses imports this module
    row = {
        "ssnr_db": ssnr(clean_clip, est_clip),
    }
    em, ep, ec = spectral_errors(clean_clip, est_clip, cfg)
    row.update(error_mag=em, error_pha=ep, error_com=ec)
    row["quality"] = proxy_quality(clean_clip, est_clip)
    return row


def evaluate_dir(clean_dir, enhanced_dir, cfg: StftConfig, csv_path) -> EvalReport:
    """Pair files by name and write the report to csv_path; failures are
    reported, never silently dropped."""
    from .wavio import wav_read
    clean_dir = Path(clean_dir)
    enhanced_dir = Path(enhanced_dir)
    report = EvalReport()
    names = sorted(p.name for p in clean_dir.glob("*.wav"))
    if not names:
        raise DataError(f"no .wav files found in {clean_dir}")
    for name in names:
        epath = enhanced_dir / name
        if not epath.exists():
            report.exclusions.append((name, "missing enhanced file"))
            continue
        try:
            cclip = wav_read(clean_dir / name)
            eclip = wav_read(epath)
            row = evaluate_pair(cclip, eclip, cfg)
        except DataError as e:
            report.exclusions.append((name, str(e)))
            continue
        row["name"] = name
        report.rows.append(row)
    report.write_csv(csv_path)
    return report
