"""Training loop: paired-WAV ingestion, AdamW, periodic validation, bit-exact
checkpoint/resume, and the comparison harnesses behind the curve plots.

Determinism contract: given (seed, config, dataset), single-threaded runs
produce identical loss sequences, and a resumed run continues the exact
sequence of an uninterrupted one.  Everything stochastic flows through one
PCG64 stream whose state rides along in checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, no_grad
from .checkpoint import load_checkpoint, save_checkpoint
from .dsp import AudioClip, ComplexSpec, StftConfig, consistency_project, istft, stft
from .errors import ConfigError, DataError, NumericalError
from .losses import (Discriminator, discriminator_loss, generator_loss, mag_mse,
                     metric_loss, proxy_quality)
from .model import _VARIANTS, ModelConfig, build_model
from .params import ParamStore

CURVE_COLUMNS = ("step", "l_mag_consis", "l_metric", "l_disc", "val_mag_error", "val_quality")
TIMING_COLUMNS = ("step", "cpu_s", "wall_s", "peak_rss_mb")
# ru_maxrss counts KiB on Linux and bytes on macOS
_MAXRSS_PER_MIB = 2**20 if sys.platform == "darwin" else 2**10
# validation runs on at most this many clips of the validation split
VALID_CLIPS = 4
# echoed keys that may differ between a checkpoint and the run resuming it
RESUMABLE_KEYS = ("max_steps", "eval_every", "checkpoint_every")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 2
    max_steps: int = 20000
    lr: float = 5e-4
    beta1: float = 0.8
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.01
    eval_every: int = 500
    checkpoint_every: int = 1000
    seed: int = 0
    lambda1: float = 1.0
    lambda2: float = 0.0
    segment_samples: int = 32000
    use_consistency: bool = True
    valid_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        for b in (self.beta1, self.beta2):
            if not 0.0 <= b < 1.0:
                raise ConfigError(f"betas must lie in [0, 1), got {b}")
        if self.eval_every < 1 or self.checkpoint_every < 1:
            raise ConfigError("eval_every and checkpoint_every must be >= 1")
        if self.segment_samples < 1:
            raise ConfigError("segment_samples must be positive")
        if not 0.0 <= self.valid_fraction < 1.0:
            raise ConfigError(f"valid_fraction must be in [0, 1), got {self.valid_fraction}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError(f"loss weights must be non-negative, got {self.lambda1}, {self.lambda2}")
        if self.lambda1 == 0 and self.lambda2 == 0:
            raise ConfigError("loss weights cannot both be zero")


class AdamW:
    """Decoupled weight decay, bias-corrected moments, with the lr, betas, eps
    and weight_decay of a TrainConfig.  Parameters with no gradient this step
    still decay, matching the usual whole-group update."""

    def __init__(self, store: ParamStore, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in store.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in store.items()}

    def step(self):
        self.t += 1
        cfg = self.cfg
        b1, b2 = cfg.beta1, cfg.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.store.items():
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            update = (m / c1) / (np.sqrt(v / c2) + cfg.eps)
            p.data = p.data - cfg.lr * (update + cfg.weight_decay * p.data)

    def state_arrays(self, prefix: str) -> dict:
        out = {}
        for k in self.store.names():
            out[f"{prefix}m/{k}"] = self.m[k]
            out[f"{prefix}v/{k}"] = self.v[k]
        return out

    def load_state(self, arrays: dict, prefix: str, t: int):
        for k in self.store.names():
            self.m[k] = np.array(arrays[f"{prefix}m/{k}"], dtype=np.float64)
            self.v[k] = np.array(arrays[f"{prefix}v/{k}"], dtype=np.float64)
        self.t = int(t)


@dataclass
class DatasetSpec:
    clean_dir: str
    noisy_dir: str
    seed: int = 0
    valid_fraction: float = 0.1


class PairedDataset:
    """Same-named WAV pairs under clean_dir / noisy_dir, split by seed."""

    def __init__(self, spec: DatasetSpec):
        self.spec = spec
        clean_dir = Path(spec.clean_dir)
        noisy_dir = Path(spec.noisy_dir)
        names = sorted(p.name for p in clean_dir.glob("*.wav"))
        if not names:
            raise DataError(f"no .wav files in {clean_dir}")
        missing = [n for n in names if not (noisy_dir / n).exists()]
        if missing:
            raise DataError(f"noisy counterparts missing for: {missing[:5]}")
        self.clean_dir = clean_dir
        self.noisy_dir = noisy_dir
        order = list(names)
        np.random.default_rng(spec.seed).shuffle(order)
        if len(order) == 1:
            self.train_names = self.valid_names = list(order)
        else:
            n_valid = max(1, int(round(spec.valid_fraction * len(order)))) if spec.valid_fraction > 0 else 0
            n_valid = min(n_valid, len(order) - 1)
            self.valid_names = sorted(order[:n_valid])
            self.train_names = sorted(order[n_valid:])
        self._cache: dict = {}

    def load(self, name: str):
        hit = self._cache.get(name)
        if hit is None:
            from .wavio import wav_read
            c = wav_read(self.clean_dir / name)
            n = wav_read(self.noisy_dir / name)
            if len(c) != len(n):
                raise DataError(f"{name}: clean has {len(c)} samples, noisy {len(n)}")
            hit = (c, n)
            self._cache[name] = hit
        return hit


@dataclass
class Batch:
    noisy_mag: Tensor
    noisy_phase: Tensor
    clean_mag: Tensor
    clean: np.ndarray
    ids: list = field(default_factory=list)


def _paired_segment(c: np.ndarray, n: np.ndarray, seg: int, rng):
    length = c.shape[0]
    if length > seg:
        off = int(rng.integers(0, length - seg + 1)) if rng is not None else 0
        return c[off:off + seg], n[off:off + seg], off
    if length < seg:
        padw = (0, seg - length)
        return np.pad(c, padw), np.pad(n, padw), 0
    return c, n, 0


def make_batch(ds: PairedDataset, rng, batch_size: int, seg: int,
               stft_cfg: StftConfig) -> Batch:
    cs, ns, ids = [], [], []
    for _ in range(batch_size):
        name = ds.train_names[int(rng.integers(len(ds.train_names)))]
        cclip, nclip = ds.load(name)
        c, n, off = _paired_segment(cclip.samples, nclip.samples, seg, rng)
        cs.append(c)
        ns.append(n)
        ids.append(f"{name}@{off}")
    clean = np.stack(cs)
    noisy = np.stack(ns)
    nspec = stft(Tensor(noisy), stft_cfg)
    return Batch(
        noisy_mag=nspec.mag,
        noisy_phase=nspec.phase,
        clean_mag=stft(Tensor(clean), stft_cfg).mag,
        clean=clean,
        ids=ids,
    )


def _echoed_fields():
    # (config class, key, type) for every field of the three configs
    out = []
    for cls in (ModelConfig, StftConfig, TrainConfig):
        hints = typing.get_type_hints(cls)
        out += [(cls, f.name, hints[f.name]) for f in fields(cls)]
    return tuple(out)


ECHOED_FIELDS = _echoed_fields()


def config_echo(model_cfg: ModelConfig, stft_cfg: StftConfig, train_cfg: TrainConfig) -> dict:
    """Flat JSON-shaped record of every echoed field; tuples become lists."""
    cfgs = {ModelConfig: model_cfg, StftConfig: stft_cfg, TrainConfig: train_cfg}
    echo = {}
    for cls, key, _ in ECHOED_FIELDS:
        val = getattr(cfgs[cls], key)
        echo[key] = list(val) if isinstance(val, tuple) else val
    return echo


def configs_from_echo(echo: dict):
    """Model and STFT configs from an echo; keys it lacks take the field defaults."""
    kw = {ModelConfig: {}, StftConfig: {}}
    for cls, key, typ in ECHOED_FIELDS:
        if cls in kw and key in echo:
            kw[cls][key] = typ(echo[key])
    return ModelConfig(**kw[ModelConfig]), StftConfig(**kw[StftConfig])


def _check_resume_echo(saved_echo: dict, echo: dict):
    # the running config's keys only: a key the configs no longer have is ignored
    saved = {**config_echo(ModelConfig(), StftConfig(), TrainConfig()), **saved_echo}
    bad = [k for k in sorted(echo) if k not in RESUMABLE_KEYS and saved[k] != echo[k]]
    if bad:
        diffs = "; ".join(f"{k}={saved[k]!r} (now {echo[k]!r})" for k in bad)
        raise ConfigError(f"checkpoint was trained with {diffs}; only "
                          f"{', '.join(RESUMABLE_KEYS)} may change on resume")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MIB


def _make_dir(path: Path):
    """Create a directory and its parents; a file in the way, or any other
    OSError, is a DataError naming the path."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"{path}: cannot create directory ({e.strerror or e})") from None


@dataclass
class TrainResult:
    curves_path: str
    checkpoints: list
    losses: list
    final_val: dict
    model: object


def enhance_waveforms(model, noisy: np.ndarray, stft_cfg: StftConfig):
    """Mask one clip's noisy magnitude and resynthesise with the noisy phase.

    Returns (enhanced magnitude (1, T, F), waveform (L,)) as plain arrays.
    Runs under no_grad, so no tape is recorded, each feature map is freed
    once the next layer has read it, and each gaze view runs over chunks of
    rows (``model.ts_mvgb_forward``).  On a long clip that peaks at about
    three widest feature maps, which the model's ``enhance_peak_bytes``
    estimates from the clip's length.
    The model sees the magnitude in its parameters' dtype, so a float32
    model runs a float32 forward; the STFT and the synthesis stay float64.
    """
    with no_grad():
        spec = stft(Tensor(noisy[None, :]), stft_cfg)
        mag = Tensor(spec.mag.data.astype(model.store.dtype, copy=False))
        _, enh = model.forward(mag)
        return enh.data, istft(ComplexSpec(enh, spec.phase), stft_cfg, noisy.shape[0]).data[0]


def _valid_items(dataset: PairedDataset, seg: int) -> list:
    items = []
    for name in dataset.valid_names[:VALID_CLIPS]:
        cclip, nclip = dataset.load(name)
        c, n, _ = _paired_segment(cclip.samples, nclip.samples, seg, rng=None)
        items.append((c, n))
    return items


def _validate(model, items, stft_cfg):
    errs, quals = [], []
    for clean_seg, noisy_seg in items:
        cmag = stft(Tensor(clean_seg[None, :]), stft_cfg).mag.data
        enh, est = enhance_waveforms(model, noisy_seg, stft_cfg)
        errs.append(float(np.mean((cmag - enh) ** 2)))
        quals.append(proxy_quality(AudioClip(clean_seg), AudioClip(est)))
    return float(np.mean(errs)), float(np.mean(quals))


def _open_step_log(path: Path, header: list, start_step: int):
    """Open a per-step CSV to append the rows after start_step.  A resumed
    run keeps the rows up to its checkpoint and drops later ones, which it
    writes again."""
    lines = header
    if start_step and path.exists():
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln[:1].isdigit() or int(ln.split(",", 1)[0]) <= start_step]
    path.write_text("".join(ln + "\n" for ln in lines))
    return open(path, "a")


def train(model_cfg: ModelConfig, stft_cfg: StftConfig, train_cfg: TrainConfig,
          dataset: PairedDataset, out_dir, resume=None, log=None) -> TrainResult:
    if train_cfg.valid_fraction != dataset.spec.valid_fraction:
        raise ConfigError(f"valid_fraction {train_cfg.valid_fraction} would be echoed in every "
                          f"checkpoint, but the dataset splits off {dataset.spec.valid_fraction}")
    out_dir = Path(out_dir)
    _make_dir(out_dir)
    seg = train_cfg.segment_samples
    if seg < stft_cfg.win_length:
        raise ConfigError(f"segment_samples {seg} shorter than one window {stft_cfg.win_length}")

    model = build_model(model_cfg, stft_cfg, seed=train_cfg.seed)
    opt = AdamW(model.store, train_cfg)
    disc = disc_opt = None
    if train_cfg.lambda2 > 0:
        disc = Discriminator(seed=train_cfg.seed + 1)
        disc_opt = AdamW(disc.store, train_cfg)

    rng = np.random.default_rng(train_cfg.seed)
    start_step = 0
    best_val = None
    echo = config_echo(model_cfg, stft_cfg, train_cfg)
    # the clips the run validates on, and a digest of those it trains on
    split = {"valid": dataset.valid_names,
             "train_sha256": hashlib.sha256("\n".join(dataset.train_names).encode()).hexdigest()}

    if resume is not None:
        arrays, saved_echo, extra = load_checkpoint(resume)
        _check_resume_echo(saved_echo, echo)
        saved = extra.get("split", split)  # a checkpoint from before the record has none
        if saved != split:
            other = "" if saved["valid"] != split["valid"] else " with other training clips"
            raise ConfigError(f"checkpoint validated on {saved['valid']}, this dataset on "
                              f"{split['valid']}{other}; use its clips and dataset seed")
        if train_cfg.max_steps < int(extra["step"]):
            raise ConfigError(f"max_steps {train_cfg.max_steps} is below the checkpoint's "
                              f"step {extra['step']}: {resume} has trained past it")
        model.store.load_state({k[2:]: v for k, v in arrays.items() if k.startswith("p/")})
        opt.load_state(arrays, "", extra["opt_t"])
        if disc is not None:
            disc.store.load_state({k[3:]: v for k, v in arrays.items() if k.startswith("dp/")})
            disc_opt.load_state(arrays, "d", extra["disc_opt_t"])
        rng.bit_generator.state = extra["rng_state"]
        start_step = int(extra["step"])
        best_val = extra.get("best_val")

    valid_items = _valid_items(dataset, seg)
    if log:
        log(f"validating on {len(valid_items)} of {len(dataset.valid_names)} clips"
            if valid_items else "no validation clips (valid_fraction=0): skipping validation")

    curves_path = out_dir / "curves.csv"
    curves_header = ["# val_quality: built-in proxy oracle (not PESQ)", ",".join(CURVE_COLUMNS)]

    losses = []
    checkpoints = []
    final_val = {}

    def save(step):
        arrays = {f"p/{k}": p.data for k, p in model.store.items()}
        arrays.update(opt.state_arrays(""))
        extra = {"step": step, "opt_t": opt.t, "rng_state": rng.bit_generator.state,
                 "best_val": best_val, "split": split}
        if disc is not None:
            arrays.update({f"dp/{k}": p.data for k, p in disc.store.items()})
            arrays.update(disc_opt.state_arrays("d"))
            extra["disc_opt_t"] = disc_opt.t
        path = out_dir / f"ckpt_step{step}.dtsn"
        save_checkpoint(path, arrays, echo, extra)
        checkpoints.append(str(path))
        return path

    with _open_step_log(curves_path, curves_header, start_step) as curves, \
            _open_step_log(out_dir / "timing.csv", [",".join(TIMING_COLUMNS)], start_step) as timing:
        for step in range(start_step + 1, train_cfg.max_steps + 1):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            batch = make_batch(dataset, rng, train_cfg.batch_size, seg, stft_cfg)
            model.store.zero_grad()
            enh = model.forward(batch.noisy_mag)[1]  # the mask is not kept into the next step

            x_out = (consistency_project(enh, batch.noisy_phase, stft_cfg, seg)
                     if train_cfg.use_consistency else enh)
            l_mag = mag_mse(batch.clean_mag, x_out)

            l_metric = None
            l_disc_val = 0.0
            if disc is not None:
                est_wavs = istft(ComplexSpec(Tensor(enh.data), batch.noisy_phase),
                                 stft_cfg, seg).data
                q = [proxy_quality(AudioClip(batch.clean[i]), AudioClip(est_wavs[i]))
                     for i in range(train_cfg.batch_size)]
                x_det = Tensor(x_out.data.copy())
                disc.store.zero_grad()
                l_d = discriminator_loss(disc, batch.clean_mag, x_det, q)
                if not np.isfinite(l_d.data):
                    _dump_abort(out_dir, step, batch, "discriminator loss")
                backward(l_d)
                disc_opt.step()
                l_disc_val = float(l_d.data)
                disc.store.zero_grad()
                l_metric = metric_loss(disc, batch.clean_mag, x_out)

            l_g = generator_loss(train_cfg.lambda1, train_cfg.lambda2, l_mag, l_metric)
            if not np.isfinite(l_g.data):
                _dump_abort(out_dir, step, batch, "generator loss")
            backward(l_g)
            opt.step()
            if disc is not None:
                disc.store.zero_grad()  # generator backward leaks grads into D

            l_mag_val = float(l_mag.data)
            l_metric_val = float(l_metric.data) if l_metric is not None else 0.0
            losses.append(l_mag_val)

            val_err = val_q = ""
            if valid_items and (step % train_cfg.eval_every == 0 or step == train_cfg.max_steps):
                ve, vq = _validate(model, valid_items, stft_cfg)
                val_err = f"{ve:.10g}"
                val_q = f"{vq:.10g}"
                if best_val is None or ve < best_val:
                    best_val = ve
                final_val = {"val_mag_error": ve, "val_quality": vq}
                if log:
                    log(f"step {step}: l_mag {l_mag_val:.6f} val_err {ve:.6f} val_q {vq:.4f}")

            curves.write(f"{step},{l_mag_val:.10g},{l_metric_val:.10g},{l_disc_val:.10g},"
                         f"{val_err},{val_q}\n")

            if step % train_cfg.checkpoint_every == 0 or step == train_cfg.max_steps:
                save(step)
            timing.write(f"{step},{time.process_time() - cpu0:.6f},"
                         f"{time.perf_counter() - wall0:.6f},{peak_rss_mb():.1f}\n")

    return TrainResult(curves_path=str(curves_path), checkpoints=checkpoints,
                       losses=losses, final_val=final_val, model=model)


def _dump_abort(out_dir, step, batch, what):
    dump = {"step": step, "batch_ids": batch.ids, "failed": what}
    path = Path(out_dir) / "abort_dump.json"
    path.write_text(json.dumps(dump, indent=2))
    raise NumericalError(f"non-finite {what} at step {step}; offending batch {batch.ids} "
                         f"(details in {path})")


# ---------------------------------------------------------------------------
# synthetic paired data
# ---------------------------------------------------------------------------

# SNRs of the synthetic pairs are drawn uniformly from this range, in dB
SYNTH_SNR_DB = (0.0, 15.0)


def synth_dataset(n_pairs: int, seed: int, out_dir, duration_s: float = 3.0) -> dict:
    """Paired harmonic-tone clips: clean plus tilt-shaped noise at a requested
    SNR drawn from SYNTH_SNR_DB.  Deterministic per (n_pairs, seed)."""
    from .wavio import SAMPLE_RATE, wav_write
    out_dir = Path(out_dir)
    _make_dir(out_dir / "clean")
    _make_dir(out_dir / "noisy")
    rng = np.random.default_rng(seed)
    n = int(duration_s * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    rows = []
    for i in range(n_pairs):
        f0 = float(rng.uniform(90.0, 280.0))
        sig = np.zeros(n)
        for k in range(1, 6):
            amp = rng.uniform(0.4, 1.0) / k
            sig += amp * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        am = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t + rng.uniform(0, 2 * np.pi))
        sig *= am
        ramp = min(n, SAMPLE_RATE // 10)
        sig[:ramp] *= np.linspace(0.0, 1.0, ramp)
        sig *= 0.35 / np.max(np.abs(sig))

        white = rng.normal(size=n)
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
        fc = rng.uniform(500.0, 4000.0)
        spec *= 1.0 / (1.0 + freqs / fc)
        noise = np.fft.irfft(spec, n=n)

        snr_db = float(rng.uniform(*SYNTH_SNR_DB))
        target = 10.0 ** (snr_db / 10.0)
        scale = np.sqrt((sig @ sig) / ((noise @ noise) * target))
        noisy = sig + scale * noise
        peak = max(np.max(np.abs(noisy)), np.max(np.abs(sig)))
        if peak > 0.999:   # joint rescale keeps the SNR untouched
            sig = sig * (0.999 / peak)
            noisy = noisy * (0.999 / peak)
        name = f"utt{i:03d}.wav"
        wav_write(out_dir / "clean" / name, sig)
        wav_write(out_dir / "noisy" / name, noisy)
        rows.append((name, snr_db, f0))
    with open(out_dir / "manifest.csv", "w") as f:
        f.write("name,snr_db,f0_hz\n")
        for name, snr_db, f0 in rows:
            f.write(f"{name},{snr_db:.6f},{f0:.3f}\n")
    return {"dir": str(out_dir), "pairs": n_pairs, "manifest": str(out_dir / "manifest.csv")}


# ---------------------------------------------------------------------------
# comparison harnesses
# ---------------------------------------------------------------------------

def compare_variants(dataset: PairedDataset, stft_cfg: StftConfig,
                     train_cfg: TrainConfig, out_dir) -> dict:
    """Train both variants under one config; write a side-by-side summary."""
    out_dir = Path(out_dir)
    results = {}
    for variant in _VARIANTS:
        results[variant] = train(ModelConfig(variant=variant), stft_cfg, train_cfg, dataset,
                                 out_dir / variant)
    lines = ["variant,final_val_mag_error,final_val_quality,params"]
    for variant, res in results.items():
        lines.append(f"{variant},{res.final_val.get('val_mag_error', '')},"
                     f"{res.final_val.get('val_quality', '')},{res.model.count_params()}")
    d = results["dense_ts"].final_val
    c = results["classic_ts"].final_val
    if d and c:
        ahead = "dense_ts" if d["val_mag_error"] <= c["val_mag_error"] else "classic_ts"
        lines.append(f"# at the final step, {ahead} had the lower validation magnitude error"
                     " (qualitative observation, not an assertion)")
    (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")
    return results


# the metric-loss weight ratios P = lambda2/lambda1 that loss_study sweeps
LOSS_STUDY_P = (0.0, 1.0, 200.0)


def loss_study(dataset: PairedDataset, stft_cfg: StftConfig, train_cfg: TrainConfig,
               out_dir) -> dict:
    """Sweep the metric-loss weight ratio P over LOSS_STUDY_P and report the
    spectral errors of each trained model on the validation items."""
    from .evaluation import spectral_errors
    valid_items = _valid_items(dataset, train_cfg.segment_samples)
    if not valid_items:
        raise ConfigError("loss_study scores the validation split, which is empty")
    out_dir = Path(out_dir)
    _make_dir(out_dir)
    results = {}
    rows = ["p,error_mag,error_pha,error_com,final_l_mag"]
    for p in LOSS_STUDY_P:
        cfg = replace(train_cfg, lambda1=1.0, lambda2=float(p))
        res = train(ModelConfig(), stft_cfg, cfg, dataset, out_dir / f"p{p:g}")
        errs = []
        for c, n in valid_items:
            _, est = enhance_waveforms(res.model, n, stft_cfg)
            errs.append(spectral_errors(c, est, stft_cfg))
        mean_errs = tuple(float(np.mean([e[k] for e in errs])) for k in range(3))
        results[p] = {"errors": mean_errs, "result": res}
        rows.append(f"{p:g},{mean_errs[0]:.10g},{mean_errs[1]:.10g},{mean_errs[2]:.10g},"
                    f"{res.losses[-1]:.10g}")
    mags = [results[p]["errors"][0] for p in LOSS_STUDY_P]
    monotone = all(mags[i] <= mags[i + 1] for i in range(len(mags) - 1))
    rows.append(f"# error_mag monotone nondecreasing in P: {monotone} "
                "(logged observation; training-dependent, not asserted)")
    (out_dir / "loss_study.csv").write_text("\n".join(rows) + "\n")
    return results
