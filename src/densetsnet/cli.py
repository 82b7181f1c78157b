"""Command-line surface: train, enhance, eval, inspect, synth-data.

Configuration is a flat key=value namespace (file via --config, overrides via
--set key=value); every key is listed in --help.  Unknown keys are rejected
by name.  Exit codes: 0 ok, 2 bad configuration, 3 bad data, 4 numerical
abort.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .evaluation import evaluate_dir
from .losses import proxy_quality
from .model import _DROPPABLE, _VARIANTS, build_model
from .training import (ECHOED_FIELDS, DatasetSpec, PairedDataset,
                       configs_from_echo, enhance_waveforms, synth_dataset, train)
from .wavio import wav_read, wav_seconds, wav_write

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_drop(s: str):
    return tuple(part.strip() for part in s.split(",") if part.strip())


# key -> (config class, parser of its text form)
_KEYS = {key: (cls, {bool: _parse_bool, tuple: _parse_drop}.get(typ, typ))
         for cls, key, typ in ECHOED_FIELDS}


def _defaults() -> dict:
    return {key: getattr(cls(), key) for key, (cls, _) in _KEYS.items()}


def _apply(vals: dict, key: str, raw: str, origin: str):
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r} ({origin}); "
                          f"known keys: {', '.join(sorted(_KEYS))}")
    _, caster = _KEYS[key]
    try:
        vals[key] = caster(raw) if isinstance(raw, str) else raw
    except (ValueError, TypeError):
        raise ConfigError(f"bad value {raw!r} for key {key!r} ({origin})") from None


def _read_config_file(vals: dict, path: str):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        _apply(vals, key.strip(), raw.strip(), f"{path}:{lineno}")


def _build_configs(args) -> tuple:
    vals = _defaults()
    if getattr(args, "config", None):
        _read_config_file(vals, args.config)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply(vals, key.strip(), raw.strip(), "--set")
    if getattr(args, "variant", None):
        vals["variant"] = args.variant
    if getattr(args, "drop", None):
        vals["drop"] = tuple(vals.get("drop", ())) + tuple(d.lower() for d in args.drop)
    if getattr(args, "no_consistency", False):
        vals["use_consistency"] = False
    if getattr(args, "seed", None) is not None:
        vals["seed"] = args.seed
    if getattr(args, "steps", None) is not None:
        vals["max_steps"] = args.steps

    by_cls = {cls: {} for cls, _ in _KEYS.values()}
    for key, val in vals.items():
        by_cls[_KEYS[key][0]][key] = val
    return tuple(cls(**kw) for cls, kw in by_cls.items())


def _config_key_help() -> str:
    lines = ["configuration keys (config file or --set key=value):"]
    d = _defaults()
    for key in sorted(_KEYS):
        lines.append(f"  {key} (default {d[key]!r})")
    return "\n".join(lines)


def cmd_train(args) -> int:
    model_cfg, stft_cfg, train_cfg = _build_configs(args)
    out_dir = Path(args.out)
    if args.synthetic is not None:
        data_dir = out_dir / "synth_data"
        synth_dataset(args.synthetic, seed=train_cfg.seed, out_dir=data_dir)
        clean_dir, noisy_dir = data_dir / "clean", data_dir / "noisy"
    else:
        if not args.clean_dir or not args.noisy_dir:
            raise ConfigError("train needs --clean-dir and --noisy-dir, or --synthetic N")
        clean_dir, noisy_dir = args.clean_dir, args.noisy_dir
    ds = PairedDataset(DatasetSpec(str(clean_dir), str(noisy_dir),
                                   seed=train_cfg.seed,
                                   valid_fraction=train_cfg.valid_fraction))
    log = None if args.quiet else print
    res = train(model_cfg, stft_cfg, train_cfg, ds, out_dir,
                resume=args.resume, log=log)
    print(f"trained {train_cfg.max_steps} steps; curves: {res.curves_path}")
    if res.checkpoints:
        print(f"last checkpoint: {res.checkpoints[-1]}")
    if res.final_val:
        print(f"final validation: mag error {res.final_val['val_mag_error']:.6g}, "
              f"quality {res.final_val['val_quality']:.4f}")
    return 0


def _load_model(ckpt_path):
    """Build the checkpoint's model with its parameters cast to float32: the
    CLI only runs inference, and float32 halves the bytes every gaze-block
    map moves.  Training keeps float64 models in memory."""
    arrays, echo, extra = load_checkpoint(ckpt_path)
    model_cfg, stft_cfg = configs_from_echo(echo)
    model = build_model(model_cfg, stft_cfg, seed=0)
    model.store.load_state({k[2:]: v for k, v in arrays.items() if k.startswith("p/")})
    model.store.astype(np.float32)
    return model, stft_cfg, echo, extra


def _enhance_one(model, stft_cfg, in_path, out_path):
    _, est = enhance_waveforms(model, wav_read(in_path).samples, stft_cfg)
    wav_write(out_path, est)


def cmd_enhance(args) -> int:
    model, stft_cfg, _, _ = _load_model(args.ckpt)
    in_path = Path(getattr(args, "in"))
    out_path = Path(args.out)
    cpu0 = time.process_time()
    if in_path.is_dir():
        names = sorted(p.name for p in in_path.glob("*.wav"))
        if not names:
            raise DataError(f"no .wav files in {in_path}")
        out_path.mkdir(parents=True, exist_ok=True)
        pairs = [(in_path / name, out_path / name) for name in names]
        done = f"enhanced {len(names)} files into {out_path}"
    elif in_path.exists():
        pairs = [(in_path, out_path)]
        done = f"enhanced {in_path} -> {out_path}"
    else:
        raise DataError(f"input not found: {in_path}")
    for _, target in pairs:  # all before any is written
        if target.exists() and not args.force:
            raise DataError(f"{target} exists; use --force to overwrite")
    for source, target in pairs:
        _enhance_one(model, stft_cfg, source, target)
    cpu_s = time.process_time() - cpu0
    audio_s = sum(wav_seconds(target) for _, target in pairs)  # > 0: a clip is at least one window
    print(f"{done} ({model.store.dtype}, {audio_s:.2f} s of audio, "
          f"CPU real-time factor {cpu_s / audio_s:.3f})")
    return 0


def cmd_eval(args) -> int:
    _, stft_cfg, _ = _build_configs(args)
    report = evaluate_dir(args.clean_dir, args.enhanced_dir, stft_cfg,
                          oracle=proxy_quality, csv_path=args.out)
    means = report.means()
    print(f"evaluated {len(report.rows)} pairs -> {args.out}")
    print("mean: " + ", ".join(f"{k} {means[k]:.6g}" for k in report.METRICS))
    if report.exclusions:
        for name, reason in report.exclusions:
            print(f"excluded {name}: {reason}", file=sys.stderr)
        raise DataError(f"{len(report.exclusions)} pair(s) failed to evaluate")
    return 0


PARAM_BAND = (8_000, 20_000)
PARAM_TARGET = 14_000
MACS_REFERENCE = 356_000_000
MACS_TOL = 0.5


def cmd_inspect(args) -> int:
    if args.ckpt:
        model, stft_cfg, echo, extra = _load_model(args.ckpt)
        print(f"checkpoint: {args.ckpt} (step {extra.get('step', '?')})")
        print(f"variant: {echo['variant']}")
    else:
        model_cfg, stft_cfg, _ = _build_configs(args)
        model = build_model(model_cfg, stft_cfg, seed=0)
        print(f"variant: {model_cfg.variant}")
    t_frames = 1 + 32000 // stft_cfg.hop
    table = model.layer_table(t=t_frames, f=stft_cfg.n_bins)
    width = max(len(r[0]) for r in table)
    print(f"{'layer group':<{width}}  {'params':>8}  {'macs (2 s)':>12}")
    for group, p, m in table:
        print(f"{group:<{width}}  {p:>8}  {m:>12}")
    total_p = model.count_params()
    total_m = model.count_macs(t=t_frames, f=stft_cfg.n_bins)
    print(f"{'TOTAL':<{width}}  {total_p:>8}  {total_m:>12}")
    lo, hi = PARAM_BAND
    in_band = lo <= total_p <= hi
    print(f"design target ~{PARAM_TARGET // 1000}K params (band {lo // 1000}K-{hi // 1000}K): "
          f"{'within band' if in_band else 'OUTSIDE BAND'}")
    ratio = total_m / MACS_REFERENCE
    ok = abs(ratio - 1.0) <= MACS_TOL
    print(f"design target ~{MACS_REFERENCE // 10**6}M MACs for a 2 s clip "
          f"(+/-{int(MACS_TOL * 100)}%): {total_m / 10**6:.1f}M "
          f"({'within tolerance' if ok else 'OUTSIDE TOLERANCE'}, ratio {ratio:.2f})")
    return 0


def cmd_synth_data(args) -> int:
    info = synth_dataset(args.pairs, seed=args.seed, out_dir=args.out,
                         duration_s=args.duration)
    print(f"wrote {info['pairs']} pairs under {info['dir']} (manifest: {info['manifest']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="densetsnet",
        description="Ultra-lightweight magnitude-masking speech enhancement toolkit.",
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    t = sub.add_parser("train", help="train a model", epilog=_config_key_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    add_config_args(t)
    t.add_argument("--out", required=True, help="output directory (curves, checkpoints)")
    t.add_argument("--clean-dir")
    t.add_argument("--noisy-dir")
    t.add_argument("--synthetic", type=int, metavar="N",
                   help="generate an N-pair synthetic dataset instead of reading WAV dirs")
    t.add_argument("--variant", choices=list(_VARIANTS))
    t.add_argument("--drop", action="append",
                   choices=[d.upper() for d in _DROPPABLE] + list(_DROPPABLE),
                   help="replace a gaze-block branch with identity (repeatable)")
    t.add_argument("--no-consistency", action="store_true",
                   help="train on the raw magnitude error, skipping the projection")
    t.add_argument("--seed", type=int)
    t.add_argument("--steps", type=int, help="shorthand for --set max_steps=N")
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("enhance", help="denoise WAV file(s) with a trained checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--in", required=True, metavar="PATH",
                   help="input WAV file or directory")
    e.add_argument("--out", required=True, help="output WAV file or directory")
    e.add_argument("--force", action="store_true", help="overwrite existing outputs")
    e.set_defaults(fn=cmd_enhance)

    v = sub.add_parser("eval", help="score enhanced files against clean references")
    add_config_args(v)
    v.add_argument("--clean-dir", required=True)
    v.add_argument("--enhanced-dir", required=True)
    v.add_argument("--out", required=True, help="report CSV path")
    v.set_defaults(fn=cmd_eval)

    i = sub.add_parser("inspect", help="parameter/MAC budget of a config or checkpoint",
                       epilog=_config_key_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    add_config_args(i)
    i.add_argument("--ckpt", help="inspect a checkpoint instead of a config")
    i.set_defaults(fn=cmd_inspect)

    s = sub.add_parser("synth-data", help="generate a paired synthetic dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--pairs", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--duration", type=float, default=3.0, help="seconds per clip")
    s.set_defaults(fn=cmd_synth_data)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
