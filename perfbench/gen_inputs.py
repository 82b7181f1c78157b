"""Seeded inputs for one benchmark workload, made outside the timed process.

    python3 perfbench/gen_inputs.py --workload train-paper --seed 3 --seconds 30 --out DIR

Writes the synthetic WAV pairs (train-*), or the noisy/clean clip directory
and a checkpoint from a short seeded smoke ``train`` (enhance-eval), and
DIR/inputs.json describing them and their sizes.  The same arguments give
the same files.  Run with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

POOL = 4           # seeds map onto this many input sets, each with a stored reference
SR = 16000
TRAIN_PAIRS = 8
TRAIN_CLIP_S = 3.0
CLIP_S = 2.0
LONG_CLIP_S = 8.0
CKPT_STEPS = 3
# Wall seconds of one unit of work (a step, or a 2 s clip enhanced and
# scored) at the commit that defined the benchmark.  A run does --seconds
# divided by this many units, so every commit measures the same work.
NOMINAL_UNIT_S = {"train-paper": 5.0, "train-smoke": 0.2, "enhance-eval": 1.6}
TRAIN_CONFIGS = {"train-paper": {"batch_size": 2, "segment_samples": 32000},
                 "train-smoke": {"batch_size": 1, "segment_samples": 4000}}


def cache_sizes() -> dict:
    """Per-core cache sizes in bytes by level, read from sysfs."""
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * mult
    return out


def map_size(batch: int, samples: int) -> dict:
    """Frames x bins of one spectrogram and the bytes of the widest feature
    map the default model keeps for it (B, T, F, dense_channel * depth)."""
    from densetsnet.dsp import StftConfig
    from densetsnet.model import ModelConfig
    stft, mc = StftConfig(), ModelConfig()
    t, f = stft.frame_count(samples), stft.n_bins
    c = mc.dense_channel * mc.depth
    return {"shape": [batch, t, f, c], "T_x_F": f"{t} x {f}", "bytes": batch * t * f * c * 8}


def gen_train(workload, data_seed, units, out: Path) -> dict:
    from densetsnet.training import synth_dataset
    synth_dataset(TRAIN_PAIRS, seed=data_seed, out_dir=out / "data", duration_s=TRAIN_CLIP_S)
    cfg = TRAIN_CONFIGS[workload]
    b, seg = cfg["batch_size"], cfg["segment_samples"]
    return {
        "clean_dir": str(out / "data" / "clean"), "noisy_dir": str(out / "data" / "noisy"),
        "steps": units, **cfg,
        "sizes": {"pairs": TRAIN_PAIRS, "clip_s": TRAIN_CLIP_S,
                  "audio_s_per_step": b * seg / SR, "map": map_size(b, seg)},
    }


def gen_enhance(data_seed, units, out: Path) -> dict:
    from densetsnet.dsp import StftConfig
    from densetsnet.model import ModelConfig
    from densetsnet.training import (DatasetSpec, PairedDataset, TrainConfig,
                                     synth_dataset, train)
    clips = out / "clips"
    synth_dataset(units, seed=data_seed, out_dir=clips, duration_s=CLIP_S)
    synth_dataset(1, seed=POOL + data_seed, out_dir=out / "long", duration_s=LONG_CLIP_S)
    for side in ("clean", "noisy"):   # sorts after utt000..: enhanced last
        shutil.move(out / "long" / side / "utt000.wav", clips / side / "utt_long.wav")
    synth_dataset(TRAIN_PAIRS, seed=data_seed, out_dir=out / "ckpt_data", duration_s=TRAIN_CLIP_S)
    ds = PairedDataset(DatasetSpec(str(out / "ckpt_data" / "clean"),
                                   str(out / "ckpt_data" / "noisy"), seed=data_seed))
    res = train(ModelConfig(), StftConfig(),
                TrainConfig(batch_size=1, segment_samples=4000, max_steps=CKPT_STEPS,
                            seed=data_seed),
                ds, out / "ckpt_run")
    clip_s = [CLIP_S] * units + [LONG_CLIP_S]
    return {
        "noisy_dir": str(clips / "noisy"), "clean_dir": str(clips / "clean"),
        "ckpt": res.checkpoints[-1],
        "sizes": {"clips": len(clip_s), "audio_s_per_clip": clip_s, "audio_s": sum(clip_s),
                  "map": map_size(1, int(CLIP_S * SR)),
                  "map_long": map_size(1, int(LONG_CLIP_S * SR))},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_UNIT_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    out = Path(a.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    data_seed = a.seed % POOL
    units = max(3, round(a.seconds / NOMINAL_UNIT_S[a.workload]))
    if a.workload == "enhance-eval":
        spec = gen_enhance(data_seed, units, out)
    else:
        spec = gen_train(a.workload, data_seed, units, out)
    spec.update(workload=a.workload, seed=a.seed, data_seed=data_seed)
    spec["sizes"]["cache_bytes"] = cache_sizes()
    (out / "inputs.json").write_text(json.dumps(spec, indent=2))


if __name__ == "__main__":
    main()
