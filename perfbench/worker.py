"""The timed process of one benchmark run.

    python3 perfbench/worker.py --inputs DIR/inputs.json --out DIR/run --t0 T [--probe-setup] [--trace FILE]

Drives the public entry points: ``training.train`` for train-*, and
``cli.main(["enhance", ...])`` then ``cli.main(["eval", ...])`` for
enhance-eval.  ``--t0`` is the parent's CLOCK_MONOTONIC reading just before
it started this process, so set-up time counts interpreter start and
imports.  With ``--probe-setup`` the run stops when the first step or clip
is ready.  With ``--trace`` every public package function is wrapped (see
tracer.py) and the spans go to FILE as Chrome trace-event JSON.  The result
goes to OUT/result.json.  Run with ``src`` on PYTHONPATH.

Every time is taken on two clocks: wall (CLOCK_MONOTONIC) and the process's
CPU time, which leaves out time the host steals from a virtual machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

SR = 16000


class SetupReached(Exception):
    """Raised from the first step or clip of a set-up probe."""


def now() -> tuple:
    """(wall, process CPU) seconds."""
    return time.monotonic(), time.process_time()


def spans(starts, ends) -> dict:
    """Wall and CPU durations of the units that ended, keyed as in the result."""
    keys = sorted(ends)
    return {"unit_s": [ends[i][0] - starts[i][0] for i in keys],
            "unit_cpu_s": [ends[i][1] - starts[i][1] for i in keys]}


def setup(starts, fallback, t0) -> dict:
    first = starts[0] if starts else fallback
    return {"setup_s": first[0] - t0, "setup_cpu_s": first[1]}


def run_train(inp, out: Path, t0: float, probe: bool) -> dict:
    from densetsnet import training
    from densetsnet.dsp import StftConfig
    from densetsnet.errors import DataError, NumericalError
    from densetsnet.model import ModelConfig

    starts, ends = [], {}
    make_batch, opt_step = training.make_batch, training.AdamW.step

    def timed_make_batch(*a, **k):    # train() starts every step here
        starts.append(now())
        if probe:
            raise SetupReached
        return make_batch(*a, **k)

    def timed_opt_step(self):         # ... and ends it with the optimizer step
        opt_step(self)
        ends[len(starts) - 1] = now()

    training.make_batch = timed_make_batch
    training.AdamW.step = timed_opt_step

    cfg = training.TrainConfig(max_steps=inp["steps"], seed=inp["data_seed"],
                               batch_size=inp["batch_size"],
                               segment_samples=inp["segment_samples"])
    errors = {"numerical": 0, "data": 0}
    result = None
    t_call = now()
    try:
        ds = training.PairedDataset(training.DatasetSpec(
            inp["clean_dir"], inp["noisy_dir"], seed=inp["data_seed"]))
        t_call = now()
        result = training.train(ModelConfig(), StftConfig(), cfg, ds, out / "train")
    except SetupReached:
        return setup(starts, None, t0)
    except NumericalError:
        errors["numerical"] += 1
    except DataError:
        errors["data"] += 1
    t_done = now()
    out_rec = {
        **setup(starts, t_done, t0),
        **spans(starts, ends),
        "wall_s": t_done[0] - t_call[0],
        "cpu_s": t_done[1] - t_call[1],
        "audio_s": len(ends) * cfg.batch_size * cfg.segment_samples / SR,
        "attempted": max(1, len(starts)),
        "failed": errors["numerical"] + errors["data"],
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if result is not None:
        out_rec["losses"] = result.losses
        out_rec["params"] = result.model.count_params()
        out_rec["macs"] = result.model.count_macs(t=321, f=201)
    return out_rec


def run_enhance_eval(inp, out: Path, t0: float, probe: bool) -> dict:
    from densetsnet import cli

    starts, ends, failed_clips = [], {}, []
    enhance_one = cli._enhance_one

    def timed_enhance_one(model, stft_cfg, in_path, out_path):
        starts.append(now())
        if probe:
            raise SetupReached
        try:
            enhance_one(model, stft_cfg, in_path, out_path)
        except Exception:
            failed_clips.append(Path(in_path).name)
            raise
        ends[len(starts) - 1] = now()

    cli._enhance_one = timed_enhance_one
    enhanced = out / "enhanced"
    csv_path = out / "report.csv"

    def call(argv):
        try:
            return cli.main(argv)
        except SetupReached:
            raise
        except Exception as e:  # a crash is a failed operation, not a lost run
            print(f"{argv[0]} raised {type(e).__name__}: {e}")
            return 1

    t_enh = now()
    try:
        code_enhance = call(["enhance", "--ckpt", inp["ckpt"], "--in", inp["noisy_dir"],
                             "--out", str(enhanced)])
    except SetupReached:
        return setup(starts, None, t0)
    t_eval = now()
    code_eval = call(["eval", "--clean-dir", inp["clean_dir"], "--enhanced-dir", str(enhanced),
                      "--out", str(csv_path)])
    t_done = now()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from densetsnet.checkpoint import load_checkpoint
    from densetsnet.model import build_model
    from densetsnet.training import configs_from_echo
    _, echo, _ = load_checkpoint(inp["ckpt"])
    model = build_model(*configs_from_echo(echo))
    codes = {"enhance": code_enhance, "eval": code_eval}
    return {
        **setup(starts, t_eval, t0),
        **spans(starts, ends),
        "wall_s": t_done[0] - t_enh[0],
        "cpu_s": t_done[1] - t_enh[1],
        "enhance_s": t_eval[0] - t_enh[0],
        "enhance_cpu_s": t_eval[1] - t_enh[1],
        "eval_s": t_done[0] - t_eval[0],
        "eval_cpu_s": t_done[1] - t_eval[1],
        "audio_s": inp["sizes"]["audio_s"],
        "clips_attempted": len(starts),
        "failed_clips": failed_clips,
        "exit_codes": codes,
        "errors": {"numerical": sum(c == 4 for c in codes.values()),
                   "data": sum(c == 3 for c in codes.values())},
        "enhanced_dir": str(enhanced),
        "report_csv": str(csv_path),
        "peak_rss_mb": peak,
        "params": model.count_params(),
        "macs": model.count_macs(t=321, f=201),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe-setup", action="store_true")
    ap.add_argument("--trace")
    a = ap.parse_args(argv)
    inp = json.loads(Path(a.inputs).read_text())
    out = Path(a.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = inp["workload"]
    tracer = None
    if a.trace:
        from tracer import Tracer
        tracer = Tracer(run_id=f"{workload}-seed{inp['seed']}",
                        tape_from_forward=workload == "enhance-eval")
        tracer.install()
    run = run_enhance_eval if workload == "enhance-eval" else run_train
    rec = run(inp, out, a.t0, a.probe_setup)
    if tracer is not None:
        per, per_name = ((rec["audio_s"], "audio second") if workload == "enhance-eval"
                         else (max(1, len(rec["unit_s"])), "step"))
        tracer.write_chrome(a.trace, {"workload": workload, "per": per, "per_name": per_name})
    (out / "result.json").write_text(json.dumps(rec))


if __name__ == "__main__":
    main()
