"""densetsnet benchmark: one command, three workloads, correctness checks.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the directory holding ``src/densetsnet``).
Workloads: train-paper, train-smoke, enhance-eval (see perfbench/README.md).
Inputs are generated from --seed in a separate process; the timed process
drives the package's public entry points.  --trace 0 measures the
end-to-end metrics untraced; --trace 1 runs the workload once untraced and
once traced and reports per-layer metrics from the trace.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import base64
import csv
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import wave
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("train-paper", "train-smoke", "enhance-eval")
SETUP_PROBES = 8          # extra set-ups per run; setup_s is the median of all
BUDGET_S = 170            # the whole run, generation included
PARAMS = 9910
MACS = 496_288_008        # count_macs at T = 321, F = 201
LOSS_RTOL = 1e-6
EVAL_RTOL = 1e-4
LSB_TOL = 1               # enhanced samples, in 16-bit steps
REF_STRIDE = 64           # the reference keeps every 64th enhanced sample
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB", "step_cpu_s.p50": "s",
              "audio_s_per_cpu_s": "s/s"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    # One BLAS thread: the timed process is then single-threaded, so its CPU
    # time is the time of its critical path, free of host steal.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(script: str, args: list, deadline: float) -> None:
    """Run a benchmark script to completion; its output goes to stderr so
    that stdout carries only the report."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / script), *args]
    if script == "worker.py":
        cmd += ["--t0", repr(t0)]
    subprocess.run(cmd, env=child_env(), stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - t0))


def environment(inputs: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    caches = inputs["sizes"]["cache_bytes"]
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": caches.get("L2"), "l3_bytes": caches.get("L3"),
        "commit": commit or "unknown (not a git checkout)",
    }


# --------------------------------------------------------------------------
# correctness
# --------------------------------------------------------------------------

def read_pcm(path) -> np.ndarray:
    with wave.open(str(path), "rb") as w:
        return np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")


def read_report(path) -> tuple:
    """(rows by name, MEAN row, excluded names) of an eval CSV."""
    rows, mean, excluded = {}, None, []
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)[1:]
    for rec in reader:
        if rec[0].startswith("EXCLUDED:"):
            excluded.append(rec[0])
            continue
        vals = {k: float(v) for k, v in zip(header, rec[1:])}
        if rec[0] == "MEAN":
            mean = vals
        else:
            rows[rec[0]] = vals
    return rows, mean, excluded


def enhance_record(res: dict) -> dict:
    clips = {}
    for p in sorted(Path(res["enhanced_dir"]).glob("*.wav")):
        pcm = read_pcm(p)
        clips[p.name] = {"n": len(pcm), "sha256": hashlib.sha256(pcm.tobytes()).hexdigest(),
                         "samples": base64.b64encode(pcm[::REF_STRIDE].tobytes()).decode()}
    rows, mean, _ = read_report(res["report_csv"])
    return {"stride": REF_STRIDE, "clips": clips, "rows": rows, "mean": mean}


def close(a: dict, b: dict, rtol: float) -> float:
    """Largest relative difference over the keys of b (inf if one is missing)."""
    worst = 0.0
    for k, v in b.items():
        if k not in a:
            return float("inf")
        worst = max(worst, abs(a[k] - v) / max(abs(v), 1e-12))
    return worst


def checks(workload: str, inputs: dict, res: dict, ref: dict | None) -> list:
    """(passed, description) for every correctness check of one worker result."""
    out = [(res.get("params") == PARAMS, f"parameters {res.get('params')} == {PARAMS}"),
           (res.get("macs") == MACS, f"count_macs(321, 201) {res.get('macs')} == {MACS:,}")]
    if ref is None:
        return out + [(False, f"no stored reference for {workload} input set "
                              f"{inputs['data_seed']}")]
    if workload != "enhance-eval":
        got, want = res.get("losses", []), ref["losses"]
        n = min(len(got), len(want))
        err = max((abs(g - w) / abs(w) for g, w in zip(got[:n], want[:n])), default=0.0)
        out.append((len(got) == inputs["steps"] and n > 0 and err <= LOSS_RTOL,
                    f"TrainResult.losses: {len(got)} of {inputs['steps']} steps, first {n} "
                    f"within rel {err:.2e} <= {LOSS_RTOL:g} of the reference"))
        out.append((res["failed"] == 0, f"no aborted step ({res['failed']} failed)"))
        return out
    stride = ref["stride"]
    got = {p.name: read_pcm(p) for p in Path(res["enhanced_dir"]).glob("*.wav")}
    exact = near = 0
    bad = []
    for name, want in ref["clips"].items():
        pcm = got.get(name)
        if pcm is None:
            continue
        want_s = np.frombuffer(base64.b64decode(want["samples"]), dtype="<i2")
        if len(pcm) == want["n"] and hashlib.sha256(pcm.tobytes()).hexdigest() == want["sha256"]:
            exact += 1
        elif (len(pcm) == want["n"] and np.max(np.abs(
                pcm[::stride].astype(np.int32) - want_s.astype(np.int32))) <= LSB_TOL):
            near += 1
        else:
            bad.append(name)
    unchecked = sorted(set(got) - set(ref["clips"]))
    out.append((not bad and exact + near == len(got) - len(unchecked) > 0,
                f"enhanced WAVs vs reference: {exact} bit-exact, {near} within {LSB_TOL} LSB "
                f"at every {stride}th sample, {len(bad)} off {bad[:3]}, "
                f"{len(unchecked)} without reference"))
    if not Path(res["report_csv"]).exists():
        return out + [(False, f"no eval report; exit codes {res['exit_codes']}")]
    rows, mean, excluded = read_report(res["report_csv"])
    row_err = max((close(rows.get(k, {}), v, EVAL_RTOL) for k, v in ref["rows"].items()
                   if k in got), default=0.0)
    out.append((row_err <= EVAL_RTOL, f"eval rows within rel {row_err:.2e} <= {EVAL_RTOL:g}"))
    if set(rows) == set(ref["rows"]):
        mean_err = close(mean or {}, ref["mean"], EVAL_RTOL)
        out.append((mean_err <= EVAL_RTOL,
                    f"eval MEAN row within rel {mean_err:.2e} <= {EVAL_RTOL:g}"))
    out.append((not excluded, f"no EXCLUDED rows ({len(excluded)})"))
    codes = res["exit_codes"]
    out.append((all(c == 0 for c in codes.values()), f"exit codes {codes}"))
    return out


def failures(workload: str, res: dict) -> tuple:
    """(attempted, failed): steps on train-*; clips plus pairs on enhance-eval."""
    if workload != "enhance-eval":
        return res["attempted"], res["failed"]
    rows, _, excluded = read_report(res["report_csv"]) if Path(res["report_csv"]).exists() \
        else ({}, None, ["(no report)"])
    attempted = res["clips_attempted"] + len(rows) + len(excluded)
    failed = len(res["failed_clips"]) + len(excluded) + (res["exit_codes"]["enhance"] != 0
                                                          and not res["failed_clips"])
    return max(1, attempted), failed


# --------------------------------------------------------------------------
# metrics and report
# --------------------------------------------------------------------------

def end_to_end(workload: str, res: dict, probes: list) -> tuple:
    """(metrics for the result line, report lines naming every metric).
    The result line carries CPU times; the report shows wall times too."""
    setups = probes + [res]
    setup = {clk: statistics.median(p[key] for p in setups)
             for clk, key in (("cpu", "setup_cpu_s"), ("wall", "setup_s"))}
    p50 = {"cpu": statistics.median(res["unit_cpu_s"]), "wall": statistics.median(res["unit_s"])}
    rate = {"cpu": res["audio_s"] / res["cpu_s"], "wall": res["audio_s"] / res["wall_s"]}
    metrics = {"setup_s": setup["cpu"], "peak_rss_mb": res["peak_rss_mb"],
               "step_cpu_s.p50": p50["cpu"], "audio_s_per_cpu_s": rate["cpu"]}
    n = len(res["unit_s"])

    def row(name, vals, unit, note):
        return (f"  {name:<20} cpu {vals['cpu']:10.4f}  wall {vals['wall']:10.4f} {unit:<4}"
                f"  {note}")
    lines = [row("setup_s", setup, "s", f"median of {len(setups)} set-ups; result line: cpu"),
             f"  {'peak_rss_mb':<20} {res['peak_rss_mb']:10.1f} MiB"]
    if workload == "enhance-eval":
        audio = res["audio_s"]
        lines += [
            row("clip_s.p50", p50, "s", f"median enhance time of {n} clips; "
                "result line: step_cpu_s.p50"),
            row("audio_s_per_s", rate, "s/s", "enhance + eval; result line: audio_s_per_cpu_s"),
            row("enhance_rtf", {"cpu": res["enhance_cpu_s"] / audio,
                                "wall": res["enhance_s"] / audio}, "s/s", ""),
            row("eval_rtf", {"cpu": res["eval_cpu_s"] / audio,
                             "wall": res["eval_s"] / audio}, "s/s", "")]
    else:
        lines += [
            row("train_step_s.p50", p50, "s", f"{n} steps; result line: step_cpu_s.p50"),
            row("train_audio_s_per_s", rate, "s/s",
                "whole train() call; result line: audio_s_per_cpu_s")]
        if n >= 100:  # ten samples beyond the 90th percentile
            p90 = {clk: statistics.quantiles(res[key], n=10)[-1]
                   for clk, key in (("cpu", "unit_cpu_s"), ("wall", "unit_s"))}
            lines.append(row("train_step_s.p90", p90, "s", f"{n} steps, "
                             f"{sum(u > p90['cpu'] for u in res['unit_cpu_s'])} beyond"))
    return metrics, lines


def worker_run(wdir: Path, name: str, deadline: float, extra=()) -> dict:
    out = wdir / name
    spawn("worker.py", ["--inputs", str(wdir / "inputs" / "inputs.json"), "--out", str(out),
                        *extra], deadline)
    return json.loads((out / "result.json").read_text())


def run(a) -> int:
    deadline = time.monotonic() + BUDGET_S
    wdir = WORK / a.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    spawn("gen_inputs.py", ["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--out", str(wdir / "inputs")], deadline)
    inputs = json.loads((wdir / "inputs" / "inputs.json").read_text())
    ref_all = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = ref_all.get(a.workload, {}).get(str(inputs["data_seed"]))

    print(f"perfbench {a.workload} seed {a.seed} (input set {inputs['data_seed']}), "
          f"{a.seconds} s, trace {a.trace}")
    print("environment: " + json.dumps(environment(inputs)))
    print("inputs: " + json.dumps(inputs["sizes"]))

    results = {}
    probes = []
    if a.trace:
        results["untraced"] = worker_run(wdir, "untraced", deadline)
        results["traced"] = worker_run(wdir, "traced", deadline,
                                       ["--trace", str(wdir / "trace.json")])
    else:
        for i in range(SETUP_PROBES):
            probes.append(worker_run(wdir, f"probe{i}", deadline, ["--probe-setup"]))
        results["untraced"] = worker_run(wdir, "untraced", deadline)

    if a.record_reference:
        res = results["untraced"]
        entry = enhance_record(res) if a.workload == "enhance-eval" else {"losses": res["losses"]}
        ref_all.setdefault(a.workload, {})[str(inputs["data_seed"])] = entry
        REFERENCE.write_text(json.dumps(ref_all, indent=1, sort_keys=True) + "\n")
        ref = entry

    correct = True
    attempted = failed = 0
    errors = {"numerical": 0, "data": 0}
    for label, res in results.items():
        print(f"checks ({label} run):")
        for ok, desc in checks(a.workload, inputs, res, ref):
            correct &= bool(ok)
            print(f"  [{'PASS' if ok else 'FAIL'}] {desc}")
        att, fl = failures(a.workload, res)
        attempted += att
        failed += fl
        for k in errors:
            errors[k] += res["errors"][k]
    print(f"operations: {attempted} attempted, {failed} failed, failed_ratio "
          f"{failed / attempted:.4f} (numerical aborts, exit 4: {errors['numerical']}; "
          f"data errors, exit 3: {errors['data']})")

    base = results["untraced"]
    if a.trace:
        import rollup
        traced = results["traced"]
        if a.workload == "enhance-eval":
            overhead = (traced["enhance_cpu_s"] - base["enhance_cpu_s"]) / base["audio_s"]
        else:
            overhead = (statistics.median(traced["unit_cpu_s"])
                        - statistics.median(base["unit_cpu_s"]))
        events, other = rollup.load(wdir / "trace.json")
        analysis = rollup.Analysis(events, other)
        print(f"trace: {wdir / 'trace.json'} ({len(events)} spans); tracing overhead "
              f"{overhead:+.6f} CPU s per {other['per_name']} (traced minus untraced)")
        for line in analysis.report():
            print(line)
        values = analysis.metrics(overhead)
        units = rollup.metric_units()
        metrics = {k: {"value": values[k], "unit": units[k][0]} for k in units}
        print("per-layer metrics, per " + other["per_name"] + ":")
        for k, v in metrics.items():
            print(f"  {k:<40} {v['value']:14.6g} {v['unit']}")
    else:
        values, lines = end_to_end(a.workload, base, probes)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print("end-to-end metrics:")
        for line in lines:
            print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs as the reference for its input set")
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "densetsnet" / "__init__.py").is_file():
        return fail(f"no src/densetsnet under {ROOT}; run from the root of a checkout")
    if a.seconds < 1:
        return fail("--seconds must be at least 1")
    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return fail("another benchmark run is in progress in this checkout; "
                        "workloads never run concurrently")
        try:
            return run(a)
        except subprocess.TimeoutExpired as e:
            return fail(f"out of time: {' '.join(map(str, e.cmd[1:3]))} did not finish")
        except subprocess.CalledProcessError as e:
            return fail(f"{' '.join(map(str, e.cmd[1:3]))} exited with {e.returncode}")


if __name__ == "__main__":
    sys.exit(main())
