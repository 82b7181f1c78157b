"""Per-layer metrics and rollups computed from a Chrome trace of tracer.py.

A span's self time is its duration minus the durations of its child spans.
Times are normalised per unit of work: per training step on the train-*
workloads and per second of audio on enhance-eval.  Three families are
inclusive rather than self time, because their work sits in child op spans:
``model.forward_s``, ``model.blk*.fwd_s`` and ``autodiff.backward_s``.
"""

from __future__ import annotations

import json
from collections import defaultdict

from tracer import OP_KINDS, STEP

MIB = 2.0 ** 20
MODULES = ("autodiff", "dsp", "model", "losses", "training", "evaluation",
           "wavio", "checkpoint", "cli", "trace")
BLOCKS = tuple(f"blk{i}.{view}" for i in range(1, 5) for view in ("time", "freq"))
# Spans that are one unit of work: a training step, an enhanced clip, an
# evaluated pair.  Their own self time is the unattributed remainder.
UNITS = (STEP, "cli._enhance_one", "evaluation.evaluate_pair")
# metric -> spans whose self time it sums (a dsp node's backward included)
SELF_TIME = {
    "dsp.stft_pair_s": ("dsp.stft_pair", "dsp.stft_pair.bwd"),
    "dsp.istft_pair_s": ("dsp.istft_pair", "dsp.istft_pair.bwd"),
    "dsp.consistency_project_s": ("dsp.consistency_project",),
    "evaluation.ssnr_s": ("evaluation.ssnr",),
    "evaluation.spectral_errors_s": ("evaluation.spectral_errors",),
    "losses.proxy_quality_s": ("losses.proxy_quality",),
    "losses.mag_mse_s": ("losses.mag_mse",),
    "wavio.read_s": ("wavio.wav_read",),
    "wavio.write_s": ("wavio.wav_write",),
    "checkpoint.load_s": ("checkpoint.load_checkpoint",),
    "checkpoint.save_s": ("checkpoint.save_checkpoint",),
    "training.make_batch_s": ("training.make_batch",),
    "training.adamw_step_s": ("training.adamw_step",),
    "training.validate_s": ("training._validate",),
}


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {"autodiff.backward_s": ("s", "lower")}
    for k in OP_KINDS:
        out[f"autodiff.op.{k}.fwd_s"] = ("s", "lower")
        out[f"autodiff.op.{k}.bwd_s"] = ("s", "lower")
        out[f"autodiff.op.{k}.out_mb"] = ("MiB", "lower")
    out["autodiff.tape_nodes"] = ("count", "lower")
    out["autodiff.tape_mb"] = ("MiB", "lower")
    out["model.forward_s"] = ("s", "lower")
    out["model.gmac_per_s"] = ("GMAC/s", "higher")
    for b in BLOCKS:
        out[f"model.{b}.fwd_s"] = ("s", "lower")
        out[f"model.{b}.bwd_s"] = ("s", "lower")
    for name in SELF_TIME:
        out[name] = ("s", "lower")
    out["wavio.read_mb"] = ("MiB", "lower")
    out["wavio.write_mb"] = ("MiB", "lower")
    out["checkpoint.mb"] = ("MiB", "lower")
    out["training.step_start_rss_mb"] = ("MiB", "lower")
    for m in MODULES:
        out[f"rollup.{m}.self_s"] = ("s", "lower")
    out["trace.unit_s"] = ("s", "lower")
    out["trace.unattributed_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["traceEvents"], doc["otherData"]


class Analysis:
    """Self times, per-unit attribution and the per-layer metrics of one trace."""

    def __init__(self, events, other):
        self.events = events
        self.per = other["per"]            # steps, or seconds of audio
        self.per_name = other["per_name"]
        child = defaultdict(float)
        self.by_id = {}
        for e in events:
            child[e["args"]["parent"]] += e["dur"]
            self.by_id[e["args"]["id"]] = e
        self.self_us = {e["args"]["id"]: e["dur"] - child[e["args"]["id"]] for e in events}
        self.self_by_name = defaultdict(float)
        self.dur_by_name = defaultdict(float)
        self.self_by_cat = defaultdict(float)
        for e in events:
            s = self.self_us[e["args"]["id"]]
            self.self_by_name[e["name"]] += s
            self.dur_by_name[e["name"]] += e["dur"]
            self.self_by_cat[e["cat"]] += s

    def _unit_of(self, e, memo):
        chain = []
        sid = e["args"]["id"]
        found = 0
        while sid:
            if sid in memo:
                found = memo[sid]
                break
            ev = self.by_id[sid]
            chain.append(sid)
            if ev["name"] in UNITS:
                found = sid
                break
            sid = ev["args"]["parent"]
        for c in chain:
            memo[c] = found
        return found

    def units(self):
        """Per unit of work: (name, traced us, attributed us by module,
        unattributed us).  Attributed plus unattributed equals traced."""
        memo = {}
        attributed = defaultdict(lambda: defaultdict(float))
        for e in self.events:
            u = self._unit_of(e, memo)
            if u and u != e["args"]["id"]:
                attributed[u][e["cat"]] += self.self_us[e["args"]["id"]]
        out = []
        for e in self.events:
            if e["name"] in UNITS:
                sid = e["args"]["id"]
                out.append((e["name"], e["dur"], dict(attributed[sid]), self.self_us[sid]))
        return out

    def _args(self, name, key):
        return [e["args"][key] for e in self.events if e["name"] == name and key in e["args"]]

    def _bwd_by_block(self) -> dict:
        """Self time of backward closures by the block that created the node."""
        out = defaultdict(float)
        for e in self.events:
            if e["name"].endswith(".bwd"):
                out[e["args"].get("block", "")] += self.self_us[e["args"]["id"]]
        return out

    def metrics(self, overhead_s: float) -> dict:
        s = 1e-6 / self.per
        m = {"autodiff.backward_s": self.dur_by_name["autodiff.backward"] * s}
        for k in OP_KINDS:
            op = f"autodiff.op.{k}"
            m[f"{op}.fwd_s"] = self.self_by_name[op] * s
            m[f"{op}.bwd_s"] = self.self_by_name[op + ".bwd"] * s
            m[f"{op}.out_mb"] = sum(self._args(op, "out_bytes")) / MIB / self.per
        root = "autodiff.backward" if self.dur_by_name["autodiff.backward"] else "model.forward"
        m["autodiff.tape_nodes"] = max(self._args(root, "tape_nodes"), default=0)
        m["autodiff.tape_mb"] = max(self._args(root, "tape_bytes"), default=0) / MIB
        fwd_us = self.dur_by_name["model.forward"]
        m["model.forward_s"] = fwd_us * s
        m["model.gmac_per_s"] = sum(self._args("model.forward", "macs")) / (fwd_us * 1e-6) / 1e9 \
            if fwd_us else 0.0
        bwd_by_block = self._bwd_by_block()
        for b in BLOCKS:
            m[f"model.{b}.fwd_s"] = self.dur_by_name[f"model.{b}"] * s
            m[f"model.{b}.bwd_s"] = bwd_by_block[b] * s
        for name, spans in SELF_TIME.items():
            m[name] = sum(self.self_by_name[x] for x in spans) * s
        m["wavio.read_mb"] = sum(self._args("wavio.wav_read", "bytes")) / MIB / self.per
        m["wavio.write_mb"] = sum(self._args("wavio.wav_write", "bytes")) / MIB / self.per
        ckpt = (self._args("checkpoint.load_checkpoint", "bytes")
                + self._args("checkpoint.save_checkpoint", "bytes"))
        m["checkpoint.mb"] = max(ckpt, default=0) / MIB
        rss = self._args(STEP, "rss_mb") + self._args("cli._enhance_one", "rss_mb")
        m["training.step_start_rss_mb"] = max(rss, default=0.0)
        for mod in MODULES:
            m[f"rollup.{mod}.self_s"] = self.self_by_cat[mod] * s
        units = self.units()
        m["trace.unit_s"] = sum(u[1] for u in units) * s
        m["trace.unattributed_s"] = sum(u[3] for u in units) * s
        m["trace.overhead_s"] = overhead_s
        return m

    def report(self) -> list:
        """Human-readable rollup lines: by module, by unit of work, by block."""
        s = 1e-6 / self.per
        total = sum(self.self_by_cat.values())
        lines = [f"self time by module, s per {self.per_name} (whole traced run):"]
        for mod in sorted(self.self_by_cat, key=self.self_by_cat.get, reverse=True):
            v = self.self_by_cat[mod]
            lines.append(f"  {mod:<12} {v * s:12.6f}  {100 * v / total:5.1f}%")
        lines.append(f"  {'total':<12} {total * s:12.6f}")

        units = self.units()
        traced = sum(u[1] for u in units)
        unattr = sum(u[3] for u in units)
        by_mod = defaultdict(float)
        for u in units:
            for mod, v in u[2].items():
                by_mod[mod] += v
        worst = max((abs(sum(u[2].values()) + u[3] - u[1]) for u in units), default=0.0)
        lines.append(f"units of work ({len(units)}: steps, enhanced clips, evaluated pairs), "
                     f"s per {self.per_name}:")
        for mod in sorted(by_mod, key=by_mod.get, reverse=True):
            lines.append(f"  {mod:<12} {by_mod[mod] * s:12.6f}")
        lines.append(f"  {'unattributed':<12} {unattr * s:12.6f}")
        lines.append(f"  {'traced':<12} {traced * s:12.6f}  (attributed + unattributed; "
                     f"largest per-unit mismatch {worst:.3f} us)")

        bwd_by_block = self._bwd_by_block()
        bwd_by_block["(outside blocks)"] = bwd_by_block.pop("", 0.0)
        lines.append(f"gaze blocks, s per {self.per_name}: forward (inclusive), backward "
                     "(closures of the nodes created in the block)")
        names = sorted({n[6:] for n in self.dur_by_name if n.startswith("model.blk")}
                       | set(bwd_by_block))
        for b in names:
            lines.append(f"  {b:<18} fwd {self.dur_by_name.get('model.' + b, 0.0) * s:10.6f}"
                         f"  bwd {bwd_by_block.get(b, 0.0) * s:10.6f}")
        lines.append(f"top spans by self time, s per {self.per_name} (self / inclusive):")
        for name in sorted(self.self_by_name, key=self.self_by_name.get, reverse=True)[:15]:
            lines.append(f"  {name:<36} {self.self_by_name[name] * s:10.6f}"
                         f" / {self.dur_by_name[name] * s:10.6f}")
        return lines
