"""Span tracer that wraps densetsnet's public functions from the outside.

The package itself carries no tracing.  ``Tracer.install`` replaces each
public function of the traced modules in every package namespace that holds
it, because ``from x import f`` binds a module's own copy of the name: the
trainer calls ``densetsnet.training.backward``, not ``autodiff.backward``.
Every call becomes a span (name, start, end, parent, run id) kept in memory;
``write_chrome`` dumps them as Chrome trace-event JSON when the run ends.
Span times are process CPU time: the traced process is single-threaded, and
CPU time leaves out what the host steals from a virtual machine.

Autodiff ops get a kind (``conv1d_pw``, ``instance_norm``, ...; see
``op_kind``) and the gaze block that was active when they ran.  The backward
closure of every tensor an op returns is wrapped too, so backward time lands
on the op kind and block that created the node.  An op called inside another
op (``learnable_sigmoid`` calls ``sigmoid``) is charged to the outer one.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("autodiff", "dsp", "model", "losses", "training", "evaluation",
          "wavio", "checkpoint", "cli")
# Private names that carry real work and are looked up at call time.
PRIVATE = {"training": ("_validate", "_estimate_waveforms"),
           "cli": ("_enhance_one", "_load_model")}
OP_KINDS = ("conv1d_pw", "conv1d_dw_fft", "conv1d_dw_taps", "conv2d_pointwise",
            "instance_norm", "simple_gate", "hardswish", "learnable_sigmoid",
            "mul", "add", "transpose", "concat_last", "other")
STEP = "training.step"
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process in MiB."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE / 2**20


def op_kind(name: str, args, kwargs) -> str:
    """Kind of an autodiff op call; conv1d is split by weight shape and groups."""
    if name == "conv1d":
        w = args[1] if len(args) > 1 else kwargs["w"]
        groups = args[3] if len(args) > 3 else kwargs.get("groups", 1)
        k, cin_g, cout = w.shape
        if groups == 1 and k == 1:
            return "conv1d_pw"
        if cin_g == 1 and groups == cout:
            # conv1d switches to the FFT path for kernels of 9 taps and more
            return "conv1d_dw_fft" if k >= 9 else "conv1d_dw_taps"
        return "other"
    return name if name in OP_KINDS else "other"


def _tensors(out):
    from densetsnet.autodiff import Tensor
    if isinstance(out, Tensor):
        return (out,)
    if isinstance(out, (tuple, list)):
        return tuple(t for t in out if isinstance(t, Tensor))
    return ()


def _add_buffer(bufs: dict, arr: np.ndarray):
    base = arr
    while isinstance(base.base, np.ndarray):
        base = base.base
    bufs[id(base)] = base.nbytes


def _closure_contents(fn, bufs, stack, depth=0):
    from densetsnet.autodiff import Tensor
    for cell in fn.__closure__ or ():
        try:
            v = cell.cell_contents
        except ValueError:  # free variable not bound yet
            continue
        items = v if isinstance(v, tuple) else (v,)
        for item in items:
            if isinstance(item, np.ndarray):
                _add_buffer(bufs, item)
            elif isinstance(item, Tensor):
                stack.append(item)
            elif inspect.isfunction(item) and depth < 2:
                _closure_contents(item, bufs, stack, depth + 1)


def tape_stats(root) -> tuple:
    """(recorded nodes, bytes of distinct arrays) reachable from ``root``
    through parent links and the arrays held by backward closures."""
    seen, bufs, nodes = set(), {}, 0
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        _add_buffer(bufs, t.data)
        fn = t._backward
        if fn is not None:
            nodes += 1
            _closure_contents(getattr(fn, "_pb_orig", fn), bufs, stack)
        stack.extend(t._parents)
    return nodes, sum(bufs.values())


class Tracer:
    def __init__(self, run_id: str, tape_from_forward: bool = False):
        """``tape_from_forward``: measure the tape from each model output
        (inference); otherwise from each loss handed to ``backward``."""
        self.run_id = run_id
        self.tape_from_forward = tape_from_forward
        self.t0 = time.process_time()
        self.events = []   # closed spans: (id, parent, name, cat, start, end, args)
        self.stack = []    # open spans: [id, name, cat, start, args]
        self.next_id = 1
        self.blocks = []   # gaze-block names, innermost last
        self.block_of = {}  # id(MvgbParams) -> "blk1.time"
        self.op_depth = 0
        self.op_name = ""
        self.op_outs = {}

    # -- spans --------------------------------------------------------------
    def begin(self, name, cat, args=None):
        self.stack.append([self.next_id, name, cat, time.process_time(), args or {}])
        self.next_id += 1

    def end(self) -> dict:
        sid, name, cat, start, args = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else 0
        self.events.append((sid, parent, name, cat, start, time.process_time(), args))
        return args

    def _block(self):
        return self.blocks[-1] if self.blocks else ""

    def _wrap_backward(self, out, name, cat):
        """Charge each new node's backward closure to ``name`` and the
        current block; nodes that already carry a wrapper keep theirs."""
        block = self._block()
        for t in _tensors(out):
            fn = t._backward
            if fn is None or hasattr(fn, "_pb_orig"):
                continue

            def bwd(g, _fn=fn):
                self.begin(name, cat, {"block": block})
                try:
                    return _fn(g)
                finally:
                    self.end()
            bwd._pb_orig = fn
            t._backward = bwd

    # -- wrappers -----------------------------------------------------------
    def _generic(self, fn, name, cat):
        def wrapper(*a, **k):
            self.begin(name, cat)
            try:
                out = fn(*a, **k)
            finally:
                self.end()
            self._wrap_backward(out, name + ".bwd", cat)
            return out
        return wrapper

    def _op(self, fn, opname):
        def wrapper(*a, **k):
            if self.op_depth:
                out = fn(*a, **k)
                for t in _tensors(out):
                    self.op_outs[id(t)] = t.data.nbytes
                self._wrap_backward(out, self.op_name + ".bwd", "autodiff")
                return out
            self.op_name = "autodiff.op." + op_kind(opname, a, k)
            self.op_outs = {}
            self.op_depth = 1
            self.begin(self.op_name, "autodiff", {"block": self._block()})
            try:
                out = fn(*a, **k)
            finally:
                self.op_depth = 0
                args = self.end()
            for t in _tensors(out):
                self.op_outs[id(t)] = t.data.nbytes
            args["out_bytes"] = sum(self.op_outs.values())
            self._wrap_backward(out, self.op_name + ".bwd", "autodiff")
            return out
        return wrapper

    def _backward(self, fn):
        def wrapper(loss, *a, **k):
            self.begin("trace.tape_walk", "trace")
            nodes, nbytes = tape_stats(loss)
            self.end()
            self.begin("autodiff.backward", "autodiff",
                       {"tape_nodes": nodes, "tape_bytes": nbytes})
            try:
                return fn(loss, *a, **k)
            finally:
                self.end()
        return wrapper

    def _forward(self, fn):
        def wrapper(model, noisy_mag, *a, **k):
            b, t, f = noisy_mag.shape
            self.begin("model.forward", "model", {"macs": b * model.count_macs(t, f)})
            try:
                out = fn(model, noisy_mag, *a, **k)
            finally:
                args = self.end()
            if self.tape_from_forward:
                self.begin("trace.tape_walk", "trace")
                args["tape_nodes"], args["tape_bytes"] = tape_stats(out[1])
                self.end()
            return out
        return wrapper

    def _block_span(self, fn, whole_layer):
        """Span for mvgb_forward (one view, "blk2.time") or ts_mvgb_forward
        (the whole layer, "blk2"); ops inside are charged to that block."""
        def wrapper(x, p, *a, **k):
            block = self.block_of.get(id(p), "mvgb")
            if whole_layer:
                block = block.split(".")[0]
            self.blocks.append(block)
            self.begin("model." + block, "model")
            try:
                return fn(x, p, *a, **k)
            finally:
                self.end()
                self.blocks.pop()
        return wrapper

    def _build_model(self, fn):
        inner = self._generic(fn, "model.build_model", "model")

        def wrapper(*a, **k):
            model = inner(*a, **k)
            for lay in getattr(model, "layers", ()):  # DenseTsNet only
                self.block_of[id(lay.p_time)] = f"blk{lay.index}.time"
                self.block_of[id(lay.p_freq)] = f"blk{lay.index}.freq"
            return model
        return wrapper

    def _make_batch(self, fn):
        inner = self._generic(fn, "training.make_batch", "training")

        def wrapper(*a, **k):
            # train() calls make_batch first in every step, so it opens the
            # step span; the previous step ends here or when train() returns
            if self.stack and self.stack[-1][1] == STEP:
                self.end()
            self.begin(STEP, "training", {"rss_mb": rss_mb()})
            return inner(*a, **k)
        return wrapper

    def _train(self, fn):
        def wrapper(*a, **k):
            self.begin("training.train", "training")
            try:
                return fn(*a, **k)
            finally:
                while self.stack[-1][1] == STEP:
                    self.end()
                self.end()
        return wrapper

    def _clip(self, fn, name, cat):
        def wrapper(*a, **k):
            self.begin(name, cat, {"rss_mb": rss_mb()})
            try:
                return fn(*a, **k)
            finally:
                self.end()
        return wrapper

    def _sized(self, fn, name, cat, size_of):
        """Generic span plus the bytes moved, read off the call."""
        def wrapper(*a, **k):
            self.begin(name, cat)
            try:
                out = fn(*a, **k)
            finally:
                args = self.end()
            args["bytes"] = size_of(a, out)
            return out
        return wrapper

    def _wrapper_for(self, layer, name, fn, op_names):
        full = f"{layer}.{name}"
        if layer == "autodiff" and name in op_names:
            return self._op(fn, name)
        special = {
            "autodiff.backward": self._backward,
            "model.mvgb_forward": lambda f: self._block_span(f, whole_layer=False),
            "model.ts_mvgb_forward": lambda f: self._block_span(f, whole_layer=True),
            "model.build_model": self._build_model,
            "training.make_batch": self._make_batch,
            "training.train": self._train,
            "cli._enhance_one": lambda f: self._clip(f, full, layer),
            "wavio.wav_read": lambda f: self._sized(f, full, layer, lambda a, out: 2 * len(out)),
            "wavio.wav_write": lambda f: self._sized(
                f, full, layer, lambda a, out: 2 * _sample_count(a[1])),
            "checkpoint.save_checkpoint": lambda f: self._sized(
                f, full, layer, lambda a, out: os.path.getsize(a[0])),
            "checkpoint.load_checkpoint": lambda f: self._sized(
                f, full, layer, lambda a, out: os.path.getsize(a[0])),
        }
        return special.get(full, lambda f: self._generic(f, full, layer))(fn)

    def install(self):
        """Wrap every public function of the traced modules (plus a few
        private ones that carry real work) in every package namespace, and
        the two methods the metrics need."""
        mods = {layer: importlib.import_module(f"densetsnet.{layer}") for layer in LAYERS}
        op_names = set(mods["autodiff"].__all__) - {"Tensor", "backward", "grad_check"}
        wrapped = {}
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                wrapped[id(fn)] = (fn, self._wrapper_for(layer, name, fn, op_names))
        for mod in (sys.modules["densetsnet"], *mods.values()):
            for name, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
        net = mods["model"].DenseTsNet
        net.forward = self._forward(net.forward)
        opt = mods["training"].AdamW
        opt.step = self._generic(opt.step, "training.adamw_step", "training")

    def write_chrome(self, path, other: dict):
        """Chrome trace-event JSON: complete ("X") events in microseconds;
        args carry the span id, parent id and run id."""
        pid = os.getpid()
        events = []
        for sid, parent, name, cat, start, end, args in self.events:
            events.append({
                "name": name, "cat": cat, "ph": "X", "pid": pid, "tid": 1,
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent, "run": self.run_id, **args},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"run": self.run_id, **other}}, f)


def _sample_count(clip_or_samples) -> int:
    samples = getattr(clip_or_samples, "samples", clip_or_samples)
    return int(np.asarray(samples).size)
