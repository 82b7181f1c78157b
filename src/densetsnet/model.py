"""The masking network: gaze blocks, the dense two-stage trunk, the classic
serial baseline, and size inspection (parameters / multiply-accumulates).

Feature maps are laid out (B, T, F, C).  Sequence blocks see (N, L, C) slices
of that map: the time view runs L = T with N = B*F, the frequency view runs
L = F with N = B*T.  Channel counts inside the dense trunk grow linearly:
layer i consumes dense_channel * i channels (1-based) and every layer hands
dense_channel new ones to the running concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import StftConfig, power_compress
from .errors import ConfigError, DataError, ShapeError
from .params import ParamStore

_DROPPABLE = ("lke", "ca", "lsg")
RESIDUAL_GAIN = 0.2  # fixed weight on the last adjusted branch
# Rows x length of one chunk of a gaze view when no tape is recorded (see
# ts_mvgb_forward and _row_chunks).
CHUNK_POSITIONS = 16384


@dataclass(frozen=True)
class ModelConfig:
    dense_channel: int = 4
    depth: int = 4
    lke_kernel: int = 31
    lsg_kernel: int = 3
    mask_beta: float = 2.0
    variant: str = "dense_ts"
    classic_channel: int = 6
    drop: tuple = ()

    def __post_init__(self):
        if self.dense_channel < 1:
            raise ConfigError(f"dense_channel must be >= 1, got {self.dense_channel}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.classic_channel < 1:
            raise ConfigError(f"classic_channel must be >= 1, got {self.classic_channel}")
        for k in (self.lke_kernel, self.lsg_kernel):
            if k < 1 or k % 2 == 0:
                raise ConfigError(f"kernels must be odd and positive, got {k}")
        if self.mask_beta <= 0:
            raise ConfigError(f"mask_beta must be positive, got {self.mask_beta}")
        if self.variant not in _VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        drop = tuple(sorted(set(d.lower() for d in self.drop)))
        bad = [d for d in drop if d not in _DROPPABLE]
        if bad:
            raise ConfigError(f"unknown drop target(s) {bad}; choose from {_DROPPABLE}")
        object.__setattr__(self, "drop", drop)


@dataclass
class MvgbParams:
    c: int
    norm_g: Tensor
    norm_b: Tensor
    lke: dict = field(default_factory=dict)
    ca: dict = field(default_factory=dict)
    lsg: dict = field(default_factory=dict)
    fuse_w: Tensor = None
    fuse_b: Tensor = None


def build_mvgb(store: ParamStore, path: str, c: int, cfg: ModelConfig) -> MvgbParams:
    p = MvgbParams(
        c=c,
        norm_g=store.ones(f"{path}/norm_g", (c,)),
        norm_b=store.zeros(f"{path}/norm_b", (c,)),
    )
    if "lke" not in cfg.drop:
        p.lke = {
            "pw_in_w": store.uniform_fan_in(f"{path}/lke_pw_in/w", (1, c, 2 * c), c),
            "pw_in_b": store.zeros(f"{path}/lke_pw_in/b", (2 * c,)),
            "dw_w": store.uniform_fan_in(f"{path}/lke_dw/w", (cfg.lke_kernel, 1, c), cfg.lke_kernel),
            "dw_b": store.zeros(f"{path}/lke_dw/b", (c,)),
            "norm_g": store.ones(f"{path}/lke_norm_g", (c,)),
            "norm_b": store.zeros(f"{path}/lke_norm_b", (c,)),
            "pw_out_w": store.uniform_fan_in(f"{path}/lke_pw_out/w", (1, c, c), c),
            "pw_out_b": store.zeros(f"{path}/lke_pw_out/b", (c,)),
        }
    if "ca" not in cfg.drop:
        p.ca = {
            "w": store.uniform_fan_in(f"{path}/ca/w", (1, c, c), c),
            "b": store.zeros(f"{path}/ca/b", (c,)),
        }
    if "lsg" not in cfg.drop:
        p.lsg = {
            "dw_w": store.uniform_fan_in(f"{path}/lsg_dw/w", (cfg.lsg_kernel, 1, c), cfg.lsg_kernel),
            "dw_b": store.zeros(f"{path}/lsg_dw/b", (c,)),
            "pw_w": store.uniform_fan_in(f"{path}/lsg_pw/w", (1, c, c), c),
            "pw_b": store.zeros(f"{path}/lsg_pw/b", (c,)),
            "alpha": store.ones(f"{path}/lsg_alpha", (c,)),
        }
    p.fuse_w = store.uniform_fan_in(f"{path}/fuse/w", (1, c, c), c)
    p.fuse_b = store.zeros(f"{path}/fuse/b", (c,))
    return p


def mvgb_forward(x: Tensor, p: MvgbParams) -> Tensor:
    """One gaze block over (N, L, C): a large-kernel trunk modulated by a
    channel view and a spatial view, residual around the lot."""
    if x.ndim != 3 or x.shape[-1] != p.c:
        raise ShapeError(f"mvgb expects (N, L, {p.c}), got {x.shape}")
    # One name through each chain: under no_grad a map that nothing reads
    # again is freed at once, instead of living to the end of the function.
    # The fused ops keep less on the tape than the ops they stand for and
    # match them bit for bit (see the autodiff module docstring).  A dropped
    # view gates with a constant 1 in g's dtype: x * 1.0 == x exactly, so
    # every drop set runs the one fused tail and matches the composed ops.
    if p.lke:
        g = ad.norm_pointwise_gate(x, p.norm_g, p.norm_b, p.lke["pw_in_w"], p.lke["pw_in_b"],
                                   p.lke["dw_w"], p.lke["dw_b"])
        g = ad.norm_hardswish_pointwise(g, p.lke["norm_g"], p.lke["norm_b"],
                                        p.lke["pw_out_w"], p.lke["pw_out_b"])
    else:
        g = ad.instance_norm(x, p.norm_g, p.norm_b)
    ch = sp = Tensor(np.ones(1, g.dtype))
    if p.ca:
        ch = ad.conv1d(ad.mean(g, axis=1), p.ca["w"], p.ca["b"])
    if p.lsg:
        sp = ad.pointwise_learnable_sigmoid(g, p.lsg["dw_w"], p.lsg["dw_b"], p.lsg["pw_w"],
                                            p.lsg["pw_b"], p.lsg["alpha"])
    return ad.add(x, ad.gated_pointwise(g, ch, sp, p.fuse_w, p.fuse_b))


def ts_mvgb_forward(d: Tensor, p_time: MvgbParams, p_freq: MvgbParams) -> Tensor:
    """Sequence modelling along time, then along frequency, shape-preserving.
    One name is rebound through the chain, as in mvgb_forward.

    Each view is independent across its rows, so when ops record no tape a
    view runs over chunks of about ``CHUNK_POSITIONS`` positions that write
    into one preallocated (B, T, F, C) map: the time view transposes one
    chunk of frequency rows at a time, and the frequency view overwrites its
    rows, which are contiguous in that map, in place.  A view's maps are
    then a chunk wide rather than the whole (B, T, F, C) map wide."""
    if d.ndim != 4:
        raise ShapeError(f"ts block expects (B, T, F, C), got rank {d.ndim}")
    b, t, f, c = d.shape
    if ad._recording:
        h = ad.reshape(ad.transpose(d, (0, 2, 1, 3)), (b * f, t, c))
        h = mvgb_forward(h, p_time)
        h = ad.transpose(ad.reshape(h, (b, f, t, c)), (0, 2, 1, 3))
        h = mvgb_forward(ad.reshape(h, (b * t, f, c)), p_freq)
        return ad.reshape(h, (b, t, f, c))
    out = np.empty(d.shape, np.result_type(d.dtype, p_time.fuse_w.dtype, p_freq.fuse_w.dtype))
    for i in range(b):
        for rows in _row_chunks(f, t):
            h = mvgb_forward(Tensor(np.ascontiguousarray(d.data[i, :, rows].transpose(1, 0, 2))),
                             p_time)
            out[i, :, rows] = h.data.transpose(1, 0, 2)
    del h  # a one-chunk view's result is a whole map
    flat = out.reshape(b * t, f, c)
    for rows in _row_chunks(b * t, f):
        flat[rows] = mvgb_forward(Tensor(flat[rows]), p_freq).data
    return Tensor(out)


def _row_chunks(n: int, length: int) -> list:
    """Slices splitting n rows of the given length into as few chunks of at
    most CHUNK_POSITIONS positions as will do, as even as they come.  No
    chunk holds a single row unless n == 1, so a chunk may hold 2 or 3 rows
    past that size: numpy hands a one-row matmul to gemv, which rounds the
    channel attention's (rows, C) @ (C, C) product differently from the gemm
    that a whole view runs, while gemm gives every row the same bits at any
    row count."""
    rows = max(1, CHUNK_POSITIONS // length)
    k = max(1, min(-(-n // rows), n // 2))
    return [slice(n * j // k, n * (j + 1) // k) for j in range(k)]


def norm_hardswish_2d(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Instance norm over both spatial axes of (B, T, F, C), then hardswish."""
    b, t, f, c = x.shape
    flat = ad.reshape(x, (b, t * f, c))
    return ad.reshape(ad.norm_hardswish(flat, gamma, beta), (b, t, f, c))


class _MaskNet:
    """What both masking nets share: the parameter store, a 1 -> c lift of
    the compressed magnitude, a c -> 1 mask head with a per-bin learnable
    sigmoid, and the size accounting.

    A subclass names the ``VARIANT`` it builds and the config field of its
    ``WIDTH`` c and its measured ``ENHANCE_MAPS``.  ``_build(c)`` registers
    the body's parameters, between the lift and the head, and sets
    ``widest``, the most channels any map of the body has; ``_body`` maps
    lifted (B, T, F, c) features to the head's input plus a dict of inner
    maps for ``forward(parts=True)``.
    """

    VARIANT = WIDTH = ""
    # Traced peak of training.enhance_waveforms in widest feature maps (the
    # (1, T, F) map of the most channels, ``widest``), rounded up from float32
    # clips of 8 to 60 s; the base covers what does not grow with the clip:
    # a chunk's working set, the interpreter's allocator slack.
    ENHANCE_MAPS = 0.0
    ENHANCE_BASE = 32 << 20

    def __init__(self, cfg: ModelConfig, stft_cfg: StftConfig, seed: int = 0):
        if cfg.variant != self.VARIANT:
            raise ConfigError(f"{type(self).__name__} built with variant {cfg.variant!r}")
        self.cfg = cfg
        self.stft_cfg = stft_cfg
        self.store = ParamStore(rng=np.random.default_rng(seed))
        c = getattr(cfg, self.WIDTH)
        self.lift_w = self.store.uniform_fan_in("lift/w", (1, c), 1)
        self.lift_b = self.store.zeros("lift/b", (c,))
        self._build(c)
        self.mask_w = self.store.uniform_fan_in("head/mask/w", (c, 1), c)
        self.mask_b = self.store.zeros("head/mask/b", (1,))
        self.mask_alpha = self.store.ones("head/alpha", (stft_cfg.n_bins,))

    def forward(self, noisy_mag: Tensor, parts: bool = False):
        """(B, T, F) magnitudes -> (mask, enhanced); mask in (0, mask_beta)."""
        if noisy_mag.ndim != 3:
            raise ShapeError(f"expected (B, T, F) magnitudes, got rank {noisy_mag.ndim}")
        if np.any(noisy_mag.data < 0):
            raise DataError("negative magnitudes in model input")
        b, t, f = noisy_mag.shape
        feat = power_compress(noisy_mag, self.stft_cfg.compression)
        x4 = ad.reshape(feat, (b, t, f, 1))
        h, inner = self._body(ad.conv2d_pointwise(x4, self.lift_w, self.lift_b))
        head = ad.reshape(ad.conv2d_pointwise(h, self.mask_w, self.mask_b), (b, t, f))
        mask = ad.learnable_sigmoid(head, self.mask_alpha, beta=self.cfg.mask_beta)
        enhanced = ad.mul(mask, noisy_mag)
        if parts:
            return mask, enhanced, inner
        return mask, enhanced

    def enhance_peak_bytes(self, frames: int) -> int:
        """Estimated memory ``enhance_waveforms`` takes on a clip of
        ``frames`` STFT frames, at the parameters' dtype."""
        widest = frames * self.stft_cfg.n_bins * self.widest * self.store.dtype.itemsize
        return int(self.ENHANCE_BASE + self.ENHANCE_MAPS * widest)

    def count_params(self) -> int:
        return self.store.count()

    def count_macs(self, t: int, f: int) -> int:
        return sum(m for _, _, m in self.layer_table(t, f))

    def layer_table(self, t: int, f: int):
        """Rows of (group, params, macs); groups partition every parameter.
        Each weight ``.../w`` is one linear map doing one MAC per weight
        entry at every position it runs at (``_positions``)."""
        rows: dict[str, list] = {}
        for name, tns in self.store.items():
            row = rows.setdefault(_group_of(name), [0, 0])
            row[0] += tns.size
            if name.endswith("/w"):
                row[1] += tns.size * _positions(name, t, f)
        return [(g, p, m) for g, (p, m) in rows.items()]


class _TsLayer:
    __slots__ = ("index", "cin", "p_time", "p_freq", "adjust_w", "adjust_b")

    def __init__(self, index, cin):
        self.index = index
        self.cin = cin


class DenseTsNet(_MaskNet):
    """Masking model with densely concatenated two-stage layers."""

    VARIANT, WIDTH = "dense_ts", "dense_channel"
    ENHANCE_MAPS = 3.2  # measured 3.06-3.19

    def _build(self, c):
        self.widest = c * self.cfg.depth  # the last layer's input
        self.layers: list[_TsLayer] = []
        for i in range(1, self.cfg.depth + 1):
            cin = c * i
            lay = _TsLayer(i, cin)
            base = f"trunk/blk{i}"
            lay.p_time = build_mvgb(self.store, f"{base}/time", cin, self.cfg)
            lay.p_freq = build_mvgb(self.store, f"{base}/freq", cin, self.cfg)
            lay.adjust_w = self.store.uniform_fan_in(f"{base}/adjust/w", (cin, c), cin)
            lay.adjust_b = self.store.zeros(f"{base}/adjust/b", (c,))
            self.layers.append(lay)

    def _body(self, x: Tensor):
        """Dense recursion on lifted features, plus the residual on the
        last adjusted branch."""
        skip = x
        a = None
        for lay in self.layers:
            if a is not None:  # no concatenation after the last layer: nothing reads it
                skip = ad.concat_last([a, skip])
            if skip.shape[-1] != lay.cin:
                raise ShapeError(
                    f"layer {lay.index}: expected {lay.cin} input channels, got {skip.shape[-1]}")
            a = ad.conv2d_pointwise(ts_mvgb_forward(skip, lay.p_time, lay.p_freq),
                                    lay.adjust_w, lay.adjust_b)
        out = ad.add(ad.mul_const(a, RESIDUAL_GAIN), x)
        return out, {"lifted": x, "trunk": out, "a_last": a}


def _dense_block(store, path, c, dilations):
    """DenseNet-style stack of dilated 3x3 convs at constant output width."""
    layers = []
    for j, d in enumerate(dilations, start=1):
        cin = c * j
        w = store.uniform_fan_in(f"{path}/conv{j}/w", (3, 3, cin, c), 9 * cin)
        b = store.zeros(f"{path}/conv{j}/b", (c,))
        g = store.ones(f"{path}/conv{j}/norm_g", (c,))
        be = store.zeros(f"{path}/conv{j}/norm_b", (c,))
        layers.append((w, b, g, be, d))
    return layers


def _dense_block_forward(x: Tensor, layers) -> Tensor:
    feats = x
    out = x
    for w, b, g, be, d in layers:
        h = ad.conv2d(feats, w, b, dilation=(d, 1))
        out = norm_hardswish_2d(h, g, be)
        feats = ad.concat_last([feats, out])
    return out


class ClassicTsNet(_MaskNet):
    """Serial baseline: dense encoder, four two-stage blocks, dense decoder."""

    VARIANT, WIDTH = "classic_ts", "classic_channel"
    N_TS = 4
    DILATIONS = (1, 2, 4, 8)
    ENHANCE_MAPS = 3.9  # measured 3.78-3.79

    def _build(self, c):
        self.widest = c * (len(self.DILATIONS) + 1)  # a dense block's last concatenation
        self.enc = _dense_block(self.store, "enc", c, self.DILATIONS)
        self.ts = []
        for k in range(1, self.N_TS + 1):
            pt = build_mvgb(self.store, f"ts{k}/time", c, self.cfg)
            pf = build_mvgb(self.store, f"ts{k}/freq", c, self.cfg)
            self.ts.append((pt, pf))
        self.dec = _dense_block(self.store, "dec", c, self.DILATIONS)

    def _body(self, h: Tensor):
        h = _dense_block_forward(h, self.enc)
        for pt, pf in self.ts:
            h = ts_mvgb_forward(h, pt, pf)
        h = _dense_block_forward(h, self.dec)
        return h, {"final": h}


_VARIANTS = {net.VARIANT: net for net in (DenseTsNet, ClassicTsNet)}


def build_model(cfg: ModelConfig, stft_cfg: StftConfig, seed: int = 0):
    return _VARIANTS[cfg.variant](cfg, stft_cfg, seed)


def _group_of(name: str) -> str:
    parts = name.split("/")
    if parts[0] in ("trunk",):
        return "/".join(parts[:2])
    return parts[0]


def _positions(name: str, t: int, f: int) -> int:
    """How often the linear map with weight ``name`` runs on a T x F map."""
    if name.endswith("/time/ca/w"):
        return f  # channel attention pooled over time: once per frequency row
    if name.endswith("/freq/ca/w"):
        return t  # pooled over frequency: once per time row
    return t * f
