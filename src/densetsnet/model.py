"""The masking network: gaze blocks, the dense two-stage trunk, the classic
serial baseline, and size inspection (parameters / multiply-accumulates).

Feature maps are laid out (B, T, F, C).  Sequence blocks see (N, L, C) slices
of that map: the time view runs L = T with N = B*F, the frequency view runs
L = F with N = B*T.  Channel counts inside the dense trunk grow linearly:
layer i consumes dense_channel * i channels (1-based) and every layer hands
dense_channel new ones to the running concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import StftConfig, power_compress
from .errors import ConfigError, DataError, ShapeError
from .params import ParamStore

_DROPPABLE = ("lke", "ca", "lsg")
RESIDUAL_GAIN = 0.2  # fixed weight on the last adjusted branch


@dataclass(frozen=True)
class ModelConfig:
    dense_channel: int = 4
    depth: int = 4
    lke_kernel: int = 31
    lsg_kernel: int = 3
    mask_beta: float = 2.0
    variant: str = "dense_ts"
    classic_channel: int = 6
    adjust_depthwise: bool = False
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
        if self.variant not in ("dense_ts", "classic_ts"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        drop = tuple(sorted(set(d.lower() for d in self.drop)))
        bad = [d for d in drop if d not in _DROPPABLE]
        if bad:
            raise ConfigError(f"unknown drop target(s) {bad}; choose from {_DROPPABLE}")
        object.__setattr__(self, "drop", drop)


def ablate(cfg: ModelConfig, drop: str) -> ModelConfig:
    """Return a config whose named branch is replaced by identity."""
    return replace(cfg, drop=tuple(cfg.drop) + (drop.lower(),))


@dataclass
class ConvDesc:
    """Book-keeping for one linear map, enough to price its MACs later.

    where: 'tf' runs once per (t, f) cell; 'pool_t' runs once per frequency
    row (after pooling over time), 'pool_f' once per time row.
    """
    name: str
    cin: int
    cout: int
    k: int
    groups: int
    where: str

    def macs(self, t: int, f: int) -> int:
        pos = {"tf": t * f, "pool_t": f, "pool_f": t}[self.where]
        return pos * self.cout * self.k * (self.cin // self.groups)


@dataclass
class MvgbParams:
    c: int
    lke_kernel: int
    lsg_kernel: int
    drop: tuple
    norm_g: Tensor
    norm_b: Tensor
    lke: dict = field(default_factory=dict)
    ca: dict = field(default_factory=dict)
    lsg: dict = field(default_factory=dict)
    fuse_w: Tensor = None
    fuse_b: Tensor = None


def build_mvgb(store: ParamStore, descs: list, path: str, c: int,
               cfg: ModelConfig, pooled: str) -> MvgbParams:
    p = MvgbParams(
        c=c, lke_kernel=cfg.lke_kernel, lsg_kernel=cfg.lsg_kernel, drop=cfg.drop,
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
        descs.append(ConvDesc(f"{path}/lke_pw_in", c, 2 * c, 1, 1, "tf"))
        descs.append(ConvDesc(f"{path}/lke_dw", c, c, cfg.lke_kernel, c, "tf"))
        descs.append(ConvDesc(f"{path}/lke_pw_out", c, c, 1, 1, "tf"))
    if "ca" not in cfg.drop:
        p.ca = {
            "w": store.uniform_fan_in(f"{path}/ca/w", (1, c, c), c),
            "b": store.zeros(f"{path}/ca/b", (c,)),
        }
        descs.append(ConvDesc(f"{path}/ca", c, c, 1, 1, pooled))
    if "lsg" not in cfg.drop:
        p.lsg = {
            "dw_w": store.uniform_fan_in(f"{path}/lsg_dw/w", (cfg.lsg_kernel, 1, c), cfg.lsg_kernel),
            "dw_b": store.zeros(f"{path}/lsg_dw/b", (c,)),
            "pw_w": store.uniform_fan_in(f"{path}/lsg_pw/w", (1, c, c), c),
            "pw_b": store.zeros(f"{path}/lsg_pw/b", (c,)),
            "alpha": store.ones(f"{path}/lsg_alpha", (c,)),
        }
        descs.append(ConvDesc(f"{path}/lsg_dw", c, c, cfg.lsg_kernel, c, "tf"))
        descs.append(ConvDesc(f"{path}/lsg_pw", c, c, 1, 1, "tf"))
    p.fuse_w = store.uniform_fan_in(f"{path}/fuse/w", (1, c, c), c)
    p.fuse_b = store.zeros(f"{path}/fuse/b", (c,))
    descs.append(ConvDesc(f"{path}/fuse", c, c, 1, 1, "tf"))
    return p


def mvgb_forward(x: Tensor, p: MvgbParams) -> Tensor:
    """One gaze block over (N, L, C): a large-kernel trunk modulated by a
    channel view and a spatial view, residual around the lot."""
    if x.ndim != 3 or x.shape[-1] != p.c:
        raise ShapeError(f"mvgb expects (N, L, {p.c}), got {x.shape}")
    # One name through each chain: under no_grad a map that nothing reads
    # again is freed at once, instead of living to the end of the function.
    g = ad.instance_norm(x, p.norm_g, p.norm_b)
    if p.lke:
        g = ad.conv1d(g, p.lke["pw_in_w"], p.lke["pw_in_b"])
        g = ad.simple_gate(g)
        g = ad.conv1d(g, p.lke["dw_w"], p.lke["dw_b"], groups=p.c)
        g = ad.instance_norm(g, p.lke["norm_g"], p.lke["norm_b"])
        g = ad.hardswish(g)
        g = ad.conv1d(g, p.lke["pw_out_w"], p.lke["pw_out_b"])
    y = g
    if p.ca:
        pooled = ad.mean(g, axis=1, keepdims=True)
        ch = ad.conv1d(pooled, p.ca["w"], p.ca["b"])
        y = ad.mul(y, ch)
    if p.lsg:
        s = ad.conv1d(g, p.lsg["dw_w"], p.lsg["dw_b"], groups=p.c)
        s = ad.conv1d(s, p.lsg["pw_w"], p.lsg["pw_b"])
        sp = ad.learnable_sigmoid(s, p.lsg["alpha"], beta=1.0)
        y = ad.mul(y, sp)
    return ad.add(x, ad.conv1d(y, p.fuse_w, p.fuse_b))


def ts_mvgb_forward(d: Tensor, p_time: MvgbParams, p_freq: MvgbParams) -> Tensor:
    """Sequence modelling along time, then along frequency, shape-preserving.
    One name is rebound through the chain, as in mvgb_forward."""
    if d.ndim != 4:
        raise ShapeError(f"ts block expects (B, T, F, C), got rank {d.ndim}")
    b, t, f, c = d.shape
    h = ad.reshape(ad.transpose(d, (0, 2, 1, 3)), (b * f, t, c))
    h = mvgb_forward(h, p_time)
    h = ad.transpose(ad.reshape(h, (b, f, t, c)), (0, 2, 1, 3))
    h = mvgb_forward(ad.reshape(h, (b * t, f, c)), p_freq)
    return ad.reshape(h, (b, t, f, c))


def instance_norm_2d(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Instance norm over both spatial axes of (B, T, F, C)."""
    b, t, f, c = x.shape
    flat = ad.reshape(x, (b, t * f, c))
    return ad.reshape(ad.instance_norm(flat, gamma, beta), (b, t, f, c))


class _TsLayer:
    __slots__ = ("index", "cin", "p_time", "p_freq", "adjust_w", "adjust_b",
                 "adjust_dw_w", "adjust_dw_b")

    def __init__(self, index, cin):
        self.index = index
        self.cin = cin
        self.adjust_dw_w = None
        self.adjust_dw_b = None


class DenseTsNet:
    """Masking model with densely concatenated two-stage layers."""

    def __init__(self, cfg: ModelConfig, stft_cfg: StftConfig, seed: int = 0):
        if cfg.variant != "dense_ts":
            raise ConfigError(f"DenseTsNet built with variant {cfg.variant!r}")
        self.cfg = cfg
        self.stft_cfg = stft_cfg
        self.store = ParamStore(rng=np.random.default_rng(seed))
        self.descs: list[ConvDesc] = []
        c = cfg.dense_channel
        f_bins = stft_cfg.n_bins

        self.lift_w = self.store.uniform_fan_in("lift/w", (1, c), 1)
        self.lift_b = self.store.zeros("lift/b", (c,))
        self.descs.append(ConvDesc("lift", 1, c, 1, 1, "tf"))

        self.layers: list[_TsLayer] = []
        for i in range(1, cfg.depth + 1):
            cin = c * i
            lay = _TsLayer(i, cin)
            base = f"trunk/blk{i}"
            lay.p_time = build_mvgb(self.store, self.descs, f"{base}/time", cin, cfg, "pool_t")
            lay.p_freq = build_mvgb(self.store, self.descs, f"{base}/freq", cin, cfg, "pool_f")
            lay.adjust_w = self.store.uniform_fan_in(f"{base}/adjust/w", (cin, c), cin)
            lay.adjust_b = self.store.zeros(f"{base}/adjust/b", (c,))
            self.descs.append(ConvDesc(f"{base}/adjust", cin, c, 1, 1, "tf"))
            if cfg.adjust_depthwise:
                lay.adjust_dw_w = self.store.uniform_fan_in(f"{base}/adjust_dw/w", (3, 3, c), 9)
                lay.adjust_dw_b = self.store.zeros(f"{base}/adjust_dw/b", (c,))
                self.descs.append(ConvDesc(f"{base}/adjust_dw", c, c, 9, c, "tf"))
            self.layers.append(lay)

        self.mask_w = self.store.uniform_fan_in("head/mask/w", (c, 1), c)
        self.mask_b = self.store.zeros("head/mask/b", (1,))
        self.descs.append(ConvDesc("head/mask", c, 1, 1, 1, "tf"))
        self.mask_alpha = self.store.ones("head/alpha", (f_bins,))

    @property
    def layer_in_channels(self) -> list[int]:
        return [lay.cin for lay in self.layers]

    def _adjust(self, lay: _TsLayer, h: Tensor) -> Tensor:
        a = ad.conv2d_pointwise(h, lay.adjust_w, lay.adjust_b)
        if lay.adjust_dw_w is not None:
            a = ad.conv2d_depthwise(a, lay.adjust_dw_w, lay.adjust_dw_b)
        return a

    def trunk_forward(self, x: Tensor):
        """Dense recursion on lifted features; returns (out, last_adjusted)."""
        c = self.cfg.dense_channel
        skip = x
        a = None
        for lay in self.layers:
            if skip.shape[-1] != lay.cin:
                raise ShapeError(
                    f"layer {lay.index}: expected {lay.cin} input channels, got {skip.shape[-1]}")
            h = ts_mvgb_forward(skip, lay.p_time, lay.p_freq)
            a = self._adjust(lay, h)
            skip = ad.concat_last([a, skip])
        out = ad.add(ad.scale(a, RESIDUAL_GAIN), x)
        return out, a

    def forward(self, noisy_mag: Tensor, parts: bool = False):
        """(B, T, F) magnitudes -> (mask, enhanced); mask in (0, mask_beta)."""
        if noisy_mag.ndim != 3:
            raise ShapeError(f"expected (B, T, F) magnitudes, got rank {noisy_mag.ndim}")
        if np.any(noisy_mag.data < 0):
            raise DataError("negative magnitudes in model input")
        b, t, f = noisy_mag.shape
        feat = power_compress(noisy_mag, self.stft_cfg.compression)
        x4 = ad.reshape(feat, (b, t, f, 1))
        lifted = ad.conv2d_pointwise(x4, self.lift_w, self.lift_b)
        trunk, a_last = self.trunk_forward(lifted)
        head = ad.reshape(ad.conv2d_pointwise(trunk, self.mask_w, self.mask_b), (b, t, f))
        mask = ad.learnable_sigmoid(head, self.mask_alpha, beta=self.cfg.mask_beta)
        enhanced = ad.mul(mask, noisy_mag)
        if parts:
            return mask, enhanced, {"lifted": lifted, "trunk": trunk, "a_last": a_last}
        return mask, enhanced

    def count_params(self) -> int:
        return self.store.count()

    def count_macs(self, t: int = 321, f: int = 201) -> int:
        return sum(d.macs(t, f) for d in self.descs)

    def layer_table(self, t: int = 321, f: int = 201):
        return _layer_table(self.store, self.descs, t, f)


def _dense_block(store, descs, path, c, dilations):
    """DenseNet-style stack of dilated 3x3 convs at constant output width."""
    layers = []
    for j, d in enumerate(dilations, start=1):
        cin = c * j
        w = store.uniform_fan_in(f"{path}/conv{j}/w", (3, 3, cin, c), 9 * cin)
        b = store.zeros(f"{path}/conv{j}/b", (c,))
        g = store.ones(f"{path}/conv{j}/norm_g", (c,))
        be = store.zeros(f"{path}/conv{j}/norm_b", (c,))
        descs.append(ConvDesc(f"{path}/conv{j}", cin, c, 9, 1, "tf"))
        layers.append((w, b, g, be, d))
    return layers


def _dense_block_forward(x: Tensor, layers) -> Tensor:
    feats = x
    out = x
    for w, b, g, be, d in layers:
        h = ad.conv2d(feats, w, b, dilation=(d, 1))
        h = instance_norm_2d(h, g, be)
        out = ad.hardswish(h)
        feats = ad.concat_last([feats, out])
    return out


class ClassicTsNet:
    """Serial baseline: dense encoder, four two-stage blocks, dense decoder."""

    N_TS = 4
    DILATIONS = (1, 2, 4, 8)

    def __init__(self, cfg: ModelConfig, stft_cfg: StftConfig, seed: int = 0):
        if cfg.variant != "classic_ts":
            raise ConfigError(f"ClassicTsNet built with variant {cfg.variant!r}")
        self.cfg = cfg
        self.stft_cfg = stft_cfg
        self.store = ParamStore(rng=np.random.default_rng(seed))
        self.descs: list[ConvDesc] = []
        c = cfg.classic_channel
        f_bins = stft_cfg.n_bins

        self.lift_w = self.store.uniform_fan_in("lift/w", (1, c), 1)
        self.lift_b = self.store.zeros("lift/b", (c,))
        self.descs.append(ConvDesc("lift", 1, c, 1, 1, "tf"))
        self.enc = _dense_block(self.store, self.descs, "enc", c, self.DILATIONS)
        self.ts = []
        for k in range(1, self.N_TS + 1):
            pt = build_mvgb(self.store, self.descs, f"ts{k}/time", c, cfg, "pool_t")
            pf = build_mvgb(self.store, self.descs, f"ts{k}/freq", c, cfg, "pool_f")
            self.ts.append((pt, pf))
        self.dec = _dense_block(self.store, self.descs, "dec", c, self.DILATIONS)
        self.mask_w = self.store.uniform_fan_in("head/mask/w", (c, 1), c)
        self.mask_b = self.store.zeros("head/mask/b", (1,))
        self.descs.append(ConvDesc("head/mask", c, 1, 1, 1, "tf"))
        self.mask_alpha = self.store.ones("head/alpha", (f_bins,))

    def forward(self, noisy_mag: Tensor, parts: bool = False):
        if noisy_mag.ndim != 3:
            raise ShapeError(f"expected (B, T, F) magnitudes, got rank {noisy_mag.ndim}")
        if np.any(noisy_mag.data < 0):
            raise DataError("negative magnitudes in model input")
        b, t, f = noisy_mag.shape
        feat = power_compress(noisy_mag, self.stft_cfg.compression)
        x4 = ad.reshape(feat, (b, t, f, 1))
        h = ad.conv2d_pointwise(x4, self.lift_w, self.lift_b)
        h = _dense_block_forward(h, self.enc)
        for pt, pf in self.ts:
            h = ts_mvgb_forward(h, pt, pf)
        h = _dense_block_forward(h, self.dec)
        head = ad.reshape(ad.conv2d_pointwise(h, self.mask_w, self.mask_b), (b, t, f))
        mask = ad.learnable_sigmoid(head, self.mask_alpha, beta=self.cfg.mask_beta)
        enhanced = ad.mul(mask, noisy_mag)
        if parts:
            return mask, enhanced, {"final": h}
        return mask, enhanced

    def count_params(self) -> int:
        return self.store.count()

    def count_macs(self, t: int = 321, f: int = 201) -> int:
        return sum(d.macs(t, f) for d in self.descs)

    def layer_table(self, t: int = 321, f: int = 201):
        return _layer_table(self.store, self.descs, t, f)


def build_model(cfg: ModelConfig, stft_cfg: StftConfig, seed: int = 0):
    if cfg.variant == "classic_ts":
        return ClassicTsNet(cfg, stft_cfg, seed)
    return DenseTsNet(cfg, stft_cfg, seed)


def _group_of(name: str) -> str:
    parts = name.split("/")
    if parts[0] in ("trunk",):
        return "/".join(parts[:2])
    return parts[0]


def _layer_table(store: ParamStore, descs, t: int, f: int):
    """Rows of (group, params, macs); groups partition every parameter."""
    rows: dict[str, list] = {}
    for name, tns in store.items():
        g = _group_of(name)
        rows.setdefault(g, [0, 0])[0] += tns.size
    for d in descs:
        g = _group_of(d.name)
        rows.setdefault(g, [0, 0])[1] += d.macs(t, f)
    return [(g, p, m) for g, (p, m) in rows.items()]
