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
        if self.variant not in _VARIANTS:
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
    # match them bit for bit (see the autodiff module docstring).
    if p.lke:
        g = ad.norm_pointwise_gate(x, p.norm_g, p.norm_b, p.lke["pw_in_w"], p.lke["pw_in_b"])
        g = ad.conv1d(g, p.lke["dw_w"], p.lke["dw_b"], groups=p.c)
        g = ad.norm_hardswish(g, p.lke["norm_g"], p.lke["norm_b"])
        g = ad.conv1d(g, p.lke["pw_out_w"], p.lke["pw_out_b"])
    else:
        g = ad.instance_norm(x, p.norm_g, p.norm_b)
    if p.ca:
        pooled = ad.mean(g, axis=1, keepdims=True)
        ch = ad.conv1d(pooled, p.ca["w"], p.ca["b"])
    if p.lsg:
        s = ad.conv1d(g, p.lsg["dw_w"], p.lsg["dw_b"], groups=p.c)
        s = ad.conv1d(s, p.lsg["pw_w"], p.lsg["pw_b"])
        sp = ad.learnable_sigmoid(s, p.lsg["alpha"], beta=1.0)
    y = g
    if p.ca and p.lsg:
        y = ad.gated_product(g, ch, sp)
    elif p.ca:
        y = ad.mul(g, ch)
    elif p.lsg:
        y = ad.mul(g, sp)
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
    ``WIDTH`` c.  ``_build(c)`` registers the body's parameters, between the
    lift and the head, and ``_body`` maps lifted (B, T, F, c) features to
    the head's input plus a dict of inner maps for ``forward(parts=True)``.
    """

    VARIANT = WIDTH = ""

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

    def count_params(self) -> int:
        return self.store.count()

    def count_macs(self, t: int = 321, f: int = 201) -> int:
        return sum(m for _, _, m in self.layer_table(t, f))

    def layer_table(self, t: int = 321, f: int = 201):
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
    __slots__ = ("index", "cin", "p_time", "p_freq", "adjust_w", "adjust_b",
                 "adjust_dw_w", "adjust_dw_b")

    def __init__(self, index, cin):
        self.index = index
        self.cin = cin
        self.adjust_dw_w = None
        self.adjust_dw_b = None


class DenseTsNet(_MaskNet):
    """Masking model with densely concatenated two-stage layers."""

    VARIANT, WIDTH = "dense_ts", "dense_channel"

    def _build(self, c):
        self.layers: list[_TsLayer] = []
        for i in range(1, self.cfg.depth + 1):
            cin = c * i
            lay = _TsLayer(i, cin)
            base = f"trunk/blk{i}"
            lay.p_time = build_mvgb(self.store, f"{base}/time", cin, self.cfg)
            lay.p_freq = build_mvgb(self.store, f"{base}/freq", cin, self.cfg)
            lay.adjust_w = self.store.uniform_fan_in(f"{base}/adjust/w", (cin, c), cin)
            lay.adjust_b = self.store.zeros(f"{base}/adjust/b", (c,))
            if self.cfg.adjust_depthwise:
                lay.adjust_dw_w = self.store.uniform_fan_in(f"{base}/adjust_dw/w", (3, 3, c), 9)
                lay.adjust_dw_b = self.store.zeros(f"{base}/adjust_dw/b", (c,))
            self.layers.append(lay)

    @property
    def layer_in_channels(self) -> list[int]:
        return [lay.cin for lay in self.layers]

    def _adjust(self, lay: _TsLayer, h: Tensor) -> Tensor:
        a = ad.conv2d_pointwise(h, lay.adjust_w, lay.adjust_b)
        if lay.adjust_dw_w is not None:
            a = ad.conv2d_depthwise(a, lay.adjust_dw_w, lay.adjust_dw_b)
        return a

    def _body(self, x: Tensor):
        """Dense recursion on lifted features, plus the residual on the
        last adjusted branch."""
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

    def _build(self, c):
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
