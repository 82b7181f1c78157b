"""Masking network: size laws checked against independent arithmetic, exact
residual structure, mask range, ablations, and the serial baseline."""

import numpy as np
import pytest

import densetsnet.autodiff as ad
from densetsnet.autodiff import Tensor, backward
from densetsnet.dsp import StftConfig
from densetsnet.errors import ConfigError, DataError, ShapeError
from densetsnet.model import (CHUNK_POSITIONS, RESIDUAL_GAIN, ClassicTsNet, DenseTsNet,
                              ModelConfig, _row_chunks, build_model, build_mvgb, mvgb_forward)
from densetsnet.params import ParamStore

from helpers import closure_tensors

SCFG = StftConfig()
F_BINS = SCFG.n_bins  # 201


# Parameter/MAC accounting re-derived from the architecture by hand, so it
# checks the library's count from the parameter store instead of repeating it.

def mvgb_params(c, lke_k=31, lsg_k=3, drop=()):
    total = 2 * c                                   # entry norm
    if "lke" not in drop:
        total += c * 2 * c + 2 * c                  # expand
        total += lke_k * c + c                      # long depthwise
        total += 2 * c                              # inner norm
        total += c * c + c                          # project
    if "ca" not in drop:
        total += c * c + c
    if "lsg" not in drop:
        total += lsg_k * c + c + c * c + c + c      # dw, pw, alpha
    total += c * c + c                              # fuse
    return total


def dense_params(c, depth, f_bins=F_BINS, drop=()):
    total = c + c                                   # lift
    for i in range(1, depth + 1):
        ci = c * i
        total += 2 * mvgb_params(ci, drop=drop)     # time + frequency
        total += ci * c + c                         # adjust
    total += c + 1 + f_bins                         # mask head + alpha
    return total


def dense_block_params(c, n=4):
    # conv j sees c * j channels: 3x3 weight, bias, norm gain and shift
    return sum(9 * c * j * c + 3 * c for j in range(1, n + 1))


def classic_params(c, f_bins=F_BINS, drop=()):
    total = c + c                                   # lift
    total += 2 * dense_block_params(c)              # encoder + decoder
    total += 4 * 2 * mvgb_params(c, drop=drop)      # four two-stage blocks
    total += c + 1 + f_bins                         # mask head + alpha
    return total


def mvgb_macs(c, t, f, pooled_pos, lke_k=31, lsg_k=3, drop=()):
    tf = t * f
    total = 0
    if "lke" not in drop:
        total += tf * 2 * c * c + tf * c * lke_k + tf * c * c
    if "ca" not in drop:
        total += pooled_pos * c * c
    if "lsg" not in drop:
        total += tf * c * lsg_k + tf * c * c
    total += tf * c * c
    return total


def dense_macs(c, depth, t, f, drop=()):
    total = t * f * c                               # lift
    for i in range(1, depth + 1):
        ci = c * i
        total += mvgb_macs(ci, t, f, pooled_pos=f, drop=drop)   # time view
        total += mvgb_macs(ci, t, f, pooled_pos=t, drop=drop)   # frequency view
        total += t * f * c * ci                     # adjust
    total += t * f * c                              # mask head
    return total


def classic_macs(c, t, f, drop=()):
    total = t * f * c                               # lift
    block = sum(t * f * 9 * c * j * c for j in range(1, 5))
    total += 2 * block                              # encoder + decoder
    for _ in range(4):
        total += mvgb_macs(c, t, f, pooled_pos=f, drop=drop)
        total += mvgb_macs(c, t, f, pooled_pos=t, drop=drop)
    total += t * f * c                              # mask head
    return total


def test_mvgb_closed_form():
    for c in (1, 2, 4, 8, 16):
        assert mvgb_params(c) == 6 * c * c + 47 * c


def test_default_parameter_count_golden():
    model = DenseTsNet(ModelConfig(), SCFG)
    assert model.count_params() == 9910
    assert model.count_params() == dense_params(4, 4)
    # per-layer increments follow 192 i^2 + 392 i + 4 at width 4
    for i in (1, 2, 3, 4):
        got = 2 * mvgb_params(4 * i) + 4 * i * 4 + 4
        assert got == 192 * i * i + 392 * i + 4


def test_parameter_law_sweep():
    for c in (1, 2, 3, 4, 8):
        for depth in (1, 2, 3, 6):
            cfg = ModelConfig(dense_channel=c, depth=depth)
            model = DenseTsNet(cfg, SCFG)
            assert model.count_params() == dense_params(c, depth), (c, depth)


def test_default_macs_golden():
    model = DenseTsNet(ModelConfig(), SCFG)
    t = SCFG.frame_count(32000)  # 321 frames for a 2 s clip
    assert t == 321
    assert model.count_macs(t=t, f=F_BINS) == 496_288_008
    assert model.count_macs(t=t, f=F_BINS) == dense_macs(4, 4, t, F_BINS)


DROP_SETS = [(), ("lke",), ("ca",), ("lsg",), ("ca", "lke", "lsg")]


def test_macs_law_sweep():
    for c, depth, t in [(2, 2, 50), (4, 4, 321), (3, 5, 100)]:
        for drop in DROP_SETS:
            model = DenseTsNet(ModelConfig(dense_channel=c, depth=depth, drop=drop), SCFG)
            for tt, f in [(t, F_BINS), (7, 33)]:
                want = dense_macs(c, depth, tt, f, drop=drop)
                assert model.count_macs(t=tt, f=f) == want, (c, depth, drop, tt, f)


def test_classic_golden_and_law_sweep():
    model = ClassicTsNet(ModelConfig(variant="classic_ts"), SCFG)
    assert model.count_params() == 10_828 == classic_params(6)
    assert model.count_macs(t=321, f=F_BINS) == 617_154_012 == classic_macs(6, 321, F_BINS)
    for c in (1, 3, 6):
        for drop in DROP_SETS:
            model = ClassicTsNet(ModelConfig(variant="classic_ts", classic_channel=c,
                                             drop=drop), SCFG)
            assert model.count_params() == classic_params(c, drop=drop), (c, drop)
            for t, f in [(321, F_BINS), (50, F_BINS), (7, 33)]:
                want = classic_macs(c, t, f, drop=drop)
                assert model.count_macs(t=t, f=f) == want, (c, drop, t, f)


def test_layer_in_channels_growth():
    model = DenseTsNet(ModelConfig(), SCFG)
    assert [lay.cin for lay in model.layers] == [4, 8, 12, 16]
    model6 = DenseTsNet(ModelConfig(dense_channel=3, depth=6), SCFG)
    assert [lay.cin for lay in model6.layers] == [3, 6, 9, 12, 15, 18]


def test_layer_table_partitions_totals():
    for cfg in (ModelConfig(), ModelConfig(variant="classic_ts")):
        model = build_model(cfg, SCFG)
        table = model.layer_table(t=321, f=F_BINS)
        assert sum(p for _, p, _ in table) == model.count_params()
        assert sum(m for _, _, m in table) == model.count_macs(t=321, f=F_BINS)


def test_forward_shapes_and_mask_range():
    rng = np.random.default_rng(0)
    model = DenseTsNet(ModelConfig(), SCFG)
    mag = np.abs(rng.standard_normal((2, 9, F_BINS)))
    mask, enh = model.forward(Tensor(mag))
    assert mask.shape == (2, 9, F_BINS)
    assert np.all(mask.data > 0) and np.all(mask.data < 2.0)
    assert np.allclose(enh.data, mask.data * mag)


def test_mask_beta_bounds_mask():
    rng = np.random.default_rng(1)
    model = DenseTsNet(ModelConfig(mask_beta=0.7), SCFG)
    mag = np.abs(rng.standard_normal((1, 6, F_BINS)))
    mask, _ = model.forward(Tensor(mag))
    assert np.all(mask.data < 0.7)


def test_residual_decomposition_exact():
    rng = np.random.default_rng(2)
    model = DenseTsNet(ModelConfig(), SCFG)
    mag = np.abs(rng.standard_normal((1, 7, F_BINS)))
    _, _, parts = model.forward(Tensor(mag), parts=True)
    recon = RESIDUAL_GAIN * parts["a_last"].data + parts["lifted"].data
    assert np.array_equal(parts["trunk"].data, recon)


def test_dense_trunk_concatenates_only_what_a_layer_reads(monkeypatch):
    """Each layer after the first reads the concatenation of the one before;
    none is built after the last layer.  A layer whose input width is wrong
    is named in the ShapeError."""
    calls = []
    concat = ad.concat_last
    monkeypatch.setattr(ad, "concat_last", lambda parts: calls.append(parts) or concat(parts))
    model = DenseTsNet(ModelConfig(dense_channel=2, depth=3), SCFG)
    mag = Tensor(np.abs(np.random.default_rng(5).standard_normal((1, 5, F_BINS))))
    model.forward(mag, parts=True)
    assert [sum(p.shape[-1] for p in parts) for parts in calls] == [4, 6]
    model.layers[2].cin = 5
    with pytest.raises(ShapeError, match="layer 3: expected 5 input channels, got 6"):
        model.forward(mag)


def test_zeroed_mixers_make_trunk_identity():
    # fuse and adjust weights at zero turn every layer into a pass-through,
    # so the trunk output must equal the lifted input bit for bit
    rng = np.random.default_rng(3)
    model = DenseTsNet(ModelConfig(), SCFG)
    for name, tns in model.store.items():
        if name.endswith("fuse/w") or name.endswith("adjust/w"):
            tns.data[...] = 0.0
    mag = np.abs(rng.standard_normal((1, 6, F_BINS)))
    _, _, parts = model.forward(Tensor(mag), parts=True)
    assert np.array_equal(parts["trunk"].data, parts["lifted"].data)


def test_batch_items_are_independent():
    rng = np.random.default_rng(4)
    model = DenseTsNet(ModelConfig(), SCFG)
    mag = np.abs(rng.standard_normal((3, 8, F_BINS)))
    _, enh_all = model.forward(Tensor(mag))
    for b in range(3):
        _, enh_one = model.forward(Tensor(mag[b:b + 1]))
        assert np.max(np.abs(enh_all.data[b] - enh_one.data[0])) < 1e-10


@pytest.mark.parametrize("chunk,shape", [(None, (1, 321)), (1000, (2, 81)), (1, (2, 81))],
                         ids=["default_2s", "uneven", "two_rows"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(variant="classic_ts"),
                                 ModelConfig(drop=("ca",))],
                         ids=["dense_ts", "classic_ts", "drop_ca"])
def test_no_grad_forward_over_row_chunks_equals_the_recorded_forward(
        cfg, dtype, chunk, shape, monkeypatch):
    """Under no_grad each gaze view runs over chunks of its rows, bit for bit
    the recorded forward over whole views.  Every view here spans several
    chunks: 4 of 50-51 and 80-81 rows at the default size on a 2 s clip,
    11-12 and 3-4 rows at 1000 positions, and 2-3 rows at the smallest
    size, where a one-row chunk would round the channel attention
    differently."""
    if chunk is not None:
        monkeypatch.setattr("densetsnet.model.CHUNK_POSITIONS", chunk)
    model = build_model(cfg, SCFG, seed=6)
    rng = np.random.default_rng(7)
    for t in model.store.tensors():  # nonzero biases and norm shifts too
        t.data = (t.data + 0.1 * rng.standard_normal(t.shape)).astype(dtype)
    mag = Tensor(np.abs(rng.standard_normal(shape + (F_BINS,))).astype(dtype))
    mask, enh = model.forward(mag)
    assert enh.requires_grad
    with ad.no_grad():
        mask_ng, enh_ng = model.forward(mag)
    assert enh_ng.dtype == dtype
    np.testing.assert_array_equal(mask_ng.data, mask.data)
    np.testing.assert_array_equal(enh_ng.data, enh.data)


@pytest.mark.parametrize("n,length", [(1, 9601), (2, 9601), (201, 9601), (201, 321),
                                      (201, 161), (9601, 201), (7, 1)])
def test_row_chunks_tile_the_rows_without_a_one_row_chunk(n, length):
    chunks = _row_chunks(n, length)
    assert chunks[0].start == 0 and chunks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    sizes = [s.stop - s.start for s in chunks]
    assert min(sizes) >= min(n, 2)
    assert max(sizes) <= max(3, CHUNK_POSITIONS // length)


def test_gradient_reaches_every_parameter():
    rng = np.random.default_rng(5)
    model = DenseTsNet(ModelConfig(depth=2), SCFG)
    mag = np.abs(rng.standard_normal((1, 5, F_BINS))) + 0.1
    _, enh = model.forward(Tensor(mag))
    backward(ad.mean_all(ad.square(enh)))
    for name, tns in model.store.items():
        assert tns.grad is not None, name
        assert np.any(tns.grad != 0) or tns.size == 0, name


def test_drop_branches_shrink_and_run():
    rng = np.random.default_rng(6)
    full = DenseTsNet(ModelConfig(), SCFG).count_params()
    mag = np.abs(rng.standard_normal((1, 5, F_BINS)))
    for drop in ("lke", "ca", "lsg"):
        cfg = ModelConfig(drop=(drop,))
        model = DenseTsNet(cfg, SCFG)
        assert model.count_params() < full
        assert model.count_params() == dense_params(4, 4, drop=(drop,))
        mask, enh = model.forward(Tensor(mag))
        assert np.all(np.isfinite(enh.data))
    # dropping everything leaves norms + fuse + adjusts only
    bare = DenseTsNet(ModelConfig(drop=("lke", "ca", "lsg")), SCFG)
    assert bare.count_params() == dense_params(4, 4, drop=("lke", "ca", "lsg"))
    bare.forward(Tensor(mag))


def test_drop_set_is_normalized_and_checked():
    assert ModelConfig(drop=("LKE", "ca", "lke")).drop == ("ca", "lke")
    with pytest.raises(ConfigError):
        ModelConfig(drop=("nothere",))


def test_classic_baseline_golden_and_ratio():
    classic = ClassicTsNet(ModelConfig(variant="classic_ts"), SCFG)
    assert classic.count_params() == 10828
    dense = DenseTsNet(ModelConfig(), SCFG)
    ratio = classic.count_params() / dense.count_params()
    assert 0.7 <= ratio <= 1.3


def test_classic_forward():
    rng = np.random.default_rng(8)
    model = ClassicTsNet(ModelConfig(variant="classic_ts"), SCFG)
    mag = np.abs(rng.standard_normal((1, 6, F_BINS)))
    mask, enh = model.forward(Tensor(mag))
    assert mask.shape == (1, 6, F_BINS)
    assert np.all(mask.data > 0) and np.all(mask.data < 2.0)
    assert np.allclose(enh.data, mask.data * mag)


def test_build_model_dispatch():
    assert isinstance(build_model(ModelConfig(), SCFG), DenseTsNet)
    assert isinstance(build_model(ModelConfig(variant="classic_ts"), SCFG), ClassicTsNet)
    with pytest.raises(ConfigError):
        DenseTsNet(ModelConfig(variant="classic_ts"), SCFG)
    with pytest.raises(ConfigError):
        ClassicTsNet(ModelConfig(), SCFG)


def test_seed_controls_initialization():
    a = DenseTsNet(ModelConfig(), SCFG, seed=0)
    b = DenseTsNet(ModelConfig(), SCFG, seed=0)
    c = DenseTsNet(ModelConfig(), SCFG, seed=1)
    for name, t in a.store.items():
        assert np.array_equal(t.data, b.store[name].data)
    assert any(not np.array_equal(t.data, c.store[name].data)
               for name, t in a.store.items())


def test_input_contracts():
    model = DenseTsNet(ModelConfig(), SCFG)
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((5, F_BINS))))
    with pytest.raises(DataError):
        model.forward(Tensor(np.full((1, 5, F_BINS), -1.0)))


def test_config_validation():
    for bad in (dict(dense_channel=0), dict(depth=0), dict(lke_kernel=4),
                dict(lsg_kernel=-1), dict(mask_beta=0.0), dict(variant="nope"),
                dict(classic_channel=0)):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)


def test_compression_affects_features_not_target():
    # with an exponent the mask changes, but enhanced stays mask * raw input
    rng = np.random.default_rng(9)
    mag = np.abs(rng.standard_normal((1, 6, F_BINS))) + 0.1
    plain = DenseTsNet(ModelConfig(), SCFG, seed=3)
    pressed = DenseTsNet(ModelConfig(), StftConfig(compression=0.5), seed=3)
    m1, e1 = plain.forward(Tensor(mag))
    m2, e2 = pressed.forward(Tensor(mag))
    assert not np.allclose(m1.data, m2.data)
    assert np.allclose(e2.data, m2.data * mag)


@pytest.mark.parametrize("cfg, stft_cfg", [
    (ModelConfig(), SCFG),
    (ModelConfig(variant="classic_ts"), SCFG),
    (ModelConfig(drop=("ca",)), StftConfig(compression=0.5)),
], ids=["dense_ts", "classic_ts", "drop_ca_compressed"])
def test_float32_forward_records_only_float32_nodes(cfg, stft_cfg, monkeypatch):
    """After ``store.astype(np.float32)`` every node of a no_grad forward is
    float32: one silent upcast would give the inference saving back.  The
    spy must see every gaze view's ``fuse`` weight go in, so it watched the
    whole trunk; it counts no nodes, which a fusion would change."""
    import densetsnet.dsp as dsp

    model = build_model(cfg, stft_cfg, seed=2)
    model.store.astype(np.float32)
    assert model.store.dtype == np.float32
    assert all(t.dtype == np.float32 for t in model.store.tensors())
    dtypes, inputs = [], set()
    for mod in (ad, dsp):
        def spy(data, parents, backward_fn, _make=mod._make):
            dtypes.append(data.dtype)
            inputs.update(id(t) for t in parents)
            return _make(data, parents, backward_fn)
        monkeypatch.setattr(mod, "_make", spy)
    mag = np.abs(np.random.default_rng(3).standard_normal((1, 9, F_BINS))) + 0.1
    with ad.no_grad():
        mask, enhanced = model.forward(Tensor(mag.astype(np.float32)))
    assert mask.dtype == enhanced.dtype == np.float32
    fuse = [model.store[n] for n in model.store.names() if n.endswith("/fuse/w")]
    assert len(fuse) == 8  # four two-stage blocks of two views each
    assert all(id(w) in inputs for w in fuse)
    assert set(dtypes) == {np.dtype(np.float32)}


@pytest.mark.parametrize("variant", ["dense_ts", "classic_ts"])
def test_training_graph_closures_keep_no_tensor(variant):
    """Over a whole training loss, with dsp's synthesis and analysis in the
    graph, every closure binds arrays and no Tensor, so the tape keeps no
    result alive that no backward reads."""
    from densetsnet.dsp import consistency_project, stft
    from densetsnet.losses import mag_mse

    model = build_model(ModelConfig(variant=variant), SCFG, seed=2)
    spec = stft(Tensor(np.random.default_rng(5).standard_normal((1, 4000)) * 0.1), SCFG)
    _, enh = model.forward(spec.mag)
    loss = mag_mse(spec.mag, consistency_project(enh, spec.phase, SCFG, 4000))
    assert loss.requires_grad
    assert closure_tensors(loss) == []


def _closure_arrays(fn, depth=0):
    """Arrays a backward closure keeps, also through the functions and
    tuples it closes over."""
    found = []
    for cell in fn.__closure__ or ():
        items = [cell.cell_contents]
        while items:
            v = items.pop()
            if isinstance(v, np.ndarray):
                found.append(v)
            elif isinstance(v, (tuple, list)):
                items.extend(v)
            elif callable(v) and getattr(v, "__closure__", None) and depth < 3:
                found.extend(_closure_arrays(v, depth + 1))
    return found


@pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(lke_kernel=7, lsg_kernel=9)],
                         ids=["fft_lke", "fft_lsg"])
def test_gaze_view_records_hold_four_maps(cfg):
    """The records of one gaze view keep four (N, L, C) maps: the normalized
    inputs ``xhat`` of the block's norm and of the large-kernel branch's,
    the branch's output g, which the spatial view and the fused tail both
    read, and the spatial view's sigmoid.  Neither depthwise conv keeps its
    input, its output or a spectrum, on either of conv1d's routes."""
    rng = np.random.default_rng(6)
    p = build_mvgb(ParamStore(rng=rng), "view", 4, cfg)
    x = Tensor(rng.standard_normal((3, 40, 4)), requires_grad=True)
    out = mvgb_forward(x, p)
    maps, stack, seen = {}, [out._node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        for a in _closure_arrays(node._backward):
            while a.base is not None:  # one entry per buffer, not per view
                a = a.base
            if a.nbytes >= x.data.nbytes:  # a complex spectrum counts too
                maps[id(a)] = a.nbytes
        stack.extend(node._parents)
    assert sorted(maps.values()) == [x.data.nbytes] * 4
