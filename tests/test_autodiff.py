"""Autodiff engine: forward values against brute-force oracles, gradients
against finite differences, and graph-mechanics invariants."""

import numpy as np
import pytest

import densetsnet.autodiff as ad
from densetsnet.autodiff import Tensor, backward, grad_check, tensor
from densetsnet.errors import GraphError, NumericalError, ShapeError

from helpers import (closure_tensors, conv1d_depthwise_grads_ref, conv1d_ref, conv2d_grads_ref,
                     conv2d_ref, instance_norm_grads_ref)

N_SEEDS = 100


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_elementwise_forward_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(N_SEEDS):
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        assert np.allclose(ad.add(Tensor(a), Tensor(b)).data, a + b)
        assert np.allclose(ad.sub(Tensor(a), Tensor(b)).data, a - b)
        assert np.allclose(ad.mul(Tensor(a), Tensor(b)).data, a * b)
        assert np.allclose(ad.square(Tensor(a)).data, a ** 2)
        assert np.allclose(ad.scale(Tensor(a), 2.5).data, 2.5 * a)


def test_sigmoid_forward():
    x = np.linspace(-20, 20, 401)
    got = ad.sigmoid(Tensor(x)).data
    want = 1.0 / (1.0 + np.exp(-x))
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.all(got > 0) and np.all(got < 1)


def test_hardswish_forward():
    x = np.linspace(-6, 6, 1001)
    got = ad.hardswish(Tensor(x)).data
    want = x * np.clip(x + 3, 0, 6) / 6
    assert np.max(np.abs(got - want)) < 1e-12
    # saturation tails are exact
    assert ad.hardswish(Tensor(np.array([-5.0]))).data[0] == 0.0
    assert ad.hardswish(Tensor(np.array([7.0]))).data[0] == 7.0


def test_simple_gate_halves_channels():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 7, 6))
    out = ad.simple_gate(Tensor(x)).data
    assert out.shape == (2, 7, 3)
    assert np.allclose(out, x[..., :3] * x[..., 3:])
    with pytest.raises(ShapeError):
        ad.simple_gate(Tensor(rng.standard_normal((2, 7, 5))))


def test_learnable_sigmoid_range_and_formula():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 9, 4)) * 3
    alpha = Tensor(rng.uniform(0.5, 2.0, 4))
    out = ad.learnable_sigmoid(Tensor(x), alpha, beta=2.0).data
    want = 2.0 / (1.0 + np.exp(-(x * alpha.data)))
    assert np.max(np.abs(out - want)) < 1e-12
    assert np.all(out > 0) and np.all(out < 2.0)


def test_complex_magnitude_matches_hypot():
    rng = np.random.default_rng(3)
    re = rng.standard_normal((4, 6))
    im = rng.standard_normal((4, 6))
    assert np.allclose(ad.complex_magnitude(Tensor(re), Tensor(im)).data,
                       np.hypot(re, im))


def test_shape_ops_round_trip():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4))
    assert np.array_equal(ad.reshape(Tensor(x), (6, 4)).data, x.reshape(6, 4))
    assert np.array_equal(ad.transpose(Tensor(x), (2, 0, 1)).data, x.transpose(2, 0, 1))
    parts = ad.split_last(Tensor(x), (1, 3))
    assert np.array_equal(np.concatenate([p.data for p in parts], axis=-1), x)
    assert np.array_equal(ad.concat_last([Tensor(x), Tensor(x)]).data,
                          np.concatenate([x, x], axis=-1))
    assert np.array_equal(ad.slice_last(Tensor(x), 1, 3).data, x[..., 1:3])


def test_reductions():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4, 5))
    assert np.allclose(ad.mean(Tensor(x), axis=1).data, x.mean(axis=1))
    assert np.allclose(ad.mean(Tensor(x), axis=2, keepdims=True).data,
                       x.mean(axis=2, keepdims=True))
    assert abs(ad.mean_all(Tensor(x)).item() - x.mean()) < 1e-14
    assert abs(ad.sum_all(Tensor(x)).item() - x.sum()) < 1e-12


def test_tensor_factory_rejects_non_finite():
    with pytest.raises(NumericalError):
        tensor([1.0, np.nan])
    with pytest.raises(NumericalError):
        tensor([np.inf])


# ---------------------------------------------------------------------------
# convolutions against the nested-loop oracle
# ---------------------------------------------------------------------------

def test_conv1d_matches_loop_oracle():
    rng = np.random.default_rng(10)
    cases = [
        # (cin, cout, groups, k, dilation, length)
        (3, 5, 1, 3, 1, 11),
        (4, 4, 4, 3, 1, 9),      # depthwise, small kernel
        (4, 4, 4, 31, 1, 40),    # depthwise, fft path
        (4, 4, 4, 3, 2, 12),     # depthwise dilated
        (6, 4, 2, 3, 1, 10),     # grouped
        (2, 7, 1, 1, 1, 8),      # pointwise
        (3, 2, 1, 4, 1, 9),      # even kernel
        (3, 3, 3, 9, 1, 5),      # fft path, kernel longer than signal
    ]
    for cin, cout, groups, k, dilation, length in cases:
        for _ in range(5):
            x = rng.standard_normal((2, length, cin))
            w = rng.standard_normal((k, cin // groups, cout))
            b = rng.standard_normal(cout)
            got = ad.conv1d(Tensor(x), Tensor(w), Tensor(b),
                            groups=groups, dilation=dilation).data
            want = conv1d_ref(x, w, b, groups=groups, dilation=dilation)
            assert np.max(np.abs(got - want)) < 1e-10, (cin, cout, groups, k, dilation)


def test_conv1d_fft_and_tap_paths_agree():
    # the fft fast path must be numerically interchangeable with the taps
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = int(rng.integers(1, 6))
        length = int(rng.integers(2, 90))
        k = int(rng.choice([9, 15, 31]))
        x = rng.standard_normal((2, length, c))
        w = rng.standard_normal((k, c))
        b = rng.standard_normal(c)
        fast, fast_bwd = ad._fft_taps(x, w, b, True)
        slow, slow_bwd = ad._depthwise_taps(x, w, b, (1,), True)
        assert np.max(np.abs(fast - slow)) < 1e-10
        g = rng.standard_normal(fast.shape)
        for got, want in zip(fast_bwd(g), slow_bwd(g)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-10


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(12)
    cases = [
        ((1, 1), (1, 1)),
        ((2, 2), (1, 1)),   # discriminator stages
        ((1, 1), (4, 1)),   # dilated dense block
        ((2, 2), (2, 1)),
    ]
    for stride, dilation in cases:
        for _ in range(4):
            x = rng.standard_normal((2, 7, 6, 3))
            w = rng.standard_normal((3, 3, 3, 4))
            b = rng.standard_normal(4)
            got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b),
                            stride=stride, dilation=dilation).data
            want = conv2d_ref(x, w, b, stride=stride, dilation=dilation)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-10, (stride, dilation)


def test_conv2d_pointwise_is_channel_matmul():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 5, 4, 3))
    w = rng.standard_normal((3, 6))
    b = rng.standard_normal(6)
    got = ad.conv2d_pointwise(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.allclose(got, x @ w + b)


def test_conv2d_depthwise_matches_dense_equivalent():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 6, 5, 3))
    w = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal(3)
    got = ad.conv2d_depthwise(Tensor(x), Tensor(w), Tensor(b)).data
    wd = np.zeros((3, 3, 3, 3))
    for c in range(3):
        wd[:, :, c, c] = w[:, :, c]
    want = conv2d_ref(x, wd, b)
    assert np.max(np.abs(got - want)) < 1e-10


def test_instance_norm_statistics():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 50, 4)) * 5 + 2
    out = ad.instance_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-12
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-4  # eps shrinks it slightly
    with pytest.raises(ShapeError):
        ad.instance_norm(Tensor(np.zeros((1, 1, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_finite_difference_harness_itself():
    # hand-rolled fd on a known-gradient function validates grad_check
    x = Tensor(np.array([0.7, -1.2, 2.0]), requires_grad=True)

    def f():
        return ad.sum_all(ad.square(x))

    assert grad_check(f, [x]) < 1e-8
    backward(f())
    # d/dx sum(x^2) = 2x exactly (accumulated twice: grad_check + this call)
    x.zero_grad()
    backward(f())
    assert np.allclose(x.grad, 2 * x.data)


def test_grad_elementwise_ops():
    rng = np.random.default_rng(20)
    for _ in range(20):
        a = leaf(rng, 3, 4)
        b = leaf(rng, 3, 4)
        assert grad_check(lambda: ad.mean_all(ad.mul(ad.add(a, b), ad.sub(a, b))), [a, b]) < 1e-6
        x = leaf(rng, 2, 5)
        assert grad_check(lambda: ad.mean_all(ad.sigmoid(x)), [x]) < 1e-6
        assert grad_check(lambda: ad.mean_all(ad.square(x)), [x]) < 1e-6


def test_grad_hardswish_off_kinks():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = rng.uniform(-6, 6, (2, 7))
        d[np.abs(np.abs(d) - 3) < 0.05] = 0.0  # fd is wrong exactly at the kinks
        x = Tensor(d, requires_grad=True)
        assert grad_check(lambda: ad.mean_all(ad.hardswish(x)), [x]) < 1e-6


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_hardswish_grad_is_the_piecewise_slope_bit_for_bit(dtype):
    rng = np.random.default_rng(22)
    d = np.concatenate([rng.uniform(-5, 5, 200), [-3.0, 3.0, 0.0]]).astype(dtype)
    g = rng.standard_normal(d.shape).astype(dtype)
    x = Tensor(d, requires_grad=True)
    out = ad.hardswish(x)
    backward(ad.sum_all(ad.mul(out, Tensor(g))))
    slope = np.where(d <= -3.0, 0.0, np.where(d >= 3.0, 1.0, (2.0 * d + 3.0) / 6.0))
    np.testing.assert_array_equal(x.grad, g * slope.astype(dtype))
    assert x.grad.dtype == dtype


def test_grad_broadcast_ops():
    rng = np.random.default_rng(22)
    x = leaf(rng, 2, 5, 3)
    bias = leaf(rng, 3)
    alpha = leaf(rng, 3)
    assert grad_check(lambda: ad.mean_all(ad.add(x, bias)), [x, bias]) < 1e-6
    assert grad_check(lambda: ad.mean_all(ad.channel_scale(x, alpha)), [x, alpha]) < 1e-6
    assert grad_check(lambda: ad.mean_all(ad.learnable_sigmoid(x, alpha, 2.0)), [x, alpha]) < 1e-6


def test_grad_gate_and_magnitude():
    rng = np.random.default_rng(23)
    x = leaf(rng, 2, 5, 6)
    assert grad_check(lambda: ad.mean_all(ad.simple_gate(x)), [x]) < 1e-6
    re = leaf(rng, 3, 4)
    im = leaf(rng, 3, 4)
    re.data += np.sign(re.data)  # keep |z| away from the origin kink
    assert grad_check(lambda: ad.mean_all(ad.complex_magnitude(re, im)), [re, im]) < 1e-6


def test_grad_shape_and_reduction_ops():
    rng = np.random.default_rng(24)
    x = leaf(rng, 2, 3, 4)
    assert grad_check(lambda: ad.mean_all(ad.square(ad.reshape(x, (6, 4)))), [x]) < 1e-6
    assert grad_check(lambda: ad.mean_all(ad.square(ad.transpose(x, (1, 0, 2)))), [x]) < 1e-6
    assert grad_check(lambda: ad.mean_all(ad.square(ad.concat_last([x, x]))), [x]) < 1e-6
    assert grad_check(lambda: ad.mean_all(ad.square(ad.slice_last(x, 1, 3))), [x]) < 1e-6
    assert grad_check(lambda: ad.mean_all(ad.square(ad.mean(x, axis=1))), [x]) < 1e-6

    def split_use():
        p0, p1 = ad.split_last(x, (1, 3))
        return ad.add(ad.mean_all(ad.square(p0)), ad.mean_all(p1))

    assert grad_check(split_use, [x]) < 1e-6


def test_grad_conv1d_all_paths():
    rng = np.random.default_rng(25)
    for cin, cout, groups, k, dilation, length in [
        (3, 4, 1, 3, 1, 7),
        (3, 3, 3, 3, 1, 7),
        (2, 2, 2, 9, 1, 12),   # fft path
        (4, 2, 2, 3, 2, 8),
        (2, 5, 1, 1, 1, 6),
    ]:
        x = leaf(rng, 2, length, cin)
        w = leaf(rng, k, cin // groups, cout)
        b = leaf(rng, cout)
        err = grad_check(lambda: ad.mean_all(ad.square(
            ad.conv1d(x, w, b, groups=groups, dilation=dilation))), [x, w, b])
        assert err < 1e-6, (cin, cout, groups, k, dilation)


def test_grad_conv2d_variants():
    rng = np.random.default_rng(26)
    x = leaf(rng, 1, 5, 4, 2)
    w = leaf(rng, 3, 3, 2, 3)
    b = leaf(rng, 3)
    assert grad_check(lambda: ad.mean_all(ad.square(
        ad.conv2d(x, w, b, stride=(2, 2)))), [x, w, b]) < 1e-6
    assert grad_check(lambda: ad.mean_all(ad.square(
        ad.conv2d(x, w, b, dilation=(2, 1)))), [x, w, b]) < 1e-6
    wp = leaf(rng, 2, 4)
    bp = leaf(rng, 4)
    assert grad_check(lambda: ad.mean_all(ad.square(
        ad.conv2d_pointwise(x, wp, bp))), [x, wp, bp]) < 1e-6
    wd = leaf(rng, 3, 3, 2)
    bd = leaf(rng, 2)
    assert grad_check(lambda: ad.mean_all(ad.square(
        ad.conv2d_depthwise(x, wd, bd))), [x, wd, bd]) < 1e-6


def test_grad_instance_norm():
    rng = np.random.default_rng(27)
    x = leaf(rng, 2, 9, 3)
    g = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    b = leaf(rng, 3)
    assert grad_check(lambda: ad.mean_all(ad.square(ad.instance_norm(x, g, b))), [x, g, b]) < 1e-6


# ---------------------------------------------------------------------------
# memory-lean closures against what they replace, bit for bit
# ---------------------------------------------------------------------------

def _grads_for(cotangent, out, leaves):
    """Backward of sum(out * cotangent), so ``out`` receives exactly ``cotangent``."""
    backward(ad.sum_all(ad.mul_const(out, cotangent)))
    return [t.grad for t in leaves]


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_learnable_sigmoid_is_the_composed_ops_bit_for_bit(beta):
    rng = np.random.default_rng(29)
    x0, a0 = rng.standard_normal((2, 9, 4)) * 3, rng.uniform(0.5, 2.0, 4)
    r = rng.standard_normal((2, 9, 4))
    results = []
    for op in (ad.learnable_sigmoid,
               lambda x, a, beta: ad.scale(ad.sigmoid(ad.channel_scale(x, a)), beta)):
        x, a = Tensor(x0.copy(), requires_grad=True), Tensor(a0.copy(), requires_grad=True)
        out = op(x, a, beta=beta)
        results.append([out.data] + _grads_for(r, out, (x, a)))
    for fused, composed in zip(*results):
        np.testing.assert_array_equal(fused, composed)


# fused op -> (composed ops it stands for, operand shapes)
_FUSED = {
    "norm_pointwise_gate": (
        lambda x, g, b, w, c: ad.simple_gate(ad.conv1d(ad.instance_norm(x, g, b), w, c)),
        ((2, 9, 3), (3,), (3,), (1, 3, 4), (4,))),
    "norm_hardswish": (
        lambda x, g, b: ad.hardswish(ad.instance_norm(x, g, b)),
        ((2, 9, 3), (3,), (3,))),
    "gated_product": (
        lambda x, ch, sp: ad.mul(ad.mul(x, ch), sp),
        ((2, 9, 3), (2, 1, 3), (2, 9, 3))),
}


def _fused_operands(name, dtype):
    # scaled so the norm's outputs cross hardswish's kinks at +-3
    rng = np.random.default_rng(32)
    return [(3.0 * rng.standard_normal(s)).astype(dtype) for s in _FUSED[name][1]]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_op_is_the_composed_ops_bit_for_bit(name, dtype):
    """Value and every grad, also in float32, where a changed rounding
    would show first."""
    arrays = _fused_operands(name, dtype)
    results = []
    for op in (getattr(ad, name), _FUSED[name][0]):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*leaves)
        r = np.random.default_rng(33).standard_normal(out.shape).astype(dtype)
        results.append([out.data] + _grads_for(r, out, leaves))
    for fused, composed in zip(*results):
        assert fused.dtype == composed.dtype == dtype
        assert np.array_equal(fused, composed)


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_op_under_no_grad_gives_the_recorded_value(name):
    arrays = _fused_operands(name, np.float64)
    recorded = getattr(ad, name)(*(Tensor(a, requires_grad=True) for a in arrays))
    with ad.no_grad():
        bare = getattr(ad, name)(*(Tensor(a, requires_grad=True) for a in arrays))
    assert bare._backward is None
    assert np.array_equal(bare.data, recorded.data)


@pytest.mark.parametrize("taped", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)])
def test_gated_product_grads_only_its_taped_operands(taped):
    arrays = _fused_operands("gated_product", np.float64)
    results = []
    for op in (ad.gated_product, _FUSED["gated_product"][0]):
        ops = [Tensor(a.copy(), requires_grad=bool(t)) for a, t in zip(arrays, taped)]
        out = op(*ops)
        _grads_for(np.ones(out.shape), out, ops)
        results.append([t.grad for t in ops])
    for fused, composed, t in zip(*results, taped):
        assert (fused is None) == (composed is None) == (not t)
        assert fused is None or np.array_equal(fused, composed)


def test_norm_pointwise_gate_rejects_bad_weights():
    rng = np.random.default_rng(34)
    x, g, b = leaf(rng, 2, 5, 3), leaf(rng, 3), leaf(rng, 3)
    with pytest.raises(ShapeError, match="even"):
        ad.norm_pointwise_gate(x, g, b, leaf(rng, 1, 3, 5), leaf(rng, 5))
    with pytest.raises(ShapeError, match="weight"):
        ad.norm_pointwise_gate(x, g, b, leaf(rng, 3, 3, 4), leaf(rng, 4))
    with pytest.raises(ShapeError, match="bias"):
        ad.norm_pointwise_gate(x, g, b, leaf(rng, 1, 3, 4), leaf(rng, 2))


def test_instance_norm_grads_match_kept_state_oracle():
    rng = np.random.default_rng(30)
    for shape in ((2, 9, 3), (1, 16, 5)):
        x, gamma, beta = leaf(rng, *shape), leaf(rng, shape[-1]), leaf(rng, shape[-1])
        r = rng.standard_normal(shape)
        out = ad.instance_norm(x, gamma, beta)
        got = [out.data] + _grads_for(r, out, (x, gamma, beta))
        want = instance_norm_grads_ref(x.data, gamma.data, beta.data, r)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_conv1d_depthwise_taps_grads_match_kept_state_oracle():
    rng = np.random.default_rng(31)
    for dilation in (1, 2):
        x, w, b = leaf(rng, 2, 11, 4), leaf(rng, 3, 1, 4), leaf(rng, 4)
        r = rng.standard_normal((2, 11, 4))
        out = ad.conv1d(x, w, b, groups=4, dilation=dilation)
        got = [out.data] + _grads_for(r, out, (x, w, b))
        want = conv1d_depthwise_grads_ref(x.data, w.data, b.data, r, dilation)
        for g, ref in zip(got, want):
            np.testing.assert_array_equal(g, ref)


# case -> (x shape, w shape, keyword arguments); the part before "/" names the conv
_CONV_GRAD_CASES = {
    "conv1d/grouped_dilated": ((2, 9, 6), (3, 3, 4), dict(groups=2, dilation=2)),
    "conv1d/even_kernel": ((2, 9, 3), (4, 3, 2), {}),
    "conv1d/pointwise": ((2, 7, 3), (1, 3, 5), {}),
    "conv1d/depthwise_taps": ((2, 11, 4), (3, 1, 4), dict(groups=4, dilation=2)),
    "conv1d/depthwise_fft": ((2, 12, 3), (9, 1, 3), dict(groups=3)),
    "conv2d/stride2": ((2, 7, 6, 3), (3, 3, 3, 4), dict(stride=(2, 2))),
    "conv2d/dilation21": ((2, 7, 6, 3), (3, 3, 3, 4), dict(dilation=(2, 1))),
    "conv2d_pointwise": ((2, 5, 4, 3), (3, 6), {}),
    "conv2d_depthwise": ((2, 6, 5, 3), (3, 3, 3), {}),
}


@pytest.mark.parametrize("name", sorted(_CONV_GRAD_CASES))
def test_conv_grads_match_nested_loop_oracle(name):
    """Every public conv's (gx, gw, gb) against the nested-loop reference in
    float64, so the backward passes are checked tighter than by finite
    differences."""
    xs, ws, kw = _CONV_GRAD_CASES[name]
    rng = np.random.default_rng(32)
    x, w, b = leaf(rng, *xs), leaf(rng, *ws), leaf(rng, ws[-1])
    op = name.split("/")[0]
    out = getattr(ad, op)(x, w, b, **kw)
    r = rng.standard_normal(out.shape)
    got = _grads_for(r, out, (x, w, b))
    if op == "conv1d":  # a 1-D conv is a 2-D conv over (L, 1)
        gx, gw, gb = conv2d_grads_ref(x.data[:, :, None], w.data[:, None], r[:, :, None],
                                      dilation=(kw.get("dilation", 1), 1),
                                      groups=kw.get("groups", 1))
        want = gx[:, :, 0], gw[:, 0], gb
    elif op == "conv2d_pointwise":
        gx, gw, gb = conv2d_grads_ref(x.data, w.data[None, None], r)
        want = gx, gw[0, 0], gb
    elif op == "conv2d_depthwise":
        gx, gw, gb = conv2d_grads_ref(x.data, w.data[:, :, None], r, groups=xs[-1])
        want = gx, gw[:, :, 0], gb
    else:
        want = conv2d_grads_ref(x.data, w.data, r, **kw)
    for part, g, ref in zip("xwb", got, want):
        assert g.shape == ref.shape, part
        assert np.max(np.abs(g - ref)) < 1e-10, part


def test_grad_property_sweep_random_composites():
    # many seeds, small random graphs mixing the op set
    rng = np.random.default_rng(28)
    for seed in range(N_SEEDS):
        r = np.random.default_rng(seed)
        x = Tensor(r.standard_normal((2, 6, 4)), requires_grad=True)
        a = Tensor(r.uniform(0.5, 1.5, 4), requires_grad=True)

        def f():
            h = ad.channel_scale(x, a)
            h = ad.sigmoid(h)
            h = ad.mul(h, x)
            return ad.mean_all(ad.square(h))

        assert grad_check(f, [x, a], step=1e-5) < 1e-5, seed
    del rng


# ---------------------------------------------------------------------------
# graph mechanics
# ---------------------------------------------------------------------------

def test_repeated_backward_accumulates_additively():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = ad.sum_all(ad.square(x))
    backward(loss)
    first = x.grad.copy()
    loss2 = ad.sum_all(ad.square(x))
    backward(loss2)
    assert np.allclose(x.grad, 2 * first)
    x.zero_grad()
    assert x.grad is None


def test_backward_twice_on_one_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ad.square(x)
    loss = ad.sum_all(y)
    backward(loss)
    first = x.grad.copy()
    with pytest.raises(GraphError):
        backward(loss)
    # a new graph built on a consumed node is refused before any grad moves
    with pytest.raises(GraphError):
        backward(ad.sum_all(ad.mul(y, x)))
    np.testing.assert_array_equal(x.grad, first)


def test_backward_sets_grad_on_leaves_only():
    rng = np.random.default_rng(4)
    x, w, b = leaf(rng, 2, 5, 3), leaf(rng, 1, 3, 3), leaf(rng, 3)
    h = ad.conv1d(x, w, b)
    y = ad.hardswish(h)
    loss = ad.mean_all(ad.square(y))
    backward(loss)
    for t in (h, y, loss):
        assert t.grad is None
    for t in (x, w, b):
        assert t.grad is not None and t.grad.shape == t.shape


def test_diamond_graph_sums_both_paths():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.square(x)            # x^2
    z = ad.add(y, y)            # 2 x^2 -> dz/dx = 4x
    backward(ad.sum_all(z))
    assert np.allclose(x.grad, 4 * x.data)


def test_shared_operand_in_one_op():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    backward(ad.sum_all(ad.mul(x, x)))  # both parents are the same tensor
    assert np.allclose(x.grad, 2 * x.data)


def test_detach_blocks_gradient():
    x = Tensor(np.array([1.5]), requires_grad=True)
    y = ad.square(x)
    z = ad.mul(y.detach(), x)
    backward(ad.sum_all(z))
    assert np.allclose(x.grad, y.data)  # only the direct factor contributes


def test_graph_pruning_skips_constant_subtrees():
    a = Tensor(np.ones(3))  # no grad required
    b = ad.square(a)
    assert b._parents == () and b._backward is None
    c = Tensor(np.ones(3), requires_grad=True)
    d = ad.add(b, c)
    assert d.requires_grad and len(d._parents) == 2


def test_backward_leaves_unrelated_grads_untouched():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([1.0]), requires_grad=True)
    backward(ad.sum_all(ad.square(x)))
    assert y.grad is None


def test_backward_rejects_loss_off_the_tape():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = ad.sum_all(ad.square(x.detach()))
    with pytest.raises(GraphError):
        backward(loss)
    assert x.grad is None


def test_no_grad_records_no_tape():
    rng = np.random.default_rng(0)
    x, w, b = leaf(rng, 2, 5, 3), leaf(rng, 1, 3, 3), leaf(rng, 3)
    taped = ad.mul(ad.conv1d(x, w, b), x)
    with ad.no_grad():
        y = ad.mul(ad.conv1d(x, w, b), x)
        z = ad.sum_all(y)
    for t in (y, z):
        assert t._parents == () and t._backward is None and not t.requires_grad
    np.testing.assert_array_equal(y.data, taped.data)
    with pytest.raises(GraphError):
        backward(z)


def test_no_grad_nests_and_restores_recording():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert ad.square(x)._backward is None
        assert ad.square(x)._backward is None  # still inside the outer block
    after = ad.square(x)
    assert after.requires_grad and after._parents == (x,)
    backward(ad.sum_all(after))
    np.testing.assert_array_equal(x.grad, 2 * x.data)


def test_no_grad_restores_recording_after_exception():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("outer")
    assert ad.square(x).requires_grad
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                raise RuntimeError("inner")
    assert ad.square(x).requires_grad


def test_result_no_closure_reads_is_freed_when_dropped():
    """The tape holds what closures read, not every result: ``add`` reads
    only shapes, so once the caller drops the conv output its array is gone,
    while the record stays for backward."""
    import weakref
    rng = np.random.default_rng(40)
    arrays = rng.standard_normal((2, 5, 3)), rng.standard_normal((1, 3, 3)), rng.standard_normal(3)
    grads = []
    for drop in (False, True):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        y = ad.conv1d(x, w, b)
        z = ad.add(x, y)
        alive = weakref.ref(y.data)
        if drop:
            del y
            assert alive() is None
            assert z._parents[1].data.size == 0
        backward(ad.sum_all(ad.square(z)))
        grads.append([t.grad for t in (x, w, b)])
    for kept, dropped in zip(*grads):
        np.testing.assert_array_equal(kept, dropped)


def test_parent_links_expose_data_backward_and_parents():
    """What a graph walker reads: an op result's ``_backward`` can be read
    and replaced, and ``backward`` calls the replacement; every item reached
    through ``_parents`` has ``data``, ``_backward`` and ``_parents``, a
    leaf parent is the leaf itself, and a result the caller dropped reads
    as an empty array."""
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    c = Tensor(np.array([0.5, 0.5, 0.5]))
    h = ad.square(x)
    y = ad.sum_all(ad.scale(ad.mul(h, c), 3.0))
    inner, calls = y._backward, []

    def spy(g):
        calls.append(float(g))
        return inner(g)
    y._backward = spy
    assert y._backward is spy

    stack, seen = list(y._parents), []
    while stack:
        t = stack.pop()
        assert isinstance(t.data, np.ndarray)
        assert t._backward is None or callable(t._backward)
        assert isinstance(t._parents, tuple)
        seen.append(t)
        stack.extend(t._parents)
    assert any(t._parents == (x,) and np.array_equal(t.data, h.data) for t in seen)
    assert any(t is x for t in seen)
    assert any(t._backward is not None and t.data.size == 0 for t in seen)  # mul(h, c)

    backward(y)
    assert calls == [1.0]
    np.testing.assert_array_equal(x.grad, 3.0 * (2.0 * x.data * 0.5))


def test_grad_check_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        grad_check(lambda: ad.square(x), [x])


# ---------------------------------------------------------------------------
# float32 stays float32: values and grads keep the inputs' precision
# ---------------------------------------------------------------------------

# op name -> a function giving (output, leaves) from ``mk(*shape)``, which draws a
# leaf in the dtype under test; every public op of autodiff is listed, conv1d
# once per kernel path
_F32_CASES = {
    "add": lambda mk: (lambda a, b: (ad.add(a, b), (a, b)))(mk(2, 3, 4), mk(4)),
    "sub": lambda mk: (lambda a, b: (ad.sub(a, b), (a, b)))(mk(2, 3, 4), mk(2, 1, 4)),
    "mul": lambda mk: (lambda a, b: (ad.mul(a, b), (a, b)))(mk(2, 3, 4), mk(2, 1, 4)),
    "scale": lambda mk: (lambda a: (ad.scale(a, 2.5), (a,)))(mk(3, 4)),
    "mul_const": lambda mk: (lambda a: (ad.mul_const(a, np.linspace(0.5, 2.0, 4)), (a,)))(
        mk(3, 4)),
    "square": lambda mk: (lambda a: (ad.square(a), (a,)))(mk(3, 4)),
    "sigmoid": lambda mk: (lambda a: (ad.sigmoid(a), (a,)))(mk(3, 4)),
    "hardswish": lambda mk: (lambda a: (ad.hardswish(ad.scale(a, 4.0)), (a,)))(mk(3, 8)),
    "simple_gate": lambda mk: (lambda a: (ad.simple_gate(a), (a,)))(mk(2, 3, 4)),
    "learnable_sigmoid": lambda mk: (lambda a, al: (ad.learnable_sigmoid(a, al), (a, al)))(
        mk(2, 3, 4), mk(4)),
    "channel_scale": lambda mk: (lambda a, al: (ad.channel_scale(a, al), (a, al)))(
        mk(2, 3, 4), mk(4)),
    "reshape": lambda mk: (lambda a: (ad.reshape(a, (6, 4)), (a,)))(mk(2, 3, 4)),
    "transpose": lambda mk: (lambda a: (ad.transpose(a, (0, 2, 1)), (a,)))(mk(2, 3, 4)),
    "concat_last": lambda mk: (lambda a, b: (ad.concat_last([a, b]), (a, b)))(
        mk(2, 3, 4), mk(2, 3, 2)),
    "split_last": lambda mk: (lambda a: (ad.mul(*ad.split_last(a, (2, 2))), (a,)))(
        mk(2, 3, 4)),
    "slice_last": lambda mk: (lambda a: (ad.slice_last(a, 1, 3), (a,)))(mk(2, 3, 4)),
    "mean": lambda mk: (lambda a: (ad.mul(ad.mean(a, axis=1, keepdims=True),
                                         ad.reshape(ad.mean(a, axis=1), (2, 1, 4))), (a,)))(
        mk(2, 3, 4)),
    "mean_all": lambda mk: (lambda a: (ad.mean_all(a), (a,)))(mk(3, 4)),
    "sum_all": lambda mk: (lambda a: (ad.sum_all(a), (a,)))(mk(3, 4)),
    "complex_magnitude": lambda mk: (lambda a, b: (ad.complex_magnitude(a, b), (a, b)))(
        mk(3, 4), mk(3, 4)),
    "conv1d/pointwise": lambda mk: (lambda x, w, b: (ad.conv1d(x, w, b), (x, w, b)))(
        mk(2, 7, 3), mk(1, 3, 4), mk(4)),
    "conv1d/dense_taps": lambda mk: (lambda x, w, b: (ad.conv1d(x, w, b), (x, w, b)))(
        mk(2, 7, 3), mk(3, 3, 4), mk(4)),
    "conv1d/depthwise_taps": lambda mk: (lambda x, w, b: (
        ad.conv1d(x, w, b, groups=3, dilation=2), (x, w, b)))(
        mk(2, 7, 3), mk(3, 1, 3), mk(3)),
    "conv1d/depthwise_fft": lambda mk: (lambda x, w, b: (
        ad.conv1d(x, w, b, groups=3), (x, w, b)))(
        mk(2, 12, 3), mk(9, 1, 3), mk(3)),
    "conv1d/grouped": lambda mk: (lambda x, w, b: (
        ad.conv1d(x, w, b, groups=2, dilation=2), (x, w, b)))(
        mk(2, 8, 4), mk(3, 2, 2), mk(2)),
    "conv2d_pointwise": lambda mk: (lambda x, w, b: (ad.conv2d_pointwise(x, w, b), (x, w, b)))(
        mk(2, 3, 5, 3), mk(3, 4), mk(4)),
    "conv2d": lambda mk: (lambda x, w, b: (ad.conv2d(x, w, b, stride=(2, 2)), (x, w, b)))(
        mk(2, 5, 6, 3), mk(3, 3, 3, 4), mk(4)),
    "conv2d_depthwise": lambda mk: (lambda x, w, b: (ad.conv2d_depthwise(x, w, b), (x, w, b)))(
        mk(2, 5, 6, 3), mk(3, 3, 3), mk(3)),
    "instance_norm": lambda mk: (lambda x, g, b: (ad.instance_norm(x, g, b), (x, g, b)))(
        mk(2, 7, 3), mk(3), mk(3)),
    "norm_hardswish": lambda mk: (lambda x, g, b: (ad.norm_hardswish(x, g, b), (x, g, b)))(
        mk(2, 7, 3), mk(3), mk(3)),
    "norm_pointwise_gate": lambda mk: (lambda x, g, b, w, c: (
        ad.norm_pointwise_gate(x, g, b, w, c), (x, g, b, w, c)))(
        mk(2, 7, 3), mk(3), mk(3), mk(1, 3, 4), mk(4)),
    "gated_product": lambda mk: (lambda x, ch, sp: (ad.gated_product(x, ch, sp), (x, ch, sp)))(
        mk(2, 3, 4), mk(2, 1, 4), mk(2, 3, 4)),
}


def test_float32_cases_cover_every_public_op():
    not_ops = {"Tensor", "tensor", "backward", "grad_check", "no_grad"}
    assert {name.split("/")[0] for name in _F32_CASES} == set(ad.__all__) - not_ops


@pytest.mark.parametrize("name", sorted(_F32_CASES))
def test_float32_inputs_give_float32_values_and_grads(name):
    """A silent upcast to float64 would double the bytes every map moves.
    The float32 results also match the float64 ones to float32 rounding."""
    results = {}
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(31)

        def mk(*shape):
            return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        out, leaves = _F32_CASES[name](mk)
        assert out.dtype == dtype, out.dtype
        cotangent = Tensor(rng.standard_normal(out.shape).astype(dtype))
        backward(ad.sum_all(ad.mul(out, cotangent)))
        for i, t in enumerate(leaves):
            assert t.grad is not None and t.grad.dtype == dtype, (i, t.grad)
        results[dtype] = [out.data] + [t.grad for t in leaves]
    for got, want in zip(results[np.float32], results[np.float64]):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


# ---------------------------------------------------------------------------
# the tape holds arrays, not tensors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(_F32_CASES))
def test_no_closure_keeps_a_tensor(name):
    """Closures bind arrays, shapes and dtypes, so the tape never keeps a
    Tensor, and with it a result no backward reads, alive."""
    rng = np.random.default_rng(41)
    out, _ = _F32_CASES[name](lambda *shape: Tensor(rng.standard_normal(shape),
                                                    requires_grad=True))
    assert out._backward is not None
    assert closure_tensors(out) == []


@pytest.mark.parametrize("taped", [0, 1])
def test_mul_binds_only_what_the_taped_operands_grad_reads(taped):
    """With one operand off the tape, mul keeps only that constant: the taped
    operand's grad reads it, and no grad is built for the constant.  The
    model's last op, mul(mask, noisy_mag), then keeps no mask map."""
    rng = np.random.default_rng(43)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((2, 1, 4)))
    ops = (x, c) if taped == 0 else (c, x)
    out = ad.mul(*ops)
    cells = [cell.cell_contents for cell in out._backward.__closure__]
    assert not any(v is x.data for v in cells)
    assert any(v is c.data for v in cells)
    g = rng.standard_normal(out.shape)
    grads = out._backward(g)
    assert grads[1 - taped] is None
    assert np.array_equal(grads[taped], g * c.data)


_CONV_CASES = [name for name in sorted(_F32_CASES) if name.startswith("conv")]
_CONSTANT_OPERAND_CASES = [("add", 0), ("add", 1), ("sub", 0), ("sub", 1)] + [
    (name, 0) for name in _CONV_CASES]


@pytest.mark.parametrize("name,const", _CONSTANT_OPERAND_CASES)
def test_closure_builds_no_grad_for_a_constant_operand(name, const):
    """As in mul: an operand off the tape gets None from the closure, not a
    grad that backward drops (the model's first conv reads the constant
    noisy magnitude, the discriminator a detached estimate).  The grads of
    the taped operands are those of an all-taped call, bit for bit."""
    grads = {}
    for taped in (True, False):
        rng = np.random.default_rng(44)
        made = []

        def mk(*shape):
            made.append(Tensor(rng.standard_normal(shape),
                               requires_grad=taped or len(made) != const))
            return made[-1]
        out, _ = _F32_CASES[name](mk)
        grads[taped] = out._backward(np.random.default_rng(45).standard_normal(out.shape))
    assert grads[True][const] is not None and grads[False][const] is None
    for i, (got, want) in enumerate(zip(grads[False], grads[True])):
        if i != const:
            assert np.array_equal(got, want), i


@pytest.mark.parametrize("name", _CONV_CASES)
def test_conv_rejects_a_bias_that_does_not_match_cout(name):
    """Every conv, on every kernel, checks its bias against the weight's Cout
    axis: a (1,) bias would otherwise broadcast in the forward and come back
    with a (Cout,) grad."""
    rng = np.random.default_rng(46)
    made = []

    def mk(*shape):  # the cases make x, w, b in that order
        made.append(shape)
        return Tensor(rng.standard_normal((1,) if len(made) == 3 else shape),
                      requires_grad=True)
    with pytest.raises(ShapeError, match="bias has shape"):
        _F32_CASES[name](mk)
