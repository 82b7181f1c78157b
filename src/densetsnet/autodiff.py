"""Reverse-mode automatic differentiation over dense real tensors.

Define-by-run: each operation returns a new Tensor and, while recording,
gives it a graph record: the op's parents and a closure mapping the output
cotangent to parent cotangents.  The record is the tape.  It holds a leaf
parent as itself and an interior parent by that parent's record, never by
its Tensor, and it reaches its own result only through a weak reference.
So the tape holds exactly the arrays the closures capture: a result that no
closure downstream reads is freed as soon as the caller drops it.  Closures
bind the arrays, shapes and dtypes they read, never a Tensor, and recompute
cheap intermediates (a normalized input, a shifted slice) rather than hold
them for the life of the tape.

Five fused ops stand for compositions of the gaze block and match them
bit for bit, values and grads, with the same operations in the same order;
each keeps less on the tape, after Chen et al. 2016 ("Training Deep Nets
with Sublinear Memory Cost") and Rota Bulo et al. 2018 ("In-Place Activated
BatchNorm").  The compositions are written out with this module's ops in
``tests/helpers.py``, which also holds the test-side ops they need and the
library does not: ``simple_gate`` (the product of a map's two channel
halves), ``channel_scale`` and ``sum_all``.  Each backward recomputes only
the maps its grads read:

- ``norm_pointwise_gate`` is ``conv1d(simple_gate(conv1d(instance_norm(
  ...))))`` for a kernel-1 conv and then a depthwise one.  It keeps only
  the normalized input ``xhat`` (and the per-channel ``1/std``); backward
  recomputes the affine output, the 1x1 product, which the gate's grad
  reads, and the gate, which the depthwise weight grad reads (by FFT, its
  spectrum), but not the depthwise product, which no grad reads.
- ``norm_hardswish`` is ``hardswish(instance_norm(...))``.  It keeps only
  ``xhat``, as ``instance_norm`` itself does.
- ``norm_hardswish_pointwise`` is ``conv1d(norm_hardswish(...))`` for a
  kernel-1 conv.  It keeps only ``xhat``; backward recomputes the conv's
  input for the weight grad, but not the product.
- ``pointwise_learnable_sigmoid`` is ``learnable_sigmoid(conv1d(conv1d(
  ...)))`` for a depthwise conv and then a kernel-1 one.  It keeps its
  input and the sigmoid, which the model's tape holds anyway; backward
  recomputes the depthwise output, which the 1x1 weight grad reads, and
  the 1x1 product for the grad of ``alpha``.
- ``gated_pointwise(x, ch, sp, w, b)`` is ``conv1d(mul(mul(x, ch), sp),
  w, b)`` for a kernel-1 conv.  It keeps its operands, which the ops that
  made them hold already, and recomputes ``x * ch`` and the conv's input.

Every convolution runs on one of three kernels, which share one protocol:
each takes arrays, works out its own SAME padding, and returns an output
and its backward, which builds an input grad only for an input that takes
grad.  ``_dense_taps`` does one matmul per tap over a zero-padded copy of
the input, for the pointwise and dense ``conv1d``, ``conv2d_pointwise`` and
the strided or dilated ``conv2d``; ``_depthwise_taps`` adds shifted slices
of the unpadded input per channel along L, for a depthwise ``conv1d``
that the FFT does not take; and ``_fft_taps`` correlates by FFT along L,
for one of 9 or more taps over L >= 2, where measurement puts the FFT ahead
of the taps.  All three public convs record through one node,
``_conv_node``, which checks the bias against the weight's Cout axis.  The
fused ops run their 1x1 products on ``_dense_taps`` directly, and their
backwards on ``_pointwise_backward``, the backward of its one-tap path,
which starts from a given input and does not run the forward product
again.  Their depthwise convs go through ``_depthwise_1d``, the router of
the depthwise ``conv1d``, so both take the same kernel; a backward that
needs no depthwise output asks it for the backward alone.

``backward`` walks the records once in reverse topological order and
consumes them as it goes: each record drops its parents and its closure as
soon as the closure has run, so the tape is freed while the gradients flow
and a step never holds more than one tape.  Only leaves get a ``.grad``.  A
second ``backward`` over a consumed graph raises GraphError; a graph rebuilt
by a new forward pass accumulates into the leaves as usual.

Inside ``with no_grad():`` ops record nothing: each result is a bare leaf
with no parents and no closure, so an intermediate is freed as soon as its
last reader is done.  The arithmetic is the same, so values match a
recorded forward bit for bit.  The model's gaze blocks read this state:
without a tape they run each view over chunks of rows, which keeps
inference about three feature maps wide on a long clip.

Arrays are numpy ndarrays.  Training works in float64; inference may run
in float32.  Every op keeps the dtype of its inputs, values and grads alike,
so float32 parameters and a float32 input give a float32 forward, while one
float64 operand promotes the result to float64.  Broadcasting is
deliberately narrow: bias adds and per-channel/per-instance scale factors
only.
"""

from __future__ import annotations

import weakref
from functools import reduce
from operator import iadd

import numpy as np

from .errors import GraphError, ShapeError

__all__ = [
    "Tensor", "backward", "grad_check", "no_grad",
    "add", "sub", "mul", "mul_const", "square", "sigmoid",
    "hardswish", "learnable_sigmoid", "reshape", "transpose", "concat_last",
    "mean", "mean_all", "complex_magnitude",
    "conv1d", "conv2d_pointwise", "conv2d", "instance_norm",
    "norm_hardswish", "norm_pointwise_gate", "norm_hardswish_pointwise",
    "pointwise_learnable_sigmoid", "gated_pointwise",
]


class Tensor:
    """A dense real array plus an optional gradient slot and graph record.

    ``data`` is immutable by convention after creation; only ``grad`` mutates.
    Leaf tensors (no record) with ``requires_grad`` accumulate gradients
    additively across backward calls until ``zero_grad``.  Recorded
    (interior) tensors never get a ``.grad``, and ``backward`` consumes
    their graph record.  ``_parents`` and ``_backward`` read the record
    (``()`` and ``None`` on a leaf); assigning ``_backward`` replaces the
    closure that ``backward`` will call.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def detach(self):
        """Same data, cut loose from the graph; gradients stop here."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class no_grad:
    """Context in which ops record no tape (see the module docstring).

    Blocks nest; leaving one, also by an exception, restores the state it
    found on entry.
    """

    def __enter__(self):
        global _recording
        self._outer = _recording
        _recording = False

    def __exit__(self, *exc):
        global _recording
        _recording = self._outer


_recording = True  # False inside no_grad

_GONE = np.empty(0)


class _Record:
    """The graph entry of one op's result: parents, closure, and a weak
    reference to the result, so the tape never keeps the result alive.

    It answers ``data``, ``_parents`` and ``_backward`` as a Tensor does;
    ``data`` is empty once the result is gone.
    """

    __slots__ = ("_out", "_parents", "_backward")
    requires_grad = True

    def __init__(self, out, parents, backward_fn):
        self._out = weakref.ref(out)
        self._parents = parents
        self._backward = backward_fn

    @property
    def data(self):
        out = self._out()
        return _GONE if out is None else out.data


# stands in for a parent that takes no grad, so the tape does not keep its data
_NO_GRAD = Tensor(_GONE)


def _records(*parents):
    """Whether an op over ``parents`` records a node (see ``_make``)."""
    return _recording and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn):
    """Internal node constructor; prunes the graph below non-grad inputs and
    records nothing under ``no_grad``."""
    if _records(*parents):
        out = Tensor(data, requires_grad=True)
        links = tuple((p._node or p) if p.requires_grad else _NO_GRAD for p in parents)
        out._node = _Record(out, links, backward_fn)
        return out
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (adjoint of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _FREED(g):
    """Closure left on a node whose backward has already run."""
    raise GraphError("this graph was consumed by an earlier backward")


def backward(loss):
    """Accumulate reverse-mode gradients of a scalar ``loss`` into the leaves.

    Visits each record exactly once in reverse topological order and frees
    the graph as it goes: a record's parents and closure are taken off it
    just before the closure runs, and ``_FREED`` is left in their place.
    Gradients add into ``.grad`` of every leaf reached, so repeated calls on
    rebuilt graphs accumulate additively until ``zero_grad``; recorded nodes
    get no ``.grad``.  A second call on the same graph, or on a graph that
    reaches a consumed node, raises GraphError before any grad changes, and
    so does a loss that is not on the tape.
    """
    if not isinstance(loss, Tensor):
        raise GraphError("backward expects a Tensor")
    if loss.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("backward needs a loss on the tape: it depends on no tensor "
                         "that requires grad, or was computed under no_grad")

    # Iterative DFS topological sort over the parent links: records, and
    # leaves as themselves.
    root = loss._node or loss
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _FREED:
            raise GraphError("backward over a consumed graph: the tape is freed as "
                             "backward runs, so run the forward pass again")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    # Closures may hand back views or shared arrays, so an entry is only
    # updated in place once this pass owns a fresh buffer for it.  ``topo``
    # holds every node until its turn, so the ids keyed here stay unique.
    cotangent = {id(root): np.ones_like(loss.data)}
    owned = {id(root)}
    for i in range(len(topo) - 1, -1, -1):
        node = topo[i]
        topo[i] = None
        fn, parents = node._backward, node._parents
        if fn is not None:
            node._backward, node._parents = _FREED, ()
        g = cotangent.pop(id(node), None)
        if g is None:
            continue
        owned.discard(id(node))
        if fn is None:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad += g
            continue
        for parent, pg in zip(parents, fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            acc = cotangent.get(key)
            if acc is None:
                cotangent[key] = pg
            elif key in owned:
                acc += pg
            else:
                cotangent[key] = acc + pg
                owned.add(key)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    sa, sb, wa, wb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, sa) if wa else None), (_unbroadcast(g, sb) if wb else None)
    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    sa, sb, wa, wb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, sa) if wa else None), (-_unbroadcast(g, sb) if wb else None)
    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    da, db = a.data, b.data
    sa, sb = da.shape, db.shape
    # each grad reads the other operand: bind it only if that grad is wanted
    ka = db if a.requires_grad else None
    kb = da if b.requires_grad else None

    def bwd(g):
        return (None if ka is None else _unbroadcast(g * ka, sa),
                None if kb is None else _unbroadcast(g * kb, sb))
    return _make(da * db, (a, b), bwd)


def mul_const(x, arr):
    """Elementwise product with a constant array broadcastable into x's shape."""
    arr = np.asarray(arr, dtype=x.dtype)
    out = x.data * arr
    if out.shape != x.shape:
        raise ShapeError(f"mul_const operand of shape {arr.shape} does not broadcast into {x.shape}")

    def bwd(g):
        return (g * arr,)
    return _make(out, (x,), bwd)


def square(x):
    d = x.data

    def bwd(g):
        return (2.0 * d * g,)
    return _make(d * d, (x,), bwd)


def sigmoid(x):
    # tanh form is overflow-safe for large |x| in one vectorized pass
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))

    def bwd(g):
        return (g * out * (1.0 - out),)
    return _make(out, (x,), bwd)


def _hardswish(d):
    out = d + 3.0  # then the same operations in this one buffer
    np.clip(out, 0.0, 6.0, out=out)
    out *= d
    out /= 6.0
    return out


def _hardswish_slope(d):
    # already in d's dtype: python-float operands do not promote
    return np.where(d <= -3.0, 0.0, np.where(d >= 3.0, 1.0, (2.0 * d + 3.0) / 6.0))


def hardswish(x):
    """x * clamp(x + 3, 0, 6) / 6."""
    d = x.data

    def bwd(g):
        return (g * _hardswish_slope(d),)
    return _make(_hardswish(d), (x,), bwd)


def _scaled_sigmoid(d, a):
    """sigmoid(d * a) in one buffer, in the tanh form of ``sigmoid``."""
    s = d * a
    s *= 0.5
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _scaled_sigmoid_grad(g, s, c):
    """The cotangent of ``d * a`` for the cotangent ``g`` of ``c * s``."""
    gs = g * c
    gs *= s
    gs *= 1.0 - s
    return gs


def learnable_sigmoid(x, alpha, beta=2.0):
    """beta * sigmoid(alpha_c * x) with a learnable per-channel alpha.

    One node with the arithmetic of ``mul_const(sigmoid(x * alpha), beta)``
    with a per-channel product (the tests' ``channel_scale``), in the same
    order, so values and grads match it bit for bit;
    the closure keeps only the sigmoid.  At beta 1 the result is the
    sigmoid array itself (``s * 1.0`` is ``s``), so a consumer that saves
    the result shares the closure's copy.
    """
    if alpha.ndim != 1 or alpha.shape[0] != x.shape[-1]:
        raise ShapeError(
            f"learnable_sigmoid alpha has shape {alpha.shape}, expected ({x.shape[-1]},)")
    c = float(beta)
    d, a = x.data, alpha.data
    s = _scaled_sigmoid(d, a)

    def bwd(g):
        gs = _scaled_sigmoid_grad(g, s, c)
        ga = (gs * d).reshape(-1, d.shape[-1]).sum(axis=0)
        return gs * a, ga
    return _make(s if c == 1.0 else s * c, (x, alpha), bwd)


def reshape(x, shape):
    old = x.shape

    def bwd(g):
        return (g.reshape(old),)
    return _make(np.reshape(x.data, shape), (x,), bwd)


def transpose(x, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inv)),)
    return _make(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)


def concat_last(parts):
    """Concatenate along the last axis."""
    parts = tuple(parts)
    sizes = [p.shape[-1] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=-1))
    return _make(np.concatenate([p.data for p in parts], axis=-1), parts, bwd)


def mean(x, axis):
    """Mean over a single axis, which stays as a length-1 axis."""
    axis = int(axis)
    shape = x.shape
    n = shape[axis]

    def bwd(g):
        return (np.broadcast_to(g, shape) / n,)
    return _make(x.data.mean(axis=axis, keepdims=True), (x,), bwd)


def mean_all(x):
    shape, dtype, n = x.shape, x.dtype, x.size

    def bwd(g):
        return (np.full(shape, float(g) / n, dtype),)
    return _make(np.asarray(x.data.mean()), (x,), bwd)


def complex_magnitude(re, im):
    """sqrt(re^2 + im^2) with a zero-safe backward (gradient 0 where mag == 0)."""
    if re.shape != im.shape:
        raise ShapeError(f"magnitude parts disagree: re {re.shape} vs im {im.shape}")
    rd, imd = re.data, im.data
    m = np.hypot(rd, imd)

    def bwd(g):
        safe = np.where(m > 0.0, m, 1.0)
        w = g / safe
        return w * rd, w * imd
    return _make(m, (re, im), bwd)


# ---------------------------------------------------------------------------
# convolutions and normalization
# ---------------------------------------------------------------------------

def _dense_taps(x, w, b, stride, dilation, want_gx):
    """SAME cross-correlation of x (N, *S, Cin) with w (*K, Cin, Cout) plus
    b (Cout,): the output (N, *ceil(S / stride), Cout) and ``bwd(g) -> (gx,
    gw, gb)``, with ``gx`` None unless ``want_gx``."""
    n, *size, cin = x.shape
    *kernel, _, cout = w.shape
    osize, pads = [], []  # an odd total padding puts one more on the high side
    for s, k, st, d in zip(size, kernel, stride, dilation):
        osize.append(-(-s // st))
        total = max(0, (osize[-1] - 1) * st + (k - 1) * d + 1 - s)
        pads.append((total // 2, total - total // 2))
    xp = np.pad(x, ((0, 0), *pads, (0, 0))) if any(map(any, pads)) else x
    taps = []  # (index of the tap's weights, the input window it reads)
    for t in np.ndindex(*kernel):
        window = (slice(i * d, i * d + st * o, st)
                  for i, d, st, o in zip(t, dilation, stride, osize))
        taps.append((t, (slice(None), *window)))
    # the accumulator starts from the first tap's product
    out = reduce(iadd, (xp[tap].reshape(-1, cin) @ w[t] for t, tap in taps))
    out = out.reshape(n, *osize, cout)
    out += b
    if len(taps) == 1 and xp is x and osize == size:  # 1x1, unpadded

        def bwd(g):
            return _pointwise_backward(x, w, g, want_gx)
        return out, bwd
    crop = (slice(None),) + tuple(slice(lo, lo + s) for (lo, _), s in zip(pads, size))

    def bwd(g):
        gw = np.empty_like(w)
        gxp = np.zeros_like(xp) if want_gx else None
        gseg = g.reshape(-1, cout)
        for t, tap in taps:
            gw[t] = xp[tap].reshape(-1, cin).T @ gseg
            if want_gx:
                gxp[tap] += (gseg @ w[t].T).reshape(n, *osize, cin)
        gx = np.ascontiguousarray(gxp[crop]) if want_gx else None
        return gx, gw, gseg.sum(axis=0)
    return out, bwd


def _pointwise(x, w, b):
    """The output of a 1x1 conv of x (N, L, Cin) with w (1, Cin, Cout) plus
    b on ``_dense_taps``, without the backward, which would keep x alive."""
    return _dense_taps(x, w, b, (1,), (1,), False)[0]


def _pointwise_backward(x, w, g, want_gx):
    """``_dense_taps``'s backward for a 1x1 unpadded conv, from
    its input x (N, *S, Cin) and w (1, ..., 1, Cin, Cout): (gx, gw, gb), with
    ``gx`` None unless ``want_gx``.  It reads x for the weight grad only,
    so a fused op that recomputes x does not run the product again."""
    cin, cout = w.shape[-2:]
    gseg = g.reshape(-1, cout)
    gw = (x.reshape(-1, cin).T @ gseg).astype(w.dtype, copy=False).reshape(w.shape)
    gx = (gseg @ w.reshape(cin, cout).T).reshape(x.shape) if want_gx else None
    return gx, gw, gseg.sum(axis=0)


def _depthwise_taps(x, w, b, want_gx, product=True):
    """Per-channel SAME cross-correlation along L of x (N, L, C) with w
    (K, C) plus b (C,), as ``_dense_taps``; each position sums its taps in
    the order a padded copy would.  Without ``product`` the output is None
    and only the backward is built."""
    _, length, c = x.shape
    k = w.shape[0]
    taps = []  # (tap, the output rows it adds to, the input rows it reads)
    for i in range(k):
        shift = i - (k - 1) // 2  # the low SAME padding
        start, stop = max(0, -shift), min(length, length - shift)
        if start < stop:
            taps.append((i, slice(start, stop), slice(start + shift, stop + shift)))
    out = None
    if product:
        out = np.zeros_like(x)
        for i, dst, src in taps:
            out[:, dst] += x[:, src] * w[i]
        out += b

    def bwd(g):
        gx = np.zeros_like(x) if want_gx else None
        gw = np.zeros_like(w)
        for i, dst, src in taps:
            if want_gx:
                gx[:, src] += g[:, dst] * w[i]
            gw[i] = (x[:, src] * g[:, dst]).reshape(-1, c).sum(axis=0)
        return gx, gw, g.reshape(-1, c).sum(axis=0)
    return out, bwd


def _conv_node(op, x, w, b, kernel, wk, *args):
    """Check ``b`` against w's last (Cout) axis, run ``kernel`` on the arrays
    (``wk`` the view of ``w`` it takes) and record the node; gw takes w's
    shape back."""
    cout = w.shape[-1]
    if b.shape != (cout,):
        raise ShapeError(f"{op} bias has shape {b.shape}, expected ({cout},)")
    out, kernel_bwd = kernel(x.data, wk, b.data, *args, x.requires_grad)
    shape = w.shape

    def bwd(g):
        gx, gw, gb = kernel_bwd(g)
        return gx, gw.reshape(shape), gb
    return _make(out, (x, w, b), bwd)


def conv1d(x, w, b, groups=1):
    """1-D cross-correlation over (N, L, Cin) with same-length padding.

    Dense with ``groups`` 1 and weights (K, Cin, Cout), pointwise at kernel
    1; depthwise with ``groups`` == Cin == Cout and weights (K, 1, Cin).  No
    other grouping is taken.  Output length always equals the input length.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d input must be rank 3 (N, L, C), got rank {x.ndim}")
    cin = x.shape[-1]
    _, cin_g, cout = w.shape
    if groups == cin and cin_g == 1 and cout == cin:  # depthwise
        return _conv_node("conv1d", x, w, b, _depthwise_1d, w.data[:, 0, :])
    if groups != 1 or cin_g != cin:
        raise ShapeError(f"conv1d is dense (groups 1, weight (K, {cin}, Cout)) or depthwise "
                         f"(groups {cin}, weight (K, 1, {cin})); got groups={groups} and "
                         f"weight {w.shape}")
    return _conv_node("conv1d", x, w, b, _dense_taps, w.data, (1,), (1,))


def _depthwise_1d(x, w, b, want_gx, product=True):
    """The depthwise case of ``conv1d`` over x (N, L, C) with w (K, C) plus
    b (C,), routed by the one rule that ``conv1d`` and the fused ops share:
    ``_fft_taps`` for 9 or more taps over L >= 2, where
    measurement puts the FFT ahead of the taps, else ``_depthwise_taps``.

    ``x`` may also be a pair (h1, h2) whose product is the input: a gate's
    two halves, which the FFT multiplies straight into its padded buffer.
    Without ``product`` the output is None and only the backward is built.
    """
    length = (x[0] if isinstance(x, tuple) else x).shape[1]
    if w.shape[0] >= 9 and length >= 2:
        return _fft_taps(x, w, b, want_gx, product)
    if isinstance(x, tuple):
        x = x[0] * x[1]
    return _depthwise_taps(x, w, b, want_gx, product)


def _next_fast_len(n):
    # smallest 5-smooth length >= n; prime sizes hit pocketfft's slow path
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fft_taps(x, w, b, want_gx, product=True):
    """Depthwise SAME cross-correlation along L of x (N, L, C) with w (K, C)
    plus b (C,) by FFT, as ``_depthwise_taps``; ``x`` and ``product`` as in
    ``_depthwise_1d``.  The backward keeps the input's spectrum."""
    # Linear correlation via FFT along L; any transform size >= L + K - 1
    # is wrap-free for taps 0..K-1, so round up to a fast composite.  The
    # input is written once, into a zero buffer of that size at the low
    # SAME padding.
    # numpy 2's np.fft.rfft passes its default scale as a Python int, which
    # sends a float32 input through pocketfft's float64 loop (twice the
    # bytes and time); "ortho" scales in the input's dtype.  float64 keeps
    # the default, so its values stay bit for bit.  Under "ortho" xf and gf
    # each carry 1/sqrt(nf), so the weight grad's inverse adds no 1/nf.
    parts = x if isinstance(x, tuple) else (x,)
    n, length, c = parts[0].shape
    dtype = np.result_type(*parts)
    norm, gw_norm = ("backward", "backward") if dtype == np.float64 else ("ortho", "forward")
    k = w.shape[0]
    pl = (k - 1) // 2
    nf = _next_fast_len(length + k - 1)
    xp = np.zeros((n, nf, c), dtype)
    if len(parts) == 2:
        np.multiply(*parts, out=xp[:, pl:pl + length])
    else:
        xp[:, pl:pl + length] = x
    xf = np.fft.rfft(xp, axis=1, norm=norm)
    del xp
    wf = np.fft.rfft(w, n=nf, axis=0)
    out = None
    if product:
        out = np.fft.irfft(xf * np.conj(wf)[None], n=nf, axis=1, norm=norm)[:, :length, :]
        out = out.astype(dtype, copy=False) + b

    def bwd(g):
        gf = np.fft.rfft(g, n=nf, axis=1, norm=norm)
        gx = None
        if want_gx:
            gx_pad = np.fft.irfft(gf * wf[None], n=nf, axis=1, norm=norm)
            gx = np.ascontiguousarray(gx_pad[:, pl:pl + length, :]).astype(dtype, copy=False)
        gw = np.fft.irfft((xf * np.conj(gf)).sum(axis=0), n=nf, axis=0, norm=gw_norm)[:k, :]
        return gx, gw.astype(dtype, copy=False), g.sum(axis=(0, 1))
    return out, bwd


def conv2d_pointwise(x, w, b):
    """1x1 convolution over (B, T, F, Cin): a per-position channel map."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d_pointwise input must be rank 4, got rank {x.ndim}")
    cin, cout = w.shape
    if x.shape[-1] != cin:
        raise ShapeError(
            f"conv2d_pointwise channel mismatch: input Cin={x.shape[-1]}, weight Cin={cin}")
    return _conv_node("conv2d_pointwise", x, w, b, _dense_taps,
                      w.data.reshape(1, 1, cin, cout), (1, 1), (1, 1))


def conv2d(x, w, b, stride=(1, 1), dilation=(1, 1)):
    """2-D cross-correlation over (B, H, W, Cin) with SAME-style padding.

    Output spatial dims are ceil(H / stride); used by the metric discriminator
    (stride 2) and the dilated dense blocks of the classic baseline.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got rank {x.ndim}")
    cin = x.shape[-1]
    _, _, wcin, _ = w.shape
    if wcin != cin:
        raise ShapeError(f"conv2d channel mismatch: input Cin={cin}, weight Cin={wcin}")
    return _conv_node("conv2d", x, w, b, _dense_taps, w.data, tuple(stride), tuple(dilation))


# added to every instance norm's variance before the square root
NORM_EPS = 1e-5


def _norm_core(x, gamma, beta, op="instance_norm"):
    """Validate an instance norm's operands and return (xhat, inv): the
    normalized input and 1 / std per (instance, channel).  The forward of
    every op built on the norm; its backward is ``_norm_backward``."""
    if x.ndim != 3:
        raise ShapeError(f"{op} input must be rank 3 (N, L, C), got rank {x.ndim}")
    n, length, c = x.shape
    if length < 2:
        raise ShapeError(f"{op} needs L >= 2, got L={length}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"{op} affine shapes {gamma.shape}/{beta.shape} do not match C={c}")
    d = x.data
    mu = d.mean(axis=1, keepdims=True)
    xhat = d - mu
    var = (xhat ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    return xhat, inv


def _norm_affine(xhat, gd, bd, dtype):
    """The norm's output from its kept state; a fused backward recomputes it."""
    out = xhat * gd
    out += bd
    return out.astype(dtype, copy=False)


def _norm_backward(g, xhat, inv, gd, dtype):
    """Grads (x, gamma, beta) of the norm for its output cotangent ``g``."""
    gg = g * gd
    m1 = gg.mean(axis=1, keepdims=True)
    tmp = gg * xhat
    m2 = tmp.mean(axis=1, keepdims=True)
    ggamma = (g * xhat).sum(axis=(0, 1))
    gbeta = g.sum(axis=(0, 1))
    # inv * (gg - m1 - xhat * m2), in gg's buffer
    gg -= m1
    gg -= np.multiply(xhat, m2, out=tmp)
    gg *= inv
    return gg.astype(dtype, copy=False), ggamma, gbeta


def instance_norm(x, gamma, beta):
    """Normalize each (instance, channel) over the length axis of (N, L, C).

    Biased variance, then a per-channel affine.  L must be at least 2; a
    single position has no meaningful variance.  The closure keeps ``xhat``.
    """
    xhat, inv = _norm_core(x, gamma, beta)
    gd, dtype = gamma.data, x.dtype

    def bwd(g):
        return _norm_backward(g, xhat, inv, gd, dtype)
    return _make(_norm_affine(xhat, gd, beta.data, dtype), (x, gamma, beta), bwd)


def norm_hardswish(x, gamma, beta):
    """``hardswish(instance_norm(x, gamma, beta))`` as one node, bit for bit.

    The closure keeps only ``xhat``; backward recomputes the norm's output
    for the slope.
    """
    xhat, inv = _norm_core(x, gamma, beta, "norm_hardswish")
    gd, bd, dtype = gamma.data, beta.data, x.dtype
    y = _norm_affine(xhat, gd, bd, dtype)
    if not _records(x, gamma, beta):
        xhat = None  # nothing reads it again: free it before the output is built
    out = _hardswish(y)
    del y

    def bwd(g):
        gy = g * _hardswish_slope(_norm_affine(xhat, gd, bd, dtype))
        return _norm_backward(gy, xhat, inv, gd, dtype)
    return _make(out, (x, gamma, beta), bwd)


def _pointwise_cout(op, shape, w, b):
    """Check a fused op's kernel-1 conv weight (1, C, Cout) and bias (Cout,)
    against its input's ``shape`` (N, L, C); return Cout."""
    if len(shape) != 3:
        raise ShapeError(f"{op} input must be rank 3 (N, L, C), got rank {len(shape)}")
    cin = shape[-1]
    if w.ndim != 3 or w.shape[:2] != (1, cin):
        raise ShapeError(f"{op} weight has shape {w.shape}, expected (1, {cin}, Cout)")
    cout = w.shape[2]
    if b.shape != (cout,):
        raise ShapeError(f"{op} bias has shape {b.shape}, expected ({cout},)")
    return cout


def _depthwise_check(op, w, b, c):
    """Check a fused op's depthwise conv weight (K, 1, C) and bias (C,)."""
    if w.ndim != 3 or w.shape[1:] != (1, c):
        raise ShapeError(f"{op} depthwise weight has shape {w.shape}, expected (K, 1, {c})")
    if b.shape != (c,):
        raise ShapeError(f"{op} depthwise bias has shape {b.shape}, expected ({c},)")


def norm_pointwise_gate(x, gamma, beta, w, b, dw_w, dw_b):
    """``conv1d(simple_gate(conv1d(instance_norm(x, gamma, beta), w, b)), dw_w,
    dw_b, groups=Cg)`` for a kernel-1 conv with ``w`` of shape (1, C, 2 * Cg)
    and a depthwise conv with ``dw_w`` of shape (K, 1, Cg), as one node, bit
    for bit.

    The closure keeps only ``xhat``, where the composed ops keep x, the
    norm's output, the 2 * Cg-channel conv output and the gate's output or
    its spectrum; backward recomputes the affine output, the 1x1 product
    and the gate, and the gate's spectrum on the FFT route, but not the
    depthwise product, which no grad reads.
    """
    op = "norm_pointwise_gate"
    xhat, inv = _norm_core(x, gamma, beta, op)
    c2 = _pointwise_cout(op, x.shape, w, b)
    if c2 % 2:
        raise ShapeError(f"{op} needs an even Cout, got {c2}")
    c = c2 // 2
    _depthwise_check(op, dw_w, dw_b, c)
    gd, bd, wd, cb, dtype = gamma.data, beta.data, w.data, b.data, x.dtype
    dwd, dwb, dw_shape = dw_w.data[:, 0, :], dw_b.data, dw_w.shape
    y = _norm_affine(xhat, gd, bd, dtype)
    if not _records(x, gamma, beta, w, b, dw_w, dw_b):
        xhat = None  # nothing reads it again: free it before the product
    z = _pointwise(y, wd, cb)
    del y
    out = _depthwise_1d((z[..., :c], z[..., c:]), dwd, dwb, False)[0]
    del z

    def bwd(g):
        y = _norm_affine(xhat, gd, bd, dtype)
        z = _pointwise(y, wd, cb)
        gh, gdw, gdb = _depthwise_1d((z[..., :c], z[..., c:]), dwd, dwb, True,
                                     product=False)[1](g)
        gz = np.empty(gh.shape[:-1] + (c2,), np.result_type(gh, z))
        np.multiply(gh, z[..., c:], out=gz[..., :c])
        np.multiply(gh, z[..., :c], out=gz[..., c:])
        del z, gh
        gy, gw, gb = _pointwise_backward(y, wd, gz, True)
        del y, gz
        return _norm_backward(gy, xhat, inv, gd, dtype) + (gw, gb, gdw.reshape(dw_shape), gdb)
    return _make(out, (x, gamma, beta, w, b, dw_w, dw_b), bwd)


def norm_hardswish_pointwise(x, gamma, beta, w, b):
    """``conv1d(norm_hardswish(x, gamma, beta), w, b)`` for a kernel-1 conv
    with ``w`` of shape (1, C, Cout), as one node, bit for bit.

    The closure keeps only ``xhat``, where the composed ops keep it and the
    conv's input; backward recomputes the norm's output and its hardswish,
    but not the 1x1 product, which no grad reads.
    """
    xhat, inv = _norm_core(x, gamma, beta, "norm_hardswish_pointwise")
    _pointwise_cout("norm_hardswish_pointwise", x.shape, w, b)
    gd, bd, wd, cb, dtype = gamma.data, beta.data, w.data, b.data, x.dtype
    h = _norm_affine(xhat, gd, bd, dtype)
    if not _records(x, gamma, beta, w, b):
        xhat = None  # nothing reads it again: free it before the product
    h = _hardswish(h)
    out = _pointwise(h, wd, cb)
    del h

    def bwd(g):
        y = _norm_affine(xhat, gd, bd, dtype)
        gy, gw, gb = _pointwise_backward(_hardswish(y), wd, g, True)
        gy *= _hardswish_slope(y)
        del y
        return _norm_backward(gy, xhat, inv, gd, dtype) + (gw, gb)
    return _make(out, (x, gamma, beta, w, b), bwd)


def pointwise_learnable_sigmoid(x, dw_w, dw_b, w, b, alpha):
    """``learnable_sigmoid(conv1d(conv1d(x, dw_w, dw_b, groups=C), w, b),
    alpha, beta=1.0)`` for a depthwise conv with ``dw_w`` of shape (K, 1, C)
    and a kernel-1 conv with ``w`` of shape (1, C, Cout), as one node, bit
    for bit.  It returns the sigmoid array itself.

    The closure keeps x and the sigmoid, where the composed ops also keep
    the depthwise output and the 1x1 product; backward recomputes the
    depthwise output, which the 1x1 weight grad reads, and the product
    only for the grad of ``alpha``, the one grad that reads it.
    """
    op = "pointwise_learnable_sigmoid"
    cout = _pointwise_cout(op, x.shape, w, b)
    _depthwise_check(op, dw_w, dw_b, x.shape[-1])
    if alpha.shape != (cout,):
        raise ShapeError(f"{op} alpha has shape {alpha.shape}, expected ({cout},)")
    xd, wd, cb, a = x.data, w.data, b.data, alpha.data
    dwd, dwb, dw_shape = dw_w.data[:, 0, :], dw_b.data, dw_w.shape
    want_x, want_a = x.requires_grad, alpha.requires_grad
    s = _scaled_sigmoid(_pointwise(_depthwise_1d(xd, dwd, dwb, False)[0], wd, cb), a)

    def bwd(g):
        gs = _scaled_sigmoid_grad(g, s, 1.0)
        d, d_bwd = _depthwise_1d(xd, dwd, dwb, want_x)
        ga = None
        if want_a:  # products commute bit for bit, so both run in place
            ga = _pointwise(d, wd, cb)
            ga *= gs
            ga = ga.reshape(-1, cout).sum(axis=0)
        gs *= a
        gd, gw, gb = _pointwise_backward(d, wd, gs, True)
        del d, gs
        gx, gdw, gdb = d_bwd(gd)
        return gx, gdw.reshape(dw_shape), gdb, gw, gb, ga
    return _make(s, (x, dw_w, dw_b, w, b, alpha), bwd)


def gated_pointwise(x, ch, sp, w, b):
    """``conv1d(mul(mul(x, ch), sp), w, b)`` for a kernel-1 conv with ``w``
    of shape (1, C, Cout), as one node, bit for bit.

    The closure keeps the three operands, which the ops that made them keep
    anyway, where the composed ops also keep ``x * ch`` and the conv's input
    ``x * ch * sp``; backward recomputes both.  Only the operands that take
    grad get one.
    """
    dx, dc, ds, wd, cb = x.data, ch.data, sp.data, w.data, b.data
    sx, sc, ss = dx.shape, dc.shape, ds.shape
    st = np.broadcast_shapes(sx, sc)
    _pointwise_cout("gated_pointwise", np.broadcast_shapes(st, ss), w, b)
    out = _pointwise(dx * dc * ds, wd, cb)
    want_x, want_c, want_s = x.requires_grad, ch.requires_grad, sp.requires_grad

    def bwd(g):
        t = dx * dc
        gy, gw, gb = _pointwise_backward(t * ds, wd, g, want_x or want_c or want_s)
        gs = _unbroadcast(gy * t, ss) if want_s else None
        del t
        gx = gc = None
        if want_x or want_c:
            gt = _unbroadcast(gy * ds, st)
            gx = _unbroadcast(gt * dc, sx) if want_x else None
            gc = _unbroadcast(gt * dx, sc) if want_c else None
        return gx, gc, gs, gw, gb
    return _make(out, (x, ch, sp, w, b), bwd)


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

def grad_check(fn, tensors, step=1e-4):
    """Max relative error between autodiff and central finite differences.

    ``fn`` rebuilds a scalar Tensor from the current contents of ``tensors``
    (leaf tensors that require grad).  Each coordinate of each tensor is
    perturbed by +-step; the worst coordinate's error is returned, with the
    difference measured relative to max(|fd|, |ad|, 1).
    """
    for t in tensors:
        t.zero_grad()
    out = fn()
    if out.size != 1:
        raise GraphError("grad_check expects fn() to produce a scalar")
    backward(out)
    analytic = [np.array(t.grad, copy=True) if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    worst = 0.0
    for t, ad_grad in zip(tensors, analytic):
        for idx in np.ndindex(*t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + step
            f_plus = float(fn().data)
            t.data[idx] = orig - step
            f_minus = float(fn().data)
            t.data[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(fd), abs(ad_grad[idx]), 1.0)
            worst = max(worst, abs(fd - ad_grad[idx]) / denom)
    return worst
