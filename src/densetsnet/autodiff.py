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

Three fused ops stand for compositions of the gaze block and match them
bit for bit, values and grads, with the same operations in the same order;
each keeps less on the tape, after Chen et al. 2016 ("Training Deep Nets
with Sublinear Memory Cost") and Rota Bulo et al. 2018 ("In-Place Activated
BatchNorm"):

- ``norm_pointwise_gate`` is ``simple_gate(conv1d(instance_norm(...)))``
  for a kernel-1 conv.  It keeps only the normalized input ``xhat`` (and
  the per-channel ``1/std``); backward recomputes the affine output and
  the 1x1 product.
- ``norm_hardswish`` is ``hardswish(instance_norm(...))``.  It keeps only
  ``xhat``, as ``instance_norm`` itself does.
- ``gated_product(x, ch, sp)`` is ``mul(mul(x, ch), sp)``.  It keeps its
  operands, which the ops that made them hold already, and recomputes
  ``x * ch``.

``backward`` walks the records once in reverse topological order and
consumes them as it goes: each record drops its parents and its closure as
soon as the closure has run, so the tape is freed while the gradients flow
and a step never holds more than one tape.  Only leaves get a ``.grad``.  A
second ``backward`` over a consumed graph raises GraphError; a graph rebuilt
by a new forward pass accumulates into the leaves as usual.

Inside ``with no_grad():`` ops record nothing: each result is a bare leaf
with no parents and no closure, so an intermediate is freed as soon as its
last reader is done and inference memory stays a few feature maps wide.  The
arithmetic is the same, so values match a recorded forward bit for bit.

Arrays are numpy ndarrays.  Training works in float64; inference may run
in float32.  Every op keeps the dtype of its inputs, values and grads alike,
so float32 parameters and a float32 input give a float32 forward, while one
float64 operand promotes the result to float64.  Broadcasting is
deliberately narrow: bias adds and per-channel/per-instance scale factors
only.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import GraphError, NumericalError, ShapeError

__all__ = [
    "Tensor", "tensor", "constant", "backward", "grad_check", "no_grad",
    "add", "sub", "mul", "scale", "mul_const", "square", "sigmoid",
    "hardswish", "simple_gate", "learnable_sigmoid", "channel_scale", "gated_product",
    "reshape", "transpose", "concat_last", "split_last", "slice_last",
    "mean", "mean_all", "sum_all", "complex_magnitude",
    "conv1d", "conv2d_pointwise", "conv2d", "conv2d_depthwise", "instance_norm",
    "norm_hardswish", "norm_pointwise_gate",
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

    def backward(self):
        backward(self)

    # Operator sugar; the named functions below are the real op set.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False, dtype=np.float64):
    """Create a leaf tensor from external data, rejecting NaN/Inf."""
    arr = np.asarray(data, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise NumericalError("tensor data contains NaN or Inf")
    return Tensor(arr, requires_grad=requires_grad)


def constant(data, dtype=np.float64):
    return tensor(data, requires_grad=False, dtype=dtype)


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
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)
    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)
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


def gated_product(x, ch, sp):
    """``mul(mul(x, ch), sp)`` as one node, bit for bit.

    The closure keeps the operands the wanted grads read, which the ops
    that made them keep anyway, and recomputes ``x * ch`` where the
    composed ops keep it.
    """
    dx, dc, ds = x.data, ch.data, sp.data
    sx, sc, ss = dx.shape, dc.shape, ds.shape
    st = np.broadcast_shapes(sx, sc)
    out = dx * dc * ds
    # as in mul: bind each operand only if a wanted grad reads it
    want_x, want_c, want_s = x.requires_grad, ch.requires_grad, sp.requires_grad
    kx = dx if want_c or want_s else None
    kc = dc if want_x or want_s else None
    ks = ds if want_x or want_c else None

    def bwd(g):
        gx = gc = gs = None
        if want_x or want_c:
            gt = _unbroadcast(g * ks, st)
            gx = _unbroadcast(gt * kc, sx) if want_x else None
            gc = _unbroadcast(gt * kx, sc) if want_c else None
        if want_s:
            gs = _unbroadcast(g * (kx * kc), ss)
        return gx, gc, gs
    return _make(out, (x, ch, sp), bwd)


def scale(x, c):
    """Multiply by a python scalar constant."""
    c = float(c)

    def bwd(g):
        return (g * c,)
    return _make(x.data * c, (x,), bwd)


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


def simple_gate(x):
    """Split the last dim in half and return the elementwise product."""
    c2 = x.shape[-1]
    if c2 % 2:
        raise ShapeError(f"simple_gate needs an even channel count, got last dim {c2}")
    c = c2 // 2
    h1 = x.data[..., :c]
    h2 = x.data[..., c:]

    def bwd(g):
        gx = np.empty(g.shape[:-1] + (c2,), np.result_type(g, h1))
        np.multiply(g, h2, out=gx[..., :c])
        np.multiply(g, h1, out=gx[..., c:])
        return (gx,)
    return _make(h1 * h2, (x,), bwd)


def channel_scale(x, alpha):
    """Per-channel learnable scale along the last axis: y[..., c] = x[..., c] * alpha[c]."""
    if alpha.ndim != 1 or alpha.shape[0] != x.shape[-1]:
        raise ShapeError(
            f"channel_scale alpha has shape {alpha.shape}, expected ({x.shape[-1]},)")
    d, a = x.data, alpha.data

    def bwd(g):
        ga = (g * d).reshape(-1, d.shape[-1]).sum(axis=0)
        return g * a, ga
    return _make(d * a, (x, alpha), bwd)


def learnable_sigmoid(x, alpha, beta=2.0):
    """beta * sigmoid(alpha_c * x) with a learnable per-channel alpha.

    One node with the arithmetic of ``scale(sigmoid(channel_scale(x, alpha)),
    beta)``, in the same order, so values and grads match it bit for bit;
    the closure keeps only the sigmoid.  At beta 1 the result is the
    sigmoid array itself (``s * 1.0`` is ``s``), so a consumer that saves
    the result shares the closure's copy.
    """
    if alpha.ndim != 1 or alpha.shape[0] != x.shape[-1]:
        raise ShapeError(
            f"learnable_sigmoid alpha has shape {alpha.shape}, expected ({x.shape[-1]},)")
    c = float(beta)
    d, a = x.data, alpha.data
    s = d * a
    s *= 0.5
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5

    def bwd(g):
        gs = g * c
        gs *= s
        gs *= 1.0 - s
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


def slice_last(x, start, stop):
    """Contiguous slice along the last axis; the adjoint zero-embeds."""
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        full[..., start:stop] = g
        return (full,)
    return _make(np.ascontiguousarray(x.data[..., start:stop]), (x,), bwd)


def split_last(x, sizes):
    """Split the last axis into chunks of the given sizes."""
    if sum(sizes) != x.shape[-1]:
        raise ShapeError(f"split sizes {sizes} do not sum to last dim {x.shape[-1]}")
    out = []
    start = 0
    for s in sizes:
        out.append(slice_last(x, start, start + s))
        start += s
    return tuple(out)


def mean(x, axis, keepdims=False):
    """Mean over a single axis."""
    axis = int(axis)
    shape = x.shape
    n = shape[axis]

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / n,)
    return _make(x.data.mean(axis=axis, keepdims=keepdims), (x,), bwd)


def mean_all(x):
    shape, dtype, n = x.shape, x.dtype, x.size

    def bwd(g):
        return (np.full(shape, float(g) / n, dtype),)
    return _make(np.asarray(x.data.mean()), (x,), bwd)


def sum_all(x):
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        return (np.full(shape, float(g), dtype),)
    return _make(np.asarray(x.data.sum()), (x,), bwd)


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

def _same_pad_1d(kernel, dilation):
    span = (kernel - 1) * dilation
    left = span // 2
    return left, span - left  # even kernels pad one extra on the right


def conv1d(x, w, b, groups=1, dilation=1):
    """Grouped 1-D cross-correlation over (N, L, Cin) with same-length padding.

    Weights have shape (K, Cin // groups, Cout); groups == Cin == Cout is the
    depthwise case, kernel 1 with groups 1 is pointwise.  Output length always
    equals the input length.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d input must be rank 3 (N, L, C), got rank {x.ndim}")
    n, length, cin = x.shape
    k, cin_g, cout = w.shape
    if cin % groups:
        raise ShapeError(f"conv1d Cin={cin} not divisible by groups={groups}")
    if cout % groups:
        raise ShapeError(f"conv1d Cout={cout} not divisible by groups={groups}")
    if cin_g != cin // groups:
        raise ShapeError(
            f"conv1d weight dim 1 is {cin_g}, expected Cin/groups = {cin // groups}")
    if b.shape != (cout,):
        raise ShapeError(f"conv1d bias has shape {b.shape}, expected ({cout},)")

    pl, pr = _same_pad_1d(k, dilation)
    depthwise = groups == cin and cout == cin
    fft = depthwise and dilation == 1 and k >= 9 and length >= 2
    if depthwise and not fft:
        return _conv1d_dw_taps(x, w, b, pl, dilation)

    xp = np.pad(x.data, ((0, 0), (pl, pr), (0, 0))) if pl or pr else x.data
    if fft:
        return _conv1d_dw_fft(x, w, b, xp, length, pl)
    if groups == 1:
        return _conv1d_dense_taps(x, w, b, xp, length, pl, dilation)
    return _conv1d_grouped(x, w, b, xp, length, pl, dilation, groups)


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


def _conv1d_dw_fft(x, w, b, xp, length, pl):
    # Linear correlation via FFT along L; any transform size >= L + K - 1
    # is wrap-free for taps 0..K-1, so round up to a fast composite.
    # numpy 2's np.fft.rfft passes its default scale as a Python int, which
    # sends a float32 input through pocketfft's float64 loop (twice the
    # bytes and time); "ortho" scales in the input's dtype.  float64 keeps
    # the default, so its values stay bit for bit.  Under "ortho" xf and gf
    # each carry 1/sqrt(nf), so the weight grad's inverse adds no 1/nf.
    dtype = x.dtype
    norm, gw_norm = ("backward", "backward") if dtype == np.float64 else ("ortho", "forward")
    k = w.shape[0]
    wk = w.data[:, 0, :]  # (K, C)
    nf = _next_fast_len(length + k - 1)
    xf = np.fft.rfft(xp, n=nf, axis=1, norm=norm)
    wf = np.fft.rfft(wk, n=nf, axis=0)
    out = np.fft.irfft(xf * np.conj(wf)[None], n=nf, axis=1, norm=norm)[:, :length, :]
    out = out.astype(dtype, copy=False) + b.data

    def bwd(g):
        gf = np.fft.rfft(g, n=nf, axis=1, norm=norm)
        gx_pad = np.fft.irfft(gf * wf[None], n=nf, axis=1, norm=norm)
        gx = np.ascontiguousarray(gx_pad[:, pl:pl + length, :]).astype(dtype, copy=False)
        gw = np.fft.irfft((xf * np.conj(gf)).sum(axis=0), n=nf, axis=0, norm=gw_norm)[:k, :]
        gw = gw.astype(dtype, copy=False)[:, None, :]
        gb = g.sum(axis=(0, 1))
        return gx, gw, gb
    return _make(out, (x, w, b), bwd)


def _conv1d_dw_taps(x, w, b, pl, dilation):
    # Tap t adds x shifted by s = t * dilation - pl to output rows [lo, hi);
    # the zero padding adds nothing, so no padded copy is built in either
    # pass, and each row sums its taps in the order a padded copy would.
    d, wd = x.data, w.data
    length = d.shape[1]
    wk = wd[:, 0, :]
    spans = []
    for t in range(wd.shape[0]):
        s = t * dilation - pl
        lo, hi = max(0, -s), min(length, length - s)
        if lo < hi:
            spans.append((t, s, lo, hi))
    out = np.zeros_like(d)
    for t, s, lo, hi in spans:
        out[:, lo:hi] += d[:, lo + s:hi + s] * wk[t]
    out += b.data

    def bwd(g):
        gx = np.zeros_like(d)
        gw = np.zeros_like(wd)
        for t, s, lo, hi in spans:
            gx[:, lo + s:hi + s] += g[:, lo:hi] * wk[t]
            gw[t, 0, :] = (d[:, lo + s:hi + s] * g[:, lo:hi]).sum(axis=(0, 1))
        return gx, gw, g.sum(axis=(0, 1))
    return _make(out, (x, w, b), bwd)


def _conv1d_dense_taps(x, w, b, xp, length, pl, dilation):
    n, _, cin = x.shape
    k, _, cout = w.shape
    wd = w.data
    flat = xp.reshape(-1, cin) if k == 1 else None
    if k == 1:
        out = (flat @ wd[0]).reshape(n, length, cout)
        out += b.data
    else:
        acc = np.zeros((n * length, cout), dtype=x.dtype)
        for t in range(k):
            off = t * dilation
            acc += xp[:, off:off + length, :].reshape(-1, cin) @ wd[t]
        out = acc.reshape(n, length, cout) + b.data

    def bwd(g):
        gflat = g.reshape(-1, cout)
        gw = np.empty_like(wd)
        if k == 1:
            gx = (gflat @ wd[0].T).reshape(n, length, cin)
            gw[0] = flat.T @ gflat
        else:
            gxp = np.zeros_like(xp)
            for t in range(k):
                off = t * dilation
                seg = xp[:, off:off + length, :].reshape(-1, cin)
                gw[t] = seg.T @ gflat
                gxp[:, off:off + length, :] += (gflat @ wd[t].T).reshape(n, length, cin)
            gx = gxp[:, pl:pl + length, :]
        return np.ascontiguousarray(gx), gw, g.sum(axis=(0, 1))
    return _make(out, (x, w, b), bwd)


def _conv1d_grouped(x, w, b, xp, length, pl, dilation, groups):
    n, _, cin = x.shape
    k, cin_g, cout = w.shape
    wd = w.data
    cout_g = cout // groups
    out = np.zeros((n, length, cout), dtype=x.dtype)
    for gi in range(groups):
        xs = slice(gi * cin_g, (gi + 1) * cin_g)
        os = slice(gi * cout_g, (gi + 1) * cout_g)
        for t in range(k):
            off = t * dilation
            seg = xp[:, off:off + length, xs].reshape(-1, cin_g)
            out[:, :, os] += (seg @ wd[t, :, os]).reshape(n, length, cout_g)
    out += b.data

    def bwd(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(wd)
        for gi in range(groups):
            xs = slice(gi * cin_g, (gi + 1) * cin_g)
            os = slice(gi * cout_g, (gi + 1) * cout_g)
            gseg = g[:, :, os].reshape(-1, cout_g)
            for t in range(k):
                off = t * dilation
                seg = xp[:, off:off + length, xs].reshape(-1, cin_g)
                gw[t, :, os] = seg.T @ gseg
                gxp[:, off:off + length, xs] += (gseg @ wd[t, :, os].T).reshape(n, length, cin_g)
        return gxp[:, pl:pl + length, :], gw, g.sum(axis=(0, 1))
    return _make(out, (x, w, b), bwd)


def conv2d_pointwise(x, w, b):
    """1x1 convolution over (B, T, F, Cin): a per-position channel map."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d_pointwise input must be rank 4, got rank {x.ndim}")
    cin, cout = w.shape
    if x.shape[-1] != cin:
        raise ShapeError(
            f"conv2d_pointwise channel mismatch: input Cin={x.shape[-1]}, weight Cin={cin}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d_pointwise bias has shape {b.shape}, expected ({cout},)")
    shape, wd = x.shape, w.data
    flat = x.data.reshape(-1, cin)
    out = (flat @ wd).reshape(*shape[:-1], cout)
    out += b.data

    def bwd(g):
        gflat = g.reshape(-1, cout)
        gx = (gflat @ wd.T).reshape(shape)
        gw = flat.T @ gflat
        return gx, gw, gflat.sum(axis=0)
    return _make(out, (x, w, b), bwd)


def conv2d(x, w, b, stride=(1, 1), dilation=(1, 1)):
    """2-D cross-correlation over (B, H, W, Cin) with SAME-style padding.

    Output spatial dims are ceil(H / stride); used by the metric discriminator
    (stride 2) and the dilated dense blocks of the classic baseline.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got rank {x.ndim}")
    bsz, hh, ww_, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if wcin != cin:
        raise ShapeError(f"conv2d channel mismatch: input Cin={cin}, weight Cin={wcin}")
    sh, sw = stride
    dh, dw = dilation
    ho = -(-hh // sh)
    wo = -(-ww_ // sw)
    pad_h = max(0, (ho - 1) * sh + (kh - 1) * dh + 1 - hh)
    pad_w = max(0, (wo - 1) * sw + (kw - 1) * dw + 1 - ww_)
    pt, pb = pad_h // 2, pad_h - pad_h // 2
    plft, prgt = pad_w // 2, pad_w - pad_w // 2
    xp = np.pad(x.data, ((0, 0), (pt, pb), (plft, prgt), (0, 0)))
    wd = w.data

    def tap(arr, i, j):
        return arr[:, i * dh: i * dh + sh * ho: sh, j * dw: j * dw + sw * wo: sw, :]

    out = np.zeros((bsz, ho, wo, cout), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            seg = tap(xp, i, j).reshape(-1, cin)
            out += (seg @ wd[i, j]).reshape(bsz, ho, wo, cout)
    out += b.data

    def bwd(g):
        gflat = g.reshape(-1, cout)
        gxp = np.zeros_like(xp)
        gw = np.empty_like(wd)
        for i in range(kh):
            for j in range(kw):
                seg = tap(xp, i, j).reshape(-1, cin)
                gw[i, j] = seg.T @ gflat
                tap(gxp, i, j)[...] += (gflat @ wd[i, j].T).reshape(bsz, ho, wo, cin)
        gx = gxp[:, pt:pt + hh, plft:plft + ww_, :]
        return np.ascontiguousarray(gx), gw, gflat.sum(axis=0)
    return _make(out, (x, w, b), bwd)


def conv2d_depthwise(x, w, b):
    """Per-channel 3x3-style conv over (B, H, W, C), stride 1, SAME padding."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d_depthwise input must be rank 4, got rank {x.ndim}")
    bsz, hh, ww_, c = x.shape
    kh, kw, wc = w.shape
    if wc != c:
        raise ShapeError(f"conv2d_depthwise channel mismatch: input C={c}, weight C={wc}")
    pt, pb = _same_pad_1d(kh, 1)
    plft, prgt = _same_pad_1d(kw, 1)
    xp = np.pad(x.data, ((0, 0), (pt, pb), (plft, prgt), (0, 0)))
    wd = w.data
    out = np.zeros_like(x.data)
    for i in range(kh):
        for j in range(kw):
            out += xp[:, i:i + hh, j:j + ww_, :] * wd[i, j]
    out += b.data

    def bwd(g):
        gxp = np.zeros_like(xp)
        gw = np.empty_like(wd)
        for i in range(kh):
            for j in range(kw):
                gxp[:, i:i + hh, j:j + ww_, :] += g * wd[i, j]
                gw[i, j] = (xp[:, i:i + hh, j:j + ww_, :] * g).sum(axis=(0, 1, 2))
        return gxp[:, pt:pt + hh, plft:plft + ww_, :], gw, g.sum(axis=(0, 1, 2))
    return _make(out, (x, w, b), bwd)


def _norm_core(x, gamma, beta, eps, op="instance_norm"):
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
    inv = 1.0 / np.sqrt(var + eps)
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


def instance_norm(x, gamma, beta, eps=1e-5):
    """Normalize each (instance, channel) over the length axis of (N, L, C).

    Biased variance, then a per-channel affine.  L must be at least 2; a
    single position has no meaningful variance.  The closure keeps ``xhat``.
    """
    xhat, inv = _norm_core(x, gamma, beta, eps)
    gd, dtype = gamma.data, x.dtype

    def bwd(g):
        return _norm_backward(g, xhat, inv, gd, dtype)
    return _make(_norm_affine(xhat, gd, beta.data, dtype), (x, gamma, beta), bwd)


def norm_hardswish(x, gamma, beta, eps=1e-5):
    """``hardswish(instance_norm(x, gamma, beta))`` as one node, bit for bit.

    The closure keeps only ``xhat``; backward recomputes the norm's output
    for the slope.
    """
    xhat, inv = _norm_core(x, gamma, beta, eps, "norm_hardswish")
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


def norm_pointwise_gate(x, gamma, beta, w, b, eps=1e-5):
    """``simple_gate(conv1d(instance_norm(x, gamma, beta), w, b))`` for a
    kernel-1 conv with ``w`` of shape (1, C, 2 * Cg), as one node, bit for bit.

    The closure keeps only ``xhat``, where the composed ops keep x, the
    norm's output and the 2 * Cg-channel conv output; backward recomputes
    the affine output and the 1x1 product.
    """
    xhat, inv = _norm_core(x, gamma, beta, eps, "norm_pointwise_gate")
    n, length, cin = x.shape
    if w.ndim != 3 or w.shape[:2] != (1, cin):
        raise ShapeError(
            f"norm_pointwise_gate weight has shape {w.shape}, expected (1, {cin}, Cout)")
    c2 = w.shape[2]
    if c2 % 2:
        raise ShapeError(f"norm_pointwise_gate needs an even Cout, got {c2}")
    if b.shape != (c2,):
        raise ShapeError(f"norm_pointwise_gate bias has shape {b.shape}, expected ({c2},)")
    c = c2 // 2
    gd, bd, wd, cb, dtype = gamma.data, beta.data, w.data, b.data, x.dtype

    def product(y):
        z = (y.reshape(-1, cin) @ wd[0]).reshape(n, length, c2)
        z += cb
        return z

    y = _norm_affine(xhat, gd, bd, dtype)
    if not _records(x, gamma, beta, w, b):
        xhat = None  # nothing reads it again: free it before the product
    z = product(y)
    del y
    out = z[..., :c] * z[..., c:]
    del z

    def bwd(g):
        y = _norm_affine(xhat, gd, bd, dtype)
        z = product(y)
        gz = np.empty(g.shape[:-1] + (c2,), np.result_type(g, z))
        np.multiply(g, z[..., c:], out=gz[..., :c])
        np.multiply(g, z[..., :c], out=gz[..., c:])
        del z
        gflat = gz.reshape(-1, c2)
        gw = np.empty_like(wd)
        gw[0] = y.reshape(-1, cin).T @ gflat
        del y
        gy = (gflat @ wd[0].T).reshape(n, length, cin)
        gb = gz.sum(axis=(0, 1))
        del gz, gflat
        return _norm_backward(gy, xhat, inv, gd, dtype) + (gw, gb)
    return _make(out, (x, gamma, beta, w, b), bwd)


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
