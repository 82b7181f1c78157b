"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (scalar loops, np.fft) so a
bug in the library cannot hide in a shared code path.
"""

import csv

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

import densetsnet.autodiff as ad
from densetsnet.autodiff import Tensor


def conv1d_ref(x, w, b, groups=1, dilation=1):
    """Nested-loop grouped 1-D cross-correlation, same-length padding.

    x (N, L, Cin), w (K, Cin/groups, Cout), b (Cout,).
    """
    n, length, cin = x.shape
    k, cin_g, cout = w.shape
    span = (k - 1) * dilation
    pl = span // 2
    out = np.zeros((n, length, cout))
    cout_g = cout // groups
    for bi in range(n):
        for t in range(length):
            for co in range(cout):
                g = co // cout_g
                acc = b[co]
                for tap in range(k):
                    src = t - pl + tap * dilation
                    if src < 0 or src >= length:
                        continue
                    for ci in range(cin_g):
                        acc += x[bi, src, g * cin_g + ci] * w[tap, ci, co]
                out[bi, t, co] = acc
    return out


def conv2d_ref(x, w, b, stride=(1, 1), dilation=(1, 1)):
    """Nested-loop 2-D cross-correlation, ceil-mode same padding.

    x (B, H, W, Cin), w (kh, kw, Cin, Cout).
    """
    bsz, hh, ww_, cin = x.shape
    kh, kw, _, cout = w.shape
    sh, sw = stride
    dh, dw = dilation
    ho = -(-hh // sh)
    wo = -(-ww_ // sw)
    pad_h = max(0, (ho - 1) * sh + (kh - 1) * dh + 1 - hh)
    pad_w = max(0, (wo - 1) * sw + (kw - 1) * dw + 1 - ww_)
    pt = pad_h // 2
    plft = pad_w // 2
    out = np.zeros((bsz, ho, wo, cout))
    for bi in range(bsz):
        for oy in range(ho):
            for ox in range(wo):
                for co in range(cout):
                    acc = b[co]
                    for i in range(kh):
                        for j in range(kw):
                            sy = oy * sh - pt + i * dh
                            sx = ox * sw - plft + j * dw
                            if sy < 0 or sy >= hh or sx < 0 or sx >= ww_:
                                continue
                            for ci in range(cin):
                                acc += x[bi, sy, sx, ci] * w[i, j, ci, co]
                    out[bi, oy, ox, co] = acc
    return out


def conv2d_grads_ref(x, w, g, stride=(1, 1), dilation=(1, 1), groups=1):
    """Nested-loop grads (gx, gw, gb) of the grouped form of ``conv2d_ref``
    for the output cotangent ``g``: each output position, channel and tap
    hands its share of ``g`` to the input pixel and the weight it read.

    x (B, H, W, Cin), w (kh, kw, Cin/groups, Cout), g (B, ceil(H/sh),
    ceil(W/sw), Cout).  A 1-D conv is the W = 1 case; a depthwise conv has
    groups = C and w (kh, kw, 1, C).
    """
    bsz, hh, ww_, _ = x.shape
    kh, kw, cin_g, cout = w.shape
    _, ho, wo, _ = g.shape
    sh, sw = stride
    dh, dw = dilation
    pt = max(0, (ho - 1) * sh + (kh - 1) * dh + 1 - hh) // 2
    plft = max(0, (wo - 1) * sw + (kw - 1) * dw + 1 - ww_) // 2
    cout_g = cout // groups
    gx, gw, gb = np.zeros_like(x), np.zeros_like(w), np.zeros(cout)
    for bi in range(bsz):
        for oy in range(ho):
            for ox in range(wo):
                for co in range(cout):
                    gv = g[bi, oy, ox, co]
                    gb[co] += gv
                    for i in range(kh):
                        for j in range(kw):
                            sy = oy * sh - pt + i * dh
                            sx = ox * sw - plft + j * dw
                            if sy < 0 or sy >= hh or sx < 0 or sx >= ww_:
                                continue
                            for ci in range(cin_g):
                                c = (co // cout_g) * cin_g + ci
                                gx[bi, sy, sx, c] += gv * w[i, j, ci, co]
                                gw[i, j, ci, co] += gv * x[bi, sy, sx, c]
    return gx, gw, gb


def conv1d_depthwise_grads_ref(x, w, b, g, dilation=1):
    """Depthwise same-padded conv1d and its grads for the cotangent ``g``.

    Keeps the padded input from the forward for the backward, the way the
    plain composition would; the library builds no padded copy and reads
    shifted slices of the input instead.  Same products summed in the same
    order, so agreement is bit for bit.
    Returns (out, gx, gw, gb).
    """
    k, length = w.shape[0], x.shape[1]
    span = (k - 1) * dilation
    pl = span // 2
    xp = np.pad(x, ((0, 0), (pl, span - pl), (0, 0)))
    wk = w[:, 0, :]
    out = np.zeros_like(x)
    for t in range(k):
        out += xp[:, t * dilation:t * dilation + length, :] * wk[t]
    out += b
    gxp = np.zeros_like(xp)
    gw = np.empty_like(w)
    for t in range(k):
        off = t * dilation
        gxp[:, off:off + length, :] += g * wk[t]
        gw[t, 0, :] = (xp[:, off:off + length, :] * g).sum(axis=(0, 1))
    return out, gxp[:, pl:pl + length, :], gw, g.sum(axis=(0, 1))


def instance_norm_grads_ref(x, gamma, beta, g, eps=1e-5):
    """Instance norm over axis 1 of (N, L, C) and its grads for ``g``.

    Keeps the normalized input ``xhat`` from the forward for the backward;
    the library recomputes it there instead.  Same expressions in the same
    order, so agreement is bit for bit.  Returns (out, gx, ggamma, gbeta).
    """
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gamma + beta
    gg = g * gamma
    m1 = gg.mean(axis=1, keepdims=True)
    m2 = (gg * xhat).mean(axis=1, keepdims=True)
    gx = inv * (gg - m1 - xhat * m2)
    return out, gx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))


def mvgb_forward_composed(x, p):
    """The gaze block written with the unfused ops: the reference that the
    library's fused ``model.mvgb_forward`` must match bit for bit."""
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


def norm_hardswish_2d_composed(x, gamma, beta):
    """Unfused reference of ``model.norm_hardswish_2d``."""
    b, t, f, c = x.shape
    flat = ad.reshape(x, (b, t * f, c))
    return ad.hardswish(ad.reshape(ad.instance_norm(flat, gamma, beta), (b, t, f, c)))


def stft_ref(samples, n_fft=400, hop=100, window=None):
    """Reflect-centered framed rfft.  Returns complex (T, n_fft//2 + 1)."""
    if window is None:
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    pad = n_fft // 2
    xp = np.pad(samples, pad, mode="reflect")
    t_frames = 1 + len(samples) // hop
    out = np.empty((t_frames, n_fft // 2 + 1), dtype=complex)
    for t in range(t_frames):
        out[t] = np.fft.rfft(xp[t * hop: t * hop + n_fft] * window)
    return out


def istft_ref(spec, out_len, n_fft=400, hop=100, window=None):
    """Overlap-add inverse of stft_ref with window-sum normalization."""
    if window is None:
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    t_frames = spec.shape[0]
    pad = n_fft // 2
    total = pad + out_len + pad
    num = np.zeros(total)
    den = np.zeros(total)
    for t in range(t_frames):
        frame = np.fft.irfft(spec[t], n=n_fft)
        num[t * hop: t * hop + n_fft] += frame * window
        den[t * hop: t * hop + n_fft] += window * window
    return num[pad: pad + out_len] / np.maximum(den[pad: pad + out_len], 1e-10)


def adamw_ref(p, g, m, v, t, lr, b1, b2, eps, wd):
    """One decoupled-weight-decay Adam step on plain floats."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    mh = m / (1.0 - b1 ** t)
    vh = v / (1.0 - b2 ** t)
    p = p - lr * wd * p - lr * mh / (np.sqrt(vh) + eps)
    return p, m, v


def snr_db(ref, est):
    noise = ref - est
    return 10.0 * np.log10(np.sum(ref ** 2) / max(np.sum(noise ** 2), 1e-300))


def sine_clip(n, freq, sr=16000, amp=0.3, phase=0.0):
    t = np.arange(n) / sr
    return amp * np.sin(2.0 * np.pi * freq * t + phase)


def rand_signal(rng, n, scale=0.3):
    return scale * rng.standard_normal(n)


def read_report_csv(path):
    """Rows of an evaluation CSV as dicts; comment lines skipped."""
    rows = []
    with open(path) as f:
        body = [ln for ln in f if not ln.startswith("#")]
    for row in csv.DictReader(body):
        rows.append(row)
    return rows


def read_curves_csv(path):
    rows = []
    with open(path) as f:
        body = [ln for ln in f if not ln.startswith("#")]
    for row in csv.DictReader(body):
        rows.append(row)
    return rows


# Parser fuzzing: a fixed example set per test, and no example database.
FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# Bytes that keep a JSON header parseable more often than random ones do.
_JSON_BYTES = b'0123456789-.eE[]{}",: '


def corrupt_bytes(data, raw):
    """``raw`` cut short, or with one to four bytes each XORed with a random
    mask or overwritten by a JSON character; drawn from Hypothesis ``data``."""
    if data.draw(st.booleans()):
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    buf = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(buf) - 1))
        if data.draw(st.booleans()):
            buf[i] ^= data.draw(st.integers(1, 255))
        else:
            buf[i] = data.draw(st.sampled_from(_JSON_BYTES))
    return bytes(buf)


def _closure_tensors(fn, depth=0):
    """Tensors a backward closure keeps alive, also through the functions
    and tuples it closes over."""
    found = []
    for cell in fn.__closure__ or ():
        try:
            items = [cell.cell_contents]
        except ValueError:  # free variable never bound
            continue
        while items:
            v = items.pop()
            if isinstance(v, Tensor):
                found.append(v)
            elif isinstance(v, (tuple, list)):
                items.extend(v)
            elif callable(v) and getattr(v, "__closure__", None) and depth < 3:
                found.extend(_closure_tensors(v, depth + 1))
    return found


def closure_tensors(root):
    """Every Tensor held by a backward closure in ``root``'s graph."""
    found, stack, seen = [], [root], set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            found.extend(_closure_tensors(t._backward))
        stack.extend(t._parents)
    return found
