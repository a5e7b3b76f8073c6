"""Minimal differentiable-layer toolkit on float64 numpy arrays.

Every layer is a forward/backward pair: the forward returns the output plus
an opaque cache, the backward consumes the upstream gradient and the cache
and returns gradients for the inputs and weights. There is no autodiff tape;
callers wire the chain rule by hand, and ``grad_check`` verifies the wiring
against central finite differences.

Arrays are row-major float64 throughout: gradient checking at 1e-4 relative
tolerance is not reliable in float32, and the models here are small enough
that precision costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BCE_EPS = 1e-12


class ShapeError(ValueError):
    """Operand shapes do not conform."""


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Parameter:
    """Named trainable tensor with an accumulated gradient and Adam moments."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = as_f64(value).copy()
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense_forward(x, w, b):
    """x[B,I] @ w[I,O] + b[O] -> out[B,O]."""
    x, w, b = as_f64(x), as_f64(w), as_f64(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"dense: x{x.shape} w{w.shape} b{b.shape} do not conform")
    return x @ w + b, (x, w)


def dense_backward(d_out, cache):
    x, w = cache
    d_out = as_f64(d_out)
    dx = d_out @ w.T
    dw = x.T @ d_out
    db = d_out.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def embedding_forward(ids, table):
    """Row lookup: ids[B,L] into table[V,E] -> out[B,L,E]."""
    ids = np.asarray(ids, dtype=np.int64)
    table = as_f64(table)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0,{table.shape[0]}) in ids "
            f"(min {ids.min()}, max {ids.max()})"
        )
    return table[ids], ids


def embedding_backward(d_out, ids, vocab_size: int):
    d_out = as_f64(d_out)
    d_table = np.zeros((vocab_size, d_out.shape[-1]))
    np.add.at(d_table, ids, d_out)
    return d_table


# ---------------------------------------------------------------------------
# LSTM over a padded batch
# ---------------------------------------------------------------------------

def lstm_forward(x, wx, wh, b, lengths):
    """Run an LSTM over x[B,L,E] and return the hidden state at each row's
    true length.

    Gate order in the stacked weights is (i, f, o, g) — the three sigmoid
    gates first so they activate as one contiguous block: wx[E,4H], wh[H,4H],
    b[4H]. Initial state is zero. Steps at or beyond a row's length leave its
    state untouched, so the result is invariant to padding content, and a
    zero-length row yields a zero vector.

    Rows are stable-sorted by length, longest first, so the rows live at step
    t are the prefix [:n_live[t]] and each step computes only those. Work is
    time-major over the longest length only: the input GEMM fills
    ``act[steps,B,4H]``, and each step activates its gates in place there, so
    the cache keeps activations, not pre-activations.
    """
    x, wx, wh, b = as_f64(x), as_f64(wx), as_f64(wh), as_f64(b)
    lengths = np.asarray(lengths, dtype=np.int64)
    if x.ndim != 3 or wx.ndim != 2 or x.shape[2] != wx.shape[0]:
        raise ShapeError(f"lstm: x{x.shape} incompatible with wx{wx.shape}")
    four_h = wx.shape[1]
    if four_h % 4 != 0:
        raise ShapeError(f"lstm: gate dimension {four_h} not divisible by 4")
    hidden = four_h // 4
    if wh.shape != (hidden, four_h) or b.shape != (four_h,):
        raise ShapeError(f"lstm: wh{wh.shape} b{b.shape} do not match hidden size {hidden}")
    batch, max_len, in_dim = x.shape
    if lengths.shape != (batch,) or (lengths > max_len).any() or (lengths < 0).any():
        raise ShapeError("lstm: lengths must be in [0, L] with one entry per row")

    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    steps = int(sorted_len[0]) if batch else 0
    # n_live[t] = number of rows whose length exceeds t
    n_live = np.searchsorted(-sorted_len, -np.arange(steps), side="left")
    # the input of the live steps, time-major and length-sorted: row t*B + k
    # of xt is x[order[k], t], gathered from the flattened [B*L, E] input
    rows = (order * max_len + np.arange(steps)[:, None]).reshape(-1)
    xt = x.reshape(batch * max_len, in_dim)[rows]
    # a sigmoid gate is 0.5 * (1 + tanh(z / 2)). Halving the sigmoid gates'
    # weights and bias up front is exact in floating point, and lets one tanh
    # call per step activate all four gates
    scale = np.full(four_h, 0.5)
    scale[3 * hidden :] = 1.0
    act = (xt @ (wx * scale)).reshape(steps, batch, four_h)
    act += b * scale
    wh_scaled = wh * scale

    # histories: hs[t] / cs[t] is the state entering step t. hs and tanh_cs
    # start at zero because the backward reads them in bulk, past each row's
    # length too, and multiplies those entries by zero gradients
    hs = np.zeros((steps + 1, batch, hidden))
    cs = np.empty((steps + 1, batch, hidden))
    cs[0] = 0.0
    tanh_cs = np.zeros((steps, batch, hidden))
    for t in range(steps):
        n = n_live[t]
        z = act[t, :n]
        z += hs[t, :n] @ wh_scaled
        np.tanh(z, out=z)
        sig = z[:, : 3 * hidden]
        sig += 1.0
        sig *= 0.5
        i = z[:, :hidden]
        f = z[:, hidden : 2 * hidden]
        o = z[:, 2 * hidden : 3 * hidden]
        g = z[:, 3 * hidden :]
        c = np.multiply(f, cs[t, :n], out=cs[t + 1, :n])
        c += i * g
        tanh_c = np.tanh(c, out=tanh_cs[t, :n])
        np.multiply(o, tanh_c, out=hs[t + 1, :n])
    h = np.empty((batch, hidden))
    h[order] = hs[sorted_len, np.arange(batch)]
    cache = (x.shape, xt, wx, wh, order, rows, n_live, act, cs, tanh_cs, hs)
    return h, cache


def lstm_backward(d_h, cache):
    """Backpropagation through time for :func:`lstm_forward`.

    The loop runs over the same live prefixes as the forward. A row's
    gradient enters at its last step and rows past their length are never
    touched, so nothing is masked. Each step's gate gradient is stored
    time-major, and the weight, bias and input gradients are each one GEMM
    or sum over all steps after the loop.
    """
    x_shape, xt, wx, wh, order, rows, n_live, act, cs, tanh_cs, hs = cache
    steps, batch, four_h = act.shape
    hidden = four_h // 4
    in_dim = x_shape[2]
    d_h = as_f64(d_h)[order]
    d_c = np.zeros_like(d_h)
    # the activation derivatives of all steps at once: dz_all starts as
    # 1 - s for the sigmoid gates and 1 - g^2 for g, and each step multiplies
    # its live rows by the rest of their gate gradient
    dz_all = np.empty_like(act)
    np.subtract(1.0, act[..., : 3 * hidden], out=dz_all[..., : 3 * hidden])
    g_part = np.square(act[..., 3 * hidden :], out=dz_all[..., 3 * hidden :])
    np.subtract(1.0, g_part, out=g_part)
    d_tanh_c = 1.0 - tanh_cs**2
    d_act = np.empty((batch, four_h))
    for t in reversed(range(steps)):
        n = n_live[t]
        z = act[t, :n]
        i = z[:, :hidden]
        f = z[:, hidden : 2 * hidden]
        o = z[:, 2 * hidden : 3 * hidden]
        dh_t = d_h[:n]
        dc_t = d_c[:n]
        dc_t += dh_t * o * d_tanh_c[t, :n]
        # gradients wrt the activations (i, f, o, g), then through them
        da = d_act[:n]
        np.multiply(dc_t, z[:, 3 * hidden :], out=da[:, :hidden])
        np.multiply(dc_t, cs[t, :n], out=da[:, hidden : 2 * hidden])
        np.multiply(dh_t, tanh_cs[t, :n], out=da[:, 2 * hidden : 3 * hidden])
        np.multiply(dc_t, i, out=da[:, 3 * hidden :])
        da[:, : 3 * hidden] *= z[:, : 3 * hidden]
        dz = dz_all[t, :n]
        dz *= da
        dz_all[t, n:] = 0.0
        np.matmul(dz, wh.T, out=dh_t)
        dc_t *= f
    dz_flat = dz_all.reshape(steps * batch, four_h)
    d_b = dz_flat.sum(axis=0)
    d_wh = hs[:steps].reshape(steps * batch, hidden).T @ dz_flat
    d_wx = xt.T @ dz_flat
    dx = np.zeros((x_shape[0] * x_shape[1], in_dim))
    dx[rows] = dz_flat @ wx.T
    dx = dx.reshape(x_shape)
    return dx, d_wx, d_wh, d_b


# ---------------------------------------------------------------------------
# convolution / pooling / relu
# ---------------------------------------------------------------------------

def _offset_view(x, a: int, b_: int, stride: int, out_h: int, out_w: int):
    """The [.., .., out_h, out_w] view of x that holds element (a, b_) of
    every window placed at ``stride``."""
    return x[:, :, a : a + out_h * stride : stride, b_ : b_ + out_w * stride : stride]


def conv2d_forward(x, kernels, bias, stride: int = 1):
    """Valid cross-correlation: x[B,C,H,W] * kernels[K,C,kh,kw] + bias[K].

    im2col is built channel-major, cols[C*kh*kw, B*oh*ow], from kh*kw strided
    slab copies, so the whole layer is one GEMM. The output is the
    [B,K,oh,ow] transpose of the [K,B,oh,ow] GEMM result (a view).
    """
    x, kernels, bias = as_f64(x), as_f64(kernels), as_f64(bias)
    if x.ndim != 4 or kernels.ndim != 4 or x.shape[1] != kernels.shape[1]:
        raise ShapeError(f"conv2d: x{x.shape} incompatible with kernels{kernels.shape}")
    batch, chans, height, width = x.shape
    n_k, _, kh, kw = kernels.shape
    if bias.shape != (n_k,):
        raise ShapeError(f"conv2d: bias{bias.shape} does not match {n_k} kernels")
    if kh > height or kw > width:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {height}x{width}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1

    x_cm = x.transpose(1, 0, 2, 3)
    cols = np.empty((chans, kh, kw, batch, out_h, out_w))
    for a in range(kh):
        for b_ in range(kw):
            cols[:, a, b_] = _offset_view(x_cm, a, b_, stride, out_h, out_w)
    cols = cols.reshape(chans * kh * kw, batch * out_h * out_w)
    out = kernels.reshape(n_k, -1) @ cols
    out += bias[:, None]
    out = out.reshape(n_k, batch, out_h, out_w).transpose(1, 0, 2, 3)
    cache = (cols, x.shape, kernels, stride, (out_h, out_w))
    return out, cache


def conv2d_backward(d_out, cache, need_dx: bool = True):
    """Gradients for conv2d_forward. Pass need_dx=False for a first layer
    whose input (raw pixels) is not trainable, to skip the input-gradient
    GEMM and the col2im scatter."""
    cols, x_shape, kernels, stride, (out_h, out_w) = cache
    batch, chans, height, width = x_shape
    n_k, _, kh, kw = kernels.shape
    d_kn = as_f64(d_out).transpose(1, 0, 2, 3).reshape(n_k, batch * out_h * out_w)
    d_bias = d_kn.sum(axis=1)
    d_kernels = (d_kn @ cols.T).reshape(kernels.shape)
    if not need_dx:
        return None, d_kernels, d_bias
    d_cols = (kernels.reshape(n_k, -1).T @ d_kn).reshape(chans, kh, kw, batch, out_h, out_w)
    dx = np.zeros((chans, batch, height, width))
    for a in range(kh):
        for b_ in range(kw):
            slab = _offset_view(dx, a, b_, stride, out_h, out_w)
            slab += d_cols[:, a, b_]
    return dx.transpose(1, 0, 2, 3), d_kernels, d_bias


def max_pool2d_forward(x, size: int = 2, stride: int | None = None):
    """Max pooling with argmax recorded for the backward scatter.

    ``arg`` is the winning offset a*size+b within each window; on ties the
    first maximum in row-major window order wins. Both passes work on the
    size*size strided views of the input that hold one window offset each.
    """
    x = as_f64(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d: expected 4-d input, got {x.shape}")
    stride = size if stride is None else stride
    height, width = x.shape[2:]
    if size > height or size > width:
        raise ShapeError(f"max_pool2d: window {size} larger than input {height}x{width}")
    out_h = (height - size) // stride + 1
    out_w = (width - size) // stride + 1
    slabs = [_offset_view(x, k // size, k % size, stride, out_h, out_w)
             for k in range(size * size)]
    out = np.copy(slabs[0])
    for slab in slabs[1:]:
        np.maximum(out, slab, out=out)
    # arg counts the leading offsets whose value is below the window's max
    below = np.ones(out.shape, dtype=bool)
    arg = np.zeros(out.shape, dtype=np.intp)
    for slab in slabs[:-1]:
        below &= slab < out
        arg += below
    cache = (x.shape, size, stride, arg, (out_h, out_w))
    return out, cache


def max_pool2d_backward(d_out, cache):
    x_shape, size, stride, arg, (out_h, out_w) = cache
    d_out = as_f64(d_out)
    dx = np.zeros(x_shape)
    for k in range(size * size):
        slab = _offset_view(dx, k // size, k % size, stride, out_h, out_w)
        # += so that overlapping windows (stride < size) accumulate
        slab += d_out * (arg == k)
    return dx


def relu_forward(x):
    x = as_f64(x)
    return np.maximum(x, 0.0), x


def relu_backward(d_out, cache):
    return as_f64(d_out) * (cache > 0.0)


# ---------------------------------------------------------------------------
# sigmoid / binary cross-entropy
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): stable for every input,
    with no masking; a 0-d input gives a float. The LSTM gates use the same
    form, folded into their weights."""
    out = np.tanh(as_f64(x) * 0.5)
    out += 1.0
    out *= 0.5
    return float(out) if out.ndim == 0 else out


def sigmoid_backward(d_out, out):
    return as_f64(d_out) * out * (1.0 - out)


def binary_cross_entropy(probs, labels) -> float:
    """Mean of -[y ln p + (1-y) ln(1-p)], with p clamped to [eps, 1-eps]."""
    p = np.clip(as_f64(probs), BCE_EPS, 1.0 - BCE_EPS)
    y = as_f64(labels)
    if p.shape != y.shape:
        raise ShapeError(f"bce: probs{p.shape} labels{y.shape} do not match")
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def binary_cross_entropy_grad(probs, labels) -> np.ndarray:
    """d loss / d probs for the batch-mean loss (chains with sigmoid_backward
    to the familiar (p - y) / B on the logit)."""
    p = np.clip(as_f64(probs), BCE_EPS, 1.0 - BCE_EPS)
    y = as_f64(labels)
    return (p - y) / (p * (1.0 - p)) / p.size


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_step(params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, t: int = 1) -> None:
    """One bias-corrected Adam update in place, reading each Parameter's
    accumulated .grad. ``t`` is the 1-based step count."""
    if t < 1:
        raise ValueError(f"adam step count must be >= 1, got {t}")
    for p in params:
        g = p.grad
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * g * g
        m_hat = p.m / (1.0 - beta1**t)
        v_hat = p.v / (1.0 - beta2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Per-parameter and overall max relative error between analytic and
    central-difference gradients."""

    per_param: dict[str, float] = field(default_factory=dict)
    max_rel_err: float = 0.0
    worst_param: str | None = None

    def passes(self, tol: float) -> bool:
        return self.max_rel_err <= tol


def grad_check(loss_fn, params, h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``loss_fn()`` must run the fragment forward, return the scalar loss, and
    leave the analytic gradient of each listed Parameter in its .grad slot
    (grads are zeroed here before the analytic call). Every parameter element
    is probed at +-h; the relative error is |ga - gn| / max(|ga|, |gn|, 1e-8).
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = float(loss_fn())
    if not np.isfinite(loss):
        raise ValueError(f"loss is not finite: {loss}")
    analytic = {p.name: p.grad.copy() for p in params}
    if any(not np.isfinite(g).all() for g in analytic.values()):
        raise ValueError("analytic gradient contains non-finite values")

    report = GradCheckReport()
    for p in params:
        ga = analytic[p.name]
        gn = np.zeros_like(ga)
        flat = p.value.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = float(loss_fn())
            flat[k] = orig - h
            down = float(loss_fn())
            flat[k] = orig
            gn.reshape(-1)[k] = (up - down) / (2.0 * h)
        if not np.isfinite(gn).all():
            raise ValueError(f"numeric gradient for {p.name} contains non-finite values")
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        err = float((np.abs(ga - gn) / denom).max()) if flat.size else 0.0
        report.per_param[p.name] = err
        if flat.size and (report.worst_param is None or err > report.max_rel_err):
            report.max_rel_err = err
            report.worst_param = p.name
    # restore analytic grads so callers can inspect them afterwards
    for p in params:
        p.grad = analytic[p.name]
    return report
