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
    batch, max_len, _ = x.shape
    if lengths.shape != (batch,) or (lengths > max_len).any() or (lengths < 0).any():
        raise ShapeError("lstm: lengths must be in [0, L] with one entry per row")

    steps = int(lengths.max()) if batch else 0
    # input contribution and bias for all timesteps in one matmul; the bias is
    # added in place, since xw is the largest array of a long-text batch
    xw = (x.reshape(batch * max_len, -1) @ wx).reshape(batch, max_len, four_h)
    xw += b

    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    per_step = []
    for t in range(steps):
        live = (lengths > t)[:, None]
        z = h @ wh
        z += xw[:, t, :]
        gates = _sigmoid(z[:, : 3 * hidden])
        i = gates[:, :hidden]
        f = gates[:, hidden : 2 * hidden]
        o = gates[:, 2 * hidden :]
        g = np.tanh(z[:, 3 * hidden :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        per_step.append((i, f, o, g, c, tanh_c, h, live))
        c = np.where(live, c_new, c)
        h = np.where(live, h_new, h)
    cache = (x, wx, wh, lengths, per_step, steps, hidden)
    return h, cache


def lstm_backward(d_h, cache):
    """Backpropagation through time for :func:`lstm_forward`.

    At each step the hidden/cell gradients are split: rows still live at that
    step flow through the gate algebra, frozen rows pass straight through to
    the previous step (their state was copied, not recomputed).
    """
    x, wx, wh, lengths, per_step, steps, hidden = cache
    batch, max_len, in_dim = x.shape
    d_h = as_f64(d_h).copy()
    d_c = np.zeros_like(d_h)
    d_xw = np.zeros((batch, max_len, 4 * hidden))
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * hidden)
    for t in reversed(range(steps)):
        i, f, o, g, c_prev, tanh_c, h_prev, live = per_step[t]
        dh_t = np.where(live, d_h, 0.0)
        dc_t = np.where(live, d_c, 0.0) + dh_t * o * (1.0 - tanh_c**2)
        d_o = dh_t * tanh_c
        d_i = dc_t * g
        d_g = dc_t * i
        d_f = dc_t * c_prev
        dz = d_xw[:, t, :]
        dz[:, :hidden] = d_i * i * (1.0 - i)
        dz[:, hidden : 2 * hidden] = d_f * f * (1.0 - f)
        dz[:, 2 * hidden : 3 * hidden] = d_o * o * (1.0 - o)
        dz[:, 3 * hidden :] = d_g * (1.0 - g**2)
        d_wh += h_prev.T @ dz
        d_b += dz.sum(axis=0)
        d_h = np.where(live, dz @ wh.T, d_h)
        d_c = np.where(live, dc_t * f, d_c)
    d_wx = x.reshape(batch * max_len, in_dim).T @ d_xw.reshape(batch * max_len, 4 * hidden)
    dx = (d_xw.reshape(batch * max_len, 4 * hidden) @ wx.T).reshape(x.shape)
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

def _sigmoid(x):
    """Logistic function of a float64 array as 0.5 * (1 + tanh(x / 2)):
    stable for every input, with no masking. The LSTM step loop calls it
    directly, without :func:`sigmoid`'s conversion and scalar branch."""
    out = np.tanh(x * 0.5)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(x):
    """Numerically stable logistic function; a 0-d input gives a float."""
    x = as_f64(x)
    if x.ndim == 0:
        return float(_sigmoid(x))
    return _sigmoid(x)


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
