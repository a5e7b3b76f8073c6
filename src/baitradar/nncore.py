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
    """Named trainable tensor. Its accumulated gradient ``grad`` and Adam
    moments ``m`` and ``v`` are zero arrays made the first time one is read,
    so a model that never trains holds only its values."""

    _STATE = ("grad", "m", "v")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = as_f64(value).copy()

    def __getattr__(self, attr):
        # reached only for an attribute not set yet; other names (copy's and
        # pickle's probes included) must not read self.value
        if attr not in Parameter._STATE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        zeros = np.zeros_like(self.value)
        setattr(self, attr, zeros)
        return zeros

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def drop_state(self) -> None:
        """Frees the gradient and moments; a later read makes zeros again."""
        for attr in Parameter._STATE:
            self.__dict__.pop(attr, None)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


# ---------------------------------------------------------------------------
# dense stack: the statistics encoder, both heads and the thumbnail projection
# ---------------------------------------------------------------------------

def init_dense_stack(rng: np.random.Generator, layers, sizes) -> dict[str, np.ndarray]:
    """Glorot weights ``L.w`` and zero biases ``L.b`` for each layer L in
    order; layer k maps sizes[k] -> sizes[k+1] (one more size than layers)."""
    values = {}
    for layer, n_in, n_out in zip(layers, sizes[:-1], sizes[1:], strict=True):
        values[f"{layer}.w"] = glorot_uniform(rng, (n_in, n_out), n_in, n_out)
        values[f"{layer}.b"] = np.zeros(n_out)
    return values


def dense_stack_forward(x, params, layers):
    """The dense layers named in ``layers`` in order, with a ReLU between
    each pair and none after the last. ``params`` maps names to Parameters."""
    cache = []
    for k, layer in enumerate(layers):
        x, relu_cache = relu_forward(x) if k else (x, None)
        x, dense_cache = dense_forward(x, params[f"{layer}.w"].value, params[f"{layer}.b"].value)
        cache.append((layer, relu_cache, dense_cache))
    return x, cache


def dense_stack_backward(d_out, cache, params):
    """Accumulates every layer's weight and bias grads; returns the input grad."""
    for layer, relu_cache, dense_cache in reversed(cache):
        d_out, d_w, d_b = dense_backward(d_out, dense_cache)
        params[f"{layer}.w"].grad += d_w
        params[f"{layer}.b"].grad += d_b
        if relu_cache is not None:
            d_out = relu_backward(d_out, relu_cache)
    return d_out


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

# GEMMs that contract over up to this many terms gave the same bits at 1 and 2
# threads on OpenBLAS 0.3.31 at the model's shapes; the thumbnail projection's
# 2,704 and the LSTM weight gradients' Σ lengths did not. A bound measured for
# that build, not a guarantee; the thread case of the artifact test in
# tests/test_training.py guards it.
_SUM_CHUNK = 256


def _fixed_order_matmul(a, b):
    """a[M,K] @ b[K,N], summed over K in fixed chunks of ``_SUM_CHUNK``: the
    first chunk's product, then each later chunk's added in order. BLAS may
    split a longer contraction by its thread count, which changes the
    summation order and so the bits. For K <= ``_SUM_CHUNK`` this is one
    ``a @ b``."""
    out = a[:, :_SUM_CHUNK] @ b[:_SUM_CHUNK]
    for k in range(_SUM_CHUNK, a.shape[1], _SUM_CHUNK):
        out += a[:, k : k + _SUM_CHUNK] @ b[k : k + _SUM_CHUNK]
    return out


def dense_forward(x, w, b):
    """x[B,I] @ w[I,O] + b[O] -> out[B,O]."""
    x, w, b = as_f64(x), as_f64(w), as_f64(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"dense: x{x.shape} w{w.shape} b{b.shape} do not conform")
    return _fixed_order_matmul(x, w) + b, (x, w)


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
    """Row lookup: ids of any shape into table[V,E] -> out[*ids.shape, E]."""
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
# LSTM over a batch of concatenated sequences
# ---------------------------------------------------------------------------

def lstm_forward(x, wx, wh, b, lengths):
    """Run an LSTM over B sequences and return each one's final hidden state.

    x[sum(lengths), E] holds the sequences one after another in row order:
    row i's lengths[i] steps follow row i-1's. Gate order in the stacked
    weights is (i, f, o, g) — the three sigmoid gates first so they activate
    as one contiguous block: wx[E,4H], wh[H,4H], b[4H]. Initial state is
    zero, so a zero-length row yields a zero vector.

    Rows are stable-sorted by length, longest first, so the rows live at step
    t are a prefix of n_live[t] rows. Every time-major array is packed: step
    t's live rows form one contiguous block, the blocks follow each other in
    step order, and nothing is held for a step past a row's length, so the
    arrays hold sum(lengths) rows, not steps x B. The input GEMM fills
    ``act[sum(lengths), 4H]`` and each step activates its gates in place
    there, so the cache keeps activations, not pre-activations. The cell
    history ``cs`` leads with a block of B zero rows, the cell state entering
    step 0; the cell state entering step t is then the first n_live[t] rows
    of step t-1's block. The hidden state is kept only as it runs, in one
    [B,H] buffer: step t reads its first n_live[t] rows and overwrites them,
    so each row's final state stays at its sorted position (zero for length
    0). The backward rebuilds tanh(c) and the hidden history o * tanh(c)
    from ``cs`` and ``act`` with the same ufuncs on the same values, so the
    cache holds neither and the gradients keep their bits.
    """
    x, wx, wh, b = as_f64(x), as_f64(wx), as_f64(wh), as_f64(b)
    lengths = np.asarray(lengths, dtype=np.int64)
    if x.ndim != 2 or wx.ndim != 2 or x.shape[1] != wx.shape[0]:
        raise ShapeError(f"lstm: x{x.shape} incompatible with wx{wx.shape}")
    four_h = wx.shape[1]
    if four_h % 4 != 0:
        raise ShapeError(f"lstm: gate dimension {four_h} not divisible by 4")
    hidden = four_h // 4
    if wh.shape != (hidden, four_h) or b.shape != (four_h,):
        raise ShapeError(f"lstm: wh{wh.shape} b{b.shape} do not match hidden size {hidden}")
    if lengths.ndim != 1 or (lengths < 0).any() or lengths.sum() != len(x):
        raise ShapeError(f"lstm: lengths {lengths.shape} must be >= 0 and sum to the "
                         f"{len(x)} rows of x")
    batch = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    steps = int(sorted_len[0]) if batch else 0

    # block t of the packed state holds sizes[t] rows: the B zero rows that
    # enter step 0 (t = 0), else step t-1's live rows, the rows whose length
    # exceeds t-1. start[t] is where block t begins
    t_minus_1 = np.arange(-1, steps)
    sizes = np.searchsorted(-sorted_len, -t_minus_1, side="left")
    start = np.cumsum(sizes) - sizes
    # packed input row start[t + 1] - B + k is step t of row order[k], which
    # sits in x at that row's offset plus t; rows is a permutation of x's rows
    step = t_minus_1[1:, None]
    rows = ((np.cumsum(lengths) - lengths)[order] + step)[step < sorted_len]
    xt = x[rows]
    # a sigmoid gate is 0.5 * (1 + tanh(z / 2)). Halving the sigmoid gates'
    # weights and bias up front is exact in floating point, and lets one tanh
    # call per step activate all four gates
    scale = np.full(four_h, 0.5)
    scale[3 * hidden :] = 1.0
    act = xt @ (wx * scale)
    act += b * scale
    wh_scaled = wh * scale

    h_run = np.zeros((batch, hidden))
    tanh_c = np.empty((batch, hidden))
    cs = np.zeros((batch + len(rows), hidden))
    bounds = start.tolist()
    for t, n in enumerate(sizes[1:].tolist()):
        # step t reads block t of cs and writes block t+1; act has no zero
        # block, so its rows sit B earlier
        s, out = bounds[t], bounds[t + 1]
        p = out - batch
        z = act[p : p + n]
        z += h_run[:n] @ wh_scaled
        np.tanh(z, out=z)
        sig = z[:, : 3 * hidden]
        sig += 1.0
        sig *= 0.5
        i = z[:, :hidden]
        f = z[:, hidden : 2 * hidden]
        o = z[:, 2 * hidden : 3 * hidden]
        g = z[:, 3 * hidden :]
        c = np.multiply(f, cs[s : s + n], out=cs[out : out + n])
        c += i * g
        np.multiply(o, np.tanh(c, out=tanh_c[:n]), out=h_run[:n])
    h = np.empty((batch, hidden))
    h[order] = h_run
    cache = (xt, wx, wh, order, rows, sizes, start, act, cs)
    return h, cache


def lstm_backward(d_h, cache):
    """Backpropagation through time for :func:`lstm_forward`.

    The loop runs over the same live prefixes as the forward. A row's
    gradient enters at its last step and rows past their length are never
    touched, so nothing is masked. Each step's gate gradient is stored in the
    forward's packed layout, and the weight, bias and input gradients are
    each one GEMM or sum over the packed rows after the loop. The input
    gradient comes back in x's layout.
    """
    xt, wx, wh, order, rows, sizes, start, act, cs = cache
    batch = len(order)
    hidden = wh.shape[0]
    d_h = as_f64(d_h)[order]
    d_c = np.zeros_like(d_h)
    # the activation derivatives of all packed rows at once: dz_all starts as
    # 1 - s for the sigmoid gates and 1 - g^2 for g, and each step multiplies
    # its rows by the rest of their gate gradient
    dz_all = np.empty_like(act)
    np.subtract(1.0, act[:, : 3 * hidden], out=dz_all[:, : 3 * hidden])
    g_part = np.square(act[:, 3 * hidden :], out=dz_all[:, 3 * hidden :])
    np.subtract(1.0, g_part, out=g_part)
    tanh_cs = np.tanh(cs[batch:])
    d_tanh_c = 1.0 - tanh_cs**2
    d_act = np.empty((batch, 4 * hidden))
    bounds = start.tolist()
    live = sizes[1:].tolist()
    for t in reversed(range(len(live))):
        n, s, p = live[t], bounds[t], bounds[t + 1] - batch
        z = act[p : p + n]
        i = z[:, :hidden]
        f = z[:, hidden : 2 * hidden]
        o = z[:, 2 * hidden : 3 * hidden]
        dh_t = d_h[:n]
        dc_t = d_c[:n]
        dc_t += dh_t * o * d_tanh_c[p : p + n]
        # gradients wrt the activations (i, f, o, g), then through them
        da = d_act[:n]
        np.multiply(dc_t, z[:, 3 * hidden :], out=da[:, :hidden])
        np.multiply(dc_t, cs[s : s + n], out=da[:, hidden : 2 * hidden])
        np.multiply(dh_t, tanh_cs[p : p + n], out=da[:, 2 * hidden : 3 * hidden])
        np.multiply(dc_t, i, out=da[:, 3 * hidden :])
        da[:, : 3 * hidden] *= z[:, : 3 * hidden]
        dz = dz_all[p : p + n]
        dz *= da
        np.matmul(dz, wh.T, out=dh_t)
        dc_t *= f
    d_b = dz_all.sum(axis=0)
    # the hidden history o * tanh(c), behind the B zero rows that enter step
    # 0: packed row p of step t entered it with the state at p + B - sizes[t],
    # offset k of block t
    hs = np.zeros((batch + len(rows), hidden))
    np.multiply(act[:, 2 * hidden : 3 * hidden], tanh_cs, out=hs[batch:])
    h_in = hs[np.arange(len(rows)) + np.repeat(batch - sizes[:-1], sizes[1:])]
    d_wh = _fixed_order_matmul(h_in.T, dz_all)
    d_wx = _fixed_order_matmul(xt.T, dz_all)
    dx = np.empty_like(xt)
    dx[rows] = dz_all @ wx.T
    return dx, d_wx, d_wh, d_b


# ---------------------------------------------------------------------------
# convolution / pooling / relu
# ---------------------------------------------------------------------------

def _offset_view(x, a: int, b_: int, size: int, out_h: int, out_w: int):
    """The [..., out_h, out_w] view of x that holds offset (a, b_) of every
    size x size window placed at stride size."""
    return x[..., a : a + out_h * size : size, b_ : b_ + out_w * size : size]


def _lowered_images(x, kh: int, kw: int, span: int):
    """Each image of x[B,C,H,W] in turn as kh [C*kw, span] matrices, one per
    kernel row: rows[a][c*kw + b, p] = x[img, c].flat[p + a*W + b].

    Element (a, b) of the window at output (i, j) sits at flat index
    o + a*W + b of a row-major [H,W] image, where o = i*W + j < span is the
    window's origin, so the conv and its gradients are sums over shifts of
    the flat image. Lowering by the kw column shifts only (Cho & Brand 2017,
    "MEC: Memory-efficient Convolution") leaves each row shift a*W a slice,
    inside the image as out_h - 1 <= H - kh. The lists share one buffer.
    """
    batch, chans, height, width = x.shape
    x_low = np.empty((chans, kw, span + (kh - 1) * width))
    for pixels in x.reshape(batch, chans, height * width):
        for b_ in range(kw):
            x_low[:, b_] = pixels[:, b_ : b_ + x_low.shape[2]]
        yield [x_low[:, :, a * width : a * width + span].reshape(-1, span) for a in range(kh)]


def conv2d_forward(x, kernels, bias, pool: int = 1):
    """Valid stride-1 cross-correlation x[B,C,H,W] * kernels[K,C,kh,kw] +
    bias[K], max-pooled over pool x pool windows at stride pool (pool=1
    copies every value).

    Per image, the kh GEMMs k_rows[a] @ rows[a] on its ``_lowered_images``
    sum kernel row by kernel row into a flat [K, H*W] grid, read at the window
    origins, and are pooled from one reused [K, oh, ow] buffer while it is in
    cache, so no [B, K, oh, ow] conv output is made. The cache keeps x and
    each pooling window's winning offset.
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
    out_h, out_w = height - kh + 1, width - kw + 1
    if not 1 <= pool <= min(out_h, out_w):
        raise ShapeError(f"conv2d: pool must be in [1, {min(out_h, out_w)}] for a "
                         f"{out_h}x{out_w} output, got {pool}")

    span = (out_h - 1) * width + out_w
    k_rows = kernels.transpose(2, 0, 1, 3).reshape(kh, n_k, chans * kw)
    grid = np.empty((n_k, height * width))
    origins = grid.reshape(n_k, height, width)[:, :out_h, :out_w]
    bias = bias[:, None, None]
    out = np.empty((batch, n_k, out_h // pool, out_w // pool))
    arg = _pool_arg(out.shape, pool)
    conv = np.empty(origins.shape)
    for img, rows in enumerate(_lowered_images(x, kh, kw, span)):
        acc = np.matmul(k_rows[0], rows[0], out=grid[:, :span])
        for a in range(1, kh):
            acc += k_rows[a] @ rows[a]
        np.add(origins, bias, out=conv)
        _pool_into(conv, pool, out[img], arg[img])
    return out, (x, kernels, pool, arg)


def conv2d_backward(d_out, cache, need_dx: bool = True):
    """Gradients for conv2d_forward, one image at a time on its lowering.

    Each pooling window's d_out goes to its winning window origin on a flat
    [K, H*W] grid (d_grid, zero elsewhere). d_bias sums that origin view,
    d_kernels[:, :, a] gathers d_grid @ rows[a].T, and dx[c] gathers
    kernels[:, c, a, b] . d_grid shifted the other way: kh GEMMs each.

    Pass need_dx=False for a first layer whose input (raw pixels) is not
    trainable, to skip the input gradient.
    """
    x, kernels, pool, arg = cache
    batch, chans, height, width = x.shape
    n_k, _, kh, kw = kernels.shape
    d_out = as_f64(d_out)
    out_h, out_w = height - kh + 1, width - kw + 1
    span = (out_h - 1) * width + out_w
    d_grid = np.zeros((n_k, height * width))
    origins = d_grid.reshape(n_k, height, width)[:, :out_h, :out_w]
    d_bias = np.zeros(n_k)
    d_kernels = np.zeros((n_k, chans, kh, kw))
    if need_dx:
        d_low = np.zeros((n_k, kw, span + kw - 1))
        k_rows = kernels.transpose(2, 1, 0, 3).reshape(kh, chans, n_k * kw)
        dx = np.zeros((batch, chans, height * width))
    for img, rows in enumerate(_lowered_images(x, kh, kw, span)):
        # the windows tile the same origins in every image, and the origins
        # outside them stay zero
        _unpool_into(origins, d_out[img], arg[img], pool)
        d_bias += origins.sum(axis=(1, 2))
        for a in range(kh):
            d_kernels[:, :, a] += (d_grid[:, :span] @ rows[a].T).reshape(n_k, chans, kw)
        if need_dx:
            for b_ in range(kw):
                d_low[:, b_, b_ : b_ + span] = d_grid[:, :span]
            d_rows = d_low.reshape(n_k * kw, -1)
            for a in range(kh):
                dx[img, :, a * width : a * width + d_rows.shape[1]] += k_rows[a] @ d_rows
    return (dx.reshape(x.shape) if need_dx else None), d_kernels, d_bias


def _pool_arg(shape, size: int) -> np.ndarray:
    """An empty array for the winning window offsets a*size+b, in the
    smallest unsigned type that holds them."""
    return np.empty(shape, dtype=np.min_scalar_type(size * size - 1))


def _pool_into(x, size: int, out, arg) -> None:
    """Max-pools x[..., H, W] over size x size windows at stride size into
    out, and writes each window's winning offset a*size+b into arg; on ties
    the first maximum in row-major window order wins. Works on the size*size
    strided views of x that hold one window offset each."""
    slabs = [_offset_view(x, k // size, k % size, size, *out.shape[-2:])
             for k in range(size * size)]
    np.copyto(out, slabs[0])
    for slab in slabs[1:]:
        np.maximum(out, slab, out=out)
    # arg counts the leading offsets whose value is below the window's max
    below = np.less(slabs[0], out)
    np.copyto(arg, below)
    for slab in slabs[1:-1]:
        below &= slab < out
        arg += below


def _unpool_into(dx, d_out, arg, size: int) -> None:
    """Spreads each window's gradient d_out onto its winning offset arg of
    dx[..., H, W], which must hold zeros outside the windows; the window's
    other offsets are overwritten with zeros."""
    for k in range(size * size):
        slab = _offset_view(dx, k // size, k % size, size, *d_out.shape[-2:])
        np.multiply(d_out, arg == k, out=slab)


def max_pool2d_forward(x, size: int = 2):
    """Max pooling over size x size windows at stride size, with argmax
    recorded for the backward scatter; see ``_pool_into``."""
    x = as_f64(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d: expected 4-d input, got {x.shape}")
    height, width = x.shape[2:]
    if size > height or size > width:
        raise ShapeError(f"max_pool2d: window {size} larger than input {height}x{width}")
    out = np.empty((*x.shape[:2], height // size, width // size))
    arg = _pool_arg(out.shape, size)
    _pool_into(x, size, out, arg)
    cache = (x.shape, size, arg)
    return out, cache


def max_pool2d_backward(d_out, cache):
    x_shape, size, arg = cache
    dx = np.zeros(x_shape)
    _unpool_into(dx, as_f64(d_out), arg, size)
    return dx


def relu_forward(x):
    """max(x, 0), cached as itself: out > 0 exactly where x > 0, NaN and
    signed zeros included, so the backward's mask needs no copy of x."""
    out = np.maximum(as_f64(x), 0.0)
    return out, out


def relu_backward(d_out, cache):
    return as_f64(d_out) * (cache > 0.0)


# ---------------------------------------------------------------------------
# sigmoid / binary cross-entropy
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)), an array of x's shape:
    stable for every input, with no masking. The LSTM gates use the same
    form, folded into their weights."""
    out = np.tanh(as_f64(x) * 0.5)
    out += 1.0
    out *= 0.5
    return out


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
    # moments and value change in place, with each expression rounded as in
    # m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g and
    # value -= (lr * (m / (1-beta1^t))) / (sqrt(v / (1-beta2^t)) + eps)
    for p in params:
        g = p.grad
        step = np.multiply(g, 1.0 - beta1)
        p.m *= beta1
        p.m += step
        denom = np.multiply(g, 1.0 - beta2)
        denom *= g
        p.v *= beta2
        p.v += denom
        np.divide(p.v, 1.0 - beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(p.m, 1.0 - beta1**t, out=step)
        step *= lr
        step /= denom
        p.value -= step


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
