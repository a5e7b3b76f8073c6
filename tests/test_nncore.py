"""Layer-level checks against independent oracles: plain-loop matrix
multiplication, naive quadruple-loop convolution, a step-by-step scalar LSTM
recurrence, closed-form Adam updates, and central finite differences."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baitradar import nncore
from baitradar.nncore import (
    GradCheckReport,
    Parameter,
    adam_step,
    binary_cross_entropy,
    binary_cross_entropy_grad,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    embedding_backward,
    embedding_forward,
    grad_check,
    lstm_forward,
    max_pool2d_backward,
    max_pool2d_forward,
    relu_forward,
    sigmoid,
)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def matmul_oracle(x, w, b):
    out = np.zeros((x.shape[0], w.shape[1]))
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            acc = 0.0
            for k in range(x.shape[1]):
                acc += x[i, k] * w[k, j]
            out[i, j] = acc + b[j]
    return out


def test_dense_zero_weights():
    x = np.arange(6.0).reshape(2, 3)
    out, _ = dense_forward(x, np.zeros((3, 4)), np.zeros(4))
    assert (out == 0).all()


def test_dense_identity():
    x = np.arange(9.0).reshape(3, 3)
    out, _ = dense_forward(x, np.eye(3), np.zeros(3))
    np.testing.assert_array_equal(out, x)


def test_dense_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    out, _ = dense_forward(x, w, b)
    np.testing.assert_allclose(out, matmul_oracle(x, w, b), atol=1e-12, rtol=0)


@pytest.mark.parametrize("k", [1, 255, 256, 257, 512, 2704])
def test_fixed_order_matmul_sums_every_chunk_once(k):
    """Up to one chunk it is plain ``a @ b``, bit for bit; past that, a chunk
    dropped or added twice at a boundary would be far outside 1e-12."""
    rng = np.random.default_rng(k)
    for m, n in ((1, 64), (64, 256)):
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        got, want = nncore._fixed_order_matmul(a, b), a @ b
        if k <= 256:
            assert got.tobytes() == want.tobytes(), (m, n)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_dense_shape_mismatch():
    with pytest.raises(nncore.ShapeError):
        dense_forward(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


def test_dense_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = Parameter("x", rng.normal(size=(3, 4)))
    w = Parameter("w", rng.normal(size=(4, 2)))
    b = Parameter("b", rng.normal(size=2))
    proj = rng.normal(size=(3, 2))

    def loss_fn():
        out, cache = dense_forward(x.value, w.value, b.value)
        dx, dw, db = dense_backward(proj, cache)
        x.grad += dx
        w.grad += dw
        b.grad += db
        return float((out * proj).sum())

    assert grad_check(loss_fn, [x, w, b]).max_rel_err <= 1e-4


def test_dense_stack_matches_hand_chain():
    rng = np.random.default_rng(12)
    values = nncore.init_dense_stack(rng, ("a", "b"), (3, 4, 2))
    assert {n: v.shape for n, v in values.items()} == {
        "a.w": (3, 4), "a.b": (4,), "b.w": (4, 2), "b.b": (2,)}
    params = {n: Parameter(n, rng.normal(size=v.shape)) for n, v in values.items()}
    x = rng.normal(size=(5, 3))
    out, _ = nncore.dense_stack_forward(x, params, ("a", "b"))
    hidden = np.maximum(x @ params["a.w"].value + params["a.b"].value, 0.0)
    np.testing.assert_array_equal(out, hidden @ params["b.w"].value + params["b.b"].value)


def test_dense_stack_sizes_must_match_layers():
    with pytest.raises(ValueError):
        nncore.init_dense_stack(np.random.default_rng(0), ("a", "b"), (3, 2))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_lookup_rows():
    table = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    out, _ = embedding_forward(np.array([[2, 1]]), table)
    np.testing.assert_array_equal(out[0, 0], table[2])
    np.testing.assert_array_equal(out[0, 1], table[1])


def test_embedding_all_pad():
    table = np.arange(10.0).reshape(5, 2)
    out, _ = embedding_forward(np.zeros((2, 3), dtype=int), table)
    assert (out == table[0]).all()


def test_embedding_id_out_of_range():
    with pytest.raises(nncore.ShapeError):
        embedding_forward(np.array([[5]]), np.zeros((5, 2)))


def test_embedding_grad_counts_occurrences():
    # d(sum of outputs)/d(table row r) == number of times r appears
    ids = np.array([[2, 2, 0], [1, 2, 0]])
    table = np.zeros((4, 3))
    d_out = np.ones((2, 3, 3))
    d_table = embedding_backward(d_out, ids, 4)
    counts = {0: 2, 1: 1, 2: 3, 3: 0}
    for r, c in counts.items():
        np.testing.assert_array_equal(d_table[r], np.full(3, float(c)))


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def pack(x, lengths):
    """The first lengths[r] steps of each row r of x[B,L,E], concatenated in
    row order: the [sum(lengths), E] layout lstm_forward reads."""
    return np.concatenate([x[r, :n] for r, n in enumerate(lengths)])


def test_lstm_zero_params_zero_hidden():
    x = np.random.default_rng(0).normal(size=(2, 3, 4))
    h, _ = lstm_forward(pack(x, [3, 3]), np.zeros((4, 8)), np.zeros((2, 8)), np.zeros(8),
                        np.array([3, 3]))
    np.testing.assert_array_equal(h, np.zeros((2, 2)))


def scalar_lstm_oracle(xs, wx, wh, b):
    """Step-by-step scalar recurrence, gate order (i, f, o, g)."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = c = 0.0
    for x in xs:
        zi = x * wx[0] + h * wh[0] + b[0]
        zf = x * wx[1] + h * wh[1] + b[1]
        zo = x * wx[2] + h * wh[2] + b[2]
        zg = x * wx[3] + h * wh[3] + b[3]
        c = sig(zf) * c + sig(zi) * np.tanh(zg)
        h = sig(zo) * np.tanh(c)
    return h


def test_lstm_scalar_two_steps_matches_hand_recurrence():
    wx = np.array([0.5, -0.3, 0.8, 0.2])
    wh = np.array([0.1, 0.4, -0.6, 0.7])
    b = np.array([0.05, -0.1, 0.2, 0.0])
    xs = [0.9, -1.2]
    expected = scalar_lstm_oracle(xs, wx, wh, b)
    x = np.array(xs).reshape(2, 1)
    h, _ = lstm_forward(x, wx.reshape(1, 4), wh.reshape(1, 4), b, np.array([2]))
    np.testing.assert_allclose(h[0, 0], expected, atol=1e-12, rtol=0)


def test_lstm_zero_length_row_gives_zero_vector():
    rng = np.random.default_rng(4)
    h, _ = lstm_forward(
        pack(rng.normal(size=(2, 3, 2)), [0, 3]), rng.normal(size=(2, 8)),
        rng.normal(size=(2, 8)), rng.normal(size=8), np.array([0, 3]),
    )
    np.testing.assert_array_equal(h[0], np.zeros(2))
    assert (h[1] != 0).any()


def test_lstm_rows_match_each_row_run_alone():
    """Length sorting must not mix rows: each row of a batch with shuffled,
    tied and zero lengths equals that row run alone."""
    rng = np.random.default_rng(6)
    wx, wh, b = rng.normal(size=(3, 16)), rng.normal(size=(4, 16)), rng.normal(size=16)
    lengths = np.array([3, 0, 7, 3, 1, 7, 5])
    x = rng.normal(size=(lengths.size, 9, 3))
    h, _ = lstm_forward(pack(x, lengths), wx, wh, b, lengths)
    for r, n in enumerate(lengths):
        alone, _ = lstm_forward(x[r, :n], wx, wh, b, np.array([n]))
        np.testing.assert_allclose(h[r], alone[0], atol=1e-12, rtol=0)
    np.testing.assert_array_equal(h[1], np.zeros(4))


def test_lstm_backward_rows_match_each_row_run_alone():
    """The backward twin of the test above: each row's slice of the input
    gradient equals that row's run alone, and the weight and bias gradients
    are the sums over the rows run alone."""
    rng = np.random.default_rng(7)
    wx, wh, b = rng.normal(size=(3, 16)), rng.normal(size=(4, 16)), rng.normal(size=16)
    lengths = np.array([3, 0, 7, 3, 1, 7, 5])
    x = rng.normal(size=(lengths.size, 9, 3))
    d_h = rng.normal(size=(lengths.size, 4))
    _, cache = lstm_forward(pack(x, lengths), wx, wh, b, lengths)
    dx, *d_weights = nncore.lstm_backward(d_h, cache)
    assert dx.shape == (lengths.sum(), 3)
    summed = [np.zeros_like(w) for w in (wx, wh, b)]
    for r, (n, dx_row) in enumerate(zip(lengths, np.split(dx, np.cumsum(lengths)[:-1]))):
        _, alone = lstm_forward(x[r, :n], wx, wh, b, np.array([n]))
        dx_alone, *d_alone = nncore.lstm_backward(d_h[r : r + 1], alone)
        np.testing.assert_allclose(dx_row, dx_alone, atol=1e-12, rtol=0)
        for total, d in zip(summed, d_alone):
            total += d
    for d, total in zip(d_weights, summed):
        np.testing.assert_allclose(d, total, atol=1e-12, rtol=0)


def test_lstm_batch_of_zero_length_rows():
    """A batch of tokenless rows runs no step: zero states and zero weight
    gradients, and an input gradient of the input's shape."""
    rng = np.random.default_rng(8)
    wx, wh, b = rng.normal(size=(3, 16)), rng.normal(size=(4, 16)), rng.normal(size=16)
    h, cache = lstm_forward(np.zeros((0, 3)), wx, wh, b, np.array([0, 0, 0]))
    np.testing.assert_array_equal(h, np.zeros((3, 4)))
    dx, d_wx, d_wh, d_b = nncore.lstm_backward(rng.normal(size=(3, 4)), cache)
    assert dx.shape == (0, 3)
    np.testing.assert_array_equal(d_wx, np.zeros_like(wx))
    np.testing.assert_array_equal(d_wh, np.zeros_like(wh))
    np.testing.assert_array_equal(d_b, np.zeros_like(b))


def test_lstm_directional_derivatives_at_training_shapes():
    """g.v against a central difference along one seeded unit direction per
    input, at the shapes training runs: 32 rows of up to 110 steps, E = 32,
    H = 64, the forget-gate bias at 1, and one row each of length 0 and 110."""
    rng = np.random.default_rng(9)
    batch, max_len, in_dim, hidden = 32, 110, 32, 64
    lengths = np.clip(np.rint(rng.normal(60, 20, size=batch)), 1, max_len).astype(np.int64)
    lengths[:2] = 0, max_len
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0
    inputs = {
        "x": pack(rng.normal(size=(batch, max_len, in_dim)) * 0.5, lengths),
        "wx": nncore.glorot_uniform(rng, (in_dim, 4 * hidden), in_dim, 4 * hidden),
        "wh": nncore.glorot_uniform(rng, (hidden, 4 * hidden), hidden, 4 * hidden),
        "b": b,
    }
    proj = rng.normal(size=(batch, hidden))

    def loss(values):
        h, _ = lstm_forward(*values.values(), lengths)
        return float((h * proj).sum())

    _, cache = lstm_forward(*inputs.values(), lengths)
    grads = dict(zip(("x", "wx", "wh", "b"), nncore.lstm_backward(proj, cache)))
    step = 1e-5
    for name, value in inputs.items():
        v = rng.normal(size=value.shape)
        v /= np.linalg.norm(v)
        analytic = float((grads[name] * v).sum())
        numeric = (loss({**inputs, name: value + step * v})
                   - loss({**inputs, name: value - step * v})) / (2 * step)
        assert abs(analytic - numeric) <= 1e-7 * max(abs(analytic), abs(numeric)), name


@pytest.mark.parametrize("lengths", [[4, 2], [2, 4, 0, 3]], ids=["sorted", "unsorted"])
def test_lstm_gradients_match_finite_differences(lengths):
    rng = np.random.default_rng(5)
    hidden = 3
    lengths = np.array(lengths)
    batch = lengths.size
    x = Parameter("x", pack(rng.normal(size=(batch, 4, 2)) * 0.7, lengths))
    wx = Parameter("wx", rng.normal(size=(2, 4 * hidden)) * 0.5)
    wh = Parameter("wh", rng.normal(size=(hidden, 4 * hidden)) * 0.5)
    b = Parameter("b", rng.normal(size=4 * hidden) * 0.5)
    proj = rng.normal(size=(batch, hidden))

    def loss_fn():
        h, cache = lstm_forward(x.value, wx.value, wh.value, b.value, lengths)
        dx, dwx, dwh, db = nncore.lstm_backward(proj, cache)
        x.grad += dx
        wx.grad += dwx
        wh.grad += dwh
        b.grad += db
        return float((h * proj).sum())

    assert grad_check(loss_fn, [x, wx, wh, b]).max_rel_err <= 1e-4


def test_lstm_shape_errors():
    w = np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8)
    with pytest.raises(nncore.ShapeError):  # E does not match wx
        lstm_forward(np.zeros((2, 3)), np.zeros((4, 8)), *w[1:], np.array([2]))
    for x_shape, lengths in [
        ((1, 2, 3), [2]),  # a padded [B, L, E] batch
        ((2, 3), [5]),  # x rows != sum of lengths
        ((2, 3), [3, -1]),  # a negative length
        ((2, 3), [[2]]),  # 2-D lengths
    ]:
        with pytest.raises(nncore.ShapeError):
            lstm_forward(np.zeros(x_shape), *w, np.array(lengths))


def reference_lstm_forward(x, wx, wh, b, lengths):
    """The packed LSTM as it ran when it cached the hidden history ``hs`` and
    ``tanh_cs``, both written step by step in the loop; inputs are valid."""
    batch, hidden = len(lengths), wh.shape[0]
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    steps = int(sorted_len[0]) if batch else 0
    t_minus_1 = np.arange(-1, steps)
    sizes = np.searchsorted(-sorted_len, -t_minus_1, side="left")
    start = np.cumsum(sizes) - sizes
    step = t_minus_1[1:, None]
    rows = ((np.cumsum(lengths) - lengths)[order] + step)[step < sorted_len]
    xt = x[rows]
    scale = np.full(4 * hidden, 0.5)
    scale[3 * hidden :] = 1.0
    act = xt @ (wx * scale)
    act += b * scale
    wh_scaled = wh * scale
    hs = np.zeros((batch + len(rows), hidden))
    cs = np.zeros((batch + len(rows), hidden))
    tanh_cs = np.empty((len(rows), hidden))
    bounds = start.tolist()
    for t, n in enumerate(sizes[1:].tolist()):
        s, out = bounds[t], bounds[t + 1]
        p = out - batch
        z = act[p : p + n]
        z += hs[s : s + n] @ wh_scaled
        np.tanh(z, out=z)
        sig = z[:, : 3 * hidden]
        sig += 1.0
        sig *= 0.5
        i, f, o, g = (z[:, k * hidden : (k + 1) * hidden] for k in range(4))
        c = np.multiply(f, cs[s : s + n], out=cs[out : out + n])
        c += i * g
        tanh_c = np.tanh(c, out=tanh_cs[p : p + n])
        np.multiply(o, tanh_c, out=hs[out : out + n])
    h = np.empty((batch, hidden))
    h[order] = np.take(hs, start[sorted_len] + np.arange(batch), axis=0)
    return h, (xt, wx, wh, order, rows, sizes, start, act, cs, tanh_cs, hs)


def reference_lstm_backward(d_h, cache):
    xt, wx, wh, order, rows, sizes, start, act, cs, tanh_cs, hs = cache
    batch, hidden = len(order), wh.shape[0]
    d_h = d_h[order]
    d_c = np.zeros_like(d_h)
    dz_all = np.empty_like(act)
    np.subtract(1.0, act[:, : 3 * hidden], out=dz_all[:, : 3 * hidden])
    g_part = np.square(act[:, 3 * hidden :], out=dz_all[:, 3 * hidden :])
    np.subtract(1.0, g_part, out=g_part)
    d_tanh_c = 1.0 - tanh_cs**2
    d_act = np.empty((batch, 4 * hidden))
    bounds = start.tolist()
    live = sizes[1:].tolist()
    for t in reversed(range(len(live))):
        n, s, p = live[t], bounds[t], bounds[t + 1] - batch
        z = act[p : p + n]
        i, f, o = (z[:, k * hidden : (k + 1) * hidden] for k in range(3))
        dh_t = d_h[:n]
        dc_t = d_c[:n]
        dc_t += dh_t * o * d_tanh_c[p : p + n]
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
    h_in = hs[np.arange(len(rows)) + np.repeat(batch - sizes[:-1], sizes[1:])]
    # the weight grads sum in lstm_backward's order: this reference pins the
    # rebuilt hidden history, not the contraction order
    d_wh = nncore._fixed_order_matmul(h_in.T, dz_all)
    d_wx = nncore._fixed_order_matmul(xt.T, dz_all)
    dx = np.empty_like(xt)
    dx[rows] = dz_all @ wx.T
    return dx, d_wx, d_wh, d_b


def lstm_case(seed):
    """Seeded LSTM inputs: B in 1-39, lengths in 0-119, and in a quarter of
    the cases only 0-2 steps, so batches of zero-length and one-step rows
    come up; E and H small and varied."""
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(1, 40))
    top = 3 if seed % 4 == 0 else 120
    lengths = rng.integers(0, top, size=batch)
    in_dim, hidden = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    x = rng.normal(size=(int(lengths.sum()), in_dim))
    wx = rng.normal(size=(in_dim, 4 * hidden)) * 0.5
    wh = rng.normal(size=(hidden, 4 * hidden)) * 0.5
    b = rng.normal(size=4 * hidden) * 0.5
    return (x, wx, wh, b, lengths), rng.normal(size=(batch, hidden))


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_lstm_keeps_the_bits_of_the_history_caching_reference(seed):
    """Rebuilding tanh(c) and o * tanh(c) in the backward runs the same
    ufuncs on the same values as caching them: h and all four gradients are
    byte-equal to the reference."""
    for case in range(seed, seed + 5):
        inputs, d_h = lstm_case(case)
        h, cache = lstm_forward(*inputs)
        ref_h, ref_cache = reference_lstm_forward(*inputs)
        assert h.tobytes() == ref_h.tobytes(), case
        got = nncore.lstm_backward(d_h, cache)
        expected = reference_lstm_backward(d_h, ref_cache)
        for name, a, e in zip(("dx", "d_wx", "d_wh", "d_b"), got, expected):
            assert a.shape == e.shape and a.tobytes() == e.tobytes(), (case, name)


def test_lstm_cache_holds_no_hidden_history():
    """At a training shape the float arrays the cache owns are the permuted
    inputs xt[Σ,E], the gate activations act[Σ,4H] and the cell history
    cs[B+Σ,H], nothing more; the weights are the caller's own arrays."""
    rng = np.random.default_rng(31)
    batch, in_dim, hidden = 32, 32, 64
    lengths = np.clip(np.rint(rng.normal(60, 8, size=batch)), 1, None).astype(np.int64)
    total = int(lengths.sum())
    wx, wh = rng.normal(size=(in_dim, 4 * hidden)), rng.normal(size=(hidden, 4 * hidden))
    _, cache = lstm_forward(rng.normal(size=(total, in_dim)), wx, wh, np.zeros(4 * hidden),
                            lengths)
    owned = [a for a in cached_arrays(cache)
             if a.dtype == np.float64 and not np.shares_memory(a, wx)
             and not np.shares_memory(a, wh)]
    bound = 8 * (total * (4 * hidden + in_dim) + (batch + total) * hidden)
    assert sum(a.nbytes for a in owned) <= bound


# ---------------------------------------------------------------------------
# conv / pool / relu
# ---------------------------------------------------------------------------

def naive_conv_oracle(x, kernels, bias):
    batch, chans, height, width = x.shape
    n_k, _, kh, kw = kernels.shape
    out_h, out_w = height - kh + 1, width - kw + 1
    out = np.zeros((batch, n_k, out_h, out_w))
    for n in range(batch):
        for k in range(n_k):
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for c in range(chans):
                        for a in range(kh):
                            for b_ in range(kw):
                                acc += x[n, c, i + a, j + b_] * kernels[k, c, a, b_]
                    out[n, k, i, j] = acc + bias[k]
    return out


def naive_pool_windows(conv, pool):
    """Each pool x pool window of conv at stride pool, as (its index in the
    pooled output, the index in conv of its first maximum in row-major order)."""
    batch, n_k, height, width = conv.shape
    for n, k, i, j in np.ndindex(batch, n_k, height // pool, width // pool):
        window = conv[n, k, i * pool : (i + 1) * pool, j * pool : (j + 1) * pool]
        a, b_ = np.unravel_index(np.argmax(window), window.shape)
        yield (n, k, i, j), (n, k, i * pool + a, j * pool + b_)


def test_conv_identity_kernel():
    x = np.random.default_rng(8).normal(size=(1, 1, 4, 4))
    out, _ = conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1))
    np.testing.assert_array_equal(out, x)


def test_conv_all_ones_box():
    out, _ = conv2d_forward(np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3)), np.zeros(1))
    np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 9.0))


@pytest.mark.parametrize("shape,kshape,pool", [
    ((2, 3, 5, 6), (4, 3, 3, 3), 1),
    ((1, 2, 7, 7), (3, 2, 3, 3), 2),
    ((2, 1, 6, 4), (2, 1, 2, 2), 2),
    # the 7x8 conv output's last row and last two columns lie in no window
    ((2, 2, 8, 9), (3, 2, 2, 2), 3),
])
def test_conv_matches_naive_oracle(shape, kshape, pool):
    rng = np.random.default_rng(hash((shape, kshape, pool)) % 2**32)
    x = rng.normal(size=shape)
    k = rng.normal(size=kshape)
    b = rng.normal(size=kshape[0])
    out, _ = conv2d_forward(x, k, b, pool=pool)
    conv = naive_conv_oracle(x, k, b)
    expected = np.empty(out.shape)
    for o, c in naive_pool_windows(conv, pool):
        expected[o] = conv[c]
    np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)


def test_conv_backward_without_dx_keeps_weight_gradients():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 3, 9, 9))
    kernels = rng.normal(size=(4, 3, 3, 3))
    _, cache = conv2d_forward(x, kernels, rng.normal(size=4))
    d_out = rng.normal(size=(2, 4, 7, 7))
    dx, dk, db = conv2d_backward(d_out, cache)
    none, dk_only, db_only = conv2d_backward(d_out, cache, need_dx=False)
    assert dx.shape == x.shape
    assert none is None
    np.testing.assert_array_equal(dk_only, dk)
    np.testing.assert_array_equal(db_only, db)


def naive_conv_grads(x, kernels, d_out):
    """Window-by-window gradients of the convolution: each output's upstream
    gradient reaches the kernel through its window of x, and the window of dx
    through the kernel."""
    n_k, _, kh, kw = kernels.shape
    dx = np.zeros(x.shape)
    d_kernels = np.zeros(kernels.shape)
    for n, k, i, j in np.ndindex(*d_out.shape):
        window = (n, slice(None), slice(i, i + kh), slice(j, j + kw))
        d_kernels[k] += d_out[n, k, i, j] * x[window]
        dx[window] += d_out[n, k, i, j] * kernels[k]
    return dx, d_kernels, d_out.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("batch", [1, 3, 5, 11])
# at pools 2 and 3 the 7x7 conv output's last row and column lie in no window
@pytest.mark.parametrize("pool", [1, 2, 3])
@pytest.mark.parametrize("need_dx", [True, False])
def test_conv_matches_window_by_window_reference(batch, pool, need_dx):
    rng = np.random.default_rng(batch * 10 + pool)
    x = rng.normal(size=(batch, 2, 9, 8))
    kernels = rng.normal(size=(3, 2, 3, 2))
    bias = rng.normal(size=3)
    out, cache = conv2d_forward(x, kernels, bias, pool=pool)
    d_out = rng.normal(size=out.shape)
    conv = naive_conv_oracle(x, kernels, bias)
    expected, d_conv = np.empty(out.shape), np.zeros(conv.shape)
    for o, c in naive_pool_windows(conv, pool):
        expected[o], d_conv[c] = conv[c], d_out[o]
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
    dx, dk, db = conv2d_backward(d_out, cache, need_dx=need_dx)
    ref_dx, ref_dk, ref_db = naive_conv_grads(x, kernels, d_conv)
    np.testing.assert_allclose(dk, ref_dk, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(db, ref_db, rtol=1e-12, atol=1e-12)
    if need_dx:
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
    else:
        assert dx is None


def cached_arrays(item):
    if isinstance(item, np.ndarray):
        return [item]
    return [a for part in item for a in cached_arrays(part)] if isinstance(item, tuple) else []


def test_conv_cache_holds_nothing_larger_than_its_input():
    # a cached im2col matrix would hold kh*kw = 25 shifted copies of x,
    # 14 times its size at this shape
    rng = np.random.default_rng(24)
    x = rng.uniform(size=(11, 3, 16, 16))
    _, cache = conv2d_forward(x, rng.normal(size=(4, 3, 5, 5)), np.zeros(4))
    cached = cached_arrays(cache)
    assert cached and max(a.size for a in cached) <= x.size


def test_pooled_conv_cache_holds_no_conv_output():
    # at conv1's shape the [B,8,60,60] conv output is 2.3 times the input
    rng = np.random.default_rng(25)
    x = rng.uniform(size=(2, 3, 64, 64))
    _, cache = conv2d_forward(x, rng.normal(size=(8, 3, 5, 5)), np.zeros(8), pool=2)
    assert max(a.nbytes for a in cached_arrays(cache)) < 2 * 8 * 60 * 60 * 8


@pytest.mark.parametrize("x_shape,k_shape", [
    ((5, 3, 64, 64), (8, 3, 5, 5)),   # conv1
    ((5, 8, 30, 30), (16, 8, 5, 5)),  # conv2
    ((3, 3, 17, 17), (4, 3, 5, 5)),   # 13x13 output pooled to 6x6
])
def test_pooled_conv_equals_conv_then_pool_bit_for_bit(x_shape, k_shape):
    rng = np.random.default_rng(x_shape[1] * 100 + x_shape[2])
    x = rng.uniform(size=x_shape)
    kernels = rng.normal(size=k_shape) * 0.1
    bias = rng.normal(size=k_shape[0])
    conv, conv_cache = conv2d_forward(x, kernels, bias)
    pooled, pool_cache = max_pool2d_forward(conv, 2)
    out, cache = conv2d_forward(x, kernels, bias, pool=2)
    assert out.tobytes() == pooled.tobytes()
    d_out = rng.normal(size=out.shape)
    d_conv = max_pool2d_backward(d_out, pool_cache)
    grads = conv2d_backward(d_out, cache)
    for name, got, expected in zip(("dx", "d_kernels", "d_bias"), grads,
                                   conv2d_backward(d_conv, conv_cache)):
        assert got.tobytes() == expected.tobytes(), name
    if conv.shape[-1] % 2:
        # the last conv row and column lie in no window
        assert not d_conv[..., -1, :].any() and not d_conv[..., :, -1].any()
        for got, expected in zip(grads, naive_conv_grads(x, kernels, d_conv)):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_pooled_conv_tie_sends_gradient_to_first_maximum():
    # a 1x1 identity kernel, so the conv output is x and dx the unpooled grad
    x = np.zeros((1, 1, 2, 4))
    x[0, 0, 1, 3] = 2.0
    out, cache = conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1), pool=2)
    np.testing.assert_array_equal(out, [[[[0.0, 2.0]]]])
    dx, _, d_bias = conv2d_backward(np.array([[[[3.0, 5.0]]]]), cache)
    expected = np.zeros_like(x)
    expected[0, 0, 0, 0] = 3.0
    expected[0, 0, 1, 3] = 5.0
    np.testing.assert_array_equal(dx, expected)
    np.testing.assert_array_equal(d_bias, [8.0])


@pytest.mark.parametrize("pool", [0, -1, 5])
def test_pooled_conv_rejects_pool_outside_the_conv_output(pool):
    # a 6x6 input and 3x3 kernel give a 4x4 conv output
    with pytest.raises(nncore.ShapeError):
        conv2d_forward(np.zeros((1, 1, 6, 6)), np.zeros((1, 1, 3, 3)), np.zeros(1), pool=pool)


_CONV_HASHES_IN_CHILD = """
import hashlib, json
import numpy as np
from baitradar import nncore

def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()

hashes = {}
for layer, in_shape, k_shape in (("conv1", (3, 64, 64), (8, 3, 5, 5)),
                                 ("conv2", (8, 30, 30), (16, 8, 5, 5))):
    rng = np.random.default_rng(7)
    kernels = rng.normal(size=k_shape) * 0.1
    bias = rng.normal(size=k_shape[0])
    for batch in (32, 20):
        x = rng.uniform(size=(batch, *in_shape))
        out, cache = nncore.conv2d_forward(x, kernels, bias)
        dx, d_kernels, _ = nncore.conv2d_backward(rng.normal(size=out.shape), cache)
        for name, arr in (("out", out), ("dx", dx), ("d_kernels", d_kernels)):
            hashes[f"{layer} B={batch} {name}"] = digest(arr)
print(json.dumps(hashes))
"""


def test_conv_bits_do_not_depend_on_the_blas_thread_count():
    """The thumbnail convs at the model's shapes, at a full training batch
    (32) and a typical batch after modality dropout (20), give the same
    forward output, dx and d_kernels at 1 and 2 BLAS threads."""
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", _CONV_HASHES_IN_CHILD], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        runs.append(json.loads(out.stdout))
    assert len(runs[0]) == 12
    assert runs[0] == runs[1]


def test_conv_kernel_too_large():
    with pytest.raises(nncore.ShapeError):
        conv2d_forward(np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 5, 5)), np.zeros(1))


def test_max_pool_forward_backward():
    x = np.array([[[[1.0, 2.0, 5.0, 3.0],
                    [4.0, 0.0, 1.0, 2.0],
                    [7.0, 6.0, 0.0, 1.0],
                    [1.0, 2.0, 3.0, 9.0]]]])
    out, cache = max_pool2d_forward(x, 2)
    np.testing.assert_array_equal(out, np.array([[[[4.0, 5.0], [7.0, 9.0]]]]))
    dx = max_pool2d_backward(np.ones_like(out), cache)
    expected = np.zeros_like(x)
    expected[0, 0, 1, 0] = 1.0  # 4
    expected[0, 0, 0, 2] = 1.0  # 5
    expected[0, 0, 2, 0] = 1.0  # 7
    expected[0, 0, 3, 3] = 1.0  # 9
    np.testing.assert_array_equal(dx, expected)


def test_max_pool_tie_sends_gradient_to_first_element():
    # an all-zero window, the usual tie after relu
    x = np.zeros((1, 1, 2, 4))
    x[0, 0, 1, 3] = 2.0
    out, cache = max_pool2d_forward(x, 2)
    np.testing.assert_array_equal(out, [[[[0.0, 2.0]]]])
    dx = max_pool2d_backward(np.array([[[[3.0, 5.0]]]]), cache)
    expected = np.zeros_like(x)
    expected[0, 0, 0, 0] = 3.0
    expected[0, 0, 1, 3] = 5.0
    np.testing.assert_array_equal(dx, expected)


def test_relu_clamps_and_gates():
    x = np.array([-1.0, 0.0, 2.0])
    out, cache = relu_forward(x)
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(nncore.relu_backward(np.ones(3), cache), [0.0, 0.0, 1.0])


def test_relu_caches_its_output():
    """The cache is the output itself, which the next layer already holds,
    and its mask equals the input's, NaN and signed zeros included."""
    x = np.array([[-2.0, -0.0, 0.0, 1e-300, np.nan, 3.0]])
    out, cache = relu_forward(x)
    assert np.shares_memory(cache, out) and not np.shares_memory(cache, x)
    d_out = np.arange(1.0, 7.0)[None]
    np.testing.assert_array_equal(nncore.relu_backward(d_out, cache), d_out * (x > 0.0))


# ---------------------------------------------------------------------------
# sigmoid / cross-entropy
# ---------------------------------------------------------------------------

def test_sigmoid_midpoint_and_extremes():
    assert sigmoid(0.0) == 0.5
    assert 0.0 <= sigmoid(-800.0) < 1e-12
    assert 1.0 - 1e-12 < sigmoid(800.0) <= 1.0
    x = np.linspace(-800.0, 800.0, 4001)
    with np.errstate(all="raise"):
        pos, neg = sigmoid(x), sigmoid(-x)
    assert ((pos >= 0.0) & (pos <= 1.0)).all()
    np.testing.assert_allclose(pos + neg, 1.0, atol=1e-15, rtol=0)


def test_bce_half_probability_is_ln2():
    p = np.array([0.5, 0.5])
    for y in ([0.0, 1.0], [1.0, 1.0]):
        assert binary_cross_entropy(p, np.array(y)) == pytest.approx(np.log(2.0), abs=1e-15)


def test_bce_extreme_probabilities_finite():
    loss = binary_cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss)


def test_bce_logit_gradient_is_p_minus_y():
    # chain bce grad through sigmoid and compare with central differences
    rng = np.random.default_rng(12)
    logits = rng.normal(size=4)
    labels = np.array([1.0, 0.0, 1.0, 0.0])

    probs = sigmoid(logits)
    analytic = nncore.sigmoid_backward(binary_cross_entropy_grad(probs, labels), probs)
    np.testing.assert_allclose(analytic, (probs - labels) / 4, atol=1e-12, rtol=0)

    h = 1e-6
    for k in range(4):
        up, down = logits.copy(), logits.copy()
        up[k] += h
        down[k] -= h
        numeric = (
            binary_cross_entropy(sigmoid(up), labels)
            - binary_cross_entropy(sigmoid(down), labels)
        ) / (2 * h)
        assert abs(numeric - analytic[k]) < 1e-8


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_oracle_single_step(g, lr, beta1, beta2, eps):
    m = (1 - beta1) * g / (1 - beta1)
    v = (1 - beta2) * g * g / (1 - beta2)
    return -lr * m / (np.sqrt(v) + eps)


def test_adam_zero_gradient_no_change():
    p = Parameter("p", np.array([1.0, -2.0]))
    before = p.value.copy()
    adam_step([p], lr=0.1, t=1)
    np.testing.assert_array_equal(p.value, before)


def test_adam_single_step_closed_form():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p = Parameter("p", np.array([0.3]))
    p.grad[:] = 1.0
    adam_step([p], lr=lr, beta1=b1, beta2=b2, eps=eps, t=1)
    expected = 0.3 + adam_oracle_single_step(1.0, lr, b1, b2, eps)
    assert abs(p.value[0] - expected) < 1e-15
    assert abs((p.value[0] - 0.3) + lr) < 1e-9  # update magnitude ~ lr


def test_adam_constant_gradient_update_approaches_lr():
    lr = 1e-3
    p = Parameter("p", np.array([0.0]))
    prev = p.value.copy()
    step = None
    for t in range(1, 400):
        p.grad[:] = 3.7
        adam_step([p], lr=lr, t=t)
        step = abs(p.value[0] - prev[0])
        prev = p.value.copy()
    assert step == pytest.approx(lr, rel=1e-3)


def test_adam_lr_zero_bitwise_identical():
    rng = np.random.default_rng(13)
    p = Parameter("p", rng.normal(size=(4, 4)))
    before = p.value.tobytes()
    for t in range(1, 5):
        p.grad = rng.normal(size=(4, 4))
        adam_step([p], lr=0.0, t=t)
    assert p.value.tobytes() == before


def test_adam_matches_its_expressions_bit_for_bit_in_place():
    """Three steps from random moments against the update written as
    expressions: value, m and v keep every bit, and the moments are updated
    in their own arrays. lr is not a power of two, so reordering the step's
    multiply and divide would change bits."""
    rng = np.random.default_rng(15)
    shapes = [(8, 16), (33,), (4, 5, 6)]
    params = [Parameter(f"p{k}", rng.normal(size=s)) for k, s in enumerate(shapes)]
    for p in params:
        p.m[...] = rng.normal(size=p.m.shape)
        p.v[...] = rng.uniform(size=p.v.shape)
    moments = [(p.m, p.v) for p in params]
    oracle = [(p.value.copy(), p.m.copy(), p.v.copy()) for p in params]
    lr, b1, b2, eps = 0.3, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        for p in params:
            p.grad = rng.normal(size=p.value.shape)
        adam_step(params, lr=lr, beta1=b1, beta2=b2, eps=eps, t=t)
        for k, p in enumerate(params):
            value, m, v = oracle[k]
            g = p.grad
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            value = value - lr * m_hat / (np.sqrt(v_hat) + eps)
            oracle[k] = value, m, v
            np.testing.assert_array_equal(p.value, value)
            np.testing.assert_array_equal(p.m, m)
            np.testing.assert_array_equal(p.v, v)
            assert p.m is moments[k][0] and p.v is moments[k][1]


def test_adam_rejects_zero_step_count():
    with pytest.raises(ValueError):
        adam_step([], t=0)


# ---------------------------------------------------------------------------
# Parameter state
# ---------------------------------------------------------------------------

def test_parameter_holds_no_state_until_read():
    p = Parameter("p", np.ones((2, 3)))
    assert set(vars(p)) == {"name", "value"}
    assert p.m.shape == (2, 3) and not p.m.any()
    assert set(vars(p)) == {"name", "value", "m"}


def test_parameter_grad_accumulates_from_fresh_zeros():
    d = np.random.default_rng(16).normal(size=(4, 5))
    p = Parameter("p", np.zeros((4, 5)))
    p.grad += d
    assert p.grad.tobytes() == d.tobytes()


def test_parameter_drop_state_frees_then_rezeroes():
    p = Parameter("p", np.ones(3))
    p.grad += 1.0
    adam_step([p], lr=0.1, t=1)
    p.drop_state()
    assert set(vars(p)) == {"name", "value"}
    assert not p.grad.any() and not p.m.any() and not p.v.any()


def test_parameter_other_names_raise_and_copies_work():
    p = Parameter("p", np.arange(3.0))
    assert not hasattr(p, "velocity")
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q.name == "p" and q.value.tobytes() == p.value.tobytes()
        assert set(vars(q)) == {"name", "value"}


def test_adam_on_fresh_state_equals_explicit_zero_moments():
    rng = np.random.default_rng(17)
    shapes = [(8, 16), (33,), (4, 5, 6)]
    values = [rng.normal(size=s) for s in shapes]
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(3)]
    fresh = [Parameter(f"p{k}", v) for k, v in enumerate(values)]
    explicit = [Parameter(f"p{k}", v) for k, v in enumerate(values)]
    for p in explicit:
        p.grad, p.m, p.v = (np.zeros_like(p.value) for _ in range(3))
    for t, step in enumerate(grads, start=1):
        for params in (fresh, explicit):
            for p, g in zip(params, step):
                p.zero_grad()
                p.grad += g
            adam_step(params, lr=0.3, t=t)
    for a, b in zip(fresh, explicit):
        for attr in ("value", "m", "v"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()


# ---------------------------------------------------------------------------
# grad_check harness
# ---------------------------------------------------------------------------

def test_grad_check_detects_corrupted_backward():
    rng = np.random.default_rng(14)
    w = Parameter("w", rng.normal(size=(3, 2)))
    x = rng.normal(size=(2, 3))
    proj = rng.normal(size=(2, 2))

    def corrupted_loss_fn():
        out, cache = dense_forward(x, w.value, np.zeros(2))
        _, dw, _ = dense_backward(proj, cache)
        w.grad += 2.0 * dw  # deliberate corruption
        return float((out * proj).sum())

    report = grad_check(corrupted_loss_fn, [w])
    assert report.max_rel_err > 0.3


def test_grad_check_empty_parameter_list():
    report = grad_check(lambda: 1.0, [])
    assert report == GradCheckReport(per_param={}, max_rel_err=0.0, worst_param=None)


def test_grad_check_rejects_non_finite_loss():
    with pytest.raises(ValueError):
        grad_check(lambda: float("nan"), [])
