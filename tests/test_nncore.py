"""Layer-level checks against independent oracles: plain-loop matrix
multiplication, naive quadruple-loop convolution, a step-by-step scalar LSTM
recurrence, closed-form Adam updates, and central finite differences."""

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

def test_lstm_zero_params_zero_hidden():
    x = np.random.default_rng(0).normal(size=(2, 3, 4))
    h, _ = lstm_forward(x, np.zeros((4, 8)), np.zeros((2, 8)), np.zeros(8), np.array([3, 3]))
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
    x = np.array(xs).reshape(1, 2, 1)
    h, _ = lstm_forward(x, wx.reshape(1, 4), wh.reshape(1, 4), b, np.array([2]))
    np.testing.assert_allclose(h[0, 0], expected, atol=1e-12, rtol=0)


def test_lstm_padding_content_irrelevant():
    rng = np.random.default_rng(3)
    wx, wh, b = rng.normal(size=(2, 12)), rng.normal(size=(3, 12)), rng.normal(size=12)
    x = rng.normal(size=(2, 5, 2))
    lengths = np.array([3, 2])
    h1, _ = lstm_forward(x, wx, wh, b, lengths)
    x2 = x.copy()
    x2[0, 3:] = 99.0
    x2[1, 2:] = -99.0
    h2, _ = lstm_forward(x2, wx, wh, b, lengths)
    np.testing.assert_array_equal(h1, h2)


def test_lstm_zero_length_row_gives_zero_vector():
    rng = np.random.default_rng(4)
    h, _ = lstm_forward(
        rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 8)), rng.normal(size=(2, 8)),
        rng.normal(size=8), np.array([0, 3]),
    )
    np.testing.assert_array_equal(h[0], np.zeros(2))
    assert (h[1] != 0).any()


def test_lstm_rows_match_each_row_run_alone():
    """Length sorting must not mix rows: each row of a batch with shuffled,
    tied and zero lengths equals that row run alone, unpadded."""
    rng = np.random.default_rng(6)
    wx, wh, b = rng.normal(size=(3, 16)), rng.normal(size=(4, 16)), rng.normal(size=16)
    lengths = np.array([3, 0, 7, 3, 1, 7, 5])
    x = rng.normal(size=(lengths.size, 9, 3))
    h, _ = lstm_forward(x, wx, wh, b, lengths)
    for r, n in enumerate(lengths):
        alone, _ = lstm_forward(x[r : r + 1, :n], wx, wh, b, np.array([n]))
        np.testing.assert_allclose(h[r], alone[0], atol=1e-12, rtol=0)
    np.testing.assert_array_equal(h[1], np.zeros(4))


@pytest.mark.parametrize("lengths", [[4, 2], [2, 4, 0, 3]], ids=["sorted", "unsorted"])
def test_lstm_gradients_match_finite_differences(lengths):
    rng = np.random.default_rng(5)
    hidden = 3
    lengths = np.array(lengths)
    batch = lengths.size
    x = Parameter("x", rng.normal(size=(batch, 4, 2)) * 0.7)
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
    with pytest.raises(nncore.ShapeError):
        lstm_forward(np.zeros((1, 2, 3)), np.zeros((4, 8)), np.zeros((2, 8)),
                     np.zeros(8), np.array([2]))
    with pytest.raises(nncore.ShapeError):
        lstm_forward(np.zeros((1, 2, 3)), np.zeros((3, 8)), np.zeros((2, 8)),
                     np.zeros(8), np.array([5]))


# ---------------------------------------------------------------------------
# conv / pool / relu
# ---------------------------------------------------------------------------

def naive_conv_oracle(x, kernels, bias, stride=1):
    batch, chans, height, width = x.shape
    n_k, _, kh, kw = kernels.shape
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    out = np.zeros((batch, n_k, out_h, out_w))
    for n in range(batch):
        for k in range(n_k):
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for c in range(chans):
                        for a in range(kh):
                            for b_ in range(kw):
                                acc += x[n, c, i * stride + a, j * stride + b_] * kernels[k, c, a, b_]
                    out[n, k, i, j] = acc + bias[k]
    return out


def test_conv_identity_kernel():
    x = np.random.default_rng(8).normal(size=(1, 1, 4, 4))
    out, _ = conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1))
    np.testing.assert_array_equal(out, x)


def test_conv_all_ones_box():
    out, _ = conv2d_forward(np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3)), np.zeros(1))
    np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 9.0))


@pytest.mark.parametrize("shape,kshape,stride", [
    ((2, 3, 5, 6), (4, 3, 3, 3), 1),
    ((1, 2, 7, 7), (3, 2, 3, 3), 2),
    ((2, 1, 6, 4), (2, 1, 2, 2), 2),
])
def test_conv_matches_naive_oracle(shape, kshape, stride):
    rng = np.random.default_rng(hash((shape, kshape, stride)) % 2**32)
    x = rng.normal(size=shape)
    k = rng.normal(size=kshape)
    b = rng.normal(size=kshape[0])
    out, _ = conv2d_forward(x, k, b, stride=stride)
    np.testing.assert_allclose(out, naive_conv_oracle(x, k, b, stride), atol=1e-12, rtol=0)


def test_conv_backward_stride_two_matches_finite_differences():
    rng = np.random.default_rng(21)
    x = Parameter("x", rng.normal(size=(2, 2, 7, 8)))
    kernels = Parameter("kernels", rng.normal(size=(3, 2, 3, 3)))
    bias = Parameter("bias", rng.normal(size=3))
    proj = rng.normal(size=(2, 3, 3, 3))

    def loss_fn():
        out, cache = conv2d_forward(x.value, kernels.value, bias.value, stride=2)
        dx, dk, db = conv2d_backward(proj, cache)
        x.grad += dx
        kernels.grad += dk
        bias.grad += db
        return float((out * proj).sum())

    report = grad_check(loss_fn, [x, kernels, bias])
    assert report.max_rel_err <= 1e-4, report.per_param


def test_conv_backward_without_dx_keeps_weight_gradients():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 3, 9, 9))
    kernels = rng.normal(size=(4, 3, 3, 3))
    _, cache = conv2d_forward(x, kernels, rng.normal(size=4), stride=2)
    d_out = rng.normal(size=(2, 4, 4, 4))
    dx, dk, db = conv2d_backward(d_out, cache)
    none, dk_only, db_only = conv2d_backward(d_out, cache, need_dx=False)
    assert dx.shape == x.shape
    assert none is None
    np.testing.assert_array_equal(dk_only, dk)
    np.testing.assert_array_equal(db_only, db)


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


def max_pool_oracle(x, d_out, size, stride):
    """Window-by-window max pooling; the first maximum in row-major order
    takes the window's gradient, scattered with np.add.at."""
    out = np.zeros(d_out.shape)
    dx = np.zeros(x.shape)
    for idx in np.ndindex(*d_out.shape):
        n, c, i, j = idx
        window = x[n, c, i * stride : i * stride + size, j * stride : j * stride + size]
        a, b_ = divmod(int(window.argmax()), size)
        out[idx] = window[a, b_]
        np.add.at(dx, (n, c, i * stride + a, j * stride + b_), d_out[idx])
    return out, dx


def test_max_pool_overlapping_windows_accumulate():
    rng = np.random.default_rng(23)
    # integers make ties common; windows of 3 at stride 2 share a row/column
    x = rng.integers(0, 3, size=(2, 3, 9, 7)).astype(float)
    out, cache = max_pool2d_forward(x, size=3, stride=2)
    d_out = rng.normal(size=out.shape)
    expected_out, expected_dx = max_pool_oracle(x, d_out, 3, 2)
    np.testing.assert_array_equal(out, expected_out)
    np.testing.assert_allclose(max_pool2d_backward(d_out, cache), expected_dx,
                               atol=1e-12, rtol=0)


def test_relu_clamps_and_gates():
    x = np.array([-1.0, 0.0, 2.0])
    out, cache = relu_forward(x)
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(nncore.relu_backward(np.ones(3), cache), [0.0, 0.0, 1.0])


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


def test_adam_rejects_zero_step_count():
    with pytest.raises(ValueError):
        adam_step([], t=0)


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
