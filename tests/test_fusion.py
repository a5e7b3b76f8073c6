import numpy as np
import pytest

from baitradar import nncore
from baitradar.fusion import (
    FusionError,
    decide_label,
    fuse_batch,
    fuse_batch_backward,
    head_forward,
    init_head_params,
)
from baitradar.modalities import MODALITIES
from baitradar.nncore import Parameter


def fuse_rows(vecs):
    """fuse_batch on a one-row batch with every supplied vector present."""
    dim = len(next(iter(vecs.values())))
    fused, n = fuse_batch({m: (np.array([0]), np.asarray(v)[None]) for m, v in vecs.items()},
                          1, dim)
    return fused[0], n[0]


def test_fuse_six_identical_vectors_is_identity():
    v = np.array([1.0, -2.0, 3.5])
    fused, n = fuse_rows({m: v for m in MODALITIES})
    np.testing.assert_allclose(fused, v, atol=1e-15)
    assert n == 6


def test_fuse_single_modality_is_passthrough():
    v = np.array([0.25, 0.5])
    fused, n = fuse_rows({"title": v})
    np.testing.assert_array_equal(fused, v)
    assert n == 1


def test_fuse_two_vectors_arithmetic():
    fused, _ = fuse_rows({"title": np.array([1.0, 0.0]), "tags": np.array([0.0, 1.0])})
    np.testing.assert_array_equal(fused, [0.5, 0.5])


def test_fuse_empty_mask_rejected():
    with pytest.raises(FusionError):
        fuse_batch({}, 1, 2)


def test_fuse_is_linear_in_scaling():
    rng = np.random.default_rng(1)
    vecs = {m: rng.normal(size=5) for m in ("title", "thumbnail", "statistics")}
    base, _ = fuse_rows(vecs)
    for c in (-2.0, 0.5, 3.0):
        scaled, _ = fuse_rows({m: c * v for m, v in vecs.items()})
        np.testing.assert_allclose(scaled, c * base, atol=1e-12)


def test_fuse_batch_matches_sum_divide_oracle():
    rng = np.random.default_rng(2)
    names = ["title", "comments", "tags", "statistics"]
    outputs = {m: rng.normal(size=(6, 3)) for m in names}
    present = {m: rng.random(6) < 0.7 for m in names}
    for i in range(6):
        if not any(present[m][i] for m in names):
            present[names[0]][i] = True
    rows = {m: np.flatnonzero(present[m]) for m in names}
    fused, n = fuse_batch({m: (rows[m], outputs[m][rows[m]]) for m in names}, 6, 3)
    for i in range(6):
        total = np.zeros(3)
        count = 0
        for m in names:
            if present[m][i]:
                total = total + outputs[m][i]
                count += 1
        np.testing.assert_allclose(fused[i], total / count, atol=1e-15)
        assert n[i] == count


def test_fuse_batch_backward_splits_gradient():
    rows = {"title": np.array([0, 1]), "tags": np.array([0])}
    _, n = fuse_batch({m: (r, np.ones((len(r), 2))) for m, r in rows.items()}, 2, 2)
    grads = fuse_batch_backward(np.ones((2, 2)), rows, n)
    np.testing.assert_array_equal(grads["title"], [[0.5, 0.5], [1.0, 1.0]])
    np.testing.assert_array_equal(grads["tags"], [[0.5, 0.5]])


def test_fuse_batch_rejects_empty_rows():
    with pytest.raises(FusionError):
        fuse_batch({"title": (np.array([0]), np.ones((1, 2)))}, 2, 2)


# ---------------------------------------------------------------------------
# classification head
# ---------------------------------------------------------------------------

def zero_head(dim, hidden, arch="mlp", prefix="head"):
    values = init_head_params(dim, hidden, arch, np.random.default_rng(0), prefix)
    return {n: Parameter(n, np.zeros_like(v)) for n, v in values.items()}


def test_zero_head_zero_input_gives_half_and_clickbait_tie():
    params = zero_head(4, 3)
    probs, _ = head_forward(np.zeros((1, 4)), params, "mlp")
    assert probs[0] == 0.5
    assert decide_label(probs[0]) == "clickbait"


def test_head_probability_monotone_in_logit():
    rng = np.random.default_rng(3)
    params = {n: Parameter(n, v) for n, v in init_head_params(4, 3, "mlp", rng).items()}
    x = rng.normal(size=(1, 4))
    probs = []
    for bias_shift in (-2.0, 0.0, 2.0):
        params["head.dense2.b"].value = np.array([bias_shift])
        p, _ = head_forward(x, params, "mlp")
        probs.append(p[0])
    assert probs[0] < probs[1] < probs[2]


def test_head_matches_layer_by_layer_composition():
    rng = np.random.default_rng(4)
    values = init_head_params(5, 4, "mlp", rng)
    params = {n: Parameter(n, v) for n, v in values.items()}
    x = rng.normal(size=(3, 5))
    probs, _ = head_forward(x, params, "mlp")

    h1, _ = nncore.dense_forward(x, values["head.dense1.w"], values["head.dense1.b"])
    r1, _ = nncore.relu_forward(h1)
    logit, _ = nncore.dense_forward(r1, values["head.dense2.w"], values["head.dense2.b"])
    expected = nncore.sigmoid(logit[:, 0])
    np.testing.assert_allclose(probs, expected, atol=1e-15)


def test_linear_head_uses_prefixed_parameters():
    rng = np.random.default_rng(5)
    values = init_head_params(4, 0, "linear", rng, prefix="tags.head")
    params = {n: Parameter(n, v) for n, v in values.items()}
    x = rng.normal(size=(2, 4))
    probs, _ = head_forward(x, params, "linear", prefix="tags.head")
    expected = nncore.sigmoid(x @ values["tags.head.w"][:, 0] + values["tags.head.b"][0])
    np.testing.assert_allclose(probs, expected, atol=1e-15)


def test_head_rejects_unknown_arch():
    with pytest.raises(ValueError):
        head_forward(np.zeros((1, 2)), {}, "transformer")


def test_decide_label_threshold():
    assert decide_label(0.4999) == "non_clickbait"
    assert decide_label(0.5) == "clickbait"
    assert decide_label(0.9) == "clickbait"
