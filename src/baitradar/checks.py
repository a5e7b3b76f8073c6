"""Finite-difference verification suite covering every layer and the fused
pipeline at small seeded shapes. Run via ``baitradar grad-check`` or the test
suite; each fragment wraps its inputs as parameters so input gradients are
probed along with the weights.
"""

from __future__ import annotations

import numpy as np

from . import encoders, fusion, nncore, textpipe
from .corpus import StatsFeatures, ThumbnailImage, VideoRecord
from .encoders import EncoderConfig, StatsNormalizer
from .modalities import MODALITIES, ModalityMask
from .model import BaitRadarModel, featurize_record
from .nncore import GradCheckReport, Parameter, grad_check

DEFAULT_TOLERANCE = 1e-4


def _param(rng, name, shape, scale=0.6):
    return Parameter(name, rng.uniform(-scale, scale, size=shape))


def check_dense(seed: int = 101) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _param(rng, "x", (2, 3))
    w = _param(rng, "w", (3, 2))
    b = _param(rng, "b", (2,))
    weights = rng.normal(size=(2, 2))

    def loss_fn():
        out, cache = nncore.dense_forward(x.value, w.value, b.value)
        dx, dw, db = nncore.dense_backward(weights, cache)
        x.grad += dx
        w.grad += dw
        b.grad += db
        return float((out * weights).sum())

    return grad_check(loss_fn, [x, w, b])


def check_embedding(seed: int = 102) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    table = _param(rng, "table", (5, 3))
    ids = np.array([[2, 1, 0], [4, 4, 1]])
    weights = rng.normal(size=(2, 3, 3))

    def loss_fn():
        out, cache = nncore.embedding_forward(ids, table.value)
        table.grad += nncore.embedding_backward(weights, cache, 5)
        return float((out * weights).sum())

    return grad_check(loss_fn, [table])


def check_lstm(seed: int = 103) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    hidden = 3
    # unsorted lengths with a zero row, so the length sort is checked too
    lengths = np.array([2, 4, 0])
    x = _param(rng, "x", (3, 4, 3))
    wx = _param(rng, "wx", (3, 4 * hidden))
    wh = _param(rng, "wh", (hidden, 4 * hidden))
    b = _param(rng, "b", (4 * hidden,))
    weights = rng.normal(size=(3, hidden))

    def loss_fn():
        h, cache = nncore.lstm_forward(x.value, wx.value, wh.value, b.value, lengths)
        dx, dwx, dwh, db = nncore.lstm_backward(weights, cache)
        x.grad += dx
        wx.grad += dwx
        wh.grad += dwh
        b.grad += db
        return float((h * weights).sum())

    return grad_check(loss_fn, [x, wx, wh, b])


def check_conv_relu_pool(seed: int = 104) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _param(rng, "x", (2, 2, 6, 6))
    kernels = _param(rng, "kernels", (3, 2, 3, 3))
    bias = _param(rng, "bias", (3,))
    weights = rng.normal(size=(2, 3, 2, 2))

    def loss_fn():
        c, c_cache = nncore.conv2d_forward(x.value, kernels.value, bias.value)
        r, r_cache = nncore.relu_forward(c)
        p, p_cache = nncore.max_pool2d_forward(r, 2)
        d_p = weights
        d_r = nncore.max_pool2d_backward(d_p, p_cache)
        d_c = nncore.relu_backward(d_r, r_cache)
        dx, dk, db = nncore.conv2d_backward(d_c, c_cache)
        x.grad += dx
        kernels.grad += dk
        bias.grad += db
        return float((p * weights).sum())

    return grad_check(loss_fn, [x, kernels, bias])


def check_fusion_head(seed: int = 105) -> GradCheckReport:
    """Masked average of four present vectors into the mlp head and the
    cross-entropy loss."""
    rng = np.random.default_rng(seed)
    dim = 5
    mask = ModalityMask(title=True, thumbnail=True, comments=False,
                        audio_transcript=True, tags=False, statistics=True)
    vecs = {m: _param(rng, m, (2, dim)) for m in mask.names()}
    head_values = fusion.init_head_params(dim, 4, "mlp", rng)
    head = {n: Parameter(n, v) for n, v in head_values.items()}
    labels = np.array([1.0, 0.0])
    present = {m: np.array([True, True]) for m in mask.names()}

    def loss_fn():
        outputs = {m: vecs[m].value for m in vecs}
        fused, n = fusion.fuse_batch(outputs, present)
        probs, cache = fusion.head_forward(fused, head, "mlp")
        loss = nncore.binary_cross_entropy(probs, labels)
        d_fused = fusion.head_backward(
            nncore.binary_cross_entropy_grad(probs, labels), cache, head
        )
        d_per = fusion.fuse_batch_backward(d_fused, present, n)
        for m in vecs:
            vecs[m].grad += d_per[m]
        return loss

    return grad_check(loss_fn, list(vecs.values()) + list(head.values()))


_TINY = EncoderConfig(fusion_dim=4, embed_dim=3, conv_channels=(2, 3), conv_kernel=3,
                      pool_size=2, thumb_size=12, stats_hidden=4, head_hidden=4)


def check_text_encoder(seed: int = 106) -> GradCheckReport:
    """Embedding -> LSTM end to end, with padded rows."""
    rng = np.random.default_rng(seed)
    values = encoders.init_text_params("title", 6, _TINY, rng)
    params = {n: Parameter(n, v) for n, v in values.items()}
    ids = np.array([[3, 1, 5, 0], [2, 2, 0, 0]])
    lengths = np.array([3, 2])
    weights = rng.normal(size=(2, _TINY.fusion_dim))

    def loss_fn():
        h, cache = encoders.encode_text_forward("title", ids, lengths, params)
        encoders.encode_text_backward(weights, cache, params)
        return float((h * weights).sum())

    return grad_check(loss_fn, params.values())


def check_thumbnail_encoder(seed: int = 107) -> GradCheckReport:
    """conv -> relu -> pool -> conv -> relu -> pool -> dense end to end."""
    rng = np.random.default_rng(seed)
    values = encoders.init_thumbnail_params(_TINY, rng)
    params = {n: Parameter(n, v) for n, v in values.items()}
    px = rng.uniform(0.0, 1.0, size=(2, 3, _TINY.thumb_size, _TINY.thumb_size))
    weights = rng.normal(size=(2, _TINY.fusion_dim))

    def loss_fn():
        out, cache = encoders.encode_thumbnail_forward(px, params, _TINY)
        encoders.encode_thumbnail_backward(weights, cache, params)
        return float((out * weights).sum())

    return grad_check(loss_fn, params.values())


def check_stats_encoder(seed: int = 108) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    values = encoders.init_stats_params(_TINY, rng)
    params = {n: Parameter(n, v) for n, v in values.items()}
    z = rng.normal(size=(3, 5))
    weights = rng.normal(size=(3, _TINY.fusion_dim))

    def loss_fn():
        out, cache = encoders.encode_stats_forward(z, params)
        encoders.encode_stats_backward(weights, cache, params)
        return float((out * weights).sum())

    return grad_check(loss_fn, params.values())


def check_whole_model(seed: int = 109) -> GradCheckReport:
    """Every parameter of a six-modality model through featurization, the
    per-modality row scatter, the fusion average, the head and the loss, on
    three complete records fused under a different mask each.

    The step is 1e-4 rather than 1e-5: some LSTM gradient entries are near
    1e-8, where the relative error's floor turns rounding noise of about
    1e-11 into a failure. Larger steps cross ReLU and max-pool kinks more
    often; at 1e-4 the default seed stays clear of them.
    """
    rng = np.random.default_rng(seed)
    texts = (
        ("you will not believe", ["shocking", "viral", "wow"], ["so fake", "wow wow"],
         "today we try the thing"),
        ("quarterly market report", ["finance", "news", "report"], ["useful summary", "thanks"],
         "the market fell today"),
        ("this trick changed everything", ["trick", "hack", "viral", "wow"], ["fake", "nice one"],
         "watch until the end"),
    )
    size = _TINY.thumb_size
    records = [
        VideoRecord(
            id=f"r{i}", channel_id="c", title=title, tags=tags, comments=comments,
            transcript=transcript,
            stats=StatsFeatures(*(int(v) for v in rng.integers(1, 10**6, size=5))),
            thumbnail_path=f"r{i}.ppm", label="clickbait" if i != 1 else "non_clickbait",
            thumbnail_image=ThumbnailImage(
                size, size, rng.integers(0, 256, size * size * 3, dtype=np.uint8).tobytes()
            ),
        )
        for i, (title, tags, comments, transcript) in enumerate(texts)
    ]
    vocab = textpipe.build_vocab(textpipe.training_texts(records), min_freq=1)
    norm = StatsNormalizer().fit(records)
    model = BaitRadarModel.build(MODALITIES, vocab, norm, _TINY, seed=seed)
    feats = [featurize_record(r, vocab, norm, _TINY) for r in records]
    masks = [
        ModalityMask.from_names(["title", "thumbnail", "statistics"]),
        ModalityMask.from_names(["title", "comments", "audio_transcript", "tags"]),
        ModalityMask.all(),
    ]
    labels = np.array([f.label for f in feats])

    def loss_fn():
        probs, cache = model.forward_features(feats, masks)
        model.backward(nncore.binary_cross_entropy_grad(probs, labels), cache)
        return nncore.binary_cross_entropy(probs, labels)

    return grad_check(loss_fn, model.parameters(), h=1e-4)


ALL_CHECKS = (
    ("dense", check_dense),
    ("embedding", check_embedding),
    ("lstm", check_lstm),
    ("conv_relu_pool", check_conv_relu_pool),
    ("fusion_head", check_fusion_head),
    ("text_encoder", check_text_encoder),
    ("thumbnail_encoder", check_thumbnail_encoder),
    ("stats_encoder", check_stats_encoder),
    ("whole_model", check_whole_model),
)


def run_gradient_checks() -> list[tuple[str, GradCheckReport]]:
    """Every fragment's finite-difference report, in a fixed order."""
    return [(name, fn()) for name, fn in ALL_CHECKS]
