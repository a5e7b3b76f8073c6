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


def _params(values) -> dict[str, Parameter]:
    return {n: Parameter(n, v) for n, v in values.items()}


def _probe(params, weights, run) -> GradCheckReport:
    """Finite-difference check of ``params`` under the loss sum(out * weights),
    where ``out = run(weights)`` runs the fragment forward and backpropagates
    ``weights`` into each parameter's .grad."""
    return grad_check(lambda: float((run(weights) * weights).sum()), params)


def _add_grads(params, grads) -> None:
    for p, g in zip(params, grads):
        p.grad += g


def check_dense(seed: int = 101) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    params = [_param(rng, "x", (2, 3)), _param(rng, "w", (3, 2)), _param(rng, "b", (2,))]

    def run(weights):
        out, cache = nncore.dense_forward(*(p.value for p in params))
        _add_grads(params, nncore.dense_backward(weights, cache))
        return out

    return _probe(params, rng.normal(size=(2, 2)), run)


def check_embedding(seed: int = 102) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    table = _param(rng, "table", (5, 3))
    ids = np.array([[2, 1, 0], [4, 4, 1]])

    def run(weights):
        out, cache = nncore.embedding_forward(ids, table.value)
        table.grad += nncore.embedding_backward(weights, cache, 5)
        return out

    return _probe([table], rng.normal(size=(2, 3, 3)), run)


def check_lstm(seed: int = 103) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    hidden = 3
    # unsorted lengths with a zero row, so the length sort is checked too
    lengths = np.array([2, 4, 0])
    params = [_param(rng, "x", (lengths.sum(), 3)), _param(rng, "wx", (3, 4 * hidden)),
              _param(rng, "wh", (hidden, 4 * hidden)), _param(rng, "b", (4 * hidden,))]

    def run(weights):
        h, cache = nncore.lstm_forward(*(p.value for p in params), lengths)
        _add_grads(params, nncore.lstm_backward(weights, cache))
        return h

    return _probe(params, rng.normal(size=(3, hidden)), run)


def check_conv_pool_relu(seed: int = 104) -> GradCheckReport:
    """conv with max-pool -> relu, as the thumbnail encoder runs it."""
    rng = np.random.default_rng(seed)
    params = [_param(rng, "x", (2, 2, 6, 6)), _param(rng, "kernels", (3, 2, 3, 3)),
              _param(rng, "bias", (3,))]

    def run(weights):
        p, p_cache = nncore.conv2d_forward(*(p.value for p in params), pool=2)
        r, r_cache = nncore.relu_forward(p)
        d_p = nncore.relu_backward(weights, r_cache)
        _add_grads(params, nncore.conv2d_backward(d_p, p_cache))
        return r

    return _probe(params, rng.normal(size=(2, 3, 2, 2)), run)


def check_fusion_head(seed: int = 105, arch: str = "mlp") -> GradCheckReport:
    """Masked average of four present vectors into the ``arch`` head and the
    cross-entropy loss."""
    rng = np.random.default_rng(seed)
    dim = 5
    mask = ModalityMask(title=True, thumbnail=True, comments=False,
                        audio_transcript=True, tags=False, statistics=True)
    vecs = {m: _param(rng, m, (2, dim)) for m in mask.names()}
    head = _params(fusion.init_head_params(dim, 4, arch, rng))
    labels = np.array([1.0, 0.0])
    rows = {m: np.arange(2) for m in mask.names()}

    def loss_fn():
        fused, n = fusion.fuse_batch({m: (rows[m], vecs[m].value) for m in vecs}, 2, dim)
        probs, cache = fusion.head_forward(fused, head, arch)
        loss = nncore.binary_cross_entropy(probs, labels)
        d_fused = fusion.head_backward(
            nncore.binary_cross_entropy_grad(probs, labels), cache, head
        )
        d_per = fusion.fuse_batch_backward(d_fused, rows, n)
        for m in vecs:
            vecs[m].grad += d_per[m]
        return loss

    return grad_check(loss_fn, list(vecs.values()) + list(head.values()))


_TINY = EncoderConfig(fusion_dim=4, embed_dim=3, conv_channels=(2, 3), conv_kernel=3,
                      pool_size=2, thumb_size=12, stats_hidden=4, head_hidden=4)


def check_text_encoder(seed: int = 106) -> GradCheckReport:
    """Embedding -> LSTM end to end, on a batch of two payloads of unequal
    length."""
    rng = np.random.default_rng(seed)
    params = _params(encoders.init_text_params("title", 6, _TINY, rng))
    payloads = [np.array([3, 1, 5]), np.array([2, 2])]

    def run(weights):
        h, cache = encoders.encode_text_forward("title", payloads, params)
        encoders.encode_text_backward(weights, cache, params)
        return h

    return _probe(params.values(), rng.normal(size=(2, _TINY.fusion_dim)), run)


def check_thumbnail_encoder(seed: int = 107) -> GradCheckReport:
    """conv -> pool -> relu -> conv -> pool -> relu -> dense end to end."""
    rng = np.random.default_rng(seed)
    params = _params(encoders.init_thumbnail_params(_TINY, rng))
    px = rng.uniform(0.0, 1.0, size=(2, 3, _TINY.thumb_size, _TINY.thumb_size))

    def run(weights):
        out, cache = encoders.encode_thumbnail_forward(px, params, _TINY)
        encoders.encode_thumbnail_backward(weights, cache, params)
        return out

    return _probe(params.values(), rng.normal(size=(2, _TINY.fusion_dim)), run)


def check_stats_encoder(seed: int = 108) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    params = _params(encoders.init_stats_params(_TINY, rng))
    z = rng.normal(size=(3, 5))

    def run(weights):
        out, cache = encoders.encode_stats_forward(z, params)
        encoders.encode_stats_backward(weights, cache, params)
        return out

    return _probe(params.values(), rng.normal(size=(3, _TINY.fusion_dim)), run)


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

    def probe_fn():
        return nncore.binary_cross_entropy(model.forward_features(feats, masks)[0], labels)

    return grad_check(loss_fn, model.parameters(), h=1e-4, probe_fn=probe_fn)


ALL_CHECKS = (
    ("dense", check_dense),
    ("embedding", check_embedding),
    ("lstm", check_lstm),
    ("conv_pool_relu", check_conv_pool_relu),
    ("fusion_head", check_fusion_head),
    ("linear_head", lambda: check_fusion_head(arch="linear")),
    ("text_encoder", check_text_encoder),
    ("thumbnail_encoder", check_thumbnail_encoder),
    ("stats_encoder", check_stats_encoder),
    ("whole_model", check_whole_model),
)


def run_gradient_checks() -> list[tuple[str, GradCheckReport]]:
    """Every fragment's finite-difference report, in a fixed order."""
    return [(name, fn()) for name, fn in ALL_CHECKS]
