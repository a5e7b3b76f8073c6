"""The six per-modality sub-networks. Each maps one payload to a vector of
the shared fusion dimension d: the four text modalities run an embedding into
an LSTM whose final hidden state has size d; the thumbnail runs a small conv
stack ending in a dense layer of width d; statistics run log1p + frozen
z-score into a two-layer dense net ending at d. ``ENCODERS`` maps each
modality to its kind, so callers need not branch on kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import nncore, textpipe
from .corpus import STATS_FIELDS, ThumbnailImage, check_fields, load_ppm
from .modalities import TEXT_MODALITIES


class ConfigError(ValueError):
    """An encoder configuration field of the wrong type or out of range."""


@dataclass(frozen=True)
class EncoderConfig:
    fusion_dim: int = 64
    embed_dim: int = 32
    conv_channels: tuple[int, int] = (8, 16)
    conv_kernel: int = 5
    pool_size: int = 2
    thumb_size: int = 64
    stats_hidden: int = 32
    head_hidden: int = 32

    def __post_init__(self):
        check_fields(self, ConfigError, [f.name for f in fields(self)], "encoder ")
        # the side only shrinks, so a final side of at least 1 means that
        # every conv output held a pooling window
        if self.conv_flat_dim() < 1:
            raise ConfigError(f"encoder field 'thumb_size' {self.thumb_size} is too small for "
                              f"conv_kernel {self.conv_kernel} and pool_size {self.pool_size}")

    def conv_flat_dim(self) -> int:
        """Flattened size after conv->pool->conv->pool on the square input,
        or 0 when the input is too small for that stack."""
        s = self.thumb_size
        for _ in self.conv_channels:
            s = (s - self.conv_kernel + 1) // self.pool_size
        return self.conv_channels[-1] * max(s, 0) ** 2


class NormalizationError(ValueError):
    """Statistics normalization used before fitting."""


@dataclass
class StatsNormalizer:
    """Per-feature mean/std of log1p(stats) over the training split, frozen
    after fitting."""

    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.mean is not None

    def fit(self, records) -> "StatsNormalizer":
        rows = [np.log1p(r.stats.as_array()) for r in records if r.stats is not None]
        if not rows:
            raise NormalizationError("no statistics present in the fitting records")
        data = np.stack(rows)
        self.mean = data.mean(axis=0)
        self.std = np.maximum(data.std(axis=0), 1e-6)
        return self

    def transform(self, stats) -> np.ndarray:
        if not self.fitted:
            raise NormalizationError("statistics normalization has not been fitted")
        return (np.log1p(stats.as_array()) - self.mean) / self.std

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.fitted:
            return np.zeros(0), np.zeros(0)
        return self.mean, self.std

    @classmethod
    def from_arrays(cls, mean, std) -> "StatsNormalizer":
        mean, std = np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)
        if mean.size == 0:
            return cls()
        if mean.shape != (len(STATS_FIELDS),) or std.shape != mean.shape:
            raise NormalizationError(f"normalization arrays must have shape ({len(STATS_FIELDS)},)")
        return cls(mean=mean.copy(), std=std.copy())


def prepare_thumbnail(img: ThumbnailImage, size: int = 64) -> np.ndarray:
    """Nearest-neighbor resize to size x size, channels-first uint8. An image
    already size x size needs no resize: its payload is a read-only view of
    the image's own bytes. Any other size is copied into a new array."""
    px = img.as_array()
    if img.height == img.width == size:
        return px.transpose(2, 0, 1)
    rows = (np.arange(size) * img.height) // size
    cols = (np.arange(size) * img.width) // size
    return px[rows][:, cols].transpose(2, 0, 1).copy()


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------

# layer names, which are also the parameter name prefixes
_THUMBNAIL_CONVS = ("thumbnail.conv1", "thumbnail.conv2")
_THUMBNAIL_DENSE = ("thumbnail.dense",)
_STATS_LAYERS = ("statistics.dense1", "statistics.dense2")


def init_text_params(modality: str, vocab_size: int, cfg: EncoderConfig,
                     rng: np.random.Generator) -> dict[str, np.ndarray]:
    e, h = cfg.embed_dim, cfg.fusion_dim
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0  # forget-gate bias at 1 keeps early memory open
    return {
        f"{modality}.embedding.table": nncore.glorot_uniform(rng, (vocab_size, e), vocab_size, e),
        f"{modality}.lstm.wx": nncore.glorot_uniform(rng, (e, 4 * h), e, 4 * h),
        f"{modality}.lstm.wh": nncore.glorot_uniform(rng, (h, 4 * h), h, 4 * h),
        f"{modality}.lstm.b": b,
    }


def init_thumbnail_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    k, c_in = cfg.conv_kernel, 3
    values = {}
    for conv, c_out in zip(_THUMBNAIL_CONVS, cfg.conv_channels):
        values[f"{conv}.kernels"] = nncore.glorot_uniform(
            rng, (c_out, c_in, k, k), c_in * k * k, c_out * k * k)
        values[f"{conv}.bias"] = np.zeros(c_out)
        c_in = c_out
    values.update(nncore.init_dense_stack(
        rng, _THUMBNAIL_DENSE, (cfg.conv_flat_dim(), cfg.fusion_dim)))
    return values


def init_stats_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return nncore.init_dense_stack(
        rng, _STATS_LAYERS, (len(STATS_FIELDS), cfg.stats_hidden, cfg.fusion_dim))


# ---------------------------------------------------------------------------
# batched forward/backward per modality
# ---------------------------------------------------------------------------

def encode_text_forward(modality: str, payloads, params):
    """B payloads of token ids -> embedding -> LSTM final hidden [B,d]. The
    batch runs as the payloads concatenated in row order: sum(lengths) ids."""
    lengths = np.array([len(ids) for ids in payloads], dtype=np.int64)
    table = params[f"{modality}.embedding.table"]
    emb, ids = nncore.embedding_forward(np.concatenate(payloads), table.value)
    h, lstm_cache = nncore.lstm_forward(
        emb,
        params[f"{modality}.lstm.wx"].value,
        params[f"{modality}.lstm.wh"].value,
        params[f"{modality}.lstm.b"].value,
        lengths,
    )
    return h, (modality, ids, lstm_cache, table.value.shape[0])


def encode_text_backward(d_h, cache, params):
    modality, ids, lstm_cache, vocab_size = cache
    d_emb, d_wx, d_wh, d_b = nncore.lstm_backward(d_h, lstm_cache)
    params[f"{modality}.lstm.wx"].grad += d_wx
    params[f"{modality}.lstm.wh"].grad += d_wh
    params[f"{modality}.lstm.b"].grad += d_b
    params[f"{modality}.embedding.table"].grad += nncore.embedding_backward(
        d_emb, ids, vocab_size)


def encode_thumbnail_forward(pixels, params, cfg: EncoderConfig):
    """pixels[B,3,S,S] scaled to [0,1] -> conv/pool/relu x2 -> dense to d.

    Each conv max-pools its output itself, image by image. Max-pooling before
    ReLU gives exactly relu(conv) pooled, as both are monotone, and ReLU then
    runs on the pooled quarter of the tensor."""
    x, conv_caches = pixels, []
    for conv in _THUMBNAIL_CONVS:
        x, conv_cache = nncore.conv2d_forward(
            x, params[f"{conv}.kernels"].value, params[f"{conv}.bias"].value,
            pool=cfg.pool_size)
        x, relu_cache = nncore.relu_forward(x)
        conv_caches.append((conv, conv_cache, relu_cache))
    out, dense_cache = nncore.dense_stack_forward(
        x.reshape(x.shape[0], -1), params, _THUMBNAIL_DENSE)
    return out, (conv_caches, x.shape, dense_cache)


def encode_thumbnail_backward(d_out, cache, params):
    conv_caches, pooled_shape, dense_cache = cache
    d_x = nncore.dense_stack_backward(d_out, dense_cache, params).reshape(pooled_shape)
    for k in reversed(range(len(conv_caches))):
        conv, conv_cache, relu_cache = conv_caches[k]
        d_x = nncore.relu_backward(d_x, relu_cache)
        # the first layer's input is raw pixels, so it needs no input grad
        d_x, d_kernels, d_bias = nncore.conv2d_backward(d_x, conv_cache, need_dx=k > 0)
        params[f"{conv}.kernels"].grad += d_kernels
        params[f"{conv}.bias"].grad += d_bias


def encode_stats_forward(z, params):
    """z[B,5] (already log1p + z-scored) -> dense -> relu -> dense to d."""
    return nncore.dense_stack_forward(z, params, _STATS_LAYERS)


def encode_stats_backward(d_out, cache, params):
    nncore.dense_stack_backward(d_out, cache, params)


# ---------------------------------------------------------------------------
# the table of encoder kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderKind:
    """One kind of sub-network, each callable taking the modality name m:
    init(m, vocab_size, cfg, rng) -> {parameter name: initial value};
    featurize(record, m, vocab, stats_norm, cfg, base_dir) -> one record's
    payload: a text's kept token ids (int64, unpadded), a thumbnail's uint8
    [3,S,S] pixels, or the normalized statistics;
    forward(m, payloads, params, cfg) -> (out [B,d], cache), where the text
    kind runs its payloads concatenated in row order;
    backward(d_out, cache, params) accumulates the parameter grads.
    Entries call the functions above by global name at call time, so that
    rebinding those module attributes (as an external tracer does) is seen.
    """

    init: Callable
    featurize: Callable
    forward: Callable
    backward: Callable


def _thumbnail_payload(record, m, vocab, stats_norm, cfg, base_dir):
    img = record.thumbnail_image
    if img is None:  # a relative path resolves against base_dir
        path = Path(record.thumbnail_path)
        if not path.is_absolute() and base_dir is not None:
            path = Path(base_dir) / path
        img = load_ppm(path)
    return prepare_thumbnail(img, cfg.thumb_size)  # uint8 [3,S,S]


ENCODERS: dict[str, EncoderKind] = {
    **dict.fromkeys(TEXT_MODALITIES, EncoderKind(
        init=lambda m, vocab_size, cfg, rng: init_text_params(m, vocab_size, cfg, rng),
        featurize=lambda record, m, vocab, norm, cfg, base_dir: textpipe.encode_modality(
            record, m, vocab),
        forward=lambda m, payloads, params, cfg: encode_text_forward(m, payloads, params),
        backward=lambda d_out, cache, params: encode_text_backward(d_out, cache, params),
    )),
    "thumbnail": EncoderKind(
        init=lambda m, vocab_size, cfg, rng: init_thumbnail_params(cfg, rng),
        featurize=_thumbnail_payload,
        forward=lambda m, payloads, params, cfg: encode_thumbnail_forward(
            np.divide(np.stack(payloads), 255.0, dtype=np.float64), params, cfg),
        backward=lambda d_out, cache, params: encode_thumbnail_backward(d_out, cache, params),
    ),
    "statistics": EncoderKind(
        init=lambda m, vocab_size, cfg, rng: init_stats_params(cfg, rng),
        featurize=lambda record, m, vocab, norm, cfg, base_dir: norm.transform(record.stats),
        forward=lambda m, payloads, params, cfg: encode_stats_forward(np.stack(payloads), params),
        backward=lambda d_out, cache, params: encode_stats_backward(d_out, cache, params),
    ),
}
