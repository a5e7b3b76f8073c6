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
from types import UnionType
from typing import Callable, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import nncore, textpipe
from .corpus import STATS_FIELDS, ThumbnailImage, load_ppm
from .modalities import TEXT_MODALITIES


class ConfigError(ValueError):
    """An encoder configuration field of the wrong type or out of range."""


def _fits(value, hint) -> bool:
    """Whether ``value`` can stand for a field annotated ``hint``: a list
    stands for a tuple, an int for a float, and a bool is not a number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        if args[-1] is Ellipsis and isinstance(value, (list, tuple)):
            args = args[:1] * len(value)
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_fits, value, args)))
    return isinstance(value, (int, float) if hint is float else hint) and not isinstance(value, bool)


def _check_fields(config, error: type[Exception], sizes, where: str = "") -> None:
    """Raise ``error`` unless each field of the frozen dataclass ``config`` has
    its annotated type (a list in a tuple field is stored as a tuple) and each
    one named in ``sizes`` is at least 1."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if not _fits(value, hints[f.name]):
            raise error(f"{where}field {f.name!r} must be {f.type}, got {value!r:.40}")
        if isinstance(value, list):
            value = tuple(value)
            object.__setattr__(config, f.name, value)
        if f.name in sizes and min(value if isinstance(value, tuple) else (value,)) < 1:
            raise error(f"{where}field {f.name!r} must be >= 1, got {value}")


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
        self.validate()

    def validate(self) -> None:
        _check_fields(self, ConfigError, [f.name for f in fields(self)], "encoder ")
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
    """Nearest-neighbor resize to size x size, channels-first uint8."""
    px = img.as_array()
    rows = (np.arange(size) * img.height) // size
    cols = (np.arange(size) * img.width) // size
    return px[rows][:, cols].transpose(2, 0, 1).copy()


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------

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
    k = cfg.conv_kernel
    c1, c2 = cfg.conv_channels
    flat = cfg.conv_flat_dim()
    d = cfg.fusion_dim
    return {
        "thumbnail.conv1.kernels": nncore.glorot_uniform(rng, (c1, 3, k, k), 3 * k * k, c1 * k * k),
        "thumbnail.conv1.bias": np.zeros(c1),
        "thumbnail.conv2.kernels": nncore.glorot_uniform(rng, (c2, c1, k, k), c1 * k * k, c2 * k * k),
        "thumbnail.conv2.bias": np.zeros(c2),
        "thumbnail.dense.w": nncore.glorot_uniform(rng, (flat, d), flat, d),
        "thumbnail.dense.b": np.zeros(d),
    }


def init_stats_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    n_in, hid, d = len(STATS_FIELDS), cfg.stats_hidden, cfg.fusion_dim
    return {
        "statistics.dense1.w": nncore.glorot_uniform(rng, (n_in, hid), n_in, hid),
        "statistics.dense1.b": np.zeros(hid),
        "statistics.dense2.w": nncore.glorot_uniform(rng, (hid, d), hid, d),
        "statistics.dense2.b": np.zeros(d),
    }


# ---------------------------------------------------------------------------
# batched forward/backward per modality
# ---------------------------------------------------------------------------

def encode_text_forward(modality: str, ids, lengths, params):
    """ids[B,L] -> embedding -> LSTM final hidden [B,d]. Columns past the
    longest row are padding the LSTM never reads, so they are cut before the
    embedding lookup."""
    table = params[f"{modality}.embedding.table"]
    lengths = np.asarray(lengths, dtype=np.int64)
    ids = np.asarray(ids)
    if ids.ndim == 2 and lengths.size:
        ids = ids[:, : lengths.max()]
    emb, emb_cache = nncore.embedding_forward(ids, table.value)
    h, lstm_cache = nncore.lstm_forward(
        emb,
        params[f"{modality}.lstm.wx"].value,
        params[f"{modality}.lstm.wh"].value,
        params[f"{modality}.lstm.b"].value,
        lengths,
    )
    return h, (modality, emb_cache, lstm_cache, table.value.shape[0])


def encode_text_backward(d_h, cache, params):
    modality, ids, lstm_cache, vocab_size = cache
    d_emb, d_wx, d_wh, d_b = nncore.lstm_backward(d_h, lstm_cache)
    params[f"{modality}.lstm.wx"].grad += d_wx
    params[f"{modality}.lstm.wh"].grad += d_wh
    params[f"{modality}.lstm.b"].grad += d_b
    params[f"{modality}.embedding.table"].grad += nncore.embedding_backward(d_emb, ids, vocab_size)


def encode_thumbnail_forward(pixels, params, cfg: EncoderConfig):
    """pixels[B,3,S,S] scaled to [0,1] -> conv/relu/pool x2 -> dense to d."""
    x = nncore.as_f64(pixels)
    if x.ndim != 4 or x.shape[1] != 3:
        raise nncore.ShapeError(f"thumbnail encoder expects [B,3,S,S], got {x.shape}")
    c1, cache1 = nncore.conv2d_forward(
        x, params["thumbnail.conv1.kernels"].value, params["thumbnail.conv1.bias"].value
    )
    r1, rcache1 = nncore.relu_forward(c1)
    p1, pcache1 = nncore.max_pool2d_forward(r1, cfg.pool_size)
    c2, cache2 = nncore.conv2d_forward(
        p1, params["thumbnail.conv2.kernels"].value, params["thumbnail.conv2.bias"].value
    )
    r2, rcache2 = nncore.relu_forward(c2)
    p2, pcache2 = nncore.max_pool2d_forward(r2, cfg.pool_size)
    flat = p2.reshape(p2.shape[0], -1)
    out, dcache = nncore.dense_forward(
        flat, params["thumbnail.dense.w"].value, params["thumbnail.dense.b"].value
    )
    return out, (cache1, rcache1, pcache1, cache2, rcache2, pcache2, p2.shape, dcache)


def encode_thumbnail_backward(d_out, cache, params):
    cache1, rcache1, pcache1, cache2, rcache2, pcache2, p2_shape, dcache = cache
    d_flat, d_w, d_b = nncore.dense_backward(d_out, dcache)
    params["thumbnail.dense.w"].grad += d_w
    params["thumbnail.dense.b"].grad += d_b
    d_p2 = d_flat.reshape(p2_shape)
    d_r2 = nncore.max_pool2d_backward(d_p2, pcache2)
    d_c2 = nncore.relu_backward(d_r2, rcache2)
    d_p1, d_k2, d_b2 = nncore.conv2d_backward(d_c2, cache2)
    params["thumbnail.conv2.kernels"].grad += d_k2
    params["thumbnail.conv2.bias"].grad += d_b2
    d_r1 = nncore.max_pool2d_backward(d_p1, pcache1)
    d_c1 = nncore.relu_backward(d_r1, rcache1)
    _, d_k1, d_b1 = nncore.conv2d_backward(d_c1, cache1, need_dx=False)
    params["thumbnail.conv1.kernels"].grad += d_k1
    params["thumbnail.conv1.bias"].grad += d_b1


def encode_stats_forward(z, params):
    """z[B,5] (already log1p + z-scored) -> dense -> relu -> dense to d."""
    h1, cache1 = nncore.dense_forward(
        z, params["statistics.dense1.w"].value, params["statistics.dense1.b"].value
    )
    r1, rcache = nncore.relu_forward(h1)
    out, cache2 = nncore.dense_forward(
        r1, params["statistics.dense2.w"].value, params["statistics.dense2.b"].value
    )
    return out, (cache1, rcache, cache2)


def encode_stats_backward(d_out, cache, params):
    cache1, rcache, cache2 = cache
    d_r1, d_w2, d_b2 = nncore.dense_backward(d_out, cache2)
    params["statistics.dense2.w"].grad += d_w2
    params["statistics.dense2.b"].grad += d_b2
    d_h1 = nncore.relu_backward(d_r1, rcache)
    _, d_w1, d_b1 = nncore.dense_backward(d_h1, cache1)
    params["statistics.dense1.w"].grad += d_w1
    params["statistics.dense1.b"].grad += d_b1


# ---------------------------------------------------------------------------
# the table of encoder kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderKind:
    """One kind of sub-network, each callable taking the modality name m:
    init(m, vocab_size, cfg, rng) -> {parameter name: initial value};
    featurize(record, m, vocab, stats_norm, cfg, base_dir) -> one record's payload;
    forward(m, payloads, params, cfg) -> (out [B,d], cache);
    backward(d_out, cache, params) accumulates the parameter grads.
    Entries call the functions above by global name at call time, so that
    rebinding those module attributes (as an external tracer does) is seen.
    """

    init: Callable
    featurize: Callable
    forward: Callable
    backward: Callable


def _text_payload(record, m, vocab, stats_norm, cfg, base_dir):
    seq = textpipe.encode_modality(record, m, vocab)
    return np.asarray(seq.ids, dtype=np.int64), seq.true_length


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
        featurize=_text_payload,
        forward=lambda m, payloads, params, cfg: encode_text_forward(
            m, np.stack([ids for ids, _ in payloads]),
            np.array([n for _, n in payloads], dtype=np.int64), params),
        backward=lambda d_out, cache, params: encode_text_backward(d_out, cache, params),
    )),
    "thumbnail": EncoderKind(
        init=lambda m, vocab_size, cfg, rng: init_thumbnail_params(cfg, rng),
        featurize=_thumbnail_payload,
        forward=lambda m, payloads, params, cfg: encode_thumbnail_forward(
            np.stack(payloads).astype(np.float64) / 255.0, params, cfg),
        backward=lambda d_out, cache, params: encode_thumbnail_backward(d_out, cache, params),
    ),
    "statistics": EncoderKind(
        init=lambda m, vocab_size, cfg, rng: init_stats_params(cfg, rng),
        featurize=lambda record, m, vocab, norm, cfg, base_dir: norm.transform(record.stats),
        forward=lambda m, payloads, params, cfg: encode_stats_forward(np.stack(payloads), params),
        backward=lambda d_out, cache, params: encode_stats_backward(d_out, cache, params),
    ),
}
