"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    magic   b"BRDR"
    u32     format version (currently 1)
    u64 n + metadata        compact JSON, keys sorted
    u64 n + vocabulary      UTF-8 "token<TAB>index" lines sorted by index
    u32 k + k*(f64,f64)     statistics normalization (mean, std) per feature
    u32 t + t tensors       sorted by name: u32 n + name, u32 ndim, ndim*u64
                            dims, then row-major f64 values
    u32     CRC-32 of everything after the magic

Save -> load -> save is byte-identical: the metadata is rebuilt from model
fields with sorted keys and tensors are always written in name order.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .encoders import EncoderConfig, StatsNormalizer
from .model import BaitRadarModel
from .nncore import Parameter
from .textpipe import Vocabulary

MAGIC = b"BRDR"
FORMAT_VERSION = 1
_MAX_NDIM = 64  # numpy's limit on array rank


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint."""


def _metadata(model: BaitRadarModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "fusion_dim": model.config.fusion_dim,
        "modalities": list(model.modalities),
        "head_arch": model.head_arch,
        "init_seed": model.init_seed,
        "encoder": asdict(model.config),
        "vocab_max_size": model.vocab.max_size,
        "vocab_min_freq": model.vocab.min_freq,
        "config_echo": model.config_echo,
    }


def dumps(model: BaitRadarModel) -> bytes:
    buf = io.BytesIO()
    meta = json.dumps(_metadata(model), sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<I", FORMAT_VERSION))
    buf.write(struct.pack("<Q", len(meta)))
    buf.write(meta)
    vocab = model.vocab.to_text().encode("utf-8")
    buf.write(struct.pack("<Q", len(vocab)))
    buf.write(vocab)
    mean, std = model.stats_norm.to_arrays()
    buf.write(struct.pack("<I", mean.size))
    for k in range(mean.size):
        buf.write(struct.pack("<dd", mean[k], std[k]))
    names = sorted(model.params)
    buf.write(struct.pack("<I", len(names)))
    for name in names:
        value = model.params[name].value
        raw = name.encode("utf-8")
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<I", value.ndim))
        buf.write(struct.pack(f"<{value.ndim}Q", *value.shape))
        buf.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
    payload = buf.getvalue()
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


def save_checkpoint(model: BaitRadarModel, path) -> None:
    Path(path).write_bytes(dumps(model))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"truncated checkpoint while reading {what} "
                f"(needed {n} bytes at offset {self.pos})"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def loads(data: bytes) -> BaitRadarModel:
    """Parse a checkpoint. Every failure raises :class:`CheckpointError`."""
    if data[:4] != MAGIC:
        raise CheckpointError("not a BaitRadar checkpoint (bad magic)")
    if len(data) < 12:
        raise CheckpointError("truncated checkpoint header")
    # structural parse first so truncation errors can name what was cut off;
    # nothing is decoded or interpreted until the checksum (verified after the
    # parse) has ruled out in-place corruption
    payload, crc_raw = data[4:-4], data[-4:]

    r = _Reader(payload)
    version = r.u32("format version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {FORMAT_VERSION}")
    meta_raw = r.take(r.u64("metadata length"), "metadata")
    vocab_raw = r.take(r.u64("vocabulary length"), "vocabulary")
    n_norm = r.u32("normalization size")
    norm_raw = r.take(16 * n_norm, "normalization")

    n_tensors = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name = r.take(r.u32("tensor name length"), "tensor name").decode("utf-8", "replace")
        ndim = r.u32(f"tensor {name} rank")
        if ndim > _MAX_NDIM:
            raise CheckpointError(f"tensor {name} has rank {ndim}, more than {_MAX_NDIM}")
        dims = struct.unpack(f"<{ndim}Q", r.take(8 * ndim, f"tensor {name} dims"))
        raw = r.take(8 * math.prod(dims), f"tensor {name} values")
        try:
            tensors[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        except ValueError as e:  # a zero dim lets any other dim through the size check
            raise CheckpointError(f"tensor {name} has invalid dims {dims}: {e}") from None
    if r.pos != len(payload):
        raise CheckpointError(f"{len(payload) - r.pos} trailing bytes after last tensor")
    if struct.unpack("<I", crc_raw)[0] != zlib.crc32(payload):
        raise CheckpointError("checksum mismatch; checkpoint is corrupt")

    try:
        meta = json.loads(meta_raw.decode("utf-8"))
        if not isinstance(meta, dict):
            raise TypeError("metadata is not a JSON object")
        pairs = np.frombuffer(norm_raw, dtype="<f8").reshape(n_norm, 2)
        norm = StatsNormalizer.from_arrays(pairs[:, 0], pairs[:, 1])
        vocab = Vocabulary.from_text(
            vocab_raw.decode("utf-8"), max_size=meta["vocab_max_size"],
            min_freq=meta["vocab_min_freq"],
        )
        model = BaitRadarModel.build(
            meta["modalities"], vocab, norm, EncoderConfig(**meta["encoder"]),
            seed=meta["init_seed"], head_arch=meta["head_arch"],
        )
    except KeyError as e:
        raise CheckpointError(f"checkpoint metadata has no {e.args[0]!r} entry") from None
    except (TypeError, ValueError, RecursionError) as e:
        raise CheckpointError(f"checkpoint metadata or vocabulary is invalid: {e}") from None
    expected = set(model.params)
    missing = sorted(expected - set(tensors))
    if missing:
        raise CheckpointError(
            f"checkpoint is missing tensors for the declared modality subset: {missing}"
        )
    extra = sorted(set(tensors) - expected)
    if extra:
        raise CheckpointError(f"checkpoint contains unexpected tensors: {extra}")
    for name, value in tensors.items():
        if model.params[name].value.shape != value.shape:
            raise CheckpointError(
                f"tensor {name} has shape {value.shape}, expected "
                f"{model.params[name].value.shape}"
            )
        model.params[name] = Parameter(name, value)
    model.config_echo = meta.get("config_echo")
    return model


def load_checkpoint(path) -> BaitRadarModel:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    return loads(path.read_bytes())
