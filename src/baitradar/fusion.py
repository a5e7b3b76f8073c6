"""Masked element-wise average fusion of encoder outputs and the shared
classification head.

The fused vector is the per-dimension mean of the encoder outputs that are
actually present, divided by the number present rather than a fixed six, so
its scale does not collapse as modalities drop out. The backward pass hands
each present input grad / n_present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore
from .corpus import LABEL_CLICKBAIT, LABEL_NON_CLICKBAIT
from .modalities import ModalityMask

PROBABILITY_THRESHOLD = 0.5


class FusionError(ValueError):
    """A row with no present modalities."""


@dataclass(frozen=True)
class Prediction:
    id: str
    probability: float
    label: str
    mask_used: ModalityMask

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "probability": self.probability,
            "label": self.label,
            "modalities_used": list(self.mask_used.names()),
        }


def decide_label(probability: float) -> str:
    # ties at exactly 0.5 flag the warning case
    return LABEL_CLICKBAIT if probability >= PROBABILITY_THRESHOLD else LABEL_NON_CLICKBAIT


def fuse_batch(encoded: dict[str, tuple[np.ndarray, np.ndarray]], n_rows: int, dim: int):
    """Batched fusion: encoded[m] is (rows, out) with out [len(rows), dim] the
    encoder output for those batch rows. Returns (fused [n_rows,dim],
    n_present [n_rows])."""
    total = np.zeros((n_rows, dim))
    n = np.zeros(n_rows)
    for rows, out in encoded.values():
        total[rows] += out
        n[rows] += 1.0
    if (n == 0).any():
        raise FusionError("some rows have no present modalities")
    return total / n[:, None], n


def fuse_batch_backward(d_fused, rows: dict[str, np.ndarray], n: np.ndarray):
    """Per-modality upstream grads for rows[m]: those grad rows scaled by 1/n."""
    return {m: d_fused[r] * (1.0 / n[r])[:, None] for m, r in rows.items()}


# ---------------------------------------------------------------------------
# classification heads
# ---------------------------------------------------------------------------

# the dense layers of each head architecture, as suffixes of its name prefix:
# "mlp" is dense(d->hidden) -> relu -> dense(hidden->1), the combined-model
# head; "linear" is dense(d->1), the private probe used when training one
# modality on its own. Both end in a sigmoid.
HEAD_LAYERS = {"mlp": (".dense1", ".dense2"), "linear": ("",)}


def _head_layers(arch: str, prefix: str) -> tuple[str, ...]:
    if arch not in HEAD_LAYERS:
        raise ValueError(f"unknown head architecture {arch!r}")
    return tuple(prefix + suffix for suffix in HEAD_LAYERS[arch])


def head_forward(fused, params, arch: str, prefix: str = "head"):
    """Shared classification head on the fused vector: probabilities [B]."""
    logit, stack_cache = nncore.dense_stack_forward(fused, params, _head_layers(arch, prefix))
    prob = nncore.sigmoid(logit[:, 0])
    return prob, (stack_cache, prob)


def head_backward(d_prob, cache, params):
    stack_cache, prob = cache
    d_logit = nncore.sigmoid_backward(d_prob, prob)[:, None]
    return nncore.dense_stack_backward(d_logit, stack_cache, params)


def init_head_params(cfg_fusion_dim: int, head_hidden: int, arch: str,
                     rng: np.random.Generator, prefix: str = "head") -> dict[str, np.ndarray]:
    layers = _head_layers(arch, prefix)
    sizes = (cfg_fusion_dim,) + (head_hidden,) * (len(layers) - 1) + (1,)
    return nncore.init_dense_stack(rng, layers, sizes)
