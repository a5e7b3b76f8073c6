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
from .modalities import ModalityMask

PROBABILITY_THRESHOLD = 0.5


class FusionError(ValueError):
    """No encoder outputs, or a row with no present modalities."""


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
    return "clickbait" if probability >= PROBABILITY_THRESHOLD else "non_clickbait"


def fuse_batch(outputs: dict[str, np.ndarray], present: dict[str, np.ndarray]):
    """Batched fusion: outputs[m] is [B,d], present[m] is a boolean [B] row
    mask. Returns (fused [B,d], n_present [B])."""
    names = [m for m in outputs]
    if not names:
        raise FusionError("no encoder outputs supplied")
    first = outputs[names[0]]
    total = np.zeros_like(first)
    n = np.zeros(first.shape[0])
    for m in names:
        keep = present[m].astype(np.float64)
        total += outputs[m] * keep[:, None]
        n += keep
    if (n == 0).any():
        raise FusionError("some rows have no present modalities")
    return total / n[:, None], n


def fuse_batch_backward(d_fused, present: dict[str, np.ndarray], n: np.ndarray):
    """Per-modality upstream grads: grad rows scaled by present/n."""
    return {m: d_fused * (present[m] / n)[:, None] for m in present}


# ---------------------------------------------------------------------------
# classification heads
# ---------------------------------------------------------------------------

def head_forward(fused, params, arch: str, prefix: str = "head"):
    """Shared classification head on the fused vector.

    arch "mlp": dense(d->hidden) -> relu -> dense(hidden->1) -> sigmoid,
    the combined-model head. arch "linear": dense(d->1) -> sigmoid, the
    private probe used when training one modality on its own.
    """
    if arch == "mlp":
        h1, c1 = nncore.dense_forward(
            fused, params[f"{prefix}.dense1.w"].value, params[f"{prefix}.dense1.b"].value
        )
        r1, rc = nncore.relu_forward(h1)
        logit, c2 = nncore.dense_forward(
            r1, params[f"{prefix}.dense2.w"].value, params[f"{prefix}.dense2.b"].value
        )
        prob = nncore.sigmoid(logit[:, 0])
        return prob, (arch, prefix, c1, rc, c2, prob)
    if arch == "linear":
        logit, c1 = nncore.dense_forward(
            fused, params[f"{prefix}.w"].value, params[f"{prefix}.b"].value
        )
        prob = nncore.sigmoid(logit[:, 0])
        return prob, (arch, prefix, c1, None, None, prob)
    raise ValueError(f"unknown head architecture {arch!r}")


def head_backward(d_prob, cache, params):
    arch, prefix, c1, rc, c2, prob = cache
    d_logit = nncore.sigmoid_backward(d_prob, prob)[:, None]
    if arch == "mlp":
        d_r1, d_w2, d_b2 = nncore.dense_backward(d_logit, c2)
        params[f"{prefix}.dense2.w"].grad += d_w2
        params[f"{prefix}.dense2.b"].grad += d_b2
        d_h1 = nncore.relu_backward(d_r1, rc)
        d_fused, d_w1, d_b1 = nncore.dense_backward(d_h1, c1)
        params[f"{prefix}.dense1.w"].grad += d_w1
        params[f"{prefix}.dense1.b"].grad += d_b1
        return d_fused
    d_fused, d_w, d_b = nncore.dense_backward(d_logit, c1)
    params[f"{prefix}.w"].grad += d_w
    params[f"{prefix}.b"].grad += d_b
    return d_fused


def init_head_params(cfg_fusion_dim: int, head_hidden: int, arch: str,
                     rng: np.random.Generator, prefix: str = "head") -> dict[str, np.ndarray]:
    if arch == "mlp":
        return {
            f"{prefix}.dense1.w": nncore.glorot_uniform(
                rng, (cfg_fusion_dim, head_hidden), cfg_fusion_dim, head_hidden
            ),
            f"{prefix}.dense1.b": np.zeros(head_hidden),
            f"{prefix}.dense2.w": nncore.glorot_uniform(rng, (head_hidden, 1), head_hidden, 1),
            f"{prefix}.dense2.b": np.zeros(1),
        }
    if arch == "linear":
        return {
            f"{prefix}.w": nncore.glorot_uniform(rng, (cfg_fusion_dim, 1), cfg_fusion_dim, 1),
            f"{prefix}.b": np.zeros(1),
        }
    raise ValueError(f"unknown head architecture {arch!r}")
