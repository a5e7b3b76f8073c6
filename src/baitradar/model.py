"""Full classifier: per-modality encoders, masked average fusion, and the
classification head, together with the frozen preprocessing state (vocabulary
and statistics normalization) needed to turn raw records into inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fusion, nncore
from .corpus import LABEL_CLICKBAIT, VideoRecord
from .encoders import ENCODERS, EncoderConfig, StatsNormalizer
from .modalities import MODALITIES, ModalityMask
from .textpipe import Vocabulary

# rows per forward-only pass; it bounds the caches a pass builds
SCORE_CHUNK = 32


class ModelError(ValueError):
    """Prediction requested beyond the model's capabilities."""


@dataclass
class Features:
    """One record's encoder-ready payloads."""

    id: str
    label: float | None
    inputs: dict[str, object]  # modality -> its encoder kind's payload

    @property
    def present(self) -> ModalityMask:
        return ModalityMask.from_names(self.inputs)


def featurize_record(record: VideoRecord, vocab: Vocabulary, stats_norm: StatsNormalizer,
                     config: EncoderConfig, base_dir=None, modalities=MODALITIES) -> Features:
    """Tokenize/encode text, decode+resize the thumbnail, and z-score the
    statistics for every requested modality the record actually has."""
    usable = record.present_mask().intersect(ModalityMask.from_names(modalities))
    inputs = {
        m: ENCODERS[m].featurize(record, m, vocab, stats_norm, config, base_dir)
        for m in usable.names()
    }
    label = None
    if record.label is not None:
        label = 1.0 if record.label == LABEL_CLICKBAIT else 0.0
    return Features(id=record.id, label=label, inputs=inputs)


def run_encoders(modalities, inputs: list[dict], masks: list[ModalityMask], params,
                 config: EncoderConfig):
    """Runs each of ``modalities`` (canonical order) on the batch rows whose
    mask holds it. ``inputs[i]`` maps row i's modalities to their payloads.
    Returns ``{m: (rows, out [len(rows), d])}`` for every modality some row
    holds, and ``{m: encoder cache}``."""
    encoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    caches: dict[str, tuple] = {}
    for m in modalities:
        rows = np.flatnonzero([getattr(mask, m) for mask in masks])
        if rows.size:
            out, caches[m] = ENCODERS[m].forward(m, [inputs[i][m] for i in rows], params, config)
            encoded[m] = (rows, out)
    return encoded, caches


class BaitRadarModel:
    """Parameters plus frozen preprocessing for a chosen modality subset.

    ``head_arch`` is "mlp" for the combined model (dense d->hidden -> relu ->
    dense hidden->1 -> sigmoid) and "linear" for an individual model's private
    probe (dense d->1 -> sigmoid).
    """

    def __init__(self, config: EncoderConfig, vocab: Vocabulary, stats_norm: StatsNormalizer,
                 modalities, head_arch: str, params: dict[str, nncore.Parameter],
                 init_seed: int = 0):
        self.config = config
        self.vocab = vocab
        self.stats_norm = stats_norm
        self.modalities = tuple(m for m in MODALITIES if m in set(modalities))
        self.head_arch = head_arch
        self.params = params
        self.init_seed = init_seed
        # effective training configuration, echoed into checkpoints
        self.config_echo: dict | None = None

    @property
    def head_prefix(self) -> str:
        return "head" if self.head_arch == "mlp" else f"{self.modalities[0]}.head"

    @classmethod
    def build(cls, modalities, vocab: Vocabulary, stats_norm: StatsNormalizer,
              config: EncoderConfig = EncoderConfig(), seed: int = 0,
              head_arch: str = "mlp") -> "BaitRadarModel":
        """Seeded initialization; encoders in canonical modality order, then
        the head, so the same seed always yields the same weights."""
        if not set(modalities) <= set(MODALITIES):
            raise ModelError(f"unknown modality in {tuple(modalities)}; expected {MODALITIES}")
        modalities = tuple(m for m in MODALITIES if m in set(modalities))
        if not modalities:
            raise ModelError("a model needs at least one modality")
        if head_arch == "linear" and len(modalities) != 1:
            raise ModelError("the linear probe head is for single-modality models")
        model = cls(config, vocab, stats_norm, modalities, head_arch, {}, init_seed=seed)
        rng = np.random.default_rng(seed)
        values: dict[str, np.ndarray] = {}
        for m in modalities:
            values.update(ENCODERS[m].init(m, len(vocab), config, rng))
        values.update(fusion.init_head_params(
            config.fusion_dim, config.head_hidden, head_arch, rng, model.head_prefix))
        model.params = {name: nncore.Parameter(name, values[name]) for name in sorted(values)}
        return model

    # -- parameter plumbing -------------------------------------------------

    def parameters(self, trainable_only_head: bool = False) -> list[nncore.Parameter]:
        names = sorted(self.params)
        if trainable_only_head:
            prefix = self.head_prefix + "."
            names = [n for n in names if n.startswith(prefix)]
        return [self.params[n] for n in names]

    def copy_param_values(self) -> dict[str, np.ndarray]:
        return {n: p.value.copy() for n, p in self.params.items()}

    def load_param_values(self, values: dict[str, np.ndarray]) -> None:
        for n, v in values.items():
            if n in self.params:
                if self.params[n].value.shape != v.shape:
                    raise ModelError(
                        f"parameter {n} has shape {v.shape}, expected {self.params[n].value.shape}"
                    )
                self.params[n].value = v.copy()

    # -- batched forward/backward --------------------------------------------

    def fuse_head(self, encoded, n_rows: int):
        """Probabilities of ``n_rows`` rows from ``run_encoders``' output:
        the fusion average, then the head."""
        fused, n_present = fusion.fuse_batch(encoded, n_rows, self.config.fusion_dim)
        probs, head_cache = fusion.head_forward(fused, self.params, self.head_arch, self.head_prefix)
        rows = {m: r for m, (r, _) in encoded.items()}
        return probs, (rows, n_present, head_cache)

    def fuse_head_backward(self, d_probs, cache) -> dict[str, np.ndarray]:
        """Accumulates the head's grads; returns each encoder's output grad."""
        rows, n_present, head_cache = cache
        d_fused = fusion.head_backward(d_probs, head_cache, self.params)
        return fusion.fuse_batch_backward(d_fused, rows, n_present)

    def forward_features(self, feats: list[Features], masks: list[ModalityMask]):
        """Probabilities for a batch. ``masks`` gives the effective modality
        mask per row (already intersected with availability)."""
        encoded, enc_caches = run_encoders(self.modalities, [f.inputs for f in feats], masks,
                                           self.params, self.config)
        probs, cache = self.fuse_head(encoded, len(feats))
        return probs, (enc_caches, cache)

    def backward(self, d_probs, cache) -> None:
        """Accumulates every parameter's grads."""
        enc_caches, fused_cache = cache
        for m, d_out in self.fuse_head_backward(d_probs, fused_cache).items():
            ENCODERS[m].backward(d_out, enc_caches[m], self.params)

    # -- inference ------------------------------------------------------------

    def effective_mask(self, record: VideoRecord, subset: ModalityMask | None) -> ModalityMask:
        capability = ModalityMask.from_names(self.modalities)
        if subset is None:
            subset = capability
        else:
            missing = [m for m in subset.names() if m not in self.modalities]
            if missing:
                raise ModelError(
                    f"model has no encoders for requested modalities: {', '.join(missing)}"
                )
        effective = subset.intersect(record.present_mask())
        if effective.count() == 0:
            raise ModelError(f"record {record.id!r}: no usable modalities under the requested mask")
        return effective

    def score(self, feats: list[Features], masks: list[ModalityMask]) -> np.ndarray:
        """Forward-only probabilities, in passes of at most ``SCORE_CHUNK`` rows."""
        parts = [
            self.forward_features(feats[lo : lo + SCORE_CHUNK], masks[lo : lo + SCORE_CHUNK])[0]
            for lo in range(0, len(feats), SCORE_CHUNK)
        ]
        return np.concatenate(parts) if parts else np.zeros(0)

    def predict_many(self, records, subset: ModalityMask | None = None,
                     base_dir=None) -> list[fusion.Prediction]:
        """Classify records on their ``effective_mask``s, all checked before
        any record is featurized; each output records the mask it used."""
        records = list(records)
        masks = [self.effective_mask(r, subset) for r in records]
        feats = [
            featurize_record(r, self.vocab, self.stats_norm, self.config,
                             base_dir=base_dir, modalities=mask.names())
            for r, mask in zip(records, masks)
        ]
        return [
            fusion.Prediction(id=r.id, probability=p, label=fusion.decide_label(p), mask_used=mask)
            for r, p, mask in zip(records, self.score(feats, masks).tolist(), masks)
        ]

    def predict(self, record: VideoRecord, subset: ModalityMask | None = None,
                base_dir=None) -> fusion.Prediction:
        """Classify one record; see ``predict_many``."""
        return self.predict_many([record], subset, base_dir)[0]
