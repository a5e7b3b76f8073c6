"""Training loops: individual models, head-only transfer, full fine-tuning,
and joint training from scratch, with loss-threshold early stopping plus a
validation-accuracy patience guard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nncore, textpipe
from .corpus import DatasetSplit, select_records
from .encoders import EncoderConfig, StatsNormalizer, _check_fields
from .fusion import PROBABILITY_THRESHOLD
from .model import BaitRadarModel, Features, featurize_record
from .modalities import MODALITIES, ModalityMask
from .textpipe import Vocabulary

REGIMES = ("individual", "head_only", "finetune", "scratch")

STOP_LOSS_THRESHOLD = "loss_threshold"
STOP_PATIENCE = "patience"
STOP_MAX_EPOCHS = "max_epochs"


class TrainingError(ValueError):
    """Invalid training configuration or data."""


@dataclass(frozen=True)
class TrainConfig:
    regime: str = "scratch"
    modalities: tuple[str, ...] = MODALITIES
    batch_size: int = 16
    max_epochs: int = 300
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    loss_threshold: float = 0.05
    patience: int = 10
    seed: int = 0
    # per-record chance of keeping each present modality during scratch
    # training; None disables the dropout entirely
    modality_keep_prob: float | None = None
    vocab_max_size: int = textpipe.DEFAULT_VOCAB_SIZE
    vocab_min_freq: int = textpipe.DEFAULT_MIN_FREQ
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check_fields(self, TrainingError, ("batch_size", "max_epochs", "patience"))
        if self.regime not in REGIMES:
            raise TrainingError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")
        if not self.loss_threshold > 0:
            raise TrainingError("loss_threshold must be > 0")
        bad = [m for m in self.modalities if m not in MODALITIES]
        if bad or not self.modalities:
            raise TrainingError(f"invalid modality subset {self.modalities}")
        if self.regime == "individual" and len(self.modalities) != 1:
            raise TrainingError("individual regime trains exactly one modality")
        if self.modality_keep_prob is not None and not 0.0 < self.modality_keep_prob <= 1.0:
            raise TrainingError("modality_keep_prob must be in (0, 1]")

    def to_echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "encoder"}


@dataclass
class TrainReport:
    losses: list[float]
    val_accuracies: list[float]
    stop_reason: str
    epochs_run: int
    best_epoch: int
    wall_time_s: float

    def to_jsonl(self) -> str:
        """One epoch per line plus a summary line. Wall time is deliberately
        left out so report files are reproducible byte for byte."""
        import json

        lines = [
            json.dumps({"epoch": e + 1, "train_loss": self.losses[e],
                        "val_accuracy": self.val_accuracies[e]})
            for e in range(self.epochs_run)
        ]
        lines.append(json.dumps({
            "stop_reason": self.stop_reason,
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
        }))
        return "\n".join(lines) + "\n"


@dataclass
class PreparedCorpus:
    """Frozen preprocessing plus encoder-ready features for every record,
    computed once and shared across training runs on the same split."""

    vocab: Vocabulary
    stats_norm: StatsNormalizer
    features: dict[str, Features]


def prepare_corpus(records, split: DatasetSplit, config: TrainConfig, base_dir=None,
                   vocab: Vocabulary | None = None,
                   stats_norm: StatsNormalizer | None = None) -> PreparedCorpus:
    """Build the vocabulary and statistics normalization from the training
    split only, then featurize every record with the full modality set."""
    train_recs = select_records(records, split.train)
    if vocab is None:
        vocab = textpipe.build_vocab(
            textpipe.training_texts(train_recs), config.vocab_max_size, config.vocab_min_freq
        )
    if stats_norm is None:
        stats_norm = StatsNormalizer()
        if any(r.stats is not None for r in train_recs):
            stats_norm.fit(train_recs)
    features = {
        r.id: featurize_record(r, vocab, stats_norm, config.encoder, base_dir=base_dir)
        for r in records
    }
    return PreparedCorpus(vocab=vocab, stats_norm=stats_norm, features=features)


def _labels_of(feats: list[Features], context: str) -> np.ndarray:
    labels = []
    for f in feats:
        if f.label is None:
            raise TrainingError(f"{context}: record {f.id!r} has no label")
        labels.append(f.label)
    return np.array(labels, dtype=np.float64)


def _effective_masks(feats: list[Features], subset: ModalityMask,
                     context: str) -> list[ModalityMask]:
    masks = []
    for f in feats:
        eff = f.present.intersect(subset)
        if eff.count() == 0:
            raise TrainingError(
                f"{context}: record {f.id!r} has no usable modalities under the subset"
            )
        masks.append(eff)
    return masks


def batch_accuracy(model: BaitRadarModel, feats: list[Features], masks, labels,
                   chunk: int = 256) -> float:
    """Forward-only accuracy at the decision threshold (ties count as clickbait)."""
    if not feats:
        return 0.0
    hits = 0
    for lo in range(0, len(feats), chunk):
        probs, _ = model.forward_features(feats[lo : lo + chunk], masks[lo : lo + chunk])
        hits += int(((probs >= PROBABILITY_THRESHOLD) == labels[lo : lo + chunk].astype(bool)).sum())
    return hits / len(feats)


def train(records, split: DatasetSplit, config: TrainConfig,
          init: BaitRadarModel | list[BaitRadarModel] | None = None,
          prepared: PreparedCorpus | None = None,
          base_dir=None) -> tuple[BaitRadarModel, TrainReport]:
    """Mini-batch Adam over binary cross-entropy with deterministic epoch
    shuffling keyed by (seed, epoch).

    Stops when the epoch-mean training loss reaches ``loss_threshold``, when
    validation accuracy has not improved for ``patience`` epochs, or at
    ``max_epochs``; the returned model carries the best-validation weights
    (ties resolved toward the later epoch, so a threshold stop returns mature
    weights). ``init`` supplies pretrained weights for the head_only and
    finetune regimes; any parameter whose name matches is copied over, so a
    list of single-modality models transfers each encoder.
    """
    t_start = time.perf_counter()
    inits = [init] if isinstance(init, BaitRadarModel) else list(init or [])
    if config.regime in ("head_only", "finetune") and not inits:
        raise TrainingError(f"regime {config.regime!r} needs pretrained init weights")
    if config.regime == "scratch" and inits:
        raise TrainingError("scratch regime must not receive init weights")

    if not split.train:
        raise TrainingError("empty training split")
    if inits and any(m.vocab.index != inits[0].vocab.index for m in inits[1:]):
        raise TrainingError("init checkpoints carry different vocabularies")
    if prepared is None:
        vocab = inits[0].vocab if inits else None
        norm = inits[0].stats_norm if inits else None
        prepared = prepare_corpus(records, split, config, base_dir=base_dir,
                                  vocab=vocab, stats_norm=norm)
    elif inits and prepared.vocab.index != inits[0].vocab.index:
        raise TrainingError("prepared corpus vocabulary differs from the init checkpoint's")

    head_arch = "linear" if config.regime == "individual" else "mlp"
    model = BaitRadarModel.build(
        config.modalities, prepared.vocab, prepared.stats_norm, config.encoder,
        seed=config.seed, head_arch=head_arch,
    )
    for src in inits:
        model.load_param_values(src.copy_param_values())
    model.config_echo = config.to_echo()

    subset = ModalityMask.from_names(config.modalities)
    train_feats = [prepared.features[rid] for rid in split.train]
    val_feats = [prepared.features[rid] for rid in split.validation]
    train_labels = _labels_of(train_feats, "training split")
    val_labels = _labels_of(val_feats, "validation split") if val_feats else np.zeros(0)
    train_masks = _effective_masks(train_feats, subset, "training split")
    val_masks = _effective_masks(val_feats, subset, "validation split")

    trainable = model.parameters(trainable_only_head=config.regime == "head_only")
    n_train = len(train_feats)
    losses: list[float] = []
    val_accs: list[float] = []
    best_acc, best_values, best_epoch = -1.0, None, 0
    stale = 0
    adam_t = 0
    stop_reason = STOP_MAX_EPOCHS

    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([config.seed, epoch]).permutation(n_train)
        drop_rng = (
            np.random.default_rng([config.seed, epoch, 1])
            if config.modality_keep_prob is not None else None
        )
        loss_sum = 0.0
        for b_start in range(0, n_train, config.batch_size):
            rows = order[b_start : b_start + config.batch_size]
            feats = [train_feats[i] for i in rows]
            masks = [train_masks[i] for i in rows]
            if drop_rng is not None:
                masks = [_drop_modalities(m, drop_rng, config.modality_keep_prob) for m in masks]
            labels = train_labels[rows]
            probs, cache = model.forward_features(feats, masks)
            loss = nncore.binary_cross_entropy(probs, labels)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b_start // config.batch_size}"
                )
            model.zero_grads()
            model.backward(nncore.binary_cross_entropy_grad(probs, labels), cache)
            adam_t += 1
            nncore.adam_step(trainable, config.lr, config.beta1, config.beta2,
                             config.adam_eps, adam_t)
            loss_sum += loss * len(rows)
        epoch_loss = loss_sum / n_train
        val_acc = batch_accuracy(model, val_feats, val_masks, val_labels)
        losses.append(epoch_loss)
        val_accs.append(val_acc)

        if val_acc > best_acc:
            stale = 0
        else:
            stale += 1
        if val_acc >= best_acc:
            best_acc, best_values, best_epoch = val_acc, model.copy_param_values(), epoch

        if epoch_loss <= config.loss_threshold:
            stop_reason = STOP_LOSS_THRESHOLD
            break
        if stale >= config.patience:
            stop_reason = STOP_PATIENCE
            break

    if best_values is not None:
        model.load_param_values(best_values)
    report = TrainReport(
        losses=losses, val_accuracies=val_accs, stop_reason=stop_reason,
        epochs_run=len(losses), best_epoch=best_epoch,
        wall_time_s=time.perf_counter() - t_start,
    )
    return model, report


def _drop_modalities(mask: ModalityMask, rng: np.random.Generator,
                     keep_prob: float) -> ModalityMask:
    names = mask.names()
    kept = [m for m in names if rng.random() < keep_prob]
    # never hand the fusion an empty mask; fall back to the full present set
    return ModalityMask.from_names(kept) if kept else mask


def train_individual(modality: str, records, split: DatasetSplit, config: TrainConfig,
                     prepared: PreparedCorpus | None = None,
                     base_dir=None) -> tuple[BaitRadarModel, TrainReport]:
    """Train one encoder with its private probe head; the checkpoint keeps
    the encoder weights for later transfer into the combined model."""
    cfg = replace(config, regime="individual", modalities=(modality,))
    return train(records, split, cfg, prepared=prepared, base_dir=base_dir)
