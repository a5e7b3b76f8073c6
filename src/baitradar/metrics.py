"""Accuracy, confusion matrices, per-record inference latency, and the
title-anchored combination sweep."""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

from . import checkpoint
from .corpus import LABEL_CLICKBAIT, LABEL_NON_CLICKBAIT, DatasetSplit, select_records
from .fusion import Prediction
from .modalities import MODALITIES, ModalityMask
from .model import BaitRadarModel
from .training import PreparedCorpus, TrainConfig, prepare_corpus, train


class MetricsError(ValueError):
    """Empty matrix, unlabeled record, or invalid sweep request."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with clickbait as the positive class."""

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def accuracy(cm: ConfusionMatrix) -> float:
    """(TP + TN) / (TP + TN + FP + FN)."""
    total = cm.total()
    if total == 0:
        raise MetricsError("cannot compute accuracy of an empty confusion matrix")
    return (cm.tp + cm.tn) / total


@dataclass
class EvalResult:
    cm: ConfusionMatrix
    accuracy: float
    mean_latency_s: float
    max_latency_s: float
    predictions: list[Prediction]


def evaluate(model: BaitRadarModel, records, subset: ModalityMask | None = None,
             base_dir=None) -> EvalResult:
    """Deterministic pass over labeled records, timing each predict call.

    The first record is predicted once untimed to warm caches before the
    measured pass. The accuracy is cross-checked against a direct recount of
    the per-record predictions.
    """
    records = list(records)
    if not records:
        raise MetricsError("no records to evaluate")
    for r in records:
        if r.label is None:
            raise MetricsError(f"record {r.id!r} has no label")
    model.predict(records[0], subset=subset, base_dir=base_dir)  # warm-up

    latencies = []
    predictions: list[Prediction] = []
    for rec in records:
        t0 = time.perf_counter()
        predictions.append(model.predict(rec, subset=subset, base_dir=base_dir))
        latencies.append(time.perf_counter() - t0)
    # (actual, predicted) label pairs
    pairs = Counter((rec.label, pred.label) for rec, pred in zip(records, predictions))
    pos, neg = LABEL_CLICKBAIT, LABEL_NON_CLICKBAIT
    cm = ConfusionMatrix(tp=pairs[pos, pos], tn=pairs[neg, neg],
                         fp=pairs[neg, pos], fn=pairs[pos, neg])
    acc = accuracy(cm)
    recount = sum(
        1 for rec, pred in zip(records, predictions) if rec.label == pred.label
    ) / len(records)
    if acc != recount:
        raise MetricsError(f"confusion-matrix accuracy {acc} != recount {recount}")
    return EvalResult(
        cm=cm, accuracy=acc,
        mean_latency_s=sum(latencies) / len(latencies),
        max_latency_s=max(latencies),
        predictions=predictions,
    )


# ---------------------------------------------------------------------------
# combination sweep
# ---------------------------------------------------------------------------

DEFAULT_COMBINATIONS = (
    MODALITIES,
    ("title",),
    ("title", "tags"),
    ("title", "audio_transcript"),
    ("title", "comments", "tags"),
)


def combination_label(modalities) -> str:
    return "+".join(m for m in MODALITIES if m in set(modalities))


@dataclass(frozen=True)
class SweepRow:
    modalities: tuple[str, ...]
    accuracy: float
    epochs: int
    checkpoint: str

    @property
    def label(self) -> str:
        return combination_label(self.modalities)


@dataclass
class SweepResult:
    rows: list[SweepRow]
    # trained weights per combination label; not serialized
    models: dict = None

    def to_csv(self) -> str:
        lines = ["combination,accuracy,epochs,checkpoint"]
        lines += [f"{r.label},{r.accuracy!r},{r.epochs},{r.checkpoint}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            [
                {"combination": r.label, "modalities": list(r.modalities),
                 "accuracy": r.accuracy, "epochs": r.epochs, "checkpoint": r.checkpoint}
                for r in self.rows
            ],
            indent=2,
        ) + "\n"

    def to_gnuplot(self) -> str:
        """Bar-chart friendly: index, label, accuracy."""
        lines = ["# combination accuracy"]
        lines += [f'{i} "{r.label}" {r.accuracy!r}' for i, r in enumerate(self.rows)]
        return "\n".join(lines) + "\n"

    def by_label(self) -> dict[str, SweepRow]:
        return {r.label: r for r in self.rows}


def normalize_combinations(combinations) -> list[tuple[str, ...]]:
    """Canonicalize, validate (every set must contain title), deduplicate,
    and make sure the full six-modality set is present."""
    seen: list[tuple[str, ...]] = []
    for combo in combinations:
        canon = ModalityMask.from_names(combo).names()
        if "title" not in canon:
            raise MetricsError(f"sweep combination {combo} does not contain title")
        if canon not in seen:
            seen.append(canon)
    if MODALITIES not in seen:
        seen.insert(0, MODALITIES)
    return seen


def sweep_combinations(records, split: DatasetSplit, base_config: TrainConfig,
                       combinations=DEFAULT_COMBINATIONS, out_dir=None,
                       prepared: PreparedCorpus | None = None,
                       base_dir=None) -> SweepResult:
    """Train each title-anchored combination from scratch and rank them by
    test accuracy (ties broken by combination label).

    Preprocessing (vocabulary, normalization, featurization) is shared across
    combinations since it depends only on the training split; it covers the
    union of the combinations' modalities. With ``out_dir``
    set, each combination's checkpoint is written there and referenced in the
    result table.
    """
    combos = normalize_combinations(combinations)
    if prepared is None:
        union = tuple(m for m in MODALITIES if any(m in combo for combo in combos))
        prepared = prepare_corpus(
            records, split, dc_replace(base_config, regime="scratch", modalities=union),
            base_dir=base_dir)
    test_records = select_records(records, split.test)

    rows = []
    models: dict[str, BaitRadarModel] = {}
    for combo in combos:
        cfg = dc_replace(base_config, regime="scratch", modalities=combo)
        model, report = train(records, split, cfg, prepared=prepared, base_dir=base_dir)
        result = evaluate(model, test_records, subset=ModalityMask.from_names(combo),
                          base_dir=base_dir)
        label = combination_label(combo)
        ref = ""
        if out_dir is not None:
            path = Path(out_dir) / f"{label.replace('+', '_')}.ckpt"
            path.parent.mkdir(parents=True, exist_ok=True)
            checkpoint.save_checkpoint(model, path)
            ref = path.name
        rows.append(SweepRow(modalities=combo, accuracy=result.accuracy,
                             epochs=report.epochs_run, checkpoint=ref))
        models[label] = model
    rows.sort(key=lambda r: (-r.accuracy, r.label))
    return SweepResult(rows=rows, models=models)
