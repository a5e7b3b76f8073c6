import dataclasses

import pytest

from baitradar import metrics
from baitradar.corpus import select_records
from baitradar.fusion import Prediction
from baitradar.metrics import (
    DEFAULT_COMBINATIONS,
    ConfusionMatrix,
    MetricsError,
    accuracy,
    combination_label,
    evaluate,
    normalize_combinations,
    sweep_combinations,
)
from baitradar.modalities import MODALITIES, ModalityMask


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_headline_case():
    assert accuracy(ConfusionMatrix(tp=50, tn=48, fp=1, fn=1)) == 0.98


def test_accuracy_perfect():
    assert accuracy(ConfusionMatrix(tp=7, tn=3)) == 1.0


def test_accuracy_mixed():
    assert accuracy(ConfusionMatrix(tp=3, tn=4, fp=2, fn=1)) == 0.7


def test_accuracy_empty_matrix_rejected():
    with pytest.raises(MetricsError):
        accuracy(ConfusionMatrix())


def test_accuracy_symmetric_under_class_swap():
    cm = ConfusionMatrix(tp=5, tn=2, fp=4, fn=3)
    swapped = ConfusionMatrix(tp=cm.tn, tn=cm.tp, fp=cm.fn, fn=cm.fp)
    assert accuracy(cm) == accuracy(swapped)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

class ConstantModel:
    """Stub that always answers with a fixed probability."""

    def __init__(self, probability):
        self.probability = probability

    def predict(self, record, subset=None, base_dir=None):
        label = "clickbait" if self.probability >= 0.5 else "non_clickbait"
        return Prediction(id=record.id, probability=self.probability, label=label,
                          mask_used=ModalityMask.from_names(["title"]))


def test_always_positive_classifier_counts(tiny_records):
    result = evaluate(ConstantModel(1.0), tiny_records)
    positives = sum(1 for r in tiny_records if r.label == "clickbait")
    assert result.cm == ConfusionMatrix(tp=positives, tn=0,
                                        fp=len(tiny_records) - positives, fn=0)


def test_evaluate_deterministic_confusion(tiny_model, tiny_records):
    a = evaluate(tiny_model, tiny_records[:10])
    b = evaluate(tiny_model, tiny_records[:10])
    assert a.cm == b.cm
    assert [p.probability for p in a.predictions] == [p.probability for p in b.predictions]


def test_evaluate_accuracy_matches_prediction_recount(tiny_model, tiny_records):
    result = evaluate(tiny_model, tiny_records[:12])
    by_id = {r.id: r.label for r in tiny_records[:12]}
    recount = sum(1 for p in result.predictions if p.label == by_id[p.id]) / len(result.predictions)
    assert result.accuracy == recount
    assert result.cm.total() == 12


def test_evaluate_raises_when_accuracy_disagrees_with_recount(monkeypatch, tiny_records):
    monkeypatch.setattr(metrics, "accuracy", lambda cm: -1.0)
    with pytest.raises(MetricsError, match="recount"):
        evaluate(ConstantModel(1.0), tiny_records[:4])


def test_evaluate_rejects_unlabeled(tiny_model, tiny_records):
    records = [dataclasses.replace(tiny_records[0], label=None)]
    with pytest.raises(MetricsError, match="label"):
        evaluate(tiny_model, records)


def test_evaluate_rejects_empty():
    with pytest.raises(MetricsError):
        evaluate(ConstantModel(1.0), [])


def test_evaluate_latency_fields(tiny_model, tiny_records):
    result = evaluate(tiny_model, tiny_records[:5])
    assert 0.0 < result.mean_latency_s <= result.max_latency_s


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_normalize_rejects_titleless_combination():
    with pytest.raises(MetricsError, match="title"):
        normalize_combinations([("tags", "comments")])


def test_normalize_adds_full_set_and_dedupes():
    combos = normalize_combinations([("title",), ("tags", "title"), ("title", "tags")])
    assert combos[0] == MODALITIES
    assert combos.count(("title", "tags")) == 1
    assert len(combos) == 3


def test_default_combinations_all_contain_title():
    for combo in DEFAULT_COMBINATIONS:
        assert "title" in combo


def test_combination_label_canonical_order():
    assert combination_label(("tags", "title")) == "title+tags"
    assert combination_label(MODALITIES) == "+".join(MODALITIES)


def test_sweep_trains_evaluates_and_ranks(tiny_records, tiny_split, tiny_config,
                                          tiny_prepared, tmp_path):
    cfg = dataclasses.replace(tiny_config, max_epochs=2, batch_size=8, patience=5)
    result = sweep_combinations(
        tiny_records, tiny_split, cfg,
        combinations=[MODALITIES, ("title",)],
        out_dir=tmp_path, prepared=tiny_prepared,
    )
    assert {r.label for r in result.rows} == {combination_label(MODALITIES), "title"}
    accs = [r.accuracy for r in result.rows]
    assert accs == sorted(accs, reverse=True)
    for row in result.rows:
        assert (tmp_path / row.checkpoint).exists()
        assert row.epochs >= 1
    csv = result.to_csv()
    assert csv.startswith("combination,accuracy,epochs,checkpoint\n")
    assert len(csv.strip().split("\n")) == 3
    assert result.to_json().strip().startswith("[")
    assert result.to_gnuplot().startswith("# combination accuracy")


def test_sweep_prepares_the_union_of_its_combinations(tiny_records, tiny_split, tiny_config):
    """A title-only base config still trains and ranks the six-modality row."""
    cfg = dataclasses.replace(tiny_config, modalities=("title",), max_epochs=1, batch_size=8)
    result = sweep_combinations(tiny_records, tiny_split, cfg, combinations=[("title",)])
    assert {r.label for r in result.rows} == {combination_label(MODALITIES), "title"}
    assert [r.accuracy for r in result.rows] == sorted((r.accuracy for r in result.rows),
                                                       reverse=True)
    assert result.models[combination_label(MODALITIES)].modalities == MODALITIES


def test_sweep_deterministic(tiny_records, tiny_split, tiny_config, tiny_prepared):
    cfg = dataclasses.replace(tiny_config, max_epochs=2, batch_size=8, patience=5)
    a = sweep_combinations(tiny_records, tiny_split, cfg, combinations=[("title",)],
                           prepared=tiny_prepared)
    b = sweep_combinations(tiny_records, tiny_split, cfg, combinations=[("title",)],
                           prepared=tiny_prepared)
    assert a.to_csv() == b.to_csv()


def test_sweep_evaluates_on_test_split(tiny_records, tiny_split, tiny_config, tiny_prepared):
    cfg = dataclasses.replace(tiny_config, max_epochs=1, batch_size=8)
    result = sweep_combinations(tiny_records, tiny_split, cfg, combinations=[("title",)],
                                prepared=tiny_prepared)
    model = result.models["title"]
    check = evaluate(model, select_records(tiny_records, tiny_split.test),
                     subset=ModalityMask.from_names(["title"]))
    assert result.by_label()["title"].accuracy == check.accuracy
