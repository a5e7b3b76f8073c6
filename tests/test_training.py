import dataclasses

import numpy as np
import pytest

from baitradar.checkpoint import dumps
from baitradar.corpus import (
    DatasetSplit,
    SignalStrengths,
    SyntheticConfig,
    generate_synthetic,
    split_dataset,
)
from baitradar.encoders import ConfigError, EncoderConfig
from baitradar.modalities import ModalityMask
from baitradar.model import BaitRadarModel
from baitradar.training import (
    STOP_LOSS_THRESHOLD,
    STOP_PATIENCE,
    TrainConfig,
    TrainingError,
    _drop_modalities,
    prepare_corpus,
    train,
    train_individual,
)

from conftest import SMALL_ENCODER


def quick_config(**kw):
    defaults = dict(seed=5, encoder=SMALL_ENCODER, vocab_min_freq=1,
                    batch_size=8, max_epochs=3, patience=10, loss_threshold=1e-9)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_lr_zero_leaves_parameters_bit_identical(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(lr=0.0, max_epochs=2)
    model, _ = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    reference = BaitRadarModel.build(
        cfg.modalities, tiny_prepared.vocab, tiny_prepared.stats_norm,
        cfg.encoder, seed=cfg.seed,
    )
    for name, p in model.params.items():
        assert p.value.tobytes() == reference.params[name].value.tobytes(), name


def test_head_only_freezes_exactly_the_encoders(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(max_epochs=2)
    pretrained = BaitRadarModel.build(
        cfg.modalities, tiny_prepared.vocab, tiny_prepared.stats_norm,
        cfg.encoder, seed=77,
    )
    before = pretrained.copy_param_values()
    cfg2 = dataclasses.replace(cfg, regime="head_only")
    model, _ = train(tiny_records, tiny_split, cfg2, init=pretrained, prepared=tiny_prepared)
    changed = {n for n, p in model.params.items()
               if p.value.tobytes() != before[n].tobytes()}
    assert changed == {n for n in model.params if n.startswith("head.")}


def test_finetune_starts_from_init_and_moves_everything(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(max_epochs=2)
    pretrained = BaitRadarModel.build(
        cfg.modalities, tiny_prepared.vocab, tiny_prepared.stats_norm, cfg.encoder, seed=78,
    )
    before = pretrained.copy_param_values()
    cfg2 = dataclasses.replace(cfg, regime="finetune")
    model, _ = train(tiny_records, tiny_split, cfg2, init=pretrained, prepared=tiny_prepared)
    moved = [n for n, p in model.params.items() if p.value.tobytes() != before[n].tobytes()]
    assert any(not n.startswith("head.") for n in moved)


def test_head_only_requires_init(tiny_records, tiny_split, tiny_prepared):
    with pytest.raises(TrainingError, match="init"):
        train(tiny_records, tiny_split, quick_config(regime="head_only"),
              prepared=tiny_prepared)


def test_scratch_rejects_init(tiny_records, tiny_split, tiny_prepared, tiny_model):
    with pytest.raises(TrainingError, match="scratch"):
        train(tiny_records, tiny_split, quick_config(), init=tiny_model,
              prepared=tiny_prepared)


def test_loss_threshold_stops_after_first_epoch(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(loss_threshold=10.0, max_epochs=50)
    _, report = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    assert report.epochs_run == 1
    assert report.stop_reason == STOP_LOSS_THRESHOLD


def test_patience_stop_when_validation_stalls(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(lr=0.0, patience=2, max_epochs=50)
    _, report = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    assert report.stop_reason == STOP_PATIENCE
    assert report.epochs_run == 3  # epoch 1 improves from nothing, then 2 stale


def test_training_deterministic_bit_identical(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(max_epochs=3)
    a, report_a = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    b, report_b = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    assert dumps(a) == dumps(b)
    assert report_a.losses == report_b.losses
    assert report_a.val_accuracies == report_b.val_accuracies


def test_best_validation_bookkeeping(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(max_epochs=4)
    _, report = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    best = report.val_accuracies[report.best_epoch - 1]
    assert best == max(report.val_accuracies)


def test_report_jsonl_has_epoch_lines_and_summary(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(max_epochs=2)
    _, report = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    lines = report.to_jsonl().strip().split("\n")
    assert len(lines) == report.epochs_run + 1
    assert "wall" not in report.to_jsonl()


def test_empty_training_split_rejected(tiny_records, tiny_prepared):
    empty = DatasetSplit(train=(), validation=("v00001",), test=("v00002",),
                         seed=0, channel_disjoint=False)
    with pytest.raises(TrainingError, match="empty training split"):
        train(tiny_records, empty, quick_config(), prepared=tiny_prepared)


def test_unlabeled_training_record_rejected(tiny_records, tiny_split, tiny_config):
    stripped = [dataclasses.replace(r, label=None) for r in tiny_records]
    prepared = prepare_corpus(stripped, tiny_split, tiny_config)
    with pytest.raises(TrainingError, match="label"):
        train(stripped, tiny_split, quick_config(), prepared=prepared)


def test_modality_dropout_never_empties_mask():
    rng = np.random.default_rng(0)
    mask = ModalityMask.from_names(["title", "tags"])
    for _ in range(200):
        dropped = _drop_modalities(mask, rng, keep_prob=0.05)
        assert dropped.count() >= 1
        assert set(dropped.names()) <= {"title", "tags"}


def test_dropout_training_runs_and_is_deterministic(tiny_records, tiny_split, tiny_prepared):
    cfg = quick_config(max_epochs=2, modality_keep_prob=0.7)
    a, _ = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    b, _ = train(tiny_records, tiny_split, cfg, prepared=tiny_prepared)
    assert dumps(a) == dumps(b)


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(TrainingError):
        TrainConfig(loss_threshold=0.0).validate()
    with pytest.raises(TrainingError):
        TrainConfig(patience=0).validate()
    with pytest.raises(TrainingError):
        TrainConfig(regime="magic").validate()
    with pytest.raises(TrainingError):
        TrainConfig(regime="individual").validate()  # six modalities
    with pytest.raises(TrainingError):
        TrainConfig(modalities=("title", "audio")).validate()
    with pytest.raises(TrainingError):
        TrainConfig(modality_keep_prob=0.0).validate()
    with pytest.raises(TrainingError, match="must be int"):
        TrainConfig(patience=True)  # a bool is not a number
    with pytest.raises(TrainingError, match="batch_size"):
        dataclasses.replace(TrainConfig(), batch_size=0)
    with pytest.raises(ConfigError, match="must be int"):
        EncoderConfig(fusion_dim=True)
    # conv 2 would output 2 - 5 + 1 = -2, and the final side of -1 squares
    # back to a positive flattened size
    with pytest.raises(ConfigError, match="thumb_size"):
        EncoderConfig(thumb_size=8)
    assert TrainConfig(modalities=["title"]).modalities == ("title",)
    assert EncoderConfig(conv_channels=[2, 3]).conv_channels == (2, 3)


# ---------------------------------------------------------------------------
# individual models on planted signals
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def signal_corpus():
    records = generate_synthetic(SyntheticConfig(n_records=300, clickbait_ratio=0.5, seed=21))
    return records, split_dataset(records, seed=21)


def test_tags_only_model_learns_planted_count_signal(signal_corpus):
    records, split = signal_corpus
    cfg = quick_config(seed=21, max_epochs=80, loss_threshold=0.05, patience=25)
    model, report = train_individual("tags", records, split, cfg)
    from baitradar.metrics import evaluate
    from baitradar.corpus import select_records

    result = evaluate(model, select_records(records, split.test),
                      subset=ModalityMask.from_names(["tags"]))
    assert result.accuracy > 0.9
    assert model.head_arch == "linear"
    assert "tags.head.w" in model.params


def test_stats_only_model_at_zero_signal_is_chance_level():
    cfg = SyntheticConfig(
        n_records=400, clickbait_ratio=0.5, seed=31,
        signal_strengths=SignalStrengths(statistics=0.0),
    )
    records = generate_synthetic(cfg)
    split = split_dataset(records, seed=31)
    tcfg = quick_config(seed=31, max_epochs=30, loss_threshold=0.05, patience=30)
    model, _ = train_individual("statistics", records, split, tcfg)
    from baitradar.metrics import evaluate
    from baitradar.corpus import select_records

    result = evaluate(model, select_records(records, split.test),
                      subset=ModalityMask.from_names(["statistics"]))
    assert abs(result.accuracy - 0.5) <= 0.1


def test_individual_training_deterministic(signal_corpus):
    records, split = signal_corpus
    cfg = quick_config(seed=21, max_epochs=3)
    a, _ = train_individual("title", records, split, cfg)
    b, _ = train_individual("title", records, split, cfg)
    assert dumps(a) == dumps(b)
