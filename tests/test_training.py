import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baitradar import encoders
from baitradar.checkpoint import dumps
from baitradar.corpus import (
    DatasetSplit,
    SignalStrengths,
    SyntheticConfig,
    generate_synthetic,
    load_jsonl,
    split_dataset,
    write_corpus,
)
from baitradar.encoder_groups import EncoderGroup
from baitradar.encoders import ConfigError, EncoderConfig
from baitradar.modalities import ModalityMask
from baitradar.model import BaitRadarModel, featurize_record
from baitradar.training import (
    STOP_LOSS_THRESHOLD,
    STOP_PATIENCE,
    TrainConfig,
    TrainingError,
    _drop_modalities,
    batch_accuracy,
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


def test_head_only_runs_no_encoder_backward(tiny_records, tiny_split, tiny_prepared,
                                            monkeypatch):
    calls = []
    for m, kind in encoders.ENCODERS.items():
        def spy(d_out, cache, params, m=m, kind=kind):
            calls.append(m)
            kind.backward(d_out, cache, params)
        monkeypatch.setitem(encoders.ENCODERS, m, dataclasses.replace(kind, backward=spy))
    cfg = quick_config(max_epochs=1)
    pretrained = BaitRadarModel.build(
        cfg.modalities, tiny_prepared.vocab, tiny_prepared.stats_norm, cfg.encoder, seed=79,
    )
    train(tiny_records, tiny_split, dataclasses.replace(cfg, regime="head_only"),
          init=pretrained, prepared=tiny_prepared)
    assert calls == []
    train(tiny_records, tiny_split, dataclasses.replace(cfg, regime="finetune"),
          init=pretrained, prepared=tiny_prepared)
    assert set(calls) == set(cfg.modalities)


def test_head_only_checkpoint_equals_one_that_backpropagates_everything(
        tiny_records, tiny_split, tiny_prepared, monkeypatch):
    cfg = quick_config(max_epochs=2, regime="head_only")
    pretrained = BaitRadarModel.build(
        cfg.modalities, tiny_prepared.vocab, tiny_prepared.stats_norm, cfg.encoder, seed=80,
    )
    skipping, _ = train(tiny_records, tiny_split, cfg, init=pretrained, prepared=tiny_prepared)
    step = EncoderGroup.step

    def backpropagating_step(self, d_outs, t):
        for m, d_out in d_outs.items():
            encoders.ENCODERS[m].backward(d_out, self._caches[m], self.params)
        step(self, d_outs, t)

    monkeypatch.setattr(EncoderGroup, "step", backpropagating_step)
    full, _ = train(tiny_records, tiny_split, cfg, init=pretrained, prepared=tiny_prepared)
    assert dumps(skipping) == dumps(full)


def test_trained_model_holds_no_grads_or_moments(tiny_records, tiny_split, tiny_prepared):
    for regime, init in (("scratch", None), ("head_only", "pretrained")):
        cfg = quick_config(max_epochs=1, regime=regime)
        if init:
            init = BaitRadarModel.build(cfg.modalities, tiny_prepared.vocab,
                                        tiny_prepared.stats_norm, cfg.encoder, seed=81)
        model, _ = train(tiny_records, tiny_split, cfg, init=init, prepared=tiny_prepared)
        for p in model.params.values():
            assert set(vars(p)) == {"name", "value"}, (regime, p.name)


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


def test_record_without_a_usable_modality_is_named(tiny_records, tiny_split):
    """A thumbnail-only model cannot train on a record that has no thumbnail;
    the error names the record before any batch runs."""
    victim = tiny_split.train[3]
    records = [dataclasses.replace(r, thumbnail_path=None, thumbnail_image=None)
               if r.id == victim else r for r in tiny_records]
    with pytest.raises(ValueError, match=victim):
        train(records, tiny_split, quick_config(modalities=("thumbnail",)))


def test_batch_accuracy_counts_like_one_row_forwards(tiny_model, tiny_prepared, tiny_records):
    """40 rows cross a score-pass boundary; the count must equal the one
    from one forward per row."""
    feats = [featurize_record(r, tiny_prepared.vocab, tiny_prepared.stats_norm, SMALL_ENCODER)
             for r in tiny_records]
    masks = [f.present for f in feats]
    labels = np.array([f.label for f in feats])
    assert len(feats) == 40
    hits = sum(
        int((tiny_model.forward_features([f], [m])[0][0] >= 0.5) == bool(y))
        for f, m, y in zip(feats, masks, labels)
    )
    assert batch_accuracy(tiny_model, feats, masks, labels) == hits / 40


def test_text_only_training_from_disk_never_opens_a_thumbnail(tiny_records, tiny_split,
                                                               tmp_path, monkeypatch):
    """Only the training and validation records are featurized, and only for
    the trained modalities, so no PPM file is read."""
    write_corpus(tiny_records, tmp_path / "corpus.jsonl")
    records = load_jsonl(tmp_path / "corpus.jsonl")
    assert all(r.thumbnail_path is not None for r in records)

    def refuse(path):
        raise AssertionError(f"opened thumbnail {path}")

    monkeypatch.setattr(encoders, "load_ppm", refuse)
    cfg = quick_config(modalities=("title", "tags"), max_epochs=1)
    prepared = prepare_corpus(records, tiny_split, cfg, base_dir=tmp_path)
    train(records, tiny_split, cfg, base_dir=tmp_path)
    train(records, tiny_split, cfg, prepared=prepared)
    assert set(prepared.features) == {*tiny_split.train, *tiny_split.validation}
    assert prepared.modalities == ("title", "tags")
    for feats in prepared.features.values():
        assert set(feats.inputs) <= set(cfg.modalities)


def test_native_size_thumbnails_are_prepared_without_a_pixel_copy(tiny_records, tiny_split):
    """Generated thumbnails are already the default encoder's size, so each
    payload is a view of its record's own pixel bytes."""
    cfg = quick_config(encoder=EncoderConfig(), modalities=("thumbnail",))
    prepared = prepare_corpus(tiny_records, tiny_split, cfg)
    by_id = {r.id: r for r in tiny_records}
    payloads = [(by_id[i], f.inputs["thumbnail"]) for i, f in prepared.features.items()
                if "thumbnail" in f.inputs]
    assert payloads
    for record, px in payloads:
        pixels = np.frombuffer(record.thumbnail_image.data, np.uint8)
        assert px.shape == (3, cfg.encoder.thumb_size, cfg.encoder.thumb_size)
        assert np.shares_memory(px, pixels), record.id


def test_prepared_corpus_lacking_a_trained_modality_is_refused(tiny_records, tiny_split):
    prepared = prepare_corpus(tiny_records, tiny_split, quick_config(modalities=("title",)))
    with pytest.raises(TrainingError, match="thumbnail"):
        train(tiny_records, tiny_split, quick_config(modalities=("title", "thumbnail")),
              prepared=prepared)


def test_prepared_corpus_lacking_a_split_record_is_refused(tiny_records, tiny_split,
                                                           tiny_prepared):
    """A split that names a test record the corpus was not prepared for."""
    stranger = tiny_split.test[0]
    assert stranger not in tiny_prepared.features
    split = dataclasses.replace(tiny_split, validation=(*tiny_split.validation, stranger))
    with pytest.raises(TrainingError, match=stranger):
        train(tiny_records, split, quick_config(), prepared=tiny_prepared)


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


# trains in a fresh interpreter and writes the checkpoint and report.jsonl
# bytes; the default EncoderConfig, since its thumbnail projection contracts
# over 2,704 inputs, where a BLAS thread count could change the summation order
_TRAIN_IN_CHILD = """
import sys
from pathlib import Path
from baitradar.checkpoint import dumps
from baitradar.corpus import SyntheticConfig, generate_synthetic, split_dataset
from baitradar.training import TrainConfig, train

records = generate_synthetic(SyntheticConfig(n_records=60, seed=5))
cfg = TrainConfig(seed=5, vocab_min_freq=1, batch_size=32, max_epochs=1, modality_keep_prob=0.7)
model, report = train(records, split_dataset(records, seed=5), cfg)
out = Path(sys.argv[1])
(out / "model.ckpt").write_bytes(dumps(model))
(out / "report.jsonl").write_text(report.to_jsonl())
"""


def test_training_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """Artifacts are byte-stable across processes: string hashing, which
    differs per process, must not leak in, and neither must the BLAS thread
    count."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed, threads in (("1", "1"), ("2", "1"), ("1", "2")):
        out = tmp_path / f"{hash_seed}-{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", _TRAIN_IN_CHILD, str(out)], env=env,
                       check=True, timeout=300)
        outputs.append([(out / name).read_bytes() for name in ("model.ckpt", "report.jsonl")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainingError):
        TrainConfig(loss_threshold=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(patience=0)
    with pytest.raises(TrainingError):
        TrainConfig(regime="magic")
    with pytest.raises(TrainingError):
        TrainConfig(regime="individual")  # six modalities
    with pytest.raises(TrainingError):
        TrainConfig(modalities=("title", "audio"))
    with pytest.raises(TrainingError):
        TrainConfig(modality_keep_prob=0.0)
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


@pytest.mark.parametrize("field,value", [
    ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", float("nan")),
    ("adam_eps", 0.0), ("adam_eps", float("inf")),
    ("seed", -1), ("vocab_max_size", 1), ("vocab_min_freq", 0), ("vocab_min_freq", -1),
])
def test_out_of_range_optimizer_and_setup_values_rejected(field, value):
    with pytest.raises(TrainingError, match=field):
        TrainConfig(**{field: value})


def test_range_edges_accepted():
    TrainConfig(lr=0.0, beta1=0.0, beta2=0.0, adam_eps=1e-300, seed=0, vocab_max_size=2,
                vocab_min_freq=1)


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
