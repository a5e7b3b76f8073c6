"""Acceptance suite. Each criterion is one test; a summary section prints a
single PASS/FAIL line per criterion at the end of the run (see conftest).
Expensive artifacts (the 2,000-record corpus, sweeps, retrains) are shared
through module-scoped fixtures. Criteria 4 and 5 are executed twice so
criterion 9 can compare the resulting checkpoints and tables byte for byte.
"""

import dataclasses
import time

import numpy as np
import pytest

from baitradar import checks, encoders, fusion
from baitradar.checkpoint import dumps
from baitradar.corpus import (
    SignalStrengths,
    SyntheticConfig,
    generate_synthetic,
    select_records,
    split_dataset,
)
from baitradar.metrics import evaluate, sweep_combinations
from baitradar.modalities import MODALITIES, ModalityMask
from baitradar.model import BaitRadarModel, featurize_record
from baitradar.training import TrainConfig, batch_accuracy, prepare_corpus, train

GRAD_TOL = 1e-4
EQ_ORACLE_TOL = 1e-15
DEGENERACY_TOL = 1e-12
ACCEPTANCE_SEED = 11
OVERFIT_SEED = 7

OVERFIT_CONFIG = TrainConfig(
    seed=OVERFIT_SEED, batch_size=16, max_epochs=200, patience=200, loss_threshold=0.02,
)
SWEEP_CONFIG = TrainConfig(
    seed=ACCEPTANCE_SEED, batch_size=32, max_epochs=60, patience=20, loss_threshold=0.05,
)


def criterion(num, name):
    def deco(fn):
        fn._criterion = (num, name)
        return fn
    return deco


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus64():
    records = generate_synthetic(
        SyntheticConfig(n_records=64, clickbait_ratio=0.5,
                        signal_strengths=SignalStrengths.uniform(1.0), seed=OVERFIT_SEED)
    )
    return records, split_dataset(records, seed=OVERFIT_SEED)


def run_overfit(corpus64):
    records, split = corpus64
    prepared = prepare_corpus(records, split, OVERFIT_CONFIG)
    t0 = time.perf_counter()
    model, report = train(records, split, OVERFIT_CONFIG, prepared=prepared)
    seconds = time.perf_counter() - t0
    feats = [prepared.features[r] for r in split.train]
    labels = np.array([f.label for f in feats])
    train_acc = batch_accuracy(model, feats, [f.present for f in feats], labels)
    return model, report, train_acc, seconds


@pytest.fixture(scope="module")
def overfit_runs(corpus64):
    return run_overfit(corpus64), run_overfit(corpus64)


@pytest.fixture(scope="module")
def corpus2000():
    records = generate_synthetic(
        SyntheticConfig(n_records=2000, clickbait_ratio=0.6,
                        signal_strengths=SignalStrengths.uniform(0.7), seed=ACCEPTANCE_SEED)
    )
    split = split_dataset(records, seed=ACCEPTANCE_SEED)
    prepared = prepare_corpus(records, split, SWEEP_CONFIG)
    return records, split, prepared


def run_sweep(corpus2000, out_dir):
    records, split, prepared = corpus2000
    t0 = time.perf_counter()
    result = sweep_combinations(
        records, split, SWEEP_CONFIG, combinations=[MODALITIES, ("title",)],
        out_dir=out_dir, prepared=prepared,
    )
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_runs(corpus2000, tmp_path_factory):
    a = run_sweep(corpus2000, tmp_path_factory.mktemp("sweep_a"))
    b = run_sweep(corpus2000, tmp_path_factory.mktemp("sweep_b"))
    return a, b


@pytest.fixture(scope="module")
def dropout_model(corpus2000):
    records, split, prepared = corpus2000
    cfg = dataclasses.replace(SWEEP_CONFIG, modality_keep_prob=0.9)
    model, _ = train(records, split, cfg, prepared=prepared)
    return model


@pytest.fixture(scope="module")
def degeneracy_model():
    records = generate_synthetic(SyntheticConfig(n_records=12, clickbait_ratio=0.5, seed=3))
    split = split_dataset(records, seed=3)
    prepared = prepare_corpus(records, split, TrainConfig(seed=3, vocab_min_freq=1))
    model = BaitRadarModel.build(
        MODALITIES, prepared.vocab, prepared.stats_norm, seed=ACCEPTANCE_SEED,
    )
    return model, records[0]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@criterion(1, "gradient integrity")
def test_c01_gradient_integrity():
    t0 = time.perf_counter()
    reports = checks.run_gradient_checks()
    seconds = time.perf_counter() - t0
    names = [name for name, _ in reports]
    for required in ("dense", "embedding", "lstm", "conv_pool_relu", "fusion_head", "whole_model"):
        assert required in names
    for name, report in reports:
        assert report.max_rel_err <= GRAD_TOL, f"{name}: {report.max_rel_err}"
    assert seconds < 60.0, f"gradient checks took {seconds:.1f}s"


@criterion(2, "fusion average matches sum/divide oracle")
def test_c02_fusion_oracle():
    rng = np.random.default_rng(2024)
    dim = 16
    for _ in range(1000):
        n_present = int(rng.integers(1, 7))
        names = list(rng.choice(MODALITIES, size=n_present, replace=False))
        mask = ModalityMask.from_names(names)
        # every modality gets an output; the absent ones must not count
        outputs = {m: rng.normal(size=(1, dim)) for m in MODALITIES}
        rows = {m: np.flatnonzero([getattr(mask, m)]) for m in MODALITIES}
        fused, n = fusion.fuse_batch({m: (r, outputs[m][r]) for m, r in rows.items()}, 1, dim)
        expected = np.zeros(dim)
        for m in mask.names():  # same accumulation order as fuse_batch
            expected = expected + outputs[m][0]
        expected = expected / n_present
        assert n[0] == n_present
        assert np.abs(fused[0] - expected).max() <= EQ_ORACLE_TOL


@criterion(3, "single-modality pipeline degeneracy")
def test_c03_single_modality_degeneracy(degeneracy_model):
    model, record = degeneracy_model
    feats = featurize_record(record, model.vocab, model.stats_norm, model.config).inputs
    for m in MODALITIES:
        pred = model.predict(record, subset=ModalityMask.from_names([m]))
        if m in ("title", "comments", "audio_transcript", "tags"):
            ids = feats[m]
            vec, _ = encoders.encode_text_forward(m, [ids], model.params)
        elif m == "thumbnail":
            px = feats[m][None].astype(np.float64) / 255.0
            vec, _ = encoders.encode_thumbnail_forward(px, model.params, model.config)
        else:
            vec, _ = encoders.encode_stats_forward(feats[m][None], model.params)
        direct, _ = fusion.head_forward(vec, model.params, model.head_arch)
        assert abs(pred.probability - float(direct[0])) <= DEGENERACY_TOL, m


@criterion(4, "overfit 64-record corpus")
def test_c04_overfit(overfit_runs):
    (_, report, train_acc, seconds), _ = overfit_runs
    assert report.epochs_run <= 200
    assert train_acc >= 0.99, f"training accuracy {train_acc}"
    assert seconds < 300.0, f"overfit run took {seconds:.1f}s"


@criterion(5, "six-modality fusion beats title alone")
def test_c05_fusion_beats_title(sweep_runs):
    (result, seconds), _ = sweep_runs
    rows = result.by_label()
    full = rows["+".join(MODALITIES)]
    title = rows["title"]
    print(f"\n  six-model acc={full.accuracy:.4f} ({full.epochs} epochs), "
          f"title-only acc={title.accuracy:.4f} ({title.epochs} epochs)")
    assert full.accuracy >= title.accuracy
    assert full.accuracy >= 0.90
    assert seconds < 1800.0, f"sweep took {seconds:.1f}s"


@criterion(6, "missing-modality robustness")
def test_c06_missing_modality_robustness(corpus2000, dropout_model):
    records, split, _ = corpus2000
    test_records = select_records(records, split.test)
    for dropped in MODALITIES:
        mask = ModalityMask.all().drop(dropped)
        result = evaluate(dropout_model, test_records, subset=mask)
        assert len(result.predictions) == len(test_records)
        for p in result.predictions:
            assert 0.0 <= p.probability <= 1.0
            assert dropped not in p.mask_used.names()
        assert result.accuracy >= 0.75, f"drop {dropped}: accuracy {result.accuracy}"


@criterion(7, "inference latency under two seconds")
def test_c07_latency(corpus2000, dropout_model):
    records, split, _ = corpus2000
    sample = select_records(records, split.test)[:100]
    result = evaluate(dropout_model, sample)
    print(f"\n  latency over {len(sample)} records: "
          f"mean={result.mean_latency_s * 1e3:.1f}ms max={result.max_latency_s * 1e3:.1f}ms")
    assert result.max_latency_s <= 2.0


@criterion(8, "81/9/10 split contract")
def test_c08_split_contract():
    records = generate_synthetic(
        SyntheticConfig(n_records=1000, clickbait_ratio=0.5, seed=13, n_channels=20)
    )
    split = split_dataset(records, seed=13)
    assert split.sizes() == (810, 90, 100)
    parts = (set(split.train), set(split.validation), set(split.test))
    assert parts[0] | parts[1] | parts[2] == {r.id for r in records}
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    disjoint = split_dataset(records, seed=13, channel_disjoint=True)
    channel_of = {r.id: r.channel_id for r in records}
    owner = {}
    for part_name in ("train", "validation", "test"):
        for rid in getattr(disjoint, part_name):
            ch = channel_of[rid]
            assert owner.setdefault(ch, part_name) == part_name
    assert sum(disjoint.sizes()) == 1000


@criterion(9, "determinism of training and sweep artifacts")
def test_c09_determinism(overfit_runs, sweep_runs):
    (model_a, report_a, _, _), (model_b, report_b, _, _) = overfit_runs
    assert dumps(model_a) == dumps(model_b)
    assert report_a.losses == report_b.losses

    (result_a, _), (result_b, _) = sweep_runs
    assert result_a.to_csv() == result_b.to_csv()
    dirs = [row.checkpoint for row in result_a.rows]
    assert dirs == [row.checkpoint for row in result_b.rows]
    for row_a, row_b in zip(result_a.rows, result_b.rows):
        bytes_a = dumps(result_a.models[row_a.label])
        bytes_b = dumps(result_b.models[row_b.label])
        assert bytes_a == bytes_b, f"checkpoint mismatch for {row_a.label}"


@criterion(10, "accuracy matches brute-force recount")
def test_c10_accuracy_recount(corpus2000, dropout_model):
    records, split, _ = corpus2000
    sample = select_records(records, split.test)[:60]
    result = evaluate(dropout_model, sample)
    labels = {r.id: r.label for r in sample}
    hits = sum(1 for p in result.predictions if p.label == labels[p.id])
    assert result.accuracy == hits / len(sample)
    cm = result.cm
    assert cm.total() == len(sample)
    assert result.accuracy == (cm.tp + cm.tn) / cm.total()
