import dataclasses

import numpy as np
import pytest

from baitradar import encoders, fusion
from baitradar.model import (SCORE_CHUNK, BaitRadarModel, ModelError, featurize_record,
                             run_encoders)
from baitradar.modalities import MODALITIES, ModalityMask

from conftest import SMALL_ENCODER


def featurize(model, record):
    return featurize_record(record, model.vocab, model.stats_norm, model.config)


def test_built_model_serves_without_grads_or_moments(tiny_prepared, tiny_records):
    model = BaitRadarModel.build(MODALITIES, tiny_prepared.vocab, tiny_prepared.stats_norm,
                                 SMALL_ENCODER, seed=9)
    model.predict_many(tiny_records[:3])
    for p in model.params.values():
        assert set(vars(p)) == {"name", "value"}, p.name


def test_predict_uses_only_available_modalities(tiny_model, tiny_records):
    rec = dataclasses.replace(tiny_records[0], comments=None)
    pred = tiny_model.predict(rec)
    assert "comments" not in pred.mask_used.names()
    assert pred.mask_used.count() == 5
    assert 0.0 <= pred.probability <= 1.0


def test_predict_subset_restricts_modalities(tiny_model, tiny_records):
    pred = tiny_model.predict(tiny_records[0], subset=ModalityMask.from_names(["title"]))
    assert pred.mask_used.names() == ("title",)


def test_predict_touches_only_requested_modalities(tiny_model, tiny_records):
    # a broken thumbnail path must not matter when the mask excludes it
    rec = dataclasses.replace(tiny_records[0], thumbnail_path="missing/nope.ppm",
                              thumbnail_image=None)
    pred = tiny_model.predict(rec, subset=ModalityMask.from_names(["title", "tags"]))
    assert pred.mask_used.names() == ("title", "tags")


def test_predict_deterministic(tiny_model, tiny_records):
    a = tiny_model.predict(tiny_records[3])
    b = tiny_model.predict(tiny_records[3])
    assert a == b


def test_predict_json_shape(tiny_model, tiny_records):
    obj = tiny_model.predict(tiny_records[1]).to_json_obj()
    assert set(obj) == {"id", "probability", "label", "modalities_used"}
    assert obj["label"] in ("clickbait", "non_clickbait")


def test_predict_errors_when_model_lacks_encoder(tiny_prepared, tiny_records):
    title_only = BaitRadarModel.build(
        ("title",), tiny_prepared.vocab, tiny_prepared.stats_norm, SMALL_ENCODER, seed=1
    )
    with pytest.raises(ModelError, match="tags"):
        title_only.predict(tiny_records[0], subset=ModalityMask.from_names(["title", "tags"]))


def test_predict_errors_on_empty_effective_mask(tiny_model, tiny_records):
    rec = dataclasses.replace(tiny_records[0], tags=None)
    with pytest.raises(ModelError, match=rec.id):
        tiny_model.predict(rec, subset=ModalityMask.from_names(["tags"]))


@pytest.mark.parametrize("modality", MODALITIES)
def test_single_modality_pipeline_equals_direct_encoder_head(tiny_model, tiny_records, modality):
    """With one modality present the full pipeline must collapse to encoder +
    head applied directly (the averaging divides by one)."""
    rec = tiny_records[2]
    pred = tiny_model.predict(rec, subset=ModalityMask.from_names([modality]))

    payload = featurize(tiny_model, rec).inputs[modality]
    if modality in ("title", "comments", "audio_transcript", "tags"):
        vec, _ = encoders.encode_text_forward(modality, [payload], tiny_model.params)
    elif modality == "thumbnail":
        px = payload[None].astype(np.float64) / 255.0
        vec, _ = encoders.encode_thumbnail_forward(px, tiny_model.params, tiny_model.config)
    else:
        vec, _ = encoders.encode_stats_forward(payload[None], tiny_model.params)
    direct, _ = fusion.head_forward(vec, tiny_model.params, tiny_model.head_arch)
    assert abs(pred.probability - float(direct[0])) <= 1e-12


def test_build_requires_modalities(tiny_prepared):
    with pytest.raises(ModelError):
        BaitRadarModel.build((), tiny_prepared.vocab, tiny_prepared.stats_norm, SMALL_ENCODER)


def test_build_rejects_unknown_modality(tiny_prepared):
    with pytest.raises(ModelError, match="audio"):
        BaitRadarModel.build(("title", "audio"), tiny_prepared.vocab, tiny_prepared.stats_norm,
                             SMALL_ENCODER)


def test_build_same_seed_same_weights(tiny_prepared):
    a = BaitRadarModel.build(MODALITIES, tiny_prepared.vocab, tiny_prepared.stats_norm,
                             SMALL_ENCODER, seed=3)
    b = BaitRadarModel.build(MODALITIES, tiny_prepared.vocab, tiny_prepared.stats_norm,
                             SMALL_ENCODER, seed=3)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].value, b.params[name].value)


def test_parameter_names_follow_prefix_scheme(tiny_model):
    for name in tiny_model.params:
        head, layer, tensor = name.split(".")
        assert head in MODALITIES + ("head",)
        assert layer and tensor


def test_dense_and_conv_tensor_names_and_shapes_are_pinned(tiny_model):
    """Tensor names and shapes are the checkpoint format. At SMALL_ENCODER
    the conv stack flattens to 3 channels x 2 x 2 = 12."""
    shapes = {n: p.value.shape for n, p in tiny_model.params.items()
              if n.split(".")[0] in ("thumbnail", "statistics", "head")}
    assert shapes == {
        "thumbnail.conv1.kernels": (2, 3, 3, 3), "thumbnail.conv1.bias": (2,),
        "thumbnail.conv2.kernels": (3, 2, 3, 3), "thumbnail.conv2.bias": (3,),
        "thumbnail.dense.w": (12, 8), "thumbnail.dense.b": (8,),
        "statistics.dense1.w": (5, 6), "statistics.dense1.b": (6,),
        "statistics.dense2.w": (6, 8), "statistics.dense2.b": (8,),
        "head.dense1.w": (8, 6), "head.dense1.b": (6,),
        "head.dense2.w": (6, 1), "head.dense2.b": (1,),
    }
    probe = BaitRadarModel.build(("tags",), tiny_model.vocab, tiny_model.stats_norm,
                                 SMALL_ENCODER, seed=3, head_arch="linear")
    heads = {n: p.value.shape for n, p in probe.params.items() if ".head." in n}
    assert heads == {"tags.head.w": (8, 1), "tags.head.b": (1,)}


def test_forward_batch_matches_per_record_predictions(tiny_model, tiny_records):
    """Batching is an implementation detail: probabilities must agree with
    one-record batches."""
    records = tiny_records[:6]
    feats = [featurize(tiny_model, r) for r in records]
    masks = [f.present for f in feats]
    batch_probs, _ = tiny_model.forward_features(feats, masks)
    for i, rec in enumerate(records):
        single_probs, _ = tiny_model.forward_features([feats[i]], [masks[i]])
        assert abs(batch_probs[i] - single_probs[0]) < 1e-9
        pred = tiny_model.predict(rec)
        assert abs(pred.probability - single_probs[0]) < 1e-12


def test_load_param_values_shape_guard(tiny_model):
    with pytest.raises(ModelError):
        tiny_model.load_param_values({"head.dense1.w": np.zeros((2, 2))})


def _with_gaps(records):
    """The records with comments, the thumbnail or the statistics removed
    from every third, fifth and seventh record respectively."""
    out = []
    for i, rec in enumerate(records):
        if i % 3 == 0:
            rec = dataclasses.replace(rec, comments=None)
        if i % 5 == 0:
            rec = dataclasses.replace(rec, thumbnail_path=None, thumbnail_image=None)
        if i % 7 == 0:
            rec = dataclasses.replace(rec, stats=None)
        out.append(rec)
    return out


@pytest.mark.parametrize("subset", [None, ("title", "tags")])
def test_predict_many_agrees_with_per_record_predict(tiny_model, tiny_records, subset):
    """All 40 records span two score passes; batching changes no label or
    mask and moves a probability by at most rounding."""
    records = _with_gaps(tiny_records)
    mask = ModalityMask.from_names(subset) if subset else None
    many = tiny_model.predict_many(records, mask)
    assert len(many) == len(records) > SCORE_CHUNK
    for rec, got in zip(records, many):
        one = tiny_model.predict(rec, mask)
        assert (got.id, got.label, got.mask_used) == (one.id, one.label, one.mask_used)
        assert abs(got.probability - one.probability) <= 1e-12
    if subset is None:
        assert {p.mask_used.count() for p in many} == {3, 4, 5, 6}


def test_predict_many_of_no_records_is_empty(tiny_model):
    assert tiny_model.predict_many([]) == []
    assert tiny_model.score([], []).shape == (0,)


def test_predict_many_checks_every_mask_before_featurizing(tiny_model, tiny_records,
                                                            monkeypatch):
    """A record with no usable modality fails the whole call before any
    record is featurized, so no partial output can escape."""
    import baitradar.model as model_module

    calls = []
    monkeypatch.setattr(model_module, "featurize_record",
                        lambda *a, **k: calls.append(a) or featurize_record(*a, **k))
    records = list(tiny_records[:6])
    records[5] = dataclasses.replace(records[5], tags=None)
    with pytest.raises(ModelError, match=records[5].id):
        tiny_model.predict_many(records, ModalityMask.from_names(["tags"]))
    assert calls == []


def test_score_runs_passes_of_at_most_score_chunk_rows(tiny_model, tiny_records, monkeypatch):
    """Pins the memory bound: 40 rows are scored as one pass of 32 and one
    of 8, never as one 40-row pass."""
    feats = [featurize(tiny_model, r) for r in tiny_records]
    masks = [f.present for f in feats]
    expected = tiny_model.score(feats, masks)
    sizes = []
    original = tiny_model.forward_features

    def spy(batch, batch_masks):
        sizes.append(len(batch))
        return original(batch, batch_masks)

    monkeypatch.setattr(tiny_model, "forward_features", spy)
    probs = tiny_model.score(feats, masks)
    assert SCORE_CHUNK == 32 and sizes == [32, 8]
    np.testing.assert_array_equal(probs, expected)


def test_forward_features_is_run_encoders_then_fusion_and_head(tiny_model, tiny_records):
    """run_encoders gives each modality's rows and outputs in canonical
    order, and fuse_head on them gives forward_features' probabilities bit
    for bit."""
    feats = [featurize(tiny_model, r) for r in tiny_records[:5]]
    masks = [ModalityMask.from_names(["tags", "title"]), ModalityMask.from_names(["thumbnail"]),
             ModalityMask.all(), ModalityMask.from_names(["tags"]),
             ModalityMask.from_names(["statistics", "title"])]
    encoded, caches = run_encoders(tiny_model.modalities, [f.inputs for f in feats], masks,
                                   tiny_model.params, tiny_model.config)
    assert list(encoded) == list(caches) == [
        "title", "thumbnail", "comments", "audio_transcript", "tags", "statistics"]
    assert encoded["title"][0].tolist() == [0, 2, 4]
    assert encoded["tags"][0].tolist() == [0, 2, 3]
    assert encoded["comments"][0].tolist() == [2]
    probs, _ = tiny_model.fuse_head(encoded, len(feats))
    assert probs.tobytes() == tiny_model.forward_features(feats, masks)[0].tobytes()
