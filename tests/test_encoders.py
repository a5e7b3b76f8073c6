import numpy as np
import pytest

from baitradar import nncore
from baitradar.corpus import StatsFeatures, ThumbnailImage, VideoRecord
from baitradar.encoders import (
    ENCODERS,
    EncoderConfig,
    NormalizationError,
    StatsNormalizer,
    encode_stats_forward,
    encode_text_forward,
    encode_thumbnail_backward,
    encode_thumbnail_forward,
    init_stats_params,
    init_text_params,
    init_thumbnail_params,
    prepare_thumbnail,
)
from baitradar.modalities import TEXT_MODALITIES
from baitradar.model import featurize_record
from baitradar.textpipe import MAX_LEN, build_vocab, modality_text, tokenize

CFG = EncoderConfig(fusion_dim=6, embed_dim=4, conv_channels=(2, 3), conv_kernel=3,
                    pool_size=2, thumb_size=16, stats_hidden=5, head_hidden=4)


def params_of(values):
    return {n: nncore.Parameter(n, v) for n, v in values.items()}


def stats_record(**kw):
    defaults = dict(views=1000, likes=50, dislikes=5, comment_count=20, duration_s=300)
    defaults.update(kw)
    return StatsFeatures(**defaults)


# ---------------------------------------------------------------------------
# text encoders
# ---------------------------------------------------------------------------

def test_text_empty_sequence_yields_zero_vector():
    params = params_of(init_text_params("title", 10, CFG, np.random.default_rng(0)))
    h, _ = encode_text_forward("title", [np.zeros(0, dtype=np.int64)], params)
    np.testing.assert_array_equal(h, np.zeros((1, CFG.fusion_dim)))


def test_text_encoder_deterministic():
    params = params_of(init_text_params("title", 10, CFG, np.random.default_rng(1)))
    payloads = [np.array([3, 1, 4])]
    h1, _ = encode_text_forward("title", payloads, params)
    h2, _ = encode_text_forward("title", payloads, params)
    np.testing.assert_array_equal(h1, h2)


def test_text_modalities_have_independent_parameters():
    rng = np.random.default_rng(2)
    title = params_of(init_text_params("title", 10, CFG, rng))
    tags = params_of(init_text_params("tags", 10, CFG, rng))
    payloads = [np.array([2, 5, 1])]
    h_title, _ = encode_text_forward("title", payloads, title)
    h_tags, _ = encode_text_forward("tags", payloads, tags)
    assert np.abs(h_title - h_tags).max() > 1e-6


def test_text_encoder_output_dimension_is_fusion_dim():
    params = params_of(init_text_params("comments", 12, CFG, np.random.default_rng(3)))
    h, _ = encode_text_forward("comments", [np.array([1, 2, 3, 4])], params)
    assert h.shape == (1, CFG.fusion_dim)


def test_text_encoder_rejects_out_of_vocab_id():
    params = params_of(init_text_params("title", 4, CFG, np.random.default_rng(4)))
    with pytest.raises(nncore.ShapeError):
        encode_text_forward("title", [np.array([7])], params)


def test_text_payload_is_the_kept_token_ids():
    vocab = build_vocab(["you won t believe this diy hack w0 w1 w2 w3"], max_size=50, min_freq=1)
    long_transcript = " ".join(f"w{i % 9}" for i in range(300))  # w4..w8 are unknown
    records = [
        VideoRecord(id="a", channel_id="c", title="You WON'T believe this!",
                    tags=["diy", "hack", "zebra"], comments=[f"w{i} hack" for i in range(30)],
                    transcript=long_transcript),
        VideoRecord(id="b", channel_id="c", title="!!! ???", tags=[], comments=[],
                    transcript="this"),
    ]
    inputs = [featurize_record(rec, vocab, StatsNormalizer(), CFG).inputs for rec in records]
    for rec, payloads in zip(records, inputs):
        for m in TEXT_MODALITIES:
            expected = [vocab.id_of(t) for t in tokenize(modality_text(rec, m))[:MAX_LEN[m]]]
            assert payloads[m].dtype == np.int64, m
            assert payloads[m].tolist() == expected, (rec.id, m)
    assert len(inputs[0]["audio_transcript"]) == MAX_LEN["audio_transcript"]
    assert inputs[1]["title"].shape == (0,)


def text_payloads(lengths, seed=6):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, 12, size=n).astype(np.int64) for n in lengths]


def test_text_batch_rows_equal_each_row_run_alone():
    params = params_of(init_text_params("comments", 12, CFG, np.random.default_rng(7)))
    payloads = text_payloads([5, 0, 2, 9])
    h, _ = ENCODERS["comments"].forward("comments", payloads, params, CFG)
    assert h.shape == (4, CFG.fusion_dim)
    for row, ids in zip(h, payloads):
        alone, _ = encode_text_forward("comments", [ids], params)
        assert np.abs(row - alone[0]).max() <= 1e-12
    np.testing.assert_array_equal(h[1], np.zeros(CFG.fusion_dim))
    h, _ = ENCODERS["comments"].forward("comments", text_payloads([0, 0, 0]), params, CFG)
    np.testing.assert_array_equal(h, np.zeros((3, CFG.fusion_dim)))


def test_text_batch_embeds_exactly_its_concatenated_ids(monkeypatch):
    params = params_of(init_text_params("comments", 12, CFG, np.random.default_rng(9)))
    payloads = text_payloads([5, 0, 2, 9])
    looked_up = []
    real = nncore.embedding_forward

    def spy(ids, table):
        looked_up.append(ids)
        return real(ids, table)

    monkeypatch.setattr(nncore, "embedding_forward", spy)
    ENCODERS["comments"].forward("comments", payloads, params, CFG)
    assert len(looked_up) == 1
    assert looked_up[0].shape == (16,)
    np.testing.assert_array_equal(looked_up[0], np.concatenate(payloads))


def test_text_embedding_grad_scatters_payload_ids_in_row_order():
    """The table grad is np.add.at over the payload ids in row-major order,
    bit for bit. Float sums depend on their order, and on this batch a
    scatter in the LSTM's time-major order gives other bits."""
    params = params_of(init_text_params("comments", 12, CFG, np.random.default_rng(10)))
    # three distinct ids, so each table row sums many terms
    payloads = [ids % 3 + 1 for ids in text_payloads([30, 0, 12, 45])]
    h, cache = ENCODERS["comments"].forward("comments", payloads, params, CFG)
    d_h = np.random.default_rng(11).normal(size=h.shape)
    ENCODERS["comments"].backward(d_h, cache, params)
    d_x = nncore.lstm_backward(d_h, cache[2])[0]
    ids = np.concatenate(payloads)
    row_major = np.zeros((12, CFG.embed_dim))
    np.add.at(row_major, ids, d_x)
    assert params["comments.embedding.table"].grad.tobytes() == row_major.tobytes()
    time_major = np.argsort(np.concatenate([np.arange(len(p)) for p in payloads]), kind="stable")
    other = np.zeros_like(row_major)
    np.add.at(other, ids[time_major], d_x[time_major])
    assert other.tobytes() != row_major.tobytes()


# ---------------------------------------------------------------------------
# thumbnail encoder
# ---------------------------------------------------------------------------

def test_thumbnail_zero_image_zero_biases_gives_zero():
    params = params_of(init_thumbnail_params(CFG, np.random.default_rng(5)))
    out, _ = encode_thumbnail_forward(np.zeros((2, 3, 16, 16)), params, CFG)
    np.testing.assert_array_equal(out, np.zeros((2, CFG.fusion_dim)))


def test_thumbnail_deterministic():
    rng = np.random.default_rng(6)
    params = params_of(init_thumbnail_params(CFG, rng))
    px = rng.uniform(size=(1, 3, 16, 16))
    a, _ = encode_thumbnail_forward(px, params, CFG)
    b, _ = encode_thumbnail_forward(px, params, CFG)
    np.testing.assert_array_equal(a, b)


def test_thumbnail_rejects_non_rgb():
    params = params_of(init_thumbnail_params(CFG, np.random.default_rng(7)))
    with pytest.raises(nncore.ShapeError):
        encode_thumbnail_forward(np.zeros((1, 1, 16, 16)), params, CFG)


def relu_then_pool_thumbnail(px, params, cfg, d_out):
    """The thumbnail encoder with nncore's conv -> relu -> pool order in both
    passes; accumulates the parameter grads and returns the output."""
    x, caches = px, []
    for conv in ("thumbnail.conv1", "thumbnail.conv2"):
        x, conv_cache = nncore.conv2d_forward(x, params[f"{conv}.kernels"].value,
                                              params[f"{conv}.bias"].value)
        x, relu_cache = nncore.relu_forward(x)
        x, pool_cache = nncore.max_pool2d_forward(x, cfg.pool_size)
        caches.append((conv, conv_cache, relu_cache, pool_cache))
    out, dense_cache = nncore.dense_stack_forward(x.reshape(len(x), -1), params, ("thumbnail.dense",))
    d_x = nncore.dense_stack_backward(d_out, dense_cache, params).reshape(x.shape)
    for k in reversed(range(len(caches))):
        conv, conv_cache, relu_cache, pool_cache = caches[k]
        d_x = nncore.relu_backward(nncore.max_pool2d_backward(d_x, pool_cache), relu_cache)
        d_x, d_kernels, d_bias = nncore.conv2d_backward(d_x, conv_cache, need_dx=k > 0)
        params[f"{conv}.kernels"].grad += d_kernels
        params[f"{conv}.bias"].grad += d_bias
    return out


def test_thumbnail_pool_before_relu_is_exact():
    rng = np.random.default_rng(9)
    values = init_thumbnail_params(CFG, rng)
    # biases of both signs leave some channels with all-negative windows
    values["thumbnail.conv1.bias"] = np.array([-0.4, 0.3])
    values["thumbnail.conv2.bias"] = np.array([-0.5, 0.2, 0.0])
    # three grey levels in 4x4 blocks, and an all-black image: pooling
    # windows hold tied maxima and all-zero or all-negative plateaus
    levels = rng.integers(0, 3, size=(5, 3, 4, 4)) / 2.0
    px = np.repeat(np.repeat(levels, 4, axis=2), 4, axis=3)
    px[0] = 0.0
    d_out = rng.normal(size=(5, CFG.fusion_dim))
    ref_params, params = params_of(values), params_of(values)
    expected = relu_then_pool_thumbnail(px, ref_params, CFG, d_out)
    out, cache = encode_thumbnail_forward(px, params, CFG)
    encode_thumbnail_backward(d_out, cache, params)
    assert out.tobytes() == expected.tobytes()
    for name, p in params.items():
        assert p.grad.tobytes() == ref_params[name].grad.tobytes(), name


def test_thumbnail_directional_derivatives_at_model_shapes():
    """g.v against a central difference along one seeded unit direction per
    parameter, at the default EncoderConfig: four 64x64 images, 5x5 kernels,
    pool 2. About one seed in five steps across a ReLU or max-pool kink and
    misses by far more than 1e-6; at this seed no step does."""
    cfg = EncoderConfig()
    rng = np.random.default_rng(0)
    values = init_thumbnail_params(cfg, rng)
    for conv, c_out in zip(("thumbnail.conv1", "thumbnail.conv2"), cfg.conv_channels):
        values[f"{conv}.bias"] = rng.normal(size=c_out) * 0.1
    px = rng.uniform(size=(4, 3, cfg.thumb_size, cfg.thumb_size))
    proj = rng.normal(size=(4, cfg.fusion_dim))

    def loss(values):
        out, _ = encode_thumbnail_forward(px, params_of(values), cfg)
        return float((out * proj).sum())

    params = params_of(values)
    _, cache = encode_thumbnail_forward(px, params, cfg)
    encode_thumbnail_backward(proj, cache, params)
    step = 1e-5
    for name, value in values.items():
        v = rng.normal(size=value.shape)
        v /= np.linalg.norm(v)
        analytic = float((params[name].grad * v).sum())
        numeric = (loss({**values, name: value + step * v})
                   - loss({**values, name: value - step * v})) / (2 * step)
        assert abs(analytic - numeric) <= 1e-6 * max(abs(analytic), abs(numeric)), name


@pytest.mark.parametrize("w,h", [(16, 16), (120, 90), (1280, 720)])
def test_resize_then_encode_always_yields_fusion_dim(w, h):
    rng = np.random.default_rng(8)
    img = ThumbnailImage(width=w, height=h,
                         data=rng.integers(0, 256, w * h * 3).astype("u1").tobytes())
    px = prepare_thumbnail(img, CFG.thumb_size)
    assert px.shape == (3, CFG.thumb_size, CFG.thumb_size)
    if (w, h) != (CFG.thumb_size, CFG.thumb_size):  # a resize makes a new array
        assert px.flags.owndata and px.flags.c_contiguous
    params = params_of(init_thumbnail_params(CFG, rng))
    out, _ = encode_thumbnail_forward(px[None].astype(np.float64) / 255.0, params, CFG)
    assert out.shape == (1, CFG.fusion_dim)


def test_prepare_thumbnail_identity_at_native_size():
    rng = np.random.default_rng(9)
    raw = rng.integers(0, 256, 16 * 16 * 3).astype("u1")
    img = ThumbnailImage(width=16, height=16, data=raw.tobytes())
    px = prepare_thumbnail(img, 16)
    np.testing.assert_array_equal(px, raw.reshape(16, 16, 3).transpose(2, 0, 1))


def test_native_size_thumbnail_is_a_read_only_view_of_its_pixels():
    rng = np.random.default_rng(9)
    img = ThumbnailImage(width=16, height=16,
                         data=rng.integers(0, 256, 16 * 16 * 3).astype("u1").tobytes())
    px = prepare_thumbnail(img, 16)
    assert np.shares_memory(px, np.frombuffer(img.data, np.uint8))
    assert not px.flags.writeable
    with pytest.raises(ValueError):
        px[0, 0, 0] = 1


def test_thumbnail_batch_scales_to_float64_like_astype():
    rng = np.random.default_rng(11)
    payloads = [rng.integers(0, 256, (3, 16, 16)).astype("u1") for _ in range(4)]
    values = init_thumbnail_params(CFG, rng)
    out, _ = ENCODERS["thumbnail"].forward("thumbnail", payloads, params_of(values), CFG)
    expected, _ = encode_thumbnail_forward(
        np.stack(payloads).astype(np.float64) / 255.0, params_of(values), CFG)
    assert out.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# statistics encoder
# ---------------------------------------------------------------------------

class _R:
    def __init__(self, stats):
        self.stats = stats


def fitted_norm():
    rng = np.random.default_rng(10)
    recs = [
        _R(stats_record(views=int(v), likes=int(v // 20), dislikes=int(v // 100),
                        comment_count=int(v // 50), duration_s=int(100 + v % 900)))
        for v in rng.integers(10, 10_000_000, size=50)
    ]
    return StatsNormalizer().fit(recs)


def test_unfitted_normalizer_raises():
    with pytest.raises(NormalizationError):
        StatsNormalizer().transform(stats_record())


def test_stats_at_training_mean_hits_bias_path_only():
    norm = fitted_norm()
    # synthesize the record whose log1p features equal the fitted means
    raw = np.expm1(norm.mean)
    z = (np.log1p(raw) - norm.mean) / norm.std
    np.testing.assert_allclose(z, np.zeros(5), atol=1e-12)

    rng = np.random.default_rng(11)
    values = init_stats_params(CFG, rng)
    values["statistics.dense1.b"] = rng.normal(size=CFG.stats_hidden)
    values["statistics.dense2.b"] = rng.normal(size=CFG.fusion_dim)
    params = params_of(values)
    out, _ = encode_stats_forward(z[None], params)
    expected = (
        np.maximum(values["statistics.dense1.b"], 0.0) @ values["statistics.dense2.w"]
        + values["statistics.dense2.b"]
    )
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_stats_extreme_views_stay_finite():
    norm = fitted_norm()
    params = params_of(init_stats_params(CFG, np.random.default_rng(12)))
    for views in (0, 10**9):
        z = norm.transform(stats_record(views=views))
        out, _ = encode_stats_forward(z[None], params)
        assert np.isfinite(out).all()


def test_stats_doubling_counts_changes_output():
    norm = fitted_norm()
    params = params_of(init_stats_params(CFG, np.random.default_rng(13)))
    s1 = stats_record(views=1000, likes=50, dislikes=6, comment_count=20, duration_s=300)
    s2 = stats_record(views=2000, likes=100, dislikes=12, comment_count=40, duration_s=600)
    out1, _ = encode_stats_forward(norm.transform(s1)[None], params)
    out2, _ = encode_stats_forward(norm.transform(s2)[None], params)
    assert np.abs(out1 - out2).max() > 1e-6


def test_norm_array_round_trip():
    norm = fitted_norm()
    again = StatsNormalizer.from_arrays(*norm.to_arrays())
    np.testing.assert_array_equal(again.mean, norm.mean)
    np.testing.assert_array_equal(again.std, norm.std)
    empty = StatsNormalizer.from_arrays(*StatsNormalizer().to_arrays())
    assert not empty.fitted

