import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baitradar.corpus import (
    STATS_FIELDS,
    CorpusError,
    PpmError,
    SignalStrengths,
    StatsFeatures,
    SyntheticConfig,
    ThumbnailImage,
    VideoRecord,
    generate_synthetic,
    load_jsonl,
    load_ppm,
    record_from_obj,
    record_to_obj,
    save_ppm,
    select_records,
    split_dataset,
    split_sizes,
    write_corpus,
)


def make_record(i, channel="ch0", label="clickbait", **kw):
    defaults = dict(id=f"v{i:04d}", channel_id=channel, title=f"title {i}", label=label)
    defaults.update(kw)
    return VideoRecord(**defaults)


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def test_load_jsonl_in_order(tmp_path):
    p = tmp_path / "c.jsonl"
    lines = [
        {"id": "a", "channel_id": "x", "title": "first", "label": "clickbait"},
        {"id": "b", "channel_id": "x", "title": "second", "label": "non_clickbait"},
        {"id": "c", "channel_id": "y", "title": "third"},
    ]
    p.write_text("\n".join(json.dumps(o) for o in lines))
    records = load_jsonl(p)
    assert [r.id for r in records] == ["a", "b", "c"]
    assert records[0].label == "clickbait"
    assert records[2].label is None


def test_load_jsonl_missing_id_names_line(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "title": "x"}\n{"title": "no id"}\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_jsonl(p)


def test_load_jsonl_malformed_json_names_line(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "title": "x"}\nnot json at all\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_jsonl(p)


def test_load_jsonl_duplicate_id(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "title": "x"}\n{"id": "a", "title": "y"}\n')
    with pytest.raises(CorpusError, match="duplicate"):
        load_jsonl(p)


def test_load_jsonl_zero_modalities_rejected(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "channel_id": "x"}\n')
    with pytest.raises(CorpusError, match="no present modalities"):
        load_jsonl(p)


def test_record_checks_itself_when_replaced():
    rec = make_record(1, tags=["a"])
    with pytest.raises(CorpusError, match="no present modalities"):
        dataclasses.replace(rec, title=None, tags=None)
    with pytest.raises(CorpusError, match="unknown label"):
        dataclasses.replace(rec, label="spam")


def test_load_jsonl_single_modality_accepted(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "channel_id": "x", "title": "only title"}\n')
    (rec,) = load_jsonl(p)
    mask = rec.present_mask()
    assert mask.title and mask.count() == 1


def test_load_jsonl_null_and_omitted_equivalent(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(
        '{"id": "a", "title": "t", "tags": null}\n'
        '{"id": "b", "title": "t"}\n'
    )
    a, b = load_jsonl(p)
    assert a.tags is None and b.tags is None


def test_stats_rejects_negative_counts():
    with pytest.raises(CorpusError):
        StatsFeatures(views=-1, likes=0, dislikes=0, comment_count=0, duration_s=0)


def test_load_jsonl_incomplete_stats_named(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "title": "t", "stats": {"views": 3}}\n')
    with pytest.raises(CorpusError, match="missing fields"):
        load_jsonl(p)


@pytest.mark.parametrize("field,value", [
    ("title", 5),
    ("tags", "abc"),
    ("comments", {"k": "v"}),
    ("id", 7),
])
def test_load_jsonl_rejects_wrong_field_type(tmp_path, field, value):
    obj = {"id": "a", "title": "t", field: value}
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps(obj) + "\n")
    with pytest.raises(CorpusError, match=f"line 1: field {field!r}"):
        load_jsonl(p)


@pytest.mark.parametrize("bad_line", [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"id": "b", "title": "caf\xe9"}',
], ids=["deep-nesting", "not-utf8"])
def test_load_jsonl_unreadable_line_names_line(tmp_path, bad_line):
    p = tmp_path / "c.jsonl"
    p.write_bytes(b'{"id": "a", "title": "x"}\n' + bad_line + b"\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_jsonl(p)


_RECORD_KEYS = st.sampled_from(
    ["id", "channel_id", "title", "tags", "comments", "transcript", "stats", "thumbnail",
     "label", *STATS_FIELDS]) | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["clickbait", "non_clickbait", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_RECORD_KEYS, inner, max_size=6),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(obj=st.dictionaries(_RECORD_KEYS, _JSON_VALUES, max_size=10) | _JSON_VALUES)
def test_record_from_obj_raises_only_corpus_error(obj):
    try:
        record_from_obj(obj)
    except CorpusError:
        pass


def test_record_to_obj_key_order_and_round_trip():
    stats = StatsFeatures(views=9, likes=1, dislikes=0, comment_count=2, duration_s=30)
    rec = make_record(1, tags=["a", "b"], comments=["c"], transcript="t", stats=stats,
                      thumbnail_path="thumbs/x.ppm")
    obj = record_to_obj(rec)
    assert list(obj) == ["id", "channel_id", "title", "tags", "comments", "transcript",
                         "stats", "thumbnail", "label"]
    assert list(obj["stats"]) == list(STATS_FIELDS)
    assert record_from_obj(obj) == rec
    assert record_from_obj(json.loads(json.dumps(obj))) == rec
    bare = make_record(2)
    assert record_from_obj(record_to_obj(bare)) == bare


def test_load_jsonl_rejects_stats_beyond_float_range(tmp_path):
    stats = {"views": 10**400, "likes": 0, "dislikes": 0, "comment_count": 0, "duration_s": 0}
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps({"id": "a", "title": "t", "stats": stats}) + "\n")
    with pytest.raises(CorpusError, match="views"):
        load_jsonl(p)


def test_load_jsonl_null_channel_id(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "channel_id": null, "title": "t"}\n')
    (rec,) = load_jsonl(p)
    assert rec.channel_id == ""


# ---------------------------------------------------------------------------
# PPM
# ---------------------------------------------------------------------------

def test_load_ppm_white_2x2(tmp_path):
    p = tmp_path / "w.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes([255] * 12))
    img = load_ppm(p)
    assert (img.width, img.height) == (2, 2)
    assert img.data == bytes([255] * 12)


def test_load_ppm_header_comment_ignored(tmp_path):
    plain = tmp_path / "a.ppm"
    commented = tmp_path / "b.ppm"
    payload = bytes(range(12))
    plain.write_bytes(b"P6\n2 2\n255\n" + payload)
    commented.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + payload)
    assert load_ppm(plain) == load_ppm(commented)


def test_load_ppm_rejects_ascii_p3(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
    with pytest.raises(PpmError, match="P6"):
        load_ppm(p)


def test_load_ppm_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(PpmError, match="maxval"):
        load_ppm(p)


def test_load_ppm_rejects_truncated_payload(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(PpmError, match="truncated"):
        load_ppm(p)


def test_load_ppm_rejects_zero_size(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6 0 0 255\n")
    with pytest.raises(PpmError, match="0x0"):
        load_ppm(p)


def test_load_ppm_rejects_negative_size(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6 -2 -3 255\n" + bytes(18))
    with pytest.raises(PpmError, match="-2x-3"):
        load_ppm(p)


_PPM_TOKENS = st.sampled_from(
    [b"P6", b" ", b"\n", b"\t", b"#c\n", b"#", b"255", b"65535", b"0", b"1", b"2", b"-1",
     b"+3", b"1_0", b"99999999999", b"x", b"\xff", b"\x00"]) | st.binary(max_size=3)


@pytest.fixture(scope="module")
def fuzz_ppm(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.ppm"


@settings(max_examples=400, deadline=None)
@given(head=st.lists(_PPM_TOKENS, max_size=10), payload=st.binary(max_size=40),
       p6=st.booleans())
def test_load_ppm_header_raises_only_ppm_error(fuzz_ppm, head, payload, p6):
    fuzz_ppm.write_bytes((b"P6" if p6 else b"") + b"".join(head) + payload)
    try:
        load_ppm(fuzz_ppm)
    except PpmError:
        pass


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = ThumbnailImage(width=3, height=2, data=rng.integers(0, 256, 18).astype("u1").tobytes())
    save_ppm(img, tmp_path / "x.ppm")
    assert load_ppm(tmp_path / "x.ppm") == img


def test_thumbnail_image_validates_payload_length():
    with pytest.raises(PpmError):
        ThumbnailImage(width=2, height=2, data=bytes(11))
    with pytest.raises(PpmError, match="0x5 must be positive"):
        ThumbnailImage(width=0, height=5, data=b"")
    with pytest.raises(PpmError, match="-1x-1 must be positive"):
        ThumbnailImage(width=-1, height=-1, data=b"abc")


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_sizes_1000():
    assert split_sizes(1000) == (810, 90, 100)


def test_split_dataset_proportions_and_disjointness():
    records = [make_record(i, channel=f"ch{i % 17}") for i in range(1000)]
    split = split_dataset(records, seed=7)
    assert split.sizes() == (810, 90, 100)
    all_ids = set(split.train) | set(split.validation) | set(split.test)
    assert len(all_ids) == 1000
    assert not set(split.train) & set(split.validation)
    assert not set(split.train) & set(split.test)
    assert not set(split.validation) & set(split.test)


def test_split_dataset_deterministic_and_order_independent():
    records = [make_record(i) for i in range(50)]
    a = split_dataset(records, seed=3)
    b = split_dataset(list(reversed(records)), seed=3)
    assert a == b


def test_split_dataset_is_label_blind():
    records = [make_record(i, label="clickbait" if i % 2 else "non_clickbait")
               for i in range(60)]
    a = split_dataset(records, seed=9)
    b = split_dataset([dataclasses.replace(r, label="clickbait") for r in records], seed=9)
    assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)


def test_split_dataset_needs_ten_records():
    with pytest.raises(CorpusError):
        split_dataset([make_record(i) for i in range(9)], seed=0)


def test_split_channel_disjoint_no_spanning():
    rng = np.random.default_rng(1)
    records = [make_record(i, channel=f"ch{rng.integers(0, 25)}") for i in range(400)]
    split = split_dataset(records, seed=5, channel_disjoint=True)
    channel_of = {r.id: r.channel_id for r in records}
    part_of = {}
    for part_name in ("train", "validation", "test"):
        for rid in getattr(split, part_name):
            ch = channel_of[rid]
            assert part_of.setdefault(ch, part_name) == part_name
    assert sum(split.sizes()) == 400


def test_split_channel_disjoint_needs_ten_channels():
    records = [make_record(i, channel=f"ch{i % 3}") for i in range(100)]
    with pytest.raises(CorpusError, match="channel"):
        split_dataset(records, seed=0, channel_disjoint=True)


def test_select_records_preserves_requested_order():
    records = [make_record(i) for i in range(5)]
    picked = select_records(records, ["v0003", "v0001"])
    assert [r.id for r in picked] == ["v0003", "v0001"]


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_generate_exact_label_ratio():
    records = generate_synthetic(SyntheticConfig(n_records=100, clickbait_ratio=0.6, seed=1))
    assert sum(1 for r in records if r.label == "clickbait") == 60


def test_generate_deterministic_byte_identical(tmp_path):
    cfg = SyntheticConfig(n_records=30, clickbait_ratio=0.5, seed=42)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_corpus(generate_synthetic(cfg), a_dir / "c.jsonl")
    write_corpus(generate_synthetic(cfg), b_dir / "c.jsonl")
    assert (a_dir / "c.jsonl").read_bytes() == (b_dir / "c.jsonl").read_bytes()
    for ppm in sorted((a_dir / "thumbs").iterdir()):
        assert ppm.read_bytes() == (b_dir / "thumbs" / ppm.name).read_bytes()


def test_generate_round_trip_equality(tmp_path):
    records = generate_synthetic(SyntheticConfig(n_records=25, seed=3))
    write_corpus(records, tmp_path / "c.jsonl")
    reloaded = load_jsonl(tmp_path / "c.jsonl")
    assert reloaded == records


def test_generate_zero_signals_identical_distributions():
    cfg = SyntheticConfig(
        n_records=400, clickbait_ratio=0.5, seed=11,
        signal_strengths=SignalStrengths.uniform(0.0),
    )
    records = generate_synthetic(cfg)
    cb = [r for r in records if r.label == "clickbait"]
    ncb = [r for r in records if r.label == "non_clickbait"]

    def token_freq(rs):
        freq = {}
        for r in rs:
            for tok in (r.title + " " + r.transcript).split():
                freq[tok] = freq.get(tok, 0) + 1
        total = sum(freq.values())
        return {t: c / total for t, c in freq.items()}

    fa, fb = token_freq(cb), token_freq(ncb)
    # two-sample comparison: per-token frequency gap stays small, and no
    # planted lexicon token appears at all
    gaps = [abs(fa.get(t, 0) - fb.get(t, 0)) for t in set(fa) | set(fb)]
    assert max(gaps) < 0.01
    from baitradar.corpus import BAIT_LEXICON, CALM_LEXICON

    planted = set(BAIT_LEXICON) | set(t.upper() for t in BAIT_LEXICON) | set(CALM_LEXICON)
    assert not planted & (set(fa) | set(fb))
    tag_means = (np.mean([len(r.tags) for r in cb]), np.mean([len(r.tags) for r in ncb]))
    assert abs(tag_means[0] - tag_means[1]) < 1.5


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_generate_full_signal_clickbait_has_more_tags(seed):
    records = generate_synthetic(SyntheticConfig(n_records=120, clickbait_ratio=0.5, seed=seed))
    cb_mean = np.mean([len(r.tags) for r in records if r.label == "clickbait"])
    ncb_mean = np.mean([len(r.tags) for r in records if r.label == "non_clickbait"])
    assert cb_mean > ncb_mean


def test_generate_validates_config():
    with pytest.raises(CorpusError):
        generate_synthetic(SyntheticConfig(n_records=0))
    with pytest.raises(CorpusError):
        generate_synthetic(SyntheticConfig(n_records=5, clickbait_ratio=1.5))
    with pytest.raises(CorpusError):
        generate_synthetic(
            SyntheticConfig(n_records=5, signal_strengths=SignalStrengths(title=2.0))
        )


def test_synthetic_configs_check_themselves_when_built():
    with pytest.raises(CorpusError, match="n_records must be >= 1"):
        SyntheticConfig(n_records=0)
    with pytest.raises(CorpusError, match="signal strength for tags"):
        SignalStrengths(tags=1.5)
    with pytest.raises(CorpusError, match="signal strength for title"):
        SignalStrengths.uniform(-0.1)
    # types are checked too, before the generator's numpy calls see them
    with pytest.raises(CorpusError, match="'n_records' must be int"):
        generate_synthetic(SyntheticConfig(n_records=2.5))
    with pytest.raises(CorpusError, match="'n_records' must be int"):
        SyntheticConfig(n_records="5")
    with pytest.raises(CorpusError, match="signal strength field 'title' must be float"):
        SignalStrengths(title="x")


def test_generated_thumbnails_are_valid_64x64(tmp_path):
    records = generate_synthetic(SyntheticConfig(n_records=5, seed=2))
    write_corpus(records, tmp_path / "c.jsonl")
    for r in records:
        img = load_ppm(tmp_path / r.thumbnail_path)
        assert (img.width, img.height) == (64, 64)
