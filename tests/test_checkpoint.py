import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baitradar import checkpoint
from baitradar.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    dumps,
    load_checkpoint,
    loads,
    save_checkpoint,
)
from baitradar.model import BaitRadarModel
from baitradar.modalities import MODALITIES, ModalityMask
from baitradar.nncore import Parameter

from conftest import SMALL_ENCODER


def test_round_trip_tensors_bit_identical(tiny_model):
    restored = loads(dumps(tiny_model))
    assert set(restored.params) == set(tiny_model.params)
    for name, p in tiny_model.params.items():
        assert restored.params[name].value.tobytes() == p.value.tobytes()
    assert restored.vocab.index == tiny_model.vocab.index
    np.testing.assert_array_equal(restored.stats_norm.mean, tiny_model.stats_norm.mean)
    assert restored.modalities == tiny_model.modalities
    assert restored.head_arch == tiny_model.head_arch


def test_save_load_save_byte_identical(tiny_model, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(tiny_model, p1)
    save_checkpoint(loads(p1.read_bytes()), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_config_echo_survives_round_trip(tiny_model):
    tiny_model.config_echo = {"lr": 0.001, "regime": "scratch"}
    try:
        restored = loads(dumps(tiny_model))
        assert restored.config_echo == {"lr": 0.001, "regime": "scratch"}
    finally:
        tiny_model.config_echo = None


def test_bad_magic_rejected(tiny_model):
    data = b"XXXX" + dumps(tiny_model)[4:]
    with pytest.raises(CheckpointError, match="magic"):
        loads(data)


def test_unknown_version_rejected(tiny_model):
    data = dumps(tiny_model)
    payload = bytearray(data[4:-4])
    payload[0:4] = struct.pack("<I", FORMAT_VERSION + 1)
    patched = MAGIC + bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)))
    with pytest.raises(CheckpointError, match="version"):
        loads(patched)


def test_truncated_mid_tensor_names_tensor(tiny_model):
    data = dumps(tiny_model)
    with pytest.raises(CheckpointError, match="truncated.*tensor"):
        loads(data[: len(data) - 200])


@pytest.mark.parametrize("key", ["vocab_min_freq", "encoder", "head_arch"])
def test_metadata_missing_key_rejected(tiny_model, monkeypatch, key):
    full = checkpoint._metadata
    monkeypatch.setattr(checkpoint, "_metadata",
                        lambda model: {k: v for k, v in full(model).items() if k != key})
    data = dumps(tiny_model)  # a valid checksum over the short metadata
    with pytest.raises(CheckpointError, match=key):
        loads(data)


def test_corrupted_payload_fails_checksum(tiny_model):
    data = bytearray(dumps(tiny_model))
    data[-100] ^= 0xFF  # flip a bit inside the last tensor's values
    with pytest.raises(CheckpointError, match="checksum"):
        loads(bytes(data))


def _with_crc(payload: bytes) -> bytes:
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


def test_metadata_that_is_not_json_rejected(tiny_model):
    payload = dumps(tiny_model)[4:-4]
    (meta_len,) = struct.unpack_from("<Q", payload, 4)
    bad = payload[:12] + b"\xff" * meta_len + payload[12 + meta_len :]
    with pytest.raises(CheckpointError, match="metadata"):
        loads(_with_crc(bad))


def test_deeply_nested_metadata_rejected():
    payload = struct.pack("<I", FORMAT_VERSION)
    for block in (b"[" * 100_000 + b"]" * 100_000, b""):
        payload += struct.pack("<Q", len(block)) + block
    payload += struct.pack("<II", 0, 0)
    with pytest.raises(CheckpointError, match="metadata"):
        loads(_with_crc(payload))


@pytest.mark.parametrize("field,value", [("fusion_dim", 0), ("pool_size", 0),
                                         ("conv_kernel", "x")])
def test_invalid_encoder_metadata_rejected(tiny_prepared, monkeypatch, field, value):
    # a title-only model never builds the thumbnail stack, so only the
    # config's own check can reject pool_size and conv_kernel here
    model = BaitRadarModel.build(("title",), tiny_prepared.vocab, tiny_prepared.stats_norm,
                                 SMALL_ENCODER, seed=2)
    full = checkpoint._metadata
    monkeypatch.setattr(checkpoint, "_metadata", lambda m: {
        **full(m), "encoder": {**full(m)["encoder"], field: value}})
    data = dumps(model)  # a valid checksum over the bad metadata
    with pytest.raises(CheckpointError, match=f"encoder field {field!r}"):
        loads(data)


def test_tensor_rank_above_numpy_limit_rejected():
    payload = struct.pack("<I", FORMAT_VERSION)
    for block in (b"{}", b""):
        payload += struct.pack("<Q", len(block)) + block
    payload += struct.pack("<II", 0, 1) + struct.pack("<I", 1) + b"w"
    payload += struct.pack("<I", 65) + struct.pack("<65Q", *([1] * 65)) + struct.pack("<d", 0.0)
    with pytest.raises(CheckpointError, match="rank 65"):
        loads(_with_crc(payload))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_byte_replacement_raises_only_checkpoint_error(tiny_model, data):
    blob = bytearray(dumps(tiny_model))
    # half the draws land in the first 2,500 bytes (header, metadata and
    # vocabulary), where a byte is decoded rather than only checksummed
    offset = data.draw(st.one_of(st.integers(0, 2500), st.integers(0, len(blob) - 1)))
    blob[offset] = data.draw(st.integers(0, 255))
    try:
        loads(bytes(blob))
    except CheckpointError:
        pass


def test_missing_tensor_for_declared_subset(tiny_model):
    victim = "tags.lstm.wx"
    removed = tiny_model.params.pop(victim)
    try:
        data = dumps(tiny_model)
    finally:
        tiny_model.params[victim] = removed
    with pytest.raises(CheckpointError, match="tags.lstm.wx"):
        loads(data)


def test_unexpected_tensor_rejected(tiny_model):
    tiny_model.params["rogue.layer.w"] = Parameter("rogue.layer.w", np.zeros(3))
    try:
        data = dumps(tiny_model)
    finally:
        del tiny_model.params["rogue.layer.w"]
    with pytest.raises(CheckpointError, match="rogue"):
        loads(data)


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_title_only_checkpoint_capability(tiny_prepared, tiny_records, tmp_path):
    title_only = BaitRadarModel.build(
        ("title",), tiny_prepared.vocab, tiny_prepared.stats_norm, SMALL_ENCODER, seed=2
    )
    path = tmp_path / "title.ckpt"
    save_checkpoint(title_only, path)
    restored = load_checkpoint(path)
    assert restored.modalities == ("title",)
    from baitradar.model import ModelError

    with pytest.raises(ModelError, match="thumbnail"):
        restored.predict(tiny_records[0], subset=ModalityMask.from_names(MODALITIES))
    pred = restored.predict(tiny_records[0])
    assert pred.mask_used.names() == ("title",)


def test_vocab_and_norm_blocks_parse_independently(tiny_model):
    restored = loads(dumps(tiny_model))
    again = loads(dumps(restored))
    assert again.vocab.index == tiny_model.vocab.index
    np.testing.assert_array_equal(again.stats_norm.std, tiny_model.stats_norm.std)
