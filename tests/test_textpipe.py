import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baitradar.textpipe import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocab,
    encode,
    tokenize,
)


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("Mind BLOWN!!") == ["mind", "blown"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_digits_and_splits_hyphens():
    assert tokenize("Top-10 tricks, 2020") == ["top", "10", "tricks", "2020"]


def test_tokenize_underscores_split():
    assert tokenize("snake_case_name") == ["snake", "case", "name"]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_tokenize_idempotent_under_rejoin(s):
    toks = tokenize(s)
    assert tokenize(" ".join(toks)) == toks


def test_build_vocab_ranking_and_tie_break():
    vocab = build_vocab(["a a b", "b c"], max_size=10, min_freq=1)
    # a and b tie at 2, broken lexicographically; c has 1
    assert vocab.index == {PAD_TOKEN: 0, UNK_TOKEN: 1, "a": 2, "b": 3, "c": 4}


def test_build_vocab_max_size_caps_entries():
    vocab = build_vocab(["a a b", "b c"], max_size=4, min_freq=1)
    assert vocab.index == {PAD_TOKEN: 0, UNK_TOKEN: 1, "a": 2, "b": 3}


def test_build_vocab_min_freq_excludes_rare():
    vocab = build_vocab(["a a b", "b c"], max_size=10, min_freq=2)
    assert "c" not in vocab.index
    assert set(vocab.index) == {PAD_TOKEN, UNK_TOKEN, "a", "b"}


def test_build_vocab_empty_corpus():
    vocab = build_vocab([], max_size=10, min_freq=1)
    assert vocab.index == {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}


def test_build_vocab_rejects_tiny_max_size():
    with pytest.raises(ValueError):
        build_vocab(["a"], max_size=1, min_freq=1)


def test_build_vocab_rejects_min_freq_below_one():
    with pytest.raises(ValueError, match="min_freq"):
        build_vocab(["a"], max_size=4, min_freq=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abc d", max_size=12), max_size=8), st.randoms())
def test_build_vocab_order_free(texts, rnd):
    shuffled = list(texts)
    rnd.shuffle(shuffled)
    assert build_vocab(texts, 50, 1).index == build_vocab(shuffled, 50, 1).index


def test_encode_returns_the_kept_ids_unpadded():
    vocab = build_vocab(["mind blown"], max_size=10, min_freq=1)
    ids = encode(["mind", "blown"], vocab, max_len=4)
    assert ids.dtype == np.int64
    assert ids.tolist() == [vocab.index["mind"], vocab.index["blown"]]


def test_encode_unknown_maps_to_unk():
    vocab = build_vocab(["mind blown"], max_size=10, min_freq=1)
    assert encode(["zebra"], vocab, max_len=2).tolist() == [UNK_ID]


def test_encode_truncates_prefix():
    vocab = build_vocab(["a b c d e f g h i j"], max_size=20, min_freq=1)
    ids = encode(list("abcdefghij"), vocab, max_len=4)
    assert ids.tolist() == [vocab.index[t] for t in "abcd"]


def test_encode_requires_positive_max_len():
    vocab = build_vocab([], max_size=10, min_freq=1)
    with pytest.raises(ValueError):
        encode([], vocab, max_len=0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "zzz", "7"]), max_size=20))
def test_encode_never_exceeds_vocab_size(tokens):
    vocab = build_vocab(["a a b b"], max_size=4, min_freq=1)
    ids = encode(tokens, vocab, max_len=8)
    assert len(ids) == min(len(tokens), 8)
    assert all(0 <= i < len(vocab) for i in ids)


def test_vocab_text_round_trip():
    vocab = build_vocab(["alpha beta beta gamma"], max_size=10, min_freq=1)
    restored = Vocabulary.from_text(vocab.to_text(), vocab.max_size, vocab.min_freq)
    assert restored.index == vocab.index


def test_vocab_from_text_rejects_missing_special_tokens():
    with pytest.raises(ValueError):
        Vocabulary.from_text("a\t0\nb\t1\n")
