"""Tokenization, vocabulary construction, and integer encoding for the text
modalities (title, tags, comments, transcript): a text becomes the ids of
its first ``MAX_LEN`` tokens, unpadded."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .modalities import TEXT_MODALITIES

# No text is padded, and no token encodes to PAD_ID; the id stays reserved so
# that vocabularies and checkpoints keep their layout.
PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Lowercased runs of letters/digits; punctuation (incl. underscore) splits and
# is dropped, so "Top-10 tricks, 2020" -> ["top", "10", "tricks", "2020"].
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Maximum per-modality lengths in tokens; a longer text keeps its prefix. Titles
# and tag lists are short; comment streams and transcripts need more room.
MAX_LEN = {
    "title": 16,
    "tags": 32,
    "comments": 128,
    "audio_transcript": 256,
}
COMMENTS_TOP_N = 20

DEFAULT_VOCAB_SIZE = 10_000
DEFAULT_MIN_FREQ = 2


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, keeping digit runs."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map with reserved PAD=0 and UNK=1, contiguous indices."""

    index: dict[str, int]
    max_size: int
    min_freq: int

    def __len__(self) -> int:
        return len(self.index)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def to_text(self) -> str:
        """One ``token<TAB>index`` line per entry, sorted by index."""
        rows = sorted(self.index.items(), key=lambda kv: kv[1])
        return "".join(f"{tok}\t{idx}\n" for tok, idx in rows)

    @classmethod
    def from_text(cls, text: str, max_size: int = DEFAULT_VOCAB_SIZE,
                  min_freq: int = DEFAULT_MIN_FREQ) -> "Vocabulary":
        index: dict[str, int] = {}
        for line in text.splitlines():
            if not line:
                continue
            tok, _, idx = line.partition("\t")
            index[tok] = int(idx)
        if index.get(PAD_TOKEN) != PAD_ID or index.get(UNK_TOKEN) != UNK_ID:
            raise ValueError("vocabulary text missing PAD/UNK entries at indices 0/1")
        if sorted(index.values()) != list(range(len(index))):
            raise ValueError("vocabulary indices are not contiguous")
        return cls(index=index, max_size=max_size, min_freq=min_freq)


def build_vocab(corpus_texts, max_size: int = DEFAULT_VOCAB_SIZE,
                min_freq: int = DEFAULT_MIN_FREQ) -> Vocabulary:
    """Rank tokens by (frequency desc, token asc); drop tokens below min_freq;
    cap total size at max_size including the PAD/UNK slots.

    Frequencies are order-free, so permuting the corpus yields the identical
    vocabulary.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be >= 2, got {max_size}")
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    freq: dict[str, int] = {}
    for text in corpus_texts:
        for tok in tokenize(text):
            freq[tok] = freq.get(tok, 0) + 1
    ranked = sorted(
        (tok for tok, c in freq.items() if c >= min_freq),
        key=lambda tok: (-freq[tok], tok),
    )
    index = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for tok in ranked[: max_size - 2]:
        index[tok] = len(index)
    return Vocabulary(index=index, max_size=max_size, min_freq=min_freq)


def encode(tokens, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """The int64 ids (unknown -> UNK) of the first max_len tokens."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    return np.array([vocab.id_of(t) for t in islice(tokens, max_len)], dtype=np.int64)


def modality_text(record, modality: str) -> str:
    """The raw text a modality contributes: tags and the top comments are
    joined with spaces before tokenizing."""
    if modality == "title":
        return record.title or ""
    if modality == "tags":
        return " ".join(record.tags or [])
    if modality == "comments":
        return " ".join((record.comments or [])[:COMMENTS_TOP_N])
    if modality == "audio_transcript":
        return record.transcript or ""
    raise ValueError(f"{modality!r} is not a text modality")


def encode_modality(record, modality: str, vocab: Vocabulary) -> np.ndarray:
    return encode(tokenize(modality_text(record, modality)), vocab, MAX_LEN[modality])


def training_texts(records) -> list[str]:
    """All text payloads of a record sequence, for vocabulary building.
    Call this on the training split only."""
    return [modality_text(rec, m) for rec in records for m in rec.present_mask().names()
            if m in TEXT_MODALITIES]
