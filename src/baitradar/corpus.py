"""Video corpus handling: record model, JSONL ingestion, PPM thumbnails,
dataset splitting, and a deterministic synthetic corpus generator.

A corpus is a JSONL file (one video per line) plus a sibling directory of
binary PPM thumbnails referenced by relative path. All operations here are
pure over their inputs; a (records, seed) pair always maps to the same split
and a config always maps to the same synthetic corpus, byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .modalities import MODALITIES, ModalityMask

LABEL_CLICKBAIT = "clickbait"
LABEL_NON_CLICKBAIT = "non_clickbait"
LABELS = (LABEL_CLICKBAIT, LABEL_NON_CLICKBAIT)

STATS_FIELDS = ("views", "likes", "dislikes", "comment_count", "duration_s")

TRAIN_FRACTION = 0.81
VALIDATION_FRACTION = 0.09


class CorpusError(ValueError):
    """Malformed corpus file, record, or split request."""


class PpmError(ValueError):
    """Unreadable or unsupported PPM image."""


@dataclass(frozen=True)
class StatsFeatures:
    views: int
    likes: int
    dislikes: int
    comment_count: int
    duration_s: int

    def __post_init__(self):
        for name in STATS_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < 2**63:
                raise CorpusError(f"stats {name!r} must be an int in [0, 2**63), got {v!r:.40}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in STATS_FIELDS], dtype=np.float64)


@dataclass(frozen=True)
class ThumbnailImage:
    """RGB image, row-major bytes, 3 channels, values 0-255."""

    width: int
    height: int
    data: bytes

    def __post_init__(self):
        if len(self.data) != self.width * self.height * 3:
            raise PpmError(
                f"pixel payload is {len(self.data)} bytes, expected "
                f"{self.width}x{self.height}x3 = {self.width * self.height * 3}"
            )

    def as_array(self) -> np.ndarray:
        """Pixels as a (height, width, 3) uint8 array."""
        a = np.frombuffer(self.data, dtype=np.uint8)
        return a.reshape(self.height, self.width, 3)


@dataclass
class VideoRecord:
    """One video's modality payloads. Any modality may be absent (None),
    but at least one must be present."""

    id: str
    channel_id: str
    title: str | None = None
    tags: list[str] | None = None
    comments: list[str] | None = None
    transcript: str | None = None
    stats: StatsFeatures | None = None
    thumbnail_path: str | None = None
    label: str | None = None
    # In-memory pixels for synthetic records that have not been written to
    # disk yet; excluded from equality so a round-tripped corpus compares
    # equal to the generated one.
    thumbnail_image: ThumbnailImage | None = field(default=None, compare=False, repr=False)

    def present_mask(self) -> ModalityMask:
        return ModalityMask(
            title=self.title is not None,
            thumbnail=self.thumbnail_path is not None or self.thumbnail_image is not None,
            comments=self.comments is not None,
            audio_transcript=self.transcript is not None,
            tags=self.tags is not None,
            statistics=self.stats is not None,
        )

    def validate(self) -> "VideoRecord":
        if not self.id:
            raise CorpusError("record id must be nonempty")
        if self.label is not None and self.label not in LABELS:
            raise CorpusError(f"record {self.id!r}: unknown label {self.label!r}")
        if self.present_mask().count() == 0:
            raise CorpusError(f"record {self.id!r} has no present modalities")
        return self


# ---------------------------------------------------------------------------
# JSONL ingestion / emission
# ---------------------------------------------------------------------------

# JSON type of each known field (the lists hold strings); null means absent
_FIELD_TYPES = {"id": str, "channel_id": str, "title": str, "tags": list, "comments": list,
                "transcript": str, "stats": dict, "thumbnail": str, "label": str}


def _record_from_obj(obj: dict) -> VideoRecord:
    if not isinstance(obj, dict):
        raise CorpusError("record is not a JSON object")
    if "id" not in obj or obj["id"] in (None, ""):
        raise CorpusError('missing "id"')
    for key, kind in _FIELD_TYPES.items():
        value = obj.get(key)
        if value is not None and not (isinstance(value, kind) and (
                kind is not list or all(isinstance(v, str) for v in value))):
            what = {str: "a string", list: "a list of strings", dict: "an object"}[kind]
            raise CorpusError(f"field {key!r} must be {what}, got {json.dumps(value)[:40]}")
    stats = obj.get("stats")
    if stats is not None:
        unknown = set(stats) - set(STATS_FIELDS)
        if unknown:
            raise CorpusError(f"unknown stats fields {sorted(unknown)}")
        missing = [k for k in STATS_FIELDS if k not in stats]
        if missing:
            raise CorpusError(f"stats object missing fields {missing}")
        stats = StatsFeatures(**{k: stats[k] for k in STATS_FIELDS})
    return VideoRecord(
        id=obj["id"],
        channel_id=obj.get("channel_id") or "",
        title=obj.get("title"),
        tags=obj.get("tags"),
        comments=obj.get("comments"),
        transcript=obj.get("transcript"),
        stats=stats,
        thumbnail_path=obj.get("thumbnail"),
        label=obj.get("label"),
    ).validate()


def load_jsonl(path) -> list[VideoRecord]:
    """Read a corpus from a JSONL file, one record per line, in file order.

    Thumbnail paths are kept as written (usually relative to the file's
    directory); resolve them against the corpus directory when loading pixels.
    """
    path = Path(path)
    records: list[VideoRecord] = []
    seen: set[str] = set()
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as e:  # bad UTF-8, bad or too deep JSON
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({e})") from None
            try:
                rec = _record_from_obj(obj)
            except CorpusError as e:
                raise CorpusError(f"{path}: line {lineno}: {e}") from e
            if rec.id in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate id {rec.id!r}")
            seen.add(rec.id)
            records.append(rec)
    return records


def record_to_obj(rec: VideoRecord) -> dict:
    return {
        "id": rec.id,
        "channel_id": rec.channel_id,
        "title": rec.title,
        "tags": rec.tags,
        "comments": rec.comments,
        "transcript": rec.transcript,
        "stats": None if rec.stats is None else {k: getattr(rec.stats, k) for k in STATS_FIELDS},
        "thumbnail": rec.thumbnail_path,
        "label": rec.label,
    }


def write_corpus(records, jsonl_path) -> None:
    """Write records as JSONL; any in-memory thumbnails are written as PPM
    files at their recorded relative paths next to the JSONL file."""
    jsonl_path = Path(jsonl_path)
    jsonl_path.parent.mkdir(parents=True, exist_ok=True)
    with jsonl_path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_obj(rec), ensure_ascii=False) + "\n")
    for rec in records:
        if rec.thumbnail_image is not None and rec.thumbnail_path is not None:
            out = jsonl_path.parent / rec.thumbnail_path
            out.parent.mkdir(parents=True, exist_ok=True)
            save_ppm(rec.thumbnail_image, out)


# ---------------------------------------------------------------------------
# Binary PPM (P6)
# ---------------------------------------------------------------------------

def load_ppm(path) -> ThumbnailImage:
    """Decode a binary PPM (P6, maxval 255). Header comments are skipped."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] != b"P6":
        magic = raw[:2].decode("ascii", errors="replace")
        raise PpmError(f"{path}: unsupported format magic {magic!r}, expected binary P6")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        # skip whitespace and '#' comment lines between header fields
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PpmError(f"{path}: truncated header")
        try:
            fields.append(int(raw[start:pos]))
        except ValueError:
            raise PpmError(f"{path}: non-numeric header field {raw[start:pos]!r}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise PpmError(f"{path}: maxval {maxval} unsupported, expected 255")
    if width <= 0 or height <= 0:
        raise PpmError(f"{path}: image size {width}x{height} must be positive")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    data = raw[pos : pos + expected]
    if len(data) < expected:
        raise PpmError(f"{path}: truncated pixel payload ({len(data)} of {expected} bytes)")
    return ThumbnailImage(width=width, height=height, data=bytes(data))


def save_ppm(img: ThumbnailImage, path) -> None:
    path = Path(path)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + img.data)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]
    seed: int
    channel_disjoint: bool

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.validation), len(self.test)


def split_sizes(n: int) -> tuple[int, int, int]:
    """81/9/10 partition sizes; train and validation round to nearest."""
    n_train = round(n * TRAIN_FRACTION)
    n_val = round(n * VALIDATION_FRACTION)
    return n_train, n_val, n - n_train - n_val


def split_dataset(records, seed: int, channel_disjoint: bool = False) -> DatasetSplit:
    """Deterministic 81/9/10 split keyed by seed over ids sorted
    lexicographically, so the result is independent of file order and labels.

    Channel-disjoint mode assigns whole channels greedily (largest first) to
    the partition with the largest remaining deficit; proportions are then
    approximate but no channel spans two partitions.
    """
    records = list(records)
    n = len(records)
    if n < 10:
        raise CorpusError(f"need at least 10 records to split, got {n}")
    ids = sorted(r.id for r in records)
    if len(set(ids)) != n:
        raise CorpusError("duplicate record ids")
    n_train, n_val, n_test = split_sizes(n)

    if not channel_disjoint:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        shuffled = [ids[i] for i in perm]
        return DatasetSplit(
            train=tuple(shuffled[:n_train]),
            validation=tuple(shuffled[n_train : n_train + n_val]),
            test=tuple(shuffled[n_train + n_val :]),
            seed=seed,
            channel_disjoint=False,
        )

    by_channel: dict[str, list[str]] = {}
    for r in records:
        by_channel.setdefault(r.channel_id, []).append(r.id)
    if len(by_channel) < 10:
        raise CorpusError(
            f"channel-disjoint split needs at least 10 distinct channels, got {len(by_channel)}"
        )
    rng = np.random.default_rng(seed)
    channels = sorted(by_channel)
    order = rng.permutation(len(channels))  # tie-break among equal-size channels
    ranked = sorted(
        (channels[i] for i in order),
        key=lambda ch: -len(by_channel[ch]),
    )
    targets = [n_train, n_val, n_test]
    filled = [0, 0, 0]
    parts: tuple[list[str], list[str], list[str]] = ([], [], [])
    for ch in ranked:
        deficits = [targets[k] - filled[k] for k in range(3)]
        k = deficits.index(max(deficits))
        parts[k].extend(sorted(by_channel[ch]))
        filled[k] += len(by_channel[ch])
    return DatasetSplit(
        train=tuple(parts[0]),
        validation=tuple(parts[1]),
        test=tuple(parts[2]),
        seed=seed,
        channel_disjoint=True,
    )


def select_records(records, ids) -> list[VideoRecord]:
    by_id = {r.id: r for r in records}
    return [by_id[i] for i in ids]


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

# Fixed lexicons planted by the generator. Clickbait records draw provocative
# title tokens from BAIT_LEXICON; the other lists mark the complementary cues.
BAIT_LEXICON = (
    "shocking", "unbelievable", "insane", "secret", "exposed", "revealed",
    "forbidden", "banned", "crazy", "epic", "ultimate", "viral", "warning",
    "finally", "busted", "jawdropping",
)
CALM_LEXICON = (
    "review", "tutorial", "explained", "guide", "analysis", "lecture",
    "walkthrough", "summary", "documentary", "interview", "lesson", "basics",
)
SKEPTIC_LEXICON = (
    "clickbait", "misleading", "fake", "waste", "lies", "scam",
    "disappointed", "reported", "unsubscribed", "garbage",
)
PRAISE_LEXICON = (
    "thanks", "helpful", "great", "awesome", "loved", "clear",
    "useful", "informative", "subscribed", "brilliant",
)
FILLER_LEXICON = (
    "subscribe", "smash", "bell", "notification", "sponsor", "merch",
    "giveaway", "stay", "tuned", "hype",
)

THUMB_SIZE = 64


@dataclass(frozen=True)
class SignalStrengths:
    """Per-modality separability knobs in [0, 1]. At 0 the modality's payload
    distribution is identical for both labels; at 1 every record carries its
    label's signature."""

    title: float = 1.0
    thumbnail: float = 1.0
    comments: float = 1.0
    audio_transcript: float = 1.0
    tags: float = 1.0
    statistics: float = 1.0

    @classmethod
    def uniform(cls, value: float) -> "SignalStrengths":
        return cls(**{m: value for m in MODALITIES})

    def validate(self) -> "SignalStrengths":
        for m in MODALITIES:
            v = getattr(self, m)
            if not 0.0 <= v <= 1.0:
                raise CorpusError(f"signal strength for {m} must be in [0,1], got {v}")
        return self


@dataclass(frozen=True)
class SyntheticConfig:
    n_records: int
    clickbait_ratio: float = 0.5
    signal_strengths: SignalStrengths = field(default_factory=SignalStrengths)
    topic_pool_size: int = 120
    n_channels: int = 12
    seed: int = 0

    def validate(self) -> "SyntheticConfig":
        if self.n_records < 1:
            raise CorpusError(f"n_records must be >= 1, got {self.n_records}")
        if not 0.0 <= self.clickbait_ratio <= 1.0:
            raise CorpusError(f"clickbait_ratio must be in [0,1], got {self.clickbait_ratio}")
        if self.topic_pool_size < 20:
            raise CorpusError("topic_pool_size must be >= 20")
        if self.n_channels < 1:
            raise CorpusError("n_channels must be >= 1")
        self.signal_strengths.validate()
        return self


def _pick(rng, pool, k):
    return [pool[i] for i in rng.integers(0, len(pool), size=k)]


def _synthetic_thumbnail(rng, clickbait: bool, active: bool) -> ThumbnailImage:
    s = THUMB_SIZE
    if not active:
        # label-independent: plain RGB noise
        px = rng.integers(60, 196, size=(s, s, 3))
    elif clickbait:
        # saturated block over dark noise
        px = rng.integers(0, 70, size=(s, s, 3))
        bw, bh = int(rng.integers(24, 49)), int(rng.integers(24, 49))
        x0, y0 = int(rng.integers(0, s - bw + 1)), int(rng.integers(0, s - bh + 1))
        hot = int(rng.integers(0, 3))
        block = rng.integers(0, 50, size=(bh, bw, 3))
        block[:, :, hot] = rng.integers(215, 256, size=(bh, bw))
        px[y0 : y0 + bh, x0 : x0 + bw] = block
    else:
        # smooth near-gray horizontal ramp, channels tied (zero saturation)
        lo = int(rng.integers(80, 121))
        ramp = np.linspace(lo, lo + 60, s).astype(np.int64)
        px = np.repeat(ramp[None, :, None], s, axis=0).repeat(3, axis=2)
        px = px + rng.integers(-6, 7, size=(s, s, 1))
    px = np.clip(px, 0, 255).astype(np.uint8)
    return ThumbnailImage(width=s, height=s, data=px.tobytes())


def _synthetic_stats(rng, clickbait: bool, active: bool) -> StatsFeatures:
    if not active:
        views = int(np.exp(rng.normal(11.5, 1.2)))
        like_r, dislike_r = rng.uniform(0.005, 0.03), rng.uniform(0.002, 0.02)
        duration = int(rng.integers(120, 1200))
    elif clickbait:
        # heavier-tailed views, dislike-heavy reactions, short runtime
        views = int(np.exp(rng.normal(12.5, 1.8)))
        like_r, dislike_r = rng.uniform(0.002, 0.01), rng.uniform(0.01, 0.05)
        duration = int(rng.integers(90, 400))
    else:
        views = int(np.exp(rng.normal(10.5, 0.9)))
        like_r, dislike_r = rng.uniform(0.02, 0.06), rng.uniform(0.001, 0.004)
        duration = int(rng.integers(400, 1800))
    return StatsFeatures(
        views=views,
        likes=int(views * like_r),
        dislikes=int(views * dislike_r),
        comment_count=int(views * rng.uniform(0.0005, 0.002)),
        duration_s=duration,
    )


def generate_synthetic(config: SyntheticConfig) -> list[VideoRecord]:
    """Generate a labeled corpus with per-modality signals gated by
    ``signal_strengths``.

    For each record and modality, a Bernoulli(strength) draw decides whether
    the payload comes from the label-specific distribution or from a shared
    neutral one. Clickbait signatures: bait tokens in the title, a saturated
    thumbnail block, skeptical comments, title tokens missing from the
    transcript plus filler, inflated tag counts, and heavy-tailed statistics.
    Non-clickbait records carry the complements (calm title tokens, flat
    thumbnail, appreciative comments, title tokens echoed in the transcript,
    moderate tags and stats). Thumbnails are attached in memory; write them
    out with :func:`write_corpus`.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    sig = config.signal_strengths
    topics = [f"word{i:03d}" for i in range(config.topic_pool_size)]

    n = config.n_records
    n_clickbait = round(n * config.clickbait_ratio)
    labels = np.zeros(n, dtype=bool)
    labels[:n_clickbait] = True
    rng.shuffle(labels)

    channel_w = 1.0 / np.arange(1, config.n_channels + 1)
    channel_w /= channel_w.sum()

    records = []
    for i in range(n):
        cb = bool(labels[i])
        rid = f"v{i:05d}"
        channel = f"ch{int(rng.choice(config.n_channels, p=channel_w)):02d}"
        active = {m: bool(rng.random() < getattr(sig, m)) for m in MODALITIES}

        # title: generic topic words, plus bait/calm insertions when active
        title_tokens = _pick(rng, topics, int(rng.integers(5, 11)))
        if active["title"]:
            lex = BAIT_LEXICON if cb else CALM_LEXICON
            extra = _pick(rng, lex, int(rng.integers(2, 5)))
            if cb:
                extra = [t.upper() for t in extra]
            for t in extra:
                title_tokens.insert(int(rng.integers(0, len(title_tokens) + 1)), t)
        title = " ".join(title_tokens)
        title_topics = set(tok.lower() for tok in title_tokens)

        # tags: count is the signal; clickbait inflates it
        if active["tags"]:
            n_tags = int(rng.integers(18, 31)) if cb else int(rng.integers(5, 13))
        else:
            n_tags = int(rng.integers(9, 17))
        tags = _pick(rng, topics, n_tags)
        if active["tags"] and cb:
            for t in _pick(rng, BAIT_LEXICON, max(2, n_tags // 6)):
                tags[int(rng.integers(0, len(tags)))] = t

        # comments: skeptical vs appreciative vocabulary when active
        comments = []
        for _ in range(int(rng.integers(5, 15))):
            words = _pick(rng, topics, int(rng.integers(3, 9)))
            if active["comments"] and rng.random() < 0.6:
                lex = SKEPTIC_LEXICON if cb else PRAISE_LEXICON
                for w in _pick(rng, lex, int(rng.integers(1, 3))):
                    words.insert(int(rng.integers(0, len(words) + 1)), w)
            comments.append(" ".join(words))

        # transcript: non-clickbait echoes the title's words, clickbait
        # suppresses them and rambles filler instead
        body = _pick(rng, topics, int(rng.integers(40, 71)))
        if active["audio_transcript"]:
            if cb:
                body = [w for w in body if w not in title_topics]
                for w in _pick(rng, FILLER_LEXICON, int(rng.integers(4, 9))):
                    body.insert(int(rng.integers(0, len(body) + 1)), w)
            else:
                echo = [w for w in title_tokens if w.islower()]
                for w in echo * 2 + _pick(rng, CALM_LEXICON, int(rng.integers(2, 5))):
                    body.insert(int(rng.integers(0, len(body) + 1)), w)
        transcript = " ".join(body)

        records.append(
            VideoRecord(
                id=rid,
                channel_id=channel,
                title=title,
                tags=tags,
                comments=comments,
                transcript=transcript,
                stats=_synthetic_stats(rng, cb, active["statistics"]),
                thumbnail_path=f"thumbs/{rid}.ppm",
                label=LABEL_CLICKBAIT if cb else LABEL_NON_CLICKBAIT,
                thumbnail_image=_synthetic_thumbnail(rng, cb, active["thumbnail"]),
            ).validate()
        )
    return records

