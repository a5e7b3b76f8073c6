"""Seeded inputs, timed phases and output checks for the three workloads.

Every workload runs the same timed section on its own inputs:

- ``train``: ``training.train`` from scratch for ``EPOCHS`` epochs
  (``patience`` and ``loss_threshold`` never stop it early), repeated
  ``train_reps`` times;
- ``predict``: a closed loop with one client that calls
  ``BaitRadarModel.predict`` one record at a time on held-out records that
  went through ``write_corpus`` and ``load_jsonl``, so thumbnails are read
  from PPM files on every call;
- ``batch_score``: the same records featurized and scored through
  ``forward_features`` in fixed chunks, one chunk after every
  ``predicts_per_chunk`` predict calls.

The served model has the architecture the workload trains; it is seeded and
round-tripped through ``checkpoint.dumps``/``loads`` in set-up. Scoring runs
in slices before, between and after the train() calls until the section has
lasted ``seconds`` and at least ``min_requests`` predict calls were made.

Why each workload exists, and what it should and should not move:

``train-full``
    The paper's combined model: all six modalities on complete records. The
    conv stack is about half of each step and the four LSTMs about 40%, so
    conv, pool and Adam changes show here.
``train-text-missing``
    The title-anchored text row ``title+comments+audio_transcript+tags`` with
    ``modality_keep_prob=0.7``, after comments and transcripts were removed
    from a seeded ~30% of records each. No conv runs at all; variable-length
    LSTMs on partial per-encoder batches dominate, with masked fusion and the
    row gather and scatter. A conv-only change predicts no change here.
``score-stream``
    Serving: the six-modality model scores records with a seeded mix of
    missing thumbnail, comments and statistics, and a share of requests pass
    a modality subset. The shares of missing fields and of subset requests
    are assumptions of this benchmark (see ``STREAM_MISSING_SHARE`` and
    ``STREAM_SUBSET_SHARE``), not measured traffic: they make every
    missing-field path of ``predict`` run. ``predict.*`` and
    ``batch_score.*`` are forward-only, so a backward-pass change predicts no
    change there. Every workload reports every end-to-end metric, so the
    section also runs ``train()`` twice, one epoch on 384 incomplete records
    each, validated on the full validation split; ``train.*`` here does move
    with backward-pass changes. The traced run of this workload leaves
    ``train()`` out, so its per-layer figures are forward-only.

With ``--trace 1`` both sections run fixed counts (no deadline), so every
version of the program divides its per-layer figures by the same mix of
records.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from baitradar import checkpoint, corpus, training
# featurize_record is called through its module, so that the tracer, which
# rebinds module attributes, sees these calls too
from baitradar import model as br_model
from baitradar.corpus import SignalStrengths, SyntheticConfig, VideoRecord
from baitradar.encoders import EncoderConfig
from baitradar.model import BaitRadarModel
from baitradar.modalities import MODALITIES, ModalityMask

WORKLOADS = ("train-full", "train-text-missing", "score-stream")

TEXT_COMBO = ("title", "comments", "audio_transcript", "tags")
# train-text-missing: share of records whose comments, and independently
# whose transcript, are removed before training
TEXT_MISSING_SHARE = 0.3
# score-stream traffic. Neither the paper nor the synthetic corpus gives rates
# of missing fields or of subset requests, so these shares are assumptions:
# large enough that every missing-field and subset path of predict runs
# hundreds of times in a run, not a model of real traffic.
STREAM_MISSING_SHARE = 0.25  # each of thumbnail, comments and stats, independently
STREAM_SUBSET_SHARE = 0.3    # requests that pass one of REQUEST_SUBSETS
# request subsets for score-stream: the paper's title-anchored sweep rows,
# drawn uniformly
REQUEST_SUBSETS = (
    ("title",),
    ("title", "tags"),
    ("title", "audio_transcript"),
    ("title", "comments", "tags"),
)
PROB_TOLERANCE = 1e-9
# Model initialisation and epoch shuffling use one fixed seed, so --seed
# varies the data the model sees but not where training starts: with the
# initialisation drawn from --seed too, the one-epoch loss of train-full
# spread over a third of its median across seeds.
MODEL_SEED = 7
EPOCHS = 1


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the benchmark measures; the smoke test
    runs ``TINY``."""

    n_records: int = 2000
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    batch_size: int = 32
    # train() calls per run; the reported wall time is their median
    train_reps: dict = field(default_factory=lambda: {
        "train-full": 1, "train-text-missing": 3, "score-stream": 2})
    stream_train_records: int = 384
    min_requests: int = 1200
    batch_chunk: int = 32
    predicts_per_chunk: int = 64
    setup_reps: int = 3
    warmup_train_records: int = 64
    warmup_requests: int = 20
    # the majority class is 60% of the corpus
    val_accuracy_floor: float = 0.7


FULL = Scale()
TINY = Scale(
    n_records=80,
    encoder=EncoderConfig(fusion_dim=8, embed_dim=4, conv_channels=(2, 3), thumb_size=16,
                          stats_hidden=4, head_hidden=4),
    batch_size=8,
    stream_train_records=24,
    min_requests=12,
    batch_chunk=4,
    predicts_per_chunk=3,
    setup_reps=2,
    warmup_train_records=8,
    warmup_requests=2,
    val_accuracy_floor=0.0,  # a few tiny batches do not learn
)


@dataclass
class Inputs:
    """Everything a workload's timed phases need, built by :func:`setup`."""

    workload: str
    records: list[VideoRecord]
    split: corpus.DatasetSplit        # the split train() sees
    config: training.TrainConfig
    prepared: training.PreparedCorpus
    requests: list[tuple[VideoRecord, tuple[str, ...] | None]]
    base_dir: Path
    serve_model: BaitRadarModel
    digest: str


@dataclass
class Outcome:
    """Measurements and check counts of one pass over the timed phases."""

    train_walls: list[float] = field(default_factory=list)
    train_records: int = 0
    epochs: int = 0
    final_loss: float = math.nan
    val_accuracy: float = math.nan
    latencies: list[float] = field(default_factory=list)
    batch_time: float = 0.0
    batch_records: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall: float = 0.0
    # request index -> predict probabilities seen, and batched probability
    predicted: dict[int, list[float]] = field(default_factory=dict)
    batched: dict[int, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    @property
    def records_processed(self) -> int:
        return self.train_records * self.epochs * len(self.train_walls) \
            + len(self.latencies) + self.batch_records


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _blank(records, seed: int, salt: int, fields_and_share) -> None:
    """Remove payloads in place on a seeded share of records."""
    rng = np.random.default_rng([seed, salt])
    for rec in records:
        for attrs, share in fields_and_share:
            if rng.random() < share:
                for attr in attrs:
                    setattr(rec, attr, None)


def _digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(corpus.record_to_obj(rec)).encode("utf-8"))
        if rec.thumbnail_image is not None:
            h.update(rec.thumbnail_image.data)
    return h.hexdigest()[:16]


def setup(workload: str, seed: int, scale: Scale, work_dir: Path) -> Inputs:
    """Generate the workload's corpus from ``seed``, prepare it, and write the
    held-out records to disk and read them back."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    records = corpus.generate_synthetic(SyntheticConfig(
        n_records=scale.n_records, clickbait_ratio=0.6,
        signal_strengths=SignalStrengths.uniform(0.8), seed=seed,
    ))
    modalities = MODALITIES
    keep_prob = None
    if workload == "train-text-missing":
        _blank(records, seed, 1, ((("comments",), TEXT_MISSING_SHARE),
                                  (("transcript",), TEXT_MISSING_SHARE)))
        modalities, keep_prob = TEXT_COMBO, 0.7
    elif workload == "score-stream":
        _blank(records, seed, 2, ((("thumbnail_path", "thumbnail_image"), STREAM_MISSING_SHARE),
                                  (("comments",), STREAM_MISSING_SHARE),
                                  (("stats",), STREAM_MISSING_SHARE)))
    digest = _digest(records)
    split = corpus.split_dataset(records, seed)
    config = training.TrainConfig(
        modalities=modalities, batch_size=scale.batch_size, max_epochs=EPOCHS,
        patience=10**9, loss_threshold=1e-300, seed=MODEL_SEED, modality_keep_prob=keep_prob,
        encoder=scale.encoder,
    )
    prepared = training.prepare_corpus(records, split, config)

    work_dir.mkdir(parents=True, exist_ok=True)
    held_out = corpus.select_records(records, split.test)
    corpus.write_corpus(held_out, work_dir / "held_out.jsonl")
    scored = corpus.load_jsonl(work_dir / "held_out.jsonl")

    # The served model is the architecture the workload trains, seeded and
    # round-tripped through a checkpoint, so scoring can run before, between
    # and after the train() calls.
    model = BaitRadarModel.build(modalities, prepared.vocab, prepared.stats_norm,
                                 scale.encoder, seed=MODEL_SEED)
    serve_model = checkpoint.loads(checkpoint.dumps(model))
    subsets: list[tuple[str, ...] | None] = [None] * len(scored)
    if workload == "score-stream":
        split = replace(split, train=split.train[: scale.stream_train_records])
        rng = np.random.default_rng([seed, 3])
        subsets = [REQUEST_SUBSETS[int(rng.integers(len(REQUEST_SUBSETS)))]
                   if rng.random() < STREAM_SUBSET_SHARE else None for _ in scored]
    return Inputs(
        workload=workload, records=records, split=split, config=config, prepared=prepared,
        requests=list(zip(scored, subsets)), base_dir=work_dir, serve_model=serve_model,
        digest=digest,
    )


def warm_up(inputs: Inputs, scale: Scale) -> None:
    """Run every timed code path once on a few records, untimed."""
    split = replace(
        inputs.split, train=inputs.split.train[: scale.warmup_train_records],
        validation=inputs.split.validation[: scale.batch_chunk],
    )
    training.train(inputs.records, split, inputs.config, prepared=inputs.prepared)
    model = inputs.serve_model
    for rec, subset in inputs.requests[: scale.warmup_requests]:
        _predict(model, rec, subset, inputs.base_dir)
    _batch_probs(model, inputs.requests[: scale.batch_chunk], inputs.base_dir, scale.batch_chunk)


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------

def _present(rec: VideoRecord) -> set[str]:
    payloads = {
        "title": rec.title, "thumbnail": rec.thumbnail_path or rec.thumbnail_image,
        "comments": rec.comments, "audio_transcript": rec.transcript, "tags": rec.tags,
        "statistics": rec.stats,
    }
    return {m for m, v in payloads.items() if v is not None}


def _expected_mask(model: BaitRadarModel, rec: VideoRecord, subset) -> set[str]:
    requested = set(subset) if subset is not None else set(model.modalities)
    return requested & _present(rec)


def _predict(model, rec, subset, base_dir):
    mask = None if subset is None else ModalityMask.from_names(subset)
    return model.predict(rec, subset=mask, base_dir=base_dir)


def _batch_probs(model: BaitRadarModel, requests, base_dir, chunk: int) -> list[float]:
    """Featurize each record under its expected mask and score in chunks."""
    probs: list[float] = []
    for lo in range(0, len(requests), chunk):
        feats, masks = [], []
        for rec, subset in requests[lo : lo + chunk]:
            names = _expected_mask(model, rec, subset)
            feats.append(br_model.featurize_record(rec, model.vocab, model.stats_norm, model.config,
                                                   base_dir=base_dir, modalities=tuple(names)))
            masks.append(ModalityMask.from_names(names))
        out, _ = model.forward_features(feats, masks)
        probs.extend(float(p) for p in out)
    return probs


def run_phases(inputs: Inputs, scale: Scale, seconds: float, tracer=None) -> Outcome:
    """The timed section, with every output check. Scoring slices alternate
    with the train() calls, so each measurement samples the whole section and
    a slow spell of the machine does not land on one phase alone. The last
    slice lasts until the section has run ``seconds`` and at least
    ``min_requests`` predict calls were made; with ``seconds`` 0 the section
    runs fixed counts. ``tracer`` only receives the current request id.
    :func:`check_against_batch` completes the output checks after the
    section."""
    out = Outcome()
    t_section = time.perf_counter()
    window = _ScoringWindow(inputs, scale, out, tracer)
    reps = scale.train_reps[inputs.workload]
    with _counted_as_failure(out):
        for rep in range(reps):
            window.run(scale.min_requests * (rep + 1) // (reps + 1))
            _train_once(inputs, scale, out, tracer, rep)
        window.run(scale.min_requests, deadline=t_section + seconds)
    out.wall = time.perf_counter() - t_section
    return out


def check_against_batch(inputs: Inputs, scale: Scale, out: Outcome) -> None:
    """Every predict probability must match the batched probability of the
    same record. Records that no timed chunk reached are scored here, after
    the section, so that this extra work is neither timed nor traced."""
    requests = inputs.requests
    with _counted_as_failure(out):
        rest = [k for k in out.predicted if k not in out.batched]
        out.batched.update(zip(rest, _batch_probs(
            inputs.serve_model, [requests[k] for k in rest], inputs.base_dir, scale.batch_chunk)))
        for k, seen in out.predicted.items():
            for p in seen:
                out.check(abs(p - out.batched[k]) <= PROB_TOLERANCE,
                          f"{requests[k][0].id}: predict {p!r} != batch {out.batched[k]!r}")


@contextlib.contextmanager
def _counted_as_failure(out: Outcome):
    """Any crash is a failed operation, reported with the other errors."""
    try:
        yield
    except Exception:  # noqa: BLE001
        out.attempted += 1
        out.failed += 1
        out.errors.append(traceback.format_exc())


def _train_once(inputs: Inputs, scale: Scale, out: Outcome, tracer, rep: int) -> None:
    if tracer is not None:
        tracer.request = f"train-{rep}"
    t0 = time.perf_counter()
    _, report = training.train(inputs.records, inputs.split, inputs.config,
                               prepared=inputs.prepared)
    out.train_walls.append(time.perf_counter() - t0)
    for e, loss in enumerate(report.losses):
        out.check(math.isfinite(loss), f"epoch {e + 1} loss {loss} is not finite")
    out.check(report.epochs_run == inputs.config.max_epochs,
              f"ran {report.epochs_run} epochs, expected {inputs.config.max_epochs}")
    out.check(report.val_accuracies[-1] >= scale.val_accuracy_floor,
              f"val accuracy {report.val_accuracies[-1]} below {scale.val_accuracy_floor}")
    out.train_records = len(inputs.split.train)
    out.epochs = report.epochs_run
    out.final_loss = report.losses[-1]
    out.val_accuracy = report.val_accuracies[-1]


class _ScoringWindow:
    """Single-record predict calls in a closed loop with one client, with one
    batch chunk scored through forward_features after every
    ``predicts_per_chunk`` calls; both walk the held-out records round robin."""

    def __init__(self, inputs: Inputs, scale: Scale, out: Outcome, tracer):
        self.inputs, self.scale, self.out, self.tracer = inputs, scale, out, tracer
        self.lo = self.chunks = 0

    def run(self, min_requests: int, deadline: float = 0.0) -> None:
        """Predict until ``min_requests`` calls were made in total and the
        clock has passed ``deadline``."""
        inputs, out, tracer = self.inputs, self.out, self.tracer
        model, requests = inputs.serve_model, inputs.requests
        while len(out.latencies) < min_requests or time.perf_counter() < deadline:
            i = len(out.latencies)
            rec, subset = requests[i % len(requests)]
            if tracer is not None:
                tracer.request = f"predict-{i}"
            t = time.perf_counter()
            pred = _predict(model, rec, subset, inputs.base_dir)
            out.latencies.append(time.perf_counter() - t)
            p = pred.probability
            out.check(0.0 <= p <= 1.0, f"{rec.id}: probability {p} outside [0,1]")
            expected = _expected_mask(model, rec, subset)
            out.check(set(pred.mask_used.names()) == expected,
                      f"{rec.id}: mask_used {pred.mask_used.names()} != {sorted(expected)}")
            out.predicted.setdefault(i % len(requests), []).append(p)
            if (i + 1) % self.scale.predicts_per_chunk == 0:
                self._batch_chunk()

    def _batch_chunk(self) -> None:
        inputs, out, chunk, lo = self.inputs, self.out, self.scale.batch_chunk, self.lo
        if self.tracer is not None:
            self.tracer.request = f"batch-{self.chunks}"
        t = time.perf_counter()
        probs = _batch_probs(inputs.serve_model, inputs.requests[lo : lo + chunk],
                             inputs.base_dir, chunk)
        out.batch_time += time.perf_counter() - t
        out.batch_records += len(probs)
        out.batched.update(zip(range(lo, lo + len(probs)), probs))
        self.chunks += 1
        self.lo = lo + chunk if lo + chunk < len(inputs.requests) else 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e3


def end_to_end(out: Outcome, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; ``train.*`` only if the section trained."""
    metrics = {"setup_s": setup_s}
    if out.train_walls:
        metrics.update({
            "train.records_per_s": out.train_records * out.epochs / statistics.median(out.train_walls),
            "train.final_loss": out.final_loss,
            "train.val_accuracy": out.val_accuracy,
        })
    return metrics | {
        "predict.p50_ms": percentile_ms(out.latencies, 50),
        "predict.p90_ms": percentile_ms(out.latencies, 90),
        # one client in a closed loop: requests over the time spent in predict
        "predict.records_per_s": len(out.latencies) / math.fsum(out.latencies),
        "batch_score.records_per_s": out.batch_records / out.batch_time,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def timed_setup(workload: str, seed: int, scale: Scale, work_dir: Path):
    """Set up ``scale.setup_reps`` times; returns the last inputs and the
    median set-up time."""
    times = []
    for _ in range(scale.setup_reps):
        shutil.rmtree(work_dir, ignore_errors=True)
        t0 = time.perf_counter()
        inputs = setup(workload, seed, scale, work_dir)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)
