"""Names and units of every metric the benchmark emits.

``BENCHMARK.json`` at the repository root lists the same names and units and
adds each metric's direction and bound; the smoke test checks that the two
agree.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "train.records_per_s": "records/s",
    "train.final_loss": "nats",
    "train.val_accuracy": "ratio",
    "predict.p50_ms": "ms",
    "predict.p90_ms": "ms",
    "predict.records_per_s": "records/s",
    "batch_score.records_per_s": "records/s",
    "peak_rss_mb": "MB",
}

# Traced functions reported as <name>.self_us and <name>.calls, both per
# record processed. The tracer wraps more than these; the report lists all.
LAYER_FUNCTIONS = (
    "nncore.dense_forward",
    "nncore.dense_backward",
    "nncore.embedding_forward",
    "nncore.embedding_backward",
    "nncore.lstm_forward",
    "nncore.lstm_backward",
    "nncore.conv2d_forward",
    "nncore.conv2d_backward",
    "nncore.max_pool2d_forward",
    "nncore.max_pool2d_backward",
    "nncore.relu_forward",
    "nncore.relu_backward",
    "nncore.sigmoid",
    "nncore.sigmoid_backward",
    "nncore.binary_cross_entropy",
    "nncore.binary_cross_entropy_grad",
    "nncore.adam_step",
    "encoders.prepare_thumbnail",
    "fusion.fuse_batch",
    "fusion.fuse_batch_backward",
    "fusion.head_forward",
    "fusion.head_backward",
    "model.featurize_record",
    "model.forward_features",
    "model.backward",
    "model.predict",
    "training.train",
    "training.prepare_corpus",
    "training.batch_accuracy",
    "textpipe.tokenize",
    "textpipe.encode_modality",
    "textpipe.build_vocab",
    "corpus.generate_synthetic",
    "corpus.split_dataset",
    "corpus.write_corpus",
    "corpus.load_jsonl",
    "corpus.load_ppm",
    "checkpoint.dumps",
    "checkpoint.loads",
)

# Spelled out rather than imported from the program, so that the metric names
# stay fixed when the program changes.
ENCODER_MODALITIES = (
    "title", "thumbnail", "comments", "audio_transcript", "tags", "statistics",
)
TEXT_MODALITIES = ("title", "comments", "audio_transcript", "tags")


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.self_us"] = "us"
        units[f"{fn}.calls"] = "calls/record"
    for m in ENCODER_MODALITIES:
        units[f"encoders.{m}.forward_us"] = "us"
        units[f"encoders.{m}.backward_us"] = "us"
        units[f"encoders.{m}.rows_per_call"] = "rows"
    units["nncore.lstm_forward.live_row_ratio"] = "ratio"
    for m in TEXT_MODALITIES:
        units[f"nncore.lstm_forward.{m}.rows_per_call"] = "rows"
        units[f"nncore.lstm_forward.{m}.steps_per_call"] = "steps"
        units[f"nncore.lstm_forward.{m}.max_steps"] = "steps"
        units[f"nncore.lstm_forward.{m}.live_row_ratio"] = "ratio"
    units["untraced.self_us"] = "us"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = _per_layer()
