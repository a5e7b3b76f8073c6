"""Command-line entry point.

Subcommands: gen-data, build-vocab, train, eval, sweep, predict, grad-check.
Exit codes: 0 success, 1 usage error, 2 data/verification error. Config
precedence for training runs: built-in defaults < --config JSON file < flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import checks, corpus, metrics, textpipe, training
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import SignalStrengths, SyntheticConfig
from .encoders import ConfigError, EncoderConfig
from .modalities import MODALITIES, ModalityMask, parse_modalities
from .training import TrainConfig, TrainingError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="baitradar", description="Multi-modal clickbait video classifier")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", parents=[], help="generate a synthetic corpus")
    g.add_argument("--n", type=int, required=True, help="number of records")
    g.add_argument("--ratio", type=float, default=0.5, help="clickbait fraction")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output JSONL path")
    g.add_argument("--signals", type=float, default=None,
                   help="uniform signal strength for all modalities")
    g.add_argument("--signal", action="append", default=[], metavar="MODALITY=V",
                   help="per-modality signal strength override (repeatable)")
    g.add_argument("--channels", type=int, default=12)
    g.add_argument("--topic-pool", type=int, default=120)

    v = sub.add_parser("build-vocab", help="build a vocabulary from a corpus training split")
    v.add_argument("--in", dest="input", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--channel-disjoint", action="store_true")
    v.add_argument("--max-size", type=int, default=textpipe.DEFAULT_VOCAB_SIZE)
    v.add_argument("--min-freq", type=int, default=textpipe.DEFAULT_MIN_FREQ)

    def add_train_flags(sp):
        sp.add_argument("--config", help="JSON file with TrainConfig fields")
        sp.add_argument("--regime", choices=training.REGIMES)
        sp.add_argument("--modalities", help="comma-separated modality subset")
        sp.add_argument("--batch-size", type=int)
        sp.add_argument("--max-epochs", type=int)
        sp.add_argument("--lr", type=float)
        sp.add_argument("--loss-threshold", type=float)
        sp.add_argument("--patience", type=int)
        sp.add_argument("--modality-keep-prob", type=float)
        sp.add_argument("--fusion-dim", type=int)
        sp.add_argument("--vocab-max-size", type=int)
        sp.add_argument("--vocab-min-freq", type=int)
        sp.add_argument("--channel-disjoint", action="store_true")

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--in", dest="input", required=True)
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--seed", type=int, help="drives the split, init, and shuffling")
    t.add_argument("--init", action="append", default=[],
                   help="pretrained checkpoint (repeatable; for head_only/finetune)")
    t.add_argument("--report", help="write the per-epoch report as JSON lines")
    add_train_flags(t)

    e = sub.add_parser("eval", help="evaluate a checkpoint on labeled records")
    e.add_argument("--model", required=True)
    e.add_argument("--in", dest="input", required=True)
    e.add_argument("--modalities", help="evaluation-time modality mask")
    e.add_argument("--split", choices=("all", "train", "validation", "test"), default="all")
    e.add_argument("--seed", type=int, default=0, help="split seed when --split is not all")
    e.add_argument("--channel-disjoint", action="store_true")

    s = sub.add_parser("sweep", help="train and rank title-anchored modality combinations")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--seed", type=int, required=True,
                   help="mandatory; sweeps must be reproducible")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--combos",
                   help='semicolon-separated sets, e.g. "title;title+tags" (title is required '
                        "in each; the full six-modality set is always added)")
    s.add_argument("--gnuplot", action="store_true", help="also write sweep.dat")
    add_train_flags(s)

    pr = sub.add_parser("predict", help="classify records from a file or flags")
    pr.add_argument("--model", required=True)
    pr.add_argument("--in", dest="input", help="JSONL file of records")
    pr.add_argument("--modalities", help="restrict the modalities consulted")
    pr.add_argument("--id", default="record0")
    pr.add_argument("--channel-id", default="")
    pr.add_argument("--title")
    pr.add_argument("--tags", help="comma-separated")
    pr.add_argument("--comment", action="append", default=[], help="repeatable")
    pr.add_argument("--transcript")
    pr.add_argument("--thumbnail", help="path to a binary PPM")
    pr.add_argument("--views", type=int)
    pr.add_argument("--likes", type=int, default=0)
    pr.add_argument("--dislikes", type=int, default=0)
    pr.add_argument("--comment-count", type=int, default=0)
    pr.add_argument("--duration-s", type=int, default=0)

    gc = sub.add_parser("grad-check", help="finite-difference check of every layer")
    gc.add_argument("--tol", type=float, default=checks.DEFAULT_TOLERANCE)

    return p


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------

_FLAG_FIELDS = (
    "regime", "batch_size", "max_epochs", "lr", "loss_threshold", "patience",
    "modality_keep_prob", "vocab_max_size", "vocab_min_freq", "seed",
)


def _read_config(path) -> dict:
    """The --config file's fields: a JSON object of TrainConfig fields, with
    EncoderConfig fields under "encoder". The configs check the values."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad or too deep JSON
        raise _UsageError(f"--config {path}: invalid JSON ({e})") from None
    encoder = obj.get("encoder", {}) if isinstance(obj, dict) else None
    for part, cls, where in ((obj, TrainConfig, ""), (encoder, EncoderConfig, "encoder ")):
        if not isinstance(part, dict):
            raise _UsageError(f"--config {path}: {where}must be a JSON object")
        unknown = sorted(set(part) - {f.name for f in fields(cls)})
        if unknown:
            raise _UsageError(f"--config {path}: unknown {where}fields {unknown}")
    return obj


def make_train_config(args) -> TrainConfig:
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_read_config(args.config))
    for name in _FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    if getattr(args, "modalities", None):
        merged["modalities"] = parse_modalities(args.modalities)
    encoder = merged.pop("encoder", {})
    if getattr(args, "fusion_dim", None) is not None:
        encoder["fusion_dim"] = args.fusion_dim
    try:
        return TrainConfig(**merged, encoder=EncoderConfig(**encoder))
    except (ConfigError, TrainingError) as e:
        raise _UsageError(f"invalid configuration: {e}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    sig = SignalStrengths() if args.signals is None else SignalStrengths.uniform(args.signals)
    overrides = {}
    for item in args.signal:
        name, _, value = item.partition("=")
        if name not in MODALITIES or not value:
            raise corpus.CorpusError(f"bad --signal {item!r}; expected MODALITY=VALUE")
        overrides[name] = float(value)
    if overrides:
        sig = replace(sig, **overrides)
    config = SyntheticConfig(
        n_records=args.n, clickbait_ratio=args.ratio, signal_strengths=sig,
        topic_pool_size=args.topic_pool, n_channels=args.channels, seed=args.seed,
    )
    records = corpus.generate_synthetic(config)
    corpus.write_corpus(records, args.out)
    n_cb = sum(1 for r in records if r.label == corpus.LABEL_CLICKBAIT)
    print(f"wrote {len(records)} records ({n_cb} clickbait) to {args.out} "
          f"(thumbnails under {Path(args.out).parent / 'thumbs'})")
    return 0


def cmd_build_vocab(args) -> int:
    records = corpus.load_jsonl(args.input)
    split = corpus.split_dataset(records, args.seed, args.channel_disjoint)
    train_recs = corpus.select_records(records, split.train)
    vocab = textpipe.build_vocab(
        textpipe.training_texts(train_recs), max_size=args.max_size, min_freq=args.min_freq
    )
    Path(args.out).write_text(vocab.to_text(), encoding="utf-8")
    print(f"built vocabulary of {len(vocab)} tokens from {len(train_recs)} training records")
    return 0


def cmd_train(args) -> int:
    cfg = make_train_config(args)
    records = corpus.load_jsonl(args.input)
    base_dir = Path(args.input).parent
    split = corpus.split_dataset(records, cfg.seed, args.channel_disjoint)
    inits = [load_checkpoint(p) for p in args.init]
    model, report = training.train(records, split, cfg, init=inits or None, base_dir=base_dir)
    save_checkpoint(model, args.out)
    if args.report:
        Path(args.report).write_text(report.to_jsonl(), encoding="utf-8")
    print(f"trained {cfg.regime} model on {len(split.train)} records: "
          f"{report.epochs_run} epochs, stop={report.stop_reason}, "
          f"final loss {report.losses[-1]:.4f}, best val acc {max(report.val_accuracies):.4f} "
          f"(epoch {report.best_epoch}); saved to {args.out}")
    return 0


def _eval_records(args, records):
    if args.split == "all":
        return records
    split = corpus.split_dataset(records, args.seed, args.channel_disjoint)
    return corpus.select_records(records, getattr(split, args.split))


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    records = corpus.load_jsonl(args.input)
    base_dir = Path(args.input).parent
    subset = ModalityMask.from_names(parse_modalities(args.modalities)) if args.modalities else None
    result = metrics.evaluate(model, _eval_records(args, records), subset=subset,
                              base_dir=base_dir)
    cm = result.cm
    print(f"records evaluated: {cm.total()}")
    print(f"confusion matrix: TP={cm.tp} TN={cm.tn} FP={cm.fp} FN={cm.fn}")
    print(f"accuracy: {result.accuracy:.4f}")
    print(f"latency per record: mean {result.mean_latency_s * 1e3:.1f} ms, "
          f"max {result.max_latency_s * 1e3:.1f} ms")
    return 0


def cmd_sweep(args) -> int:
    cfg = make_train_config(args)
    records = corpus.load_jsonl(args.input)
    base_dir = Path(args.input).parent
    split = corpus.split_dataset(records, cfg.seed, args.channel_disjoint)
    if args.combos:
        combos = [parse_modalities(part) for part in args.combos.split(";") if part.strip()]
    else:
        combos = metrics.DEFAULT_COMBINATIONS
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = metrics.sweep_combinations(records, split, cfg, combinations=combos,
                                        out_dir=out_dir, base_dir=base_dir)
    (out_dir / "sweep.csv").write_text(result.to_csv(), encoding="utf-8")
    (out_dir / "sweep.json").write_text(result.to_json(), encoding="utf-8")
    if args.gnuplot:
        (out_dir / "sweep.dat").write_text(result.to_gnuplot(), encoding="utf-8")
    print(result.to_csv(), end="")
    return 0


def _record_from_flags(args) -> corpus.VideoRecord:
    stats = None
    if args.views is not None:
        stats = corpus.StatsFeatures(
            views=args.views, likes=args.likes, dislikes=args.dislikes,
            comment_count=args.comment_count, duration_s=args.duration_s,
        )
    return corpus.VideoRecord(
        id=args.id,
        channel_id=args.channel_id,
        title=args.title,
        tags=args.tags.split(",") if args.tags else None,
        comments=args.comment or None,
        transcript=args.transcript,
        stats=stats,
        thumbnail_path=args.thumbnail,
    ).validate()


def cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    if args.input:
        records = corpus.load_jsonl(args.input)
        base_dir = Path(args.input).parent
    else:
        records = [_record_from_flags(args)]
        base_dir = Path.cwd()
    subset = ModalityMask.from_names(parse_modalities(args.modalities)) if args.modalities else None
    for rec in records:
        pred = model.predict(rec, subset=subset, base_dir=base_dir)
        print(json.dumps(pred.to_json_obj()))
    return 0


def cmd_grad_check(args) -> int:
    failed = False
    for name, report in checks.run_gradient_checks():
        ok = report.passes(args.tol)
        failed = failed or not ok
        print(f"{name}: max_rel_err={report.max_rel_err:.3e} "
              f"(worst {report.worst_param}) [{'PASS' if ok else 'FAIL'}]")
    if failed:
        print(f"gradient check FAILED at tolerance {args.tol:g}", file=sys.stderr)
        return 2
    print(f"all gradient checks passed at tolerance {args.tol:g}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "build-vocab": cmd_build_vocab,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "predict": cmd_predict,
    "grad-check": cmd_grad_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as e:  # -h/--help
        return 0 if not e.code else 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"baitradar {args.command}: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"baitradar {args.command}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
