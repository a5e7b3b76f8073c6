"""Command-line entry point.

Subcommands: gen-data, build-vocab, train, eval, sweep, predict, grad-check.
Exit codes: 0 success, 1 usage error, 2 data/verification error. Config
precedence for training runs: built-in defaults < --config JSON file < flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import checks, corpus, metrics, textpipe, training
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import SignalStrengths, SyntheticConfig
from .encoders import EncoderConfig
from .modalities import MODALITIES, ModalityMask, parse_modalities
from .training import TrainConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _refusal_as(error):
    """Decorate a one-argument parser or builder so that the ValueError it
    raises for a refused value becomes ``error`` with the same message:
    argparse.ArgumentTypeError for a flag's type, _UsageError for a config
    or record built from flags. Commands build those before they touch any
    file, so every refused flag value exits 1."""
    def decorate(fn):
        @functools.wraps(fn)
        def checked(arg):
            try:
                return fn(arg)
            except ValueError as e:  # includes every config's and record's error class
                raise error(str(e)) from None
        return checked
    return decorate


_arg_type = _refusal_as(argparse.ArgumentTypeError)
_built_from_flags = _refusal_as(_UsageError)
_modalities = _arg_type(parse_modalities)


@_arg_type
def _combos(text: str) -> list[tuple[str, ...]]:
    return metrics.normalize_combinations(map(parse_modalities, text.split(";")))


@_arg_type
def _signal(text: str) -> tuple[str, float]:
    name, eq, value = text.partition("=")
    if name not in MODALITIES or not eq:
        raise ValueError(f"expected MODALITY=VALUE with MODALITY in {MODALITIES}, got {text!r}")
    return name, float(value)


@_arg_type
def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # nan fails both comparisons
        raise ValueError(f"must be finite and > 0, got {text}")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_seed = _int_at_least(0)
_vocab_size = _int_at_least(2)  # PAD and UNK
_min_freq = _int_at_least(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="baitradar", description="Multi-modal clickbait video classifier")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", parents=[], help="generate a synthetic corpus")
    g.add_argument("--n", type=int, required=True, help="number of records")
    g.add_argument("--ratio", type=float, default=0.5, help="clickbait fraction")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", required=True, help="output JSONL path")
    g.add_argument("--signals", type=float, default=None,
                   help="uniform signal strength for all modalities")
    g.add_argument("--signal", type=_signal, action="append", default=[], metavar="MODALITY=V",
                   help="per-modality signal strength override (repeatable)")
    g.add_argument("--channels", type=int, default=12)
    g.add_argument("--topic-pool", type=int, default=120)

    v = sub.add_parser("build-vocab", help="build a vocabulary from a corpus training split")
    v.add_argument("--in", dest="input", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--channel-disjoint", action="store_true")
    v.add_argument("--max-size", type=_vocab_size, default=textpipe.DEFAULT_VOCAB_SIZE)
    v.add_argument("--min-freq", type=_min_freq, default=textpipe.DEFAULT_MIN_FREQ)

    def add_train_flags(sp):
        sp.add_argument("--config", help="JSON file with TrainConfig fields")
        sp.add_argument("--regime", choices=training.REGIMES)
        sp.add_argument("--modalities", type=_modalities, help="comma-separated modality subset")
        sp.add_argument("--batch-size", type=int)
        sp.add_argument("--max-epochs", type=int)
        sp.add_argument("--lr", type=float)
        sp.add_argument("--loss-threshold", type=float)
        sp.add_argument("--patience", type=int)
        sp.add_argument("--modality-keep-prob", type=float)
        sp.add_argument("--fusion-dim", type=int)
        sp.add_argument("--vocab-max-size", type=_vocab_size)
        sp.add_argument("--vocab-min-freq", type=_min_freq)
        sp.add_argument("--channel-disjoint", action="store_true")

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--in", dest="input", required=True)
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--seed", type=_seed, help="drives the split, init, and shuffling")
    t.add_argument("--init", action="append", default=[],
                   help="pretrained checkpoint (repeatable; for head_only/finetune)")
    t.add_argument("--report", help="write the per-epoch report as JSON lines")
    add_train_flags(t)

    e = sub.add_parser("eval", help="evaluate a checkpoint on labeled records")
    e.add_argument("--model", required=True)
    e.add_argument("--in", dest="input", required=True)
    e.add_argument("--modalities", type=_modalities, help="evaluation-time modality mask")
    e.add_argument("--split", choices=("all", "train", "validation", "test"), default="all")
    e.add_argument("--seed", type=_seed, default=0, help="split seed when --split is not all")
    e.add_argument("--channel-disjoint", action="store_true")

    s = sub.add_parser("sweep", help="train and rank title-anchored modality combinations")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--seed", type=_seed, required=True,
                   help="mandatory; sweeps must be reproducible")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--combos", type=_combos,
                   help='semicolon-separated sets, e.g. "title;title+tags" (title is required '
                        "in each; the full six-modality set is always added)")
    s.add_argument("--gnuplot", action="store_true", help="also write sweep.dat")
    add_train_flags(s)

    pr = sub.add_parser("predict", help="classify records from a file or flags")
    pr.add_argument("--model", required=True)
    pr.add_argument("--in", dest="input", help="JSONL file of records")
    pr.add_argument("--modalities", type=_modalities, help="restrict the modalities consulted")
    # the record flags describe the one record to classify without --in
    record_flags = [
        pr.add_argument("--id"),
        pr.add_argument("--channel-id"),
        pr.add_argument("--title"),
        pr.add_argument("--tags", type=lambda text: text.split(",") if text else None,
                        help="comma-separated"),
        pr.add_argument("--comment", dest="comments", action="append", metavar="COMMENT",
                        help="repeatable"),
        pr.add_argument("--transcript"),
        pr.add_argument("--thumbnail", help="path to a binary PPM"),
    ]
    # statistics are present when any count is given; counts not given are 0
    record_flags += [pr.add_argument(f"--{name.replace('_', '-')}", type=int)
                     for name in corpus.STATS_FIELDS]
    pr.set_defaults(record_flags={a.dest: a.option_strings[0] for a in record_flags})

    gc = sub.add_parser("grad-check", help="finite-difference check of every layer")
    gc.add_argument("--tol", type=_tolerance, default=checks.DEFAULT_TOLERANCE)

    return p


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------

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


@_built_from_flags
def make_train_config(args) -> TrainConfig:
    """Defaults, overridden by the --config file, overridden by the flags
    that are set; each flag's dest is the name of the field it sets."""
    values = _read_config(args.config) if getattr(args, "config", None) else {}
    encoder = values.pop("encoder", {})
    for part, cls in ((values, TrainConfig), (encoder, EncoderConfig)):
        part.update((f.name, getattr(args, f.name)) for f in fields(cls)
                    if getattr(args, f.name, None) is not None)
    return TrainConfig(**values, encoder=EncoderConfig(**encoder))


@_built_from_flags
def _synthetic_config(args) -> SyntheticConfig:
    strengths = {} if args.signals is None else dict.fromkeys(MODALITIES, args.signals)
    strengths.update(args.signal)
    return SyntheticConfig(
        n_records=args.n, clickbait_ratio=args.ratio,
        signal_strengths=SignalStrengths(**strengths), topic_pool_size=args.topic_pool,
        n_channels=args.channels, seed=args.seed,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    records = corpus.generate_synthetic(_synthetic_config(args))
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
    _built_from_flags(cfg.check_init)(len(args.init))
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
    subset = ModalityMask.from_names(args.modalities) if args.modalities else None
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
    combos = args.combos or metrics.DEFAULT_COMBINATIONS
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


@_built_from_flags
def _record_from_flags(args) -> corpus.VideoRecord:
    """The record the predict flags describe; each flag's dest is the JSON key
    it sets."""
    counts = {k: getattr(args, k) for k in corpus.STATS_FIELDS}
    stats = None
    if any(v is not None for v in counts.values()):
        stats = {k: 0 if v is None else v for k, v in counts.items()}
    record_id = "record0" if args.id is None else args.id
    return corpus.record_from_obj({**vars(args), "id": record_id, "stats": stats})


def cmd_predict(args) -> int:
    given = [flag for dest, flag in args.record_flags.items() if getattr(args, dest) is not None]
    if args.input and given:
        raise _UsageError(f"{given[0]} describes one record and cannot be combined with --in")
    record = None if args.input else _record_from_flags(args)
    model = load_checkpoint(args.model)
    if args.input:
        records, base_dir = corpus.load_jsonl(args.input), Path(args.input).parent
    else:
        records, base_dir = [record], Path.cwd()
    subset = ModalityMask.from_names(args.modalities) if args.modalities else None
    for pred in model.predict_many(records, subset, base_dir):
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
    except (ValueError, OSError, MemoryError) as e:
        print(f"baitradar {args.command}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
